//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract region environments for the extended closure analysis
/// (paper §3). An abstract region environment R maps the region variables
/// in scope to *colors*; two region variables map to the same color iff
/// they are bound to the same runtime region, so R preserves exact region
/// aliasing. Environments are interned: analyses pass around dense ids.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_CLOSURE_ABSTRACTENV_H
#define AFL_CLOSURE_ABSTRACTENV_H

#include "regions/RegionTypes.h"
#include "support/FlatSet.h"

#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace afl {
namespace closure {

/// A color: an abstract runtime region. Colors are small integers; the
/// minimal unused color is chosen when a letregion introduces a region,
/// bounding the color count by the maximum number of region variables in
/// scope (paper §3).
using Color = uint32_t;

/// Dense id of an interned abstract region environment.
using RegEnvId = uint32_t;

/// One abstract region environment: sorted (region variable → color).
using RegEnvMap = std::vector<std::pair<regions::RegionVarId, Color>>;

/// Interner for abstract region environments. Content-hashed: interning
/// an environment that already exists is a hash lookup, not an ordered
/// tree walk.
class RegEnvTable {
public:
  /// Interns \p Map (must be sorted by region variable, no duplicates).
  RegEnvId intern(RegEnvMap Map);

  const RegEnvMap &get(RegEnvId Id) const { return Envs[Id]; }
  size_t size() const { return Envs.size(); }

  /// The color of \p Var in \p Id. \p Var must be in the environment.
  Color colorOf(RegEnvId Id, regions::RegionVarId Var) const;

  /// True if \p Var is mapped by \p Id.
  bool maps(RegEnvId Id, regions::RegionVarId Var) const;

  /// Maps a set of region variables to the corresponding set of colors
  /// (ascending color order).
  FlatSet<Color> colorsOf(RegEnvId Id, const regions::RegionSet &Vars) const;

  /// Restricts \p Id to the variables in \p Keep (all must be mapped).
  RegEnvId restrict(RegEnvId Id, const regions::RegionSet &Keep);

  /// Extends \p Id with \p Var bound to the minimal color not in the
  /// range of \p Id (the letregion rule of Fig. 3).
  RegEnvId extendFresh(RegEnvId Id, regions::RegionVarId Var);

  /// Extends \p Id with \p Var bound to an explicit \p C (used to bind a
  /// region-polymorphic function's formal to the actual's color).
  RegEnvId extend(RegEnvId Id, regions::RegionVarId Var, Color C);

private:
  std::vector<RegEnvMap> Envs;
  /// Content hash → ids with that hash (usually one).
  std::unordered_map<uint64_t, std::vector<RegEnvId>> Index;
};

/// Context-set widening of one abstract region environment
/// (docs/ANALYSIS_CORE.md). A *color class* is the set of variables in
/// \p Map sharing one color; a class is *invisible* when none of its
/// members is in \p Visible (the consumer's latent-effect regions).
/// When more than \p Bound invisible classes exist, every invisible
/// class is recolored canonically — classes ordered by smallest member
/// variable, assigned the ascending colors not used by any visible
/// class — so environments that agree on the visible colors and on the
/// aliasing partition of the invisible variables collapse to one map.
///
/// Returns true iff the widening fired (\p Map was rewritten, possibly
/// to identical content when it was already canonical). The rewrite is
/// a per-environment color bijection: it preserves the aliasing
/// partition and every visible color, and it is idempotent, so applying
/// it at closure-creation time in any fixpoint mode yields the same
/// interned environment. \p Bound = 0 means the widening is off.
bool widenRegEnvMap(RegEnvMap &Map, const regions::RegionSet &Visible,
                    unsigned Bound);

/// The region variables widenRegEnvMap(\p Map, \p Visible, \p Bound)
/// recolors, ascending; empty when the widening would not fire. Pure —
/// downstream consumers (constraint generation's alignment check)
/// recompute "is this closure widened" from content instead of keeping
/// per-closure flags alive across canonicalization.
std::vector<regions::RegionVarId>
widenedRegEnvVars(const RegEnvMap &Map, const regions::RegionSet &Visible,
                  unsigned Bound);

} // namespace closure
} // namespace afl

#endif // AFL_CLOSURE_ABSTRACTENV_H
