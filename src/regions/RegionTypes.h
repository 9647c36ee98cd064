//===----------------------------------------------------------------------===//
///
/// \file
/// Region-annotated types and effects for Tofte/Talpin region inference.
///
/// A region type μ = (τ̂, ρ) pairs a type shape with the region variable ρ
/// where values of that type live. Arrows carry an *arrow effect* ε.φ: an
/// effect variable ε naming the latent effect plus the set φ of region
/// variables (and other effect variables) the function may read or write
/// when applied (paper §2).
///
/// Region variables and effect variables unify via union-find; effect sets
/// attached to effect-variable representatives grow monotonically under
/// unification. "Canonical" ids (find results) serve as the region-variable
/// *names* in the final region-explicit IR.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_REGIONS_REGIONTYPES_H
#define AFL_REGIONS_REGIONTYPES_H

#include "support/FlatSet.h"
#include "types/Type.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace afl {
namespace regions {

/// A region variable ρ. Ids are indices into RTypeTable's region table;
/// use RTypeTable::findRegion to canonicalize.
using RegionVarId = uint32_t;

/// An effect variable ε.
using EffectVarId = uint32_t;

/// A region type node μ.
using RTypeId = uint32_t;

/// Shape of a region type (mirrors types::TypeKind minus Var: region
/// decoration happens on ground ML types).
enum class RTypeKind : uint8_t { Int, Bool, Unit, Arrow, Pair, List };

/// A set of region variables, ascending. Every region set of the region
/// layer and of the analyses that read its annotations uses this
/// representation; ascending iteration keeps printed output ordered.
using RegionSet = FlatSet<RegionVarId>;

/// A set of effect variables, ascending.
using EffectVarSet = FlatSet<EffectVarId>;

/// An effect: sets of region variables and effect variables. Stored on
/// effect-variable representatives and on expression nodes.
struct EffectSet {
  RegionSet Regions;
  EffectVarSet EffectVars;

  bool empty() const { return Regions.empty() && EffectVars.empty(); }

  /// Set-unions \p Other into this; returns true if anything was added.
  bool unionWith(const EffectSet &Other);
};

/// Substitution used when instantiating a region-polymorphic type scheme.
struct RSubst {
  std::vector<std::pair<RegionVarId, RegionVarId>> Regions;
  std::vector<std::pair<EffectVarId, EffectVarId>> Effects;

  /// Returns the image of \p R, or \p R itself if unmapped.
  RegionVarId lookupRegion(RegionVarId R) const;
  /// Returns the image of \p E, or \p E itself if unmapped.
  EffectVarId lookupEffect(EffectVarId E) const;
};

/// Table of region types, region variables, and effect variables.
class RTypeTable {
public:
  //===------------------------------------------------------------------===//
  // Region variables
  //===------------------------------------------------------------------===//

  RegionVarId freshRegion();
  /// Canonical representative of \p R.
  RegionVarId findRegion(RegionVarId R) const;
  /// Unifies two region variables.
  void unifyRegions(RegionVarId A, RegionVarId B);
  uint32_t numRegionVars() const {
    return static_cast<uint32_t>(RegionParents.size());
  }

  //===------------------------------------------------------------------===//
  // Effect variables
  //===------------------------------------------------------------------===//

  EffectVarId freshEffectVar();
  EffectVarId findEffectVar(EffectVarId E) const;
  /// Unifies two effect variables; their sets are unioned.
  void unifyEffectVars(EffectVarId A, EffectVarId B);
  /// Adds \p Effects to ε's latent set; returns true if it grew.
  bool addToEffectVar(EffectVarId E, const EffectSet &Effects);
  /// The latent set stored at ε's representative (not transitively closed).
  const EffectSet &latentOf(EffectVarId E) const;
  uint32_t numEffectVars() const {
    return static_cast<uint32_t>(EffectParents.size());
  }

  //===------------------------------------------------------------------===//
  // Region types
  //===------------------------------------------------------------------===//

  RTypeId mkInt(RegionVarId R) { return make(RTypeKind::Int, R); }
  RTypeId mkBool(RegionVarId R) { return make(RTypeKind::Bool, R); }
  RTypeId mkUnit(RegionVarId R) { return make(RTypeKind::Unit, R); }
  RTypeId mkArrow(RTypeId Param, EffectVarId Eps, RTypeId Result,
                  RegionVarId R) {
    RTypeId Id = make(RTypeKind::Arrow, R, Param, Result);
    Nodes[Id].Eps = Eps;
    return Id;
  }
  RTypeId mkPair(RTypeId First, RTypeId Second, RegionVarId R) {
    return make(RTypeKind::Pair, R, First, Second);
  }
  RTypeId mkList(RTypeId Elem, RegionVarId R) {
    return make(RTypeKind::List, R, Elem);
  }

  uint32_t numTypes() const { return static_cast<uint32_t>(Nodes.size()); }
  RTypeKind kind(RTypeId T) const { return Nodes[T].Kind; }
  /// The (canonical) region of μ.
  RegionVarId regionOf(RTypeId T) const { return findRegion(Nodes[T].Region); }
  RTypeId child0(RTypeId T) const { return Nodes[T].Child0; }
  RTypeId child1(RTypeId T) const { return Nodes[T].Child1; }
  /// The (canonical) arrow-effect variable of an Arrow node.
  EffectVarId arrowEffect(RTypeId T) const {
    assert(Nodes[T].Kind == RTypeKind::Arrow);
    return findEffectVar(Nodes[T].Eps);
  }

  /// Decorates ground ML type \p T with entirely fresh region/effect
  /// variables (arrow latent sets start empty).
  RTypeId freshFromType(const types::TypeTable &Types, types::TypeId T);

  /// Unifies μ \p A and μ \p B. Shapes must match (both decorate the same
  /// ML type); asserts otherwise.
  void unify(RTypeId A, RTypeId B);

  /// Deep-copies \p T applying \p Subst to quantified region/effect
  /// variables. Latent effect sets of copied arrows are substituted too.
  /// Unmapped variables are shared, not copied.
  RTypeId instantiate(RTypeId T, const RSubst &Subst);

  /// Adds the canonical free region variables of μ \p T to \p Out,
  /// including regions reachable through arrow latent effects
  /// (transitively through effect variables).
  void freeRegionVars(RTypeId T, RegionSet &Out) const;

  /// Adds the canonical effect variables reachable from μ \p T to \p Out.
  void freeEffectVars(RTypeId T, EffectVarSet &Out) const;

  /// Expands \p E to its full set of canonical region variables, chasing
  /// effect variables transitively.
  RegionSet regionsOf(const EffectSet &E) const;

  /// The canonical regions the latent effect of ε \p E may touch:
  /// regionsOf of the effect {ε}.
  RegionSet latentRegions(EffectVarId E) const;

  /// Renders μ for debugging, e.g. "(int@r1 -e3{r1}-> int@r2)@r0".
  std::string str(RTypeId T) const;

private:
  struct Node {
    RTypeKind Kind;
    RegionVarId Region = 0;
    RTypeId Child0 = 0;
    RTypeId Child1 = 0;
    EffectVarId Eps = 0;
  };

  RTypeId make(RTypeKind Kind, RegionVarId R, RTypeId Child0 = 0,
               RTypeId Child1 = 0) {
    RTypeId Id = static_cast<RTypeId>(Nodes.size());
    Nodes.push_back({Kind, R, Child0, Child1, 0});
    return Id;
  }

  void strAppend(RTypeId T, std::string &Out) const;

  /// Appends the canonical regions of μ \p T (with duplicates) to \p Out,
  /// expanding each arrow effect not yet in \p Expanded.
  void collectRegions(RTypeId T, std::vector<RegionVarId> &Out,
                      EffectVarSet &Expanded) const;
  /// Appends the canonical regions in the latent sets of every effect
  /// variable reachable from \p E (with duplicates) to \p Out, skipping
  /// and recording variables in \p Expanded.
  void collectLatent(EffectVarId E, std::vector<RegionVarId> &Out,
                     EffectVarSet &Expanded) const;

  std::vector<Node> Nodes;
  // Union-find parents. Mutable to allow path compression in const finds.
  mutable std::vector<RegionVarId> RegionParents;
  mutable std::vector<EffectVarId> EffectParents;
  std::vector<EffectSet> EffectSets; // indexed by effect var id (rep only)
};

} // namespace regions
} // namespace afl

#endif // AFL_REGIONS_REGIONTYPES_H
