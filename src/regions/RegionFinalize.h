//===----------------------------------------------------------------------===//
///
/// \file
/// Finalization of a freshly inferred region program:
///   * resolves every region annotation (writes, reads, formals, actuals,
///     effects, globals) to canonical region-variable ids;
///   * places `letregion` bindings at the lowest covering node per
///     placement domain (program top level / each function body);
///   * computes per-node overall effects (§4.2);
///   * computes the free-region sets used to restrict abstract region
///     environments in the closure analysis (a function's type plus what
///     the closures created in its body capture).
///
//===----------------------------------------------------------------------===//

#ifndef AFL_REGIONS_REGIONFINALIZE_H
#define AFL_REGIONS_REGIONFINALIZE_H

#include "regions/RegionProgram.h"

#include <unordered_map>

namespace afl {
namespace regions {

/// Runs finalization. \p RegAppSubst maps each region-application node to
/// the instantiation substitution it used. Requires a complete inference
/// pass: the region type table is not modified any more.
void finalizeRegionProgram(
    RegionProgram &Prog,
    const std::unordered_map<RNodeId, RSubst> &RegAppSubst);

} // namespace regions
} // namespace afl

#endif // AFL_REGIONS_REGIONFINALIZE_H
