//===----------------------------------------------------------------------===//
///
/// \file
/// Solver preprocessing (constraint-graph simplification). The §4.3
/// solver treats every `Eq` constraint as a live arc that must be
/// re-propagated whenever either endpoint changes. Following the
/// inclusion-constraint simplification line of work (see PAPERS.md),
/// the production solve shrinks each shard group *before* solving it:
///
///   1. **Equality collapse** — union-find over the state variables
///      merges every `Eq`-connected class into one representative whose
///      initial domain is the intersection of the members' domains.
///      `Eq` constraints disappear from the solve entirely; an empty
///      intersection is an early conflict (unsatisfiable).
///   2. **Arc-consistent fixpoint** — every triple applies the full
///      §4.3 rule over the class domains. A triple whose boolean is
///      determined (initially, or by the domains) is applied and
///      dropped: `b = false` turns the triple into an equality (fed back
///      into the union-find, so collapses cascade); `b = true` restricts
///      the endpoint domains to the transition states. A triple whose
///      endpoints share a representative forces `b = false` (the U→A /
///      A→D transition cannot happen on one variable). An undetermined
///      triple prunes each endpoint to the union of its two scenarios.
///
/// The residual is written straight into the solver's workspace
/// (src/solver/Workspace.h) and solved there, starting at its first
/// choice: the fixpoint above is the one the engine's own propagation
/// would reach. This header only carries the statistics callers see.
///
/// The **representative-mapping invariant**: at any propagation fixpoint
/// of the raw solver, all `Eq`-connected variables hold identical
/// domains, so mapping the representative's solved domain back over the
/// class reproduces the raw solver's answer (docs/SOLVER.md).
///
//===----------------------------------------------------------------------===//

#ifndef AFL_SOLVER_SIMPLIFY_H
#define AFL_SOLVER_SIMPLIFY_H

#include <cstddef>

namespace afl {
namespace solver {

/// Preprocessing statistics; flows into SolveResult / AflStats /
/// PipelineStats and the `--metrics` JSON (docs/OBSERVABILITY.md).
struct SimplifyStats {
  size_t StateVarsBefore = 0;
  size_t StateVarsAfter = 0;
  size_t ConstraintsBefore = 0;
  size_t ConstraintsAfter = 0;
  /// `Eq` constraints removed by the union-find collapse (all of them).
  size_t EqRemoved = 0;
  /// Triples dropped because their boolean was forced.
  size_t ForcedTriplesRemoved = 0;
  /// Boolean variables fixed during preprocessing.
  size_t BoolsForced = 0;
  /// Connected components (emission shards) of the system.
  size_t Components = 0;
  /// Residual constraint count of the largest component.
  size_t LargestComponent = 0;
  /// Wall-clock seconds spent simplifying (solving excluded).
  double SimplifySeconds = 0;

  /// Pointwise sum (batch aggregation); LargestComponent takes the max.
  void accumulate(const SimplifyStats &Other);
};

} // namespace solver
} // namespace afl

#endif // AFL_SOLVER_SIMPLIFY_H
