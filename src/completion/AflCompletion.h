//===----------------------------------------------------------------------===//
///
/// \file
/// The A-F-L completion: runs the extended closure analysis, generates
/// the §4 constraint system, solves it with the late-alloc/early-free
/// choice strategy, and extracts the completion operations: the one
/// driver of the analysis half, for the pipeline and the server alike.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_COMPLETION_AFLCOMPLETION_H
#define AFL_COMPLETION_AFLCOMPLETION_H

#include "closure/ClosureAnalysis.h"
#include "constraints/ConstraintGen.h"
#include "regions/Completion.h"
#include "regions/RegionProgram.h"
#include "solver/Solver.h"

#include <cstdint>
#include <string>

namespace afl {
namespace completion {

/// Analysis telemetry for benchmarking and the paper's complexity claims.
struct AflStats {
  /// Full fixpoint telemetry (mode, work counters, table sizes).
  closure::ClosureStats Closure;
  size_t NumContexts = 0;
  size_t NumStateVars = 0;
  size_t NumBoolVars = 0;
  size_t NumConstraints = 0;
  size_t NumPinnedCalls = 0;
  /// Calls pinned specifically because the shared region was widened
  /// (subset of NumPinnedCalls; 0 when widening is off).
  size_t NumWidenedPinned = 0;
  uint64_t SolverPropagations = 0;
  uint64_t SolverChoices = 0;
  uint64_t SolverBacktracks = 0;
  /// Constraint-graph preprocessing statistics (zeros when the solve ran
  /// with simplification disabled).
  solver::SimplifyStats SolverSimplify;
  /// Sharded-emission counters from constraint generation (the shape
  /// interner and the emission-time union-find finalized into shards).
  constraints::ShardingStats Sharding;
  /// Wall-clock seconds per analysis sub-stage (see docs/OBSERVABILITY.md).
  double ClosureSeconds = 0;
  double ConstraintGenSeconds = 0;
  double SolveSeconds = 0;
  double ExtractSeconds = 0;
  /// True if the solver found a solution; false means the conservative
  /// completion was returned as a fallback (should not happen in
  /// practice — the conservative completion witnesses satisfiability).
  bool Solved = false;
};

/// Extracts the completion operations chosen by a satisfiable solution:
/// every true choice boolean becomes an op at its node, sorted in
/// ascending region order per point (the sequentialization order used by
/// constraint generation). aflCompletion uses it; perfbench's traced
/// replay calls it directly.
regions::Completion extractCompletion(const constraints::GenResult &Gen,
                                      const solver::SolveResult &Sol);

/// Computes the A-F-L completion for \p Prog. On solver failure — or if
/// the closure analysis fails to stabilize within its configured caps —
/// returns the conservative completion (and reports Solved = false).
/// \p Options selects ablated variants (see constraints::GenOptions);
/// \p Solve configures the solver's preprocessing layer (see
/// solver::SolveOptions); \p ClosureOpts selects the closure fixpoint
/// mode and caps (see closure::ClosureOptions). \p Stats is reset on
/// entry. A \p Cache (the server's, per document) routes the solve
/// through solver::solveCached, with the same domains; \p Sol receives
/// the solve result, empty when the closure analysis did not converge.
regions::Completion
aflCompletion(const regions::RegionProgram &Prog, AflStats *Stats = nullptr,
              const constraints::GenOptions &Options =
                  constraints::GenOptions(),
              const solver::SolveOptions &Solve = solver::SolveOptions(),
              const closure::ClosureOptions &ClosureOpts =
                  closure::ClosureOptions(),
              solver::ShardSolutionCache *Cache = nullptr,
              solver::SolveResult *Sol = nullptr);

} // namespace completion
} // namespace afl

#endif // AFL_COMPLETION_AFLCOMPLETION_H
