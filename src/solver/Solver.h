//===----------------------------------------------------------------------===//
///
/// \file
/// Constraint resolution (paper §4.3). The solver alternates between
/// proving facts (arc-consistency propagation over the {U,A,D} and
/// boolean domains) and making choices at *border* points:
///
///   * an allocation triple whose post-state is forced A while its
///     pre-state is still free → choose to allocate here (this is the
///     latest possible allocation point; U then propagates backwards);
///   * a deallocation triple whose pre-state is forced A while its
///     post-state is still free → choose to free here (earliest possible
///     free; D propagates forwards).
///
/// Choices are tentative: each is trailed, and a choice whose propagation
/// conflicts is reverted and pinned to false (chronological backtracking).
/// Remaining undetermined booleans default to false (no operation). The
/// conservative completion is a witness that the system is satisfiable.
///
/// The production solve runs shard by shard: the input's emission-time
/// shards (its connected components, finalized by the generator's
/// union-find) are grouped into runs of about 8k constraints, and each
/// group is simplified (src/solver/Simplify.h: equalities collapsed by
/// union-find, propagated to the arc-consistent fixpoint, forced
/// triples eliminated) straight into a per-call workspace and solved
/// there over byte-lane domains, from its first choice on.
/// The solution is then mapped back to the original variable space, so
/// callers observe exactly the domains the raw §4.3 engine produces on
/// the unsimplified system — the oracle (`--no-simplify`), which runs
/// on the same core (docs/SOLVER.md).
///
//===----------------------------------------------------------------------===//

#ifndef AFL_SOLVER_SOLVER_H
#define AFL_SOLVER_SOLVER_H

#include "constraints/ConstraintSystem.h"
#include "solver/Simplify.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace afl {
namespace solver {

/// The one switch: the production path, or the raw oracle (`aflc
/// --no-simplify`). Both produce bit-identical domains.
struct SolveOptions {
  /// Simplify and solve shard group by shard group. When false, the
  /// raw §4.3 engine solves the unsimplified system as one.
  bool Simplify = true;
};

struct SolveResult {
  bool Sat = false;
  /// Final domains (singletons for booleans when Sat), indexed by the
  /// *original* variable ids regardless of preprocessing: one byte per
  /// variable, like the input system's domains.
  std::vector<uint8_t> StateDom;
  std::vector<uint8_t> BoolDom;
  /// Statistics.
  uint64_t Propagations = 0;
  uint64_t Choices = 0;
  uint64_t Backtracks = 0;
  /// Preprocessing statistics (zeros when simplification is off).
  SimplifyStats Simplify;
  /// Wall-clock time spent inside solve(), in seconds.
  double Seconds = 0;

  bool boolValue(constraints::BoolVarId B) const {
    return BoolDom[B] == constraints::BTrue;
  }
};

/// Solves \p Sys. The input system is not modified.
SolveResult solve(const constraints::ConstraintSystem &Sys,
                  const SolveOptions &Options = SolveOptions());

/// Certifies a satisfiable result against the original, unsimplified
/// \p Sys in one linear pass, trusting nothing the solver computed
/// beyond \p R's domains. Requires every boolean to be a singleton
/// inside its initial domain, every state domain to be non-empty and
/// inside its initial domain, the endpoints of each `Eq` or false
/// triple to have equal domains, and each true triple's endpoints to
/// lie inside its transition states (U then A for allocation, A then D
/// for deallocation). With the booleans fixed, that certifies a
/// concrete assignment: give every state variable, say, the least state
/// of its domain. Returns the first violation, or "" when certified.
std::string checkSolution(const constraints::ConstraintSystem &Sys,
                          const SolveResult &R);

/// Content-keyed cache of per-shard solutions, owned by long-lived
/// callers (one per open document in the analysis server). A shard's key
/// is the byte string of its shard-local constraint encoding plus the
/// initial domains of its member variables, so any shard whose emitted
/// content is unchanged across a re-analysis — regardless of how global
/// variable ids shifted — replays its solved domains without touching
/// the simplifier or the solver. Entries record unsatisfiable shards
/// too.
///
/// The cache holds one generation: when a solveCached call returns, it
/// keeps exactly the entries that call used (a hit, or a fresh solve it
/// inserted), so a document holds memory in proportion to its latest
/// solved revision, not its edit history. An edit back to an older text
/// re-solves the shards the last revision did not use; on the
/// serve-edits benchmark that lowers the shard reuse ratio from 0.863
/// to 0.860 (docs/SOLVER.md).
struct ShardSolutionCache {
  struct Entry {
    bool Sat = false;
    /// Solved domains in shard-local order (the order of
    /// ConstraintSystem::shardStates / shardBools).
    std::vector<uint8_t> StateDom;
    std::vector<uint8_t> BoolDom;
    /// The solveCached call (a value of Calls) that last used the entry.
    uint64_t LastUse = 0;
  };
  std::unordered_map<std::string, Entry> Entries;
  /// Cumulative counters (the server reports per-request deltas).
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  /// solveCached calls made on the sharded path so far.
  uint64_t Calls = 0;

  /// Key plus stored-domain bytes over every entry.
  size_t bytes() const;
};

/// Like solve(), but each shard is first looked up in \p Cache and only
/// cache misses are simplified and solved (on one workspace, like the
/// groups of solve(); new solutions are inserted). On return \p Cache
/// holds only the entries this call used. Produces
/// bit-identical domains to solve(): shards share no variables, so
/// per-shard resolution is the exact concatenation of the grouped path
/// (docs/SOLVER.md). Work counters (propagations, simplify stats) cover
/// only the shards actually solved. Falls back to plain solve(), leaving
/// \p Cache untouched, when Options disable Simplify (the cache is keyed
/// on shard content, which only exists on the sharded path).
SolveResult solveCached(const constraints::ConstraintSystem &Sys,
                        const SolveOptions &Options,
                        ShardSolutionCache &Cache);

} // namespace solver
} // namespace afl

#endif // AFL_SOLVER_SOLVER_H
