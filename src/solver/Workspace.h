//===----------------------------------------------------------------------===//
///
/// \file
/// The solver's per-call workspace (internal to src/solver/). One
/// `solve()` / `solveCached()` call owns one Workspace and reuses it for
/// every shard group it simplifies and solves: the flat arrays keep their
/// capacity from group to group, so a call allocates only while its
/// groups still grow.
///
/// A group is loaded in group-local ids: the member shards' variables
/// numbered by rank, member by member (`LocalState` / `LocalBool`, built
/// once per call). `simplifyGroup` collapses and propagates the
/// group's constraints into the residual arrays below; the core
/// engine in Solver.cpp then solves whatever is loaded — the residual,
/// or the raw system for the `--no-simplify` oracle — over byte-lane
/// domains and CSR occurrence lists.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_SOLVER_WORKSPACE_H
#define AFL_SOLVER_WORKSPACE_H

#include "constraints/ConstraintSystem.h"
#include "solver/Simplify.h"

#include <cstdint>
#include <vector>

namespace afl {
namespace solver {

struct Workspace {
  /// Global variable id -> group-local id, for every sharded variable.
  std::vector<uint32_t> LocalState, LocalBool;

  /// The loaded residual: triples over representative ids, and one byte
  /// lane per representative / group-local boolean. `StateRep` maps each
  /// group-local state to its representative.
  std::vector<constraints::Constraint> Cons;
  std::vector<uint8_t> SD, BD;
  std::vector<uint32_t> StateRep;

  /// Core engine scratch (Solver.cpp). simplifyGroup borrows the
  /// worklist, its flags and the boolean occurrence lists (over its
  /// collected triples) before the engine rebuilds them for the residual.
  std::vector<uint32_t> SOccStart, SOccData, BOccStart, BOccData;
  std::vector<uint8_t> InQueue, InAllocCand, InDeallocCand;
  std::vector<uint32_t> Queue, AllocCand, DeallocCand;
  struct TrailEntry {
    bool IsBool;
    uint32_t Id;
    uint8_t Old;
  };
  struct Decision {
    uint32_t B;
    size_t TrailSize;
    uint8_t FirstTry; // BTrue or BFalse
    bool Flipped;
  };
  std::vector<TrailEntry> Trail;
  std::vector<Decision> Decisions;

  /// Simplification scratch (Simplify.cpp). A union-find class keeps
  /// its incident triples as a linked list over the `Nodes` pool.
  struct ClassList {
    uint32_t Head, Tail, Count;
  };
  struct Node {
    uint32_t Triple, Next;
  };
  std::vector<constraints::Constraint> Triples;
  std::vector<uint8_t> Dom, Alive;
  std::vector<uint32_t> Parent;
  std::vector<ClassList> Lists;
  std::vector<Node> Nodes;
  std::vector<uint32_t> MemberTriples;
};

/// Simplifies the contiguous shard group [\p KBegin, \p KEnd) of \p Sys
/// into \p W's residual (`Cons`, `SD`, `BD`, `StateRep`), treating the
/// group as one disjoint union: because shards share no variables, the
/// result is the exact concatenation of the members' individual
/// simplifications. Writes the group's statistics to \p Stats (partial
/// counts on conflict, like the pass that found it) and returns false
/// when preprocessing proves the group unsatisfiable. Requires
/// `W.LocalState` / `W.LocalBool` numbered for this grouping.
bool simplifyGroup(const constraints::ConstraintSystem &Sys, uint32_t KBegin,
                   uint32_t KEnd, Workspace &W, SimplifyStats &Stats);

} // namespace solver
} // namespace afl

#endif // AFL_SOLVER_WORKSPACE_H
