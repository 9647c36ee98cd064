//===----------------------------------------------------------------------===//
///
/// \file
/// Constraint generation (paper §4.2, Fig. 4). For every (expression,
/// abstract region environment) context discovered by the closure
/// analysis, state vectors describe the region states at the context's in
/// and out program points, linked through:
///
///   * a pre-chain of potential `alloc_before` points (one allocation
///     triple per region in the node's overall effect);
///   * the node's own semantics: allocation constraints where it reads or
///     writes regions, and equality links to its children's vectors;
///   * at applications, a `free_app` choice point on the closure's region
///     between argument evaluation and the callee body, plus caller/callee
///     equality constraints over the call's effect colors (set B) — other
///     caller regions (set C) pass through state-polymorphically;
///   * a post-chain of potential `free_after` points.
///
/// Boolean variables are shared across contexts generated from the same
/// syntactic point, so the extracted completion is valid in all contexts.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_CONSTRAINTS_CONSTRAINTGEN_H
#define AFL_CONSTRAINTS_CONSTRAINTGEN_H

#include "closure/ClosureAnalysis.h"
#include "constraints/ConstraintSystem.h"
#include "regions/Completion.h"
#include "regions/RegionProgram.h"

namespace afl {
namespace constraints {

/// A potential completion operation and its boolean variable.
struct ChoicePoint {
  regions::RNodeId Node = 0;
  regions::COpKind Kind = regions::COpKind::AllocBefore;
  regions::RegionVarId Region = 0;
  BoolVarId B = 0;
};

/// Ablation switches for the §4.2 choice-point pre-pass. Defaults
/// reproduce the paper; disabling individual choices quantifies how much
/// each contributes (bench_ablation).
struct GenOptions {
  /// Generate free_app choice points at applications (§1).
  bool FreeApp = true;
  /// Generate alloc_before choice points at *every* node. When false,
  /// allocation can only happen where a region is introduced (its
  /// letregion node / program entry) — the lexical discipline.
  bool LateAlloc = true;
  /// Generate free_after choice points at *every* node. When false,
  /// deallocation can only happen at the introducing letregion node.
  bool EarlyFree = true;
};

/// Counters for the sharded-emission side of generation: the shape
/// interner and the union-find finalized into component shards.
struct ShardingStats {
  /// Connected components of the emitted system (finalized shards).
  size_t Shards = 0;
  /// Constraint count of the largest shard.
  size_t LargestShardConstraints = 0;
  /// Distinct state-vector shapes interned across all contexts.
  size_t InternedShapes = 0;
  /// Wall time to finalize the union-find into CSR shard tables.
  double FinalizeSeconds = 0.0;
};

/// Generated system plus the choice-point index used to extract the
/// completion from a solution.
struct GenResult {
  ConstraintSystem Sys;
  std::vector<ChoicePoint> Choices;
  /// Number of (node, environment) contexts constrained.
  size_t NumContexts = 0;
  /// Number of application edges where caller/callee effect colors did not
  /// align (handled by conservative pinning; see DESIGN.md limitations).
  size_t NumPinnedCalls = 0;
  /// Subset of NumPinnedCalls pinned because a shared free region sits in
  /// the callee's widened (canonically recolored) environment classes —
  /// its color no longer certifies caller/callee agreement, so the edge
  /// takes the conservative path. The widening precision harness reads
  /// this as the constraint-level cost of the merge
  /// (docs/ANALYSIS_CORE.md, widening soundness).
  size_t NumWidenedPinned = 0;
  /// Sharded-emission counters (shards are finalized eagerly by
  /// generateConstraints so the solver never pays component discovery).
  ShardingStats Sharding;
};

/// Generates the constraint system for \p Prog using \p CA's results.
GenResult generateConstraints(const regions::RegionProgram &Prog,
                              closure::ClosureAnalysis &CA,
                              const GenOptions &Options = GenOptions());

} // namespace constraints
} // namespace afl

#endif // AFL_CONSTRAINTS_CONSTRAINTGEN_H
