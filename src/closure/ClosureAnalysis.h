//===----------------------------------------------------------------------===//
///
/// \file
/// Extended closure analysis (paper §3, Fig. 3): for every expression and
/// abstract region environment, the set of abstract closures the
/// expression may evaluate to. An abstract closure pairs a function node
/// (an ordinary lambda, or a letrec function partially applied to region
/// actuals) with the abstract region environment captured at its creation.
///
/// Region aliasing is explicit: abstract environments map region variables
/// to colors, and a region-polymorphic function called with aliased
/// actuals yields an environment mapping two formals to one color.
///
/// The analysis state is dense and ID-indexed (docs/ANALYSIS_CORE.md):
/// every discovered (node, environment) context gets a dense CtxId, value
/// sets are hash-consed FlatSets referenced by SetId, and the fixpoint is
/// a dependency-tracked worklist — when a context's value set grows, only
/// its recorded dependents are re-evaluated. The seed's whole-program
/// restart fixpoint is retained as a reference mode
/// (ClosureOptions::UseWorklist = false); tests/ClosureDifferentialTest
/// proves both modes produce byte-identical downstream systems.
///
/// Deviations from the paper (documented in DESIGN.md):
///  * Variable value sets are keyed by (unique) binder rather than by
///    (binder, restricted environment). This merges calling contexts — a
///    sound over-approximation that can only add constraints downstream.
///  * Closures stored in pairs/lists are tracked through a global escape
///    pool; projections whose static type is an arrow read the pool.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_CLOSURE_CLOSUREANALYSIS_H
#define AFL_CLOSURE_CLOSUREANALYSIS_H

#include "closure/AbstractEnv.h"
#include "regions/RegionProgram.h"
#include "support/FlatSet.h"
#include "support/SetInterner.h"

#include <string>
#include <unordered_map>

namespace afl {
namespace closure {

/// Dense id of an interned abstract closure.
using AbsClosureId = uint32_t;

/// An abstract closure: a function node plus the abstract region
/// environment under which its body will run. \c Fun is an RLambdaExpr or
/// an RLetrecExpr (whose formals are already bound to colors in \c Env).
struct AbsClosure {
  const regions::RExpr *Fun = nullptr;
  RegEnvId Env = 0;
};

/// Fixpoint configuration.
struct ClosureOptions {
  /// Dependency-tracked worklist (production) vs. the whole-program
  /// restart fixpoint (reference mode; the seed algorithm).
  bool UseWorklist = true;
  /// Restart mode: maximum stabilization passes before the analysis
  /// reports failure instead of spinning.
  unsigned MaxPasses = 1000;
  /// Worklist mode: maximum contexts processed before reporting failure.
  /// 0 derives the cap as MaxPasses * number of IR nodes.
  size_t MaxSteps = 0;
  /// Context-set widening bound K (docs/ANALYSIS_CORE.md): when a
  /// closure environment carries more than K color classes invisible to
  /// the consumer (no member region variable in the closure's latent
  /// effect), those classes are canonically recolored at closure
  /// creation, merging environments that agree on the visible colors
  /// and the invisible aliasing partition. 0 = off (exact analysis).
  /// `aflc --closure-widen[=K]`.
  unsigned Widening = 0;

  /// The worklist's stabilization cap: MaxSteps when set, otherwise
  /// MaxPasses * max(NumNodes, 1), saturating instead of overflowing.
  /// The restart fixpoint is capped by MaxPasses alone.
  size_t stepCap(size_t NumNodes) const;
};

/// Work counters for the fixpoint, reported through AflStats →
/// PipelineStats → `aflc --metrics` (docs/OBSERVABILITY.md).
struct ClosureStats {
  bool Converged = false;
  bool UsedWorklist = true;
  /// Restart mode: stabilization passes. Worklist mode: 1 on convergence
  /// (a single change-driven propagation).
  unsigned Passes = 0;
  /// Contexts evaluated (worklist pops; restart: context evaluations
  /// summed over all passes).
  size_t ProcessedContexts = 0;
  /// Worklist insertions (0 in restart mode).
  size_t Enqueued = 0;
  size_t NumContexts = 0;
  size_t NumClosures = 0;
  size_t NumEnvs = 0;
  /// Distinct hash-consed value sets (including the empty set).
  size_t InternedSets = 0;

  // Widening counters (all 0 when ClosureOptions::Widening == 0).
  /// The bound K the analysis ran with.
  unsigned WideningBound = 0;
  /// Closures whose environment the widening recolored. Computed
  /// post-fixpoint as a pure function of the final tables, so the value
  /// is identical across both fixpoint modes (a live counter would
  /// depend on evaluation order).
  size_t WidenedClosures = 0;
  /// Environment entries (region variables) recolored across those.
  size_t WidenedVars = 0;
};

/// Runs the analysis over a finalized region program and exposes the
/// results to constraint generation.
class ClosureAnalysis {
public:
  explicit ClosureAnalysis(const regions::RegionProgram &Prog,
                           ClosureOptions Options = ClosureOptions());

  /// Iterates to a fixpoint. Returns true on convergence; false when the
  /// stabilization cap was hit (error() explains, results must not be
  /// used — they are an unsound snapshot).
  bool run();

  bool converged() const { return Stats.Converged; }
  /// Non-empty iff run() returned false.
  const std::string &error() const { return Error; }
  const ClosureStats &stats() const { return Stats; }

  RegEnvTable &envs() { return Envs; }
  const RegEnvTable &envs() const { return Envs; }

  /// The abstract environment of the program's top level (globals mapped
  /// to distinct colors 0..n-1).
  RegEnvId rootEnv() const { return RootEnv; }

  /// The context environment for evaluating \p N when reached under
  /// \p Incoming: \p Incoming extended with N's letregion bindings (each
  /// given the minimal free color). Memoized per (node, incoming).
  RegEnvId contextEnv(const regions::RExpr *N, RegEnvId Incoming);

  const AbsClosure &closure(AbsClosureId Id) const { return Closures[Id]; }

  /// All context environments under which \p N was analyzed (ascending
  /// RegEnvId order).
  const FlatSet<RegEnvId> &contextsOf(regions::RNodeId N) const {
    return NodeEnvs[N];
  }

  /// Abstract value of \p N under context environment \p Env: ascending
  /// AbsClosureId order, empty for unregistered contexts (a genuinely
  /// empty interned set — no static escape hatch).
  const FlatSet<AbsClosureId> &valuesOf(regions::RNodeId N,
                                        RegEnvId Env) const;

  /// Dense index of the registered context (N, Env), or NoCtx. Contexts
  /// are numbered 0..numCtxIds()-1 in discovery order; constraint
  /// generation uses them to key its per-context tables without maps.
  static constexpr uint32_t NoCtx = ~0u;
  uint32_t ctxIndex(regions::RNodeId N, RegEnvId Env) const;
  uint32_t numCtxIds() const { return static_cast<uint32_t>(Ctxs.size()); }

  /// For a closure: its body node and the parameter variable.
  const regions::RExpr *bodyOf(const AbsClosure &C) const;
  regions::VarId paramOf(const AbsClosure &C) const;

  /// Latent-effect region variables of the closure's arrow type (in the
  /// closure's own frame: formal names for letrec closures).
  regions::RegionSet latentOf(const AbsClosure &C) const;

  /// True iff the widening recolored \p C's environment. Recomputed from
  /// (function, environment, bound) — widened-ness is content, not
  /// per-closure state, so it survives canonicalization for free. Always
  /// false when Widening == 0.
  bool isWidened(const AbsClosure &C) const;
  /// The recolored (invisible-class) region variables of \p C's
  /// environment, ascending; empty when the widening did not fire.
  /// Constraint generation treats these as unaligned across call
  /// boundaries (docs/ANALYSIS_CORE.md, widening soundness).
  std::vector<regions::RegionVarId> widenedVars(const AbsClosure &C) const;

  size_t numContexts() const { return Ctxs.size(); }
  size_t numClosures() const { return Closures.size(); }

private:
  using SetId = SetInterner<AbsClosureId>::SetId;
  static constexpr SetId EmptySet = SetInterner<AbsClosureId>::Empty;

  AbsClosureId internClosure(const regions::RExpr *Fun, RegEnvId Env);
  /// The closure a Lambda / RegApp node denotes under context env \p Env
  /// (memoized: the mapping is immutable).
  AbsClosureId closureAt(const regions::RExpr *N, RegEnvId Env);
  /// Applies the context-set widening to a freshly built closure
  /// environment for consumer \p Fun; identity when Widening == 0 or
  /// the invisible-class count is within the bound.
  RegEnvId widenClosureEnv(const regions::RExpr *Fun, RegEnvId Env);
  /// Post-fixpoint: fills the widening counters by re-deriving
  /// widened-ness of every final closure (deterministic across modes).
  void recordWideningStats();

  /// Registers context (N, contextEnv(N, Incoming)); returns its CtxId.
  /// New contexts enter the worklist (worklist mode) or set Changed
  /// (restart mode).
  uint32_t ensureCtx(const regions::RExpr *N, RegEnvId Incoming);

  /// Worklist fixpoint: evaluates one context against the current tables,
  /// recording dependency edges as it reads.
  void process(uint32_t C);
  bool runWorklist();

  /// Reference restart fixpoint (the seed algorithm, on dense tables).
  SetId analyzeRec(const regions::RExpr *N, RegEnvId Incoming);
  bool runRestart();

  /// Renumbers closures into content order — (function node id,
  /// lexicographic environment) — and remaps every value set, so the
  /// results (and everything generated from them) are independent of
  /// fixpoint evaluation order.
  void canonicalize();

  void enqueue(uint32_t C);
  void writeVar(regions::VarId V, SetId S);
  void writePool(SetId S);
  SetId remapSet(SetId S, const std::vector<AbsClosureId> &Perm,
                 std::unordered_map<SetId, SetId> &Memo);

  struct CtxInfo {
    const regions::RExpr *N = nullptr;
    RegEnvId Env = 0;
    SetId Val = EmptySet;
  };

  const regions::RegionProgram &Prog;
  ClosureOptions Options;
  RegEnvTable Envs;
  RegEnvId RootEnv = 0;

  /// Per-node latent-effect region sets for Lambda/Letrec nodes (empty
  /// sets elsewhere), precomputed in the constructor when Widening > 0:
  /// the widening consults them on every closure creation, so they are
  /// resolved from the type tables once, not per closure.
  std::vector<regions::RegionSet> VisibleRegions;

  std::vector<AbsClosure> Closures;
  /// (function node id << 32 | env id) → closure id. Exact packed key.
  std::unordered_map<uint64_t, AbsClosureId> ClosureIndex;

  SetInterner<AbsClosureId> ValueSets;

  std::vector<CtxInfo> Ctxs; // indexed by CtxId
  /// Per node: registered context envs (sorted) and, position for
  /// position, their CtxIds.
  std::vector<FlatSet<RegEnvId>> NodeEnvs;
  std::vector<std::vector<uint32_t>> NodeCtxIds;

  std::vector<SetId> VarSets; // indexed by VarId
  SetId EscapePool = EmptySet;

  /// Reverse dependency edges: contexts to re-evaluate when the source
  /// grows.
  std::vector<FlatSet<uint32_t>> CtxDeps; // per CtxId
  std::vector<FlatSet<uint32_t>> VarDeps; // per VarId
  FlatSet<uint32_t> PoolDeps;

  std::vector<uint32_t> Queue;
  size_t QHead = 0;
  std::vector<uint8_t> InQueue;

  /// Memoized (incoming env → context env) per node with letregion
  /// bindings; identity for all other nodes.
  std::vector<std::vector<std::pair<RegEnvId, RegEnvId>>> CtxEnvCache;
  /// Memoized (context env → closure) per Lambda/RegApp node.
  std::vector<std::vector<std::pair<RegEnvId, AbsClosureId>>> ClosCache;

  /// Restart mode: per-pass cycle guard.
  std::vector<uint8_t> InProgress;
  bool Changed = false;

  ClosureStats Stats;
  std::string Error;
};

} // namespace closure
} // namespace afl

#endif // AFL_CLOSURE_CLOSUREANALYSIS_H
