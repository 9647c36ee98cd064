//===----------------------------------------------------------------------===//
///
/// \file
/// Partitioned parallel worklist for the extended closure analysis.
///
/// The fixpoint runs in rounds over the worklist frontier:
///
///   1. Drain the queue into a frontier. Small frontiers (below
///      ClosureOptions::ParallelMinFrontier) are processed inline with the
///      ordinary sequential transfer function — partitioning only pays
///      off when there is real width.
///   2. Partition the frontier into independent components: union-find
///      over the dependency edges the worklist already maintains
///      (CtxDeps restricted to frontier members). Contexts that are
///      known to read each other land in one partition so value growth
///      propagates inside a single task instead of across rounds.
///   3. Run every partition on the shared ThreadPool. Workers see the
///      analysis tables as a frozen snapshot: dense IDs below the
///      round's table sizes (EBase/KBase/CBase for environments,
///      closures, contexts) are global and read-only; anything a worker
///      discovers gets a thread-local overlay ID at or above the base.
///      Overlays always probe the global interners first
///      (RegEnvTable::find, ClosureIndex, NodeEnvs), so a local ID
///      means genuinely new content. Each worker drives its partition's
///      members to a local fixpoint with a member-local worklist,
///      logging every dependency read, variable/pool write, discovered
///      environment/closure/context, and final member value.
///   4. Commit the partition logs on the calling thread, in partition
///      order (partitions are ordered by smallest member CtxId, members
///      sorted ascending): intern overlay environments/closures/
///      contexts into the global tables, translate overlay IDs, apply
///      monotone unions, insert dependency edges. Then a sweep enqueues
///      the dependents of every context/variable (and the escape pool)
///      whose value changed this round — including readers in *other*
///      partitions that evaluated against the stale snapshot.
///
/// Determinism: worker execution is a pure function of (snapshot,
/// partition) — workers never touch shared mutable state — and the
/// commit order is fixed, so the whole run is reproducible regardless
/// of thread scheduling. Byte-identity with the sequential modes does
/// not even require that: both compute the unique least fixpoint of the
/// same monotone transfer function, post-fixpoint canonicalization
/// renumbers abstract closures into content order, and nothing
/// downstream iterates env- or context-ID order (docs/ANALYSIS_CORE.md)
/// — which tests/ClosureDifferentialTest.cpp proves over the corpus and
/// 500 random programs.
///
//===----------------------------------------------------------------------===//

#include "closure/ClosureAnalysis.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <unordered_map>

using namespace afl;
using namespace afl::closure;
using namespace afl::regions;

namespace {

uint64_t hashEnvContent(const RegEnvMap &Map) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (const auto &[Var, C] : Map) {
    H ^= (static_cast<uint64_t>(Var) << 32) | C;
    H *= 0x100000001b3ull;
  }
  return H;
}

} // namespace

namespace afl {
namespace closure {

class ParallelEngine {
public:
  ParallelEngine(ClosureAnalysis &A, unsigned Jobs) : A(A), Jobs(Jobs) {}

  bool run();

private:
  using SetId = SetInterner<AbsClosureId>::SetId;
  static constexpr SetId EmptySet = SetInterner<AbsClosureId>::Empty;
  /// A value set in a worker: sorted mixed IDs — global AbsClosureIds
  /// below KBase, worker-local overlay IDs at or above it.
  using Content = FlatSet<uint32_t>;

  /// One partition's evaluation state and, after it ran, its log. The
  /// worker only reads the frozen global tables (through G) and writes
  /// here; the commit step replays it into the global tables.
  struct Worker {
    const ClosureAnalysis &G;
    /// Snapshot table sizes: IDs below these are global and frozen.
    uint32_t EBase, KBase, CBase;
    /// Partition members: sorted global CtxIds.
    std::vector<uint32_t> Members;
    /// Global CtxId → index in Members.
    std::unordered_map<uint32_t, size_t> MemberIdx;

    // Thread-local overlays (creation order — the commit step interns
    // them in this order, keeping the run deterministic).
    std::vector<RegEnvMap> LEnvs;
    std::unordered_map<uint64_t, std::vector<uint32_t>> LEnvIndex;
    std::vector<std::pair<const RExpr *, uint32_t>> LClos; // (fun, envRef)
    std::unordered_map<uint64_t, uint32_t> LClosIndex;
    std::vector<std::pair<const RExpr *, uint32_t>> LCtxs; // (node, envRef)
    std::unordered_map<uint64_t, uint32_t> LCtxIndex;

    /// Member value overlays (parallel to Members; seeded from the
    /// snapshot) and written-variable / escape-pool overlays.
    std::vector<Content> MemberVal;
    std::unordered_map<VarId, Content> LVars;
    std::vector<VarId> VarWriteOrder;
    Content LPool;
    bool PoolWritten = false;

    // Dependency-edge log (exactly the edges the sequential transfer
    // function would have inserted).
    std::vector<std::pair<uint32_t, uint32_t>> EdgeCtx; // (childRef, C)
    std::vector<std::pair<VarId, uint32_t>> EdgeVar;
    std::vector<uint32_t> EdgePool;

    // Member-local worklist: readers among members, re-enqueued when a
    // local overlay value grows.
    std::vector<FlatSet<uint32_t>> CtxReaders; // per member index
    std::unordered_map<VarId, FlatSet<uint32_t>> VarReaders;
    FlatSet<uint32_t> PoolReaders;
    std::vector<uint32_t> LQueue;
    std::vector<uint8_t> LIn;
    size_t LHead = 0;

    size_t Evals = 0;
    size_t LocalEnqueued = 0;
    size_t Budget = 0;
    bool OverBudget = false;

    Worker(const ClosureAnalysis &G, uint32_t EBase, uint32_t KBase,
           uint32_t CBase)
        : G(G), EBase(EBase), KBase(KBase), CBase(CBase) {}

    void run();
    void evalMember(size_t MIdx);

    Content contentOfSet(SetId S) const {
      return Content::fromSorted(G.ValueSets.get(S).raw());
    }

    const RegEnvMap &envContent(uint32_t E) const {
      return E < EBase ? G.Envs.get(E) : LEnvs[E - EBase];
    }

    uint32_t findOrAddEnv(RegEnvMap Map) {
      RegEnvId GId;
      if (G.Envs.find(Map, GId))
        return GId;
      std::vector<uint32_t> &Bucket = LEnvIndex[hashEnvContent(Map)];
      for (uint32_t Id : Bucket)
        if (LEnvs[Id] == Map)
          return EBase + Id;
      uint32_t Id = static_cast<uint32_t>(LEnvs.size());
      LEnvs.push_back(std::move(Map));
      Bucket.push_back(Id);
      return EBase + Id;
    }

    Color colorOf(uint32_t E, RegionVarId Var) const {
      const RegEnvMap &M = envContent(E);
      auto It = std::lower_bound(
          M.begin(), M.end(), Var,
          [](const auto &Entry, RegionVarId V) { return Entry.first < V; });
      assert(It != M.end() && It->first == Var &&
             "region variable not in abstract environment");
      return It->second;
    }

    uint32_t restrictEnv(uint32_t E, const RegionSet &Keep) {
      RegEnvMap Out;
      Out.reserve(Keep.size());
      for (const auto &[Var, C] : envContent(E))
        if (Keep.contains(Var))
          Out.push_back({Var, C});
      assert(Out.size() == Keep.size() &&
             "restriction set contains unmapped region variables");
      return findOrAddEnv(std::move(Out));
    }

    uint32_t extendEnv(uint32_t E, RegionVarId Var, Color C) {
      RegEnvMap Out = envContent(E);
      auto It = std::lower_bound(
          Out.begin(), Out.end(), Var,
          [](const auto &Entry, RegionVarId V) { return Entry.first < V; });
      if (It != Out.end() && It->first == Var)
        It->second = C;
      else
        Out.insert(It, {Var, C});
      return findOrAddEnv(std::move(Out));
    }

    uint32_t extendFreshEnv(uint32_t E, RegionVarId Var) {
      const RegEnvMap &M = envContent(E);
      std::vector<bool> Used(M.size() + 1, false);
      for (const auto &[V, C] : M)
        if (C < Used.size())
          Used[C] = true;
      Color Fresh = 0;
      while (Used[Fresh])
        ++Fresh;
      return extendEnv(E, Var, Fresh);
    }

    uint32_t contextEnvW(const RExpr *N, uint32_t In) {
      if (N->boundRegions().empty())
        return In;
      if (In < EBase) {
        // The global memo is frozen this round; a hit is authoritative.
        const auto &Cache = G.CtxEnvCache[N->id()];
        auto It = std::lower_bound(
            Cache.begin(), Cache.end(), In,
            [](const auto &E, uint32_t V) { return E.first < V; });
        if (It != Cache.end() && It->first == In)
          return It->second;
      }
      uint32_t E = In;
      for (RegionVarId R : N->boundRegions())
        E = extendFreshEnv(E, R);
      return E;
    }

    uint32_t internClosW(const RExpr *Fun, uint32_t EnvRef) {
      uint64_t Key = (static_cast<uint64_t>(Fun->id()) << 32) | EnvRef;
      if (EnvRef < EBase) {
        auto It = G.ClosureIndex.find(Key);
        if (It != G.ClosureIndex.end())
          return It->second;
      }
      auto [It, Inserted] =
          LClosIndex.try_emplace(Key, static_cast<uint32_t>(LClos.size()));
      if (Inserted)
        LClos.push_back({Fun, EnvRef});
      return KBase + It->second;
    }

    /// Context-set widening on an overlay env ref — the worker-side
    /// twin of ClosureAnalysis::widenClosureEnv. widenRegEnvMap is a
    /// pure function of content, so a widened overlay env translates to
    /// exactly the environment the sequential funnel would intern.
    uint32_t widenEnvW(const RExpr *Fun, uint32_t E) {
      unsigned Bound = G.Options.Widening;
      if (!Bound)
        return E;
      RegEnvMap Map = envContent(E);
      if (!widenRegEnvMap(Map, G.VisibleRegions[Fun->id()], Bound))
        return E;
      return findOrAddEnv(std::move(Map));
    }

    uint32_t closureAtW(const RExpr *N, uint32_t Env) {
      if (Env < EBase) {
        const auto &Cache = G.ClosCache[N->id()];
        auto It = std::lower_bound(
            Cache.begin(), Cache.end(), Env,
            [](const auto &E, uint32_t V) { return E.first < V; });
        if (It != Cache.end() && It->first == Env)
          return It->second;
      }
      if (const auto *L = dyn_cast<RLambdaExpr>(N))
        return internClosW(N, widenEnvW(N, restrictEnv(Env, L->freeRegions())));
      const auto *RA = cast<RRegAppExpr>(N);
      const RLetrecExpr *Callee = G.Prog.varInfo(RA->fn()).Letrec;
      assert(Callee && "region application of non-letrec");
      uint32_t ClosEnv = restrictEnv(Env, Callee->freeRegions());
      for (size_t I = 0; I != Callee->formals().size(); ++I)
        ClosEnv = extendEnv(ClosEnv, Callee->formals()[I],
                            colorOf(Env, RA->actuals()[I]));
      return internClosW(Callee, widenEnvW(Callee, ClosEnv));
    }

    std::pair<const RExpr *, uint32_t> closRefOf(uint32_t Id) const {
      if (Id < KBase) {
        const AbsClosure &C = G.closure(Id);
        return {C.Fun, C.Env};
      }
      return LClos[Id - KBase];
    }

    uint32_t ctxRefOf(const RExpr *N, uint32_t In) {
      uint32_t Env = contextEnvW(N, In);
      if (Env < EBase) {
        uint32_t GC = G.ctxIndex(N->id(), Env);
        if (GC != ClosureAnalysis::NoCtx)
          return GC;
      }
      uint64_t Key = (static_cast<uint64_t>(N->id()) << 32) | Env;
      auto [It, Inserted] =
          LCtxIndex.try_emplace(Key, static_cast<uint32_t>(LCtxs.size()));
      if (Inserted)
        LCtxs.push_back({N, Env});
      return CBase + It->second;
    }

    Content valueOfCtx(uint32_t Ref) const {
      if (Ref >= CBase)
        return Content(); // created this round, never evaluated: empty
      auto It = MemberIdx.find(Ref);
      if (It != MemberIdx.end())
        return MemberVal[It->second];
      return contentOfSet(G.Ctxs[Ref].Val);
    }

    Content childVal(const RExpr *Child, uint32_t In, uint32_t C,
                     size_t MIdx, bool Dep) {
      uint32_t CC = ctxRefOf(Child, In);
      if (Dep) {
        EdgeCtx.push_back({CC, C});
        if (CC < CBase) {
          auto It = MemberIdx.find(CC);
          if (It != MemberIdx.end())
            CtxReaders[It->second].insert(static_cast<uint32_t>(MIdx));
        }
      }
      return valueOfCtx(CC);
    }

    Content readVar(VarId V, uint32_t C, size_t MIdx) {
      EdgeVar.push_back({V, C});
      VarReaders[V].insert(static_cast<uint32_t>(MIdx));
      auto It = LVars.find(V);
      return It != LVars.end() ? It->second : contentOfSet(G.VarSets[V]);
    }

    void writeVarW(VarId V, const Content &S) {
      auto It = LVars.find(V);
      if (It == LVars.end()) {
        It = LVars.emplace(V, contentOfSet(G.VarSets[V])).first;
        VarWriteOrder.push_back(V);
      }
      if (!It->second.unionWith(S))
        return;
      auto RIt = VarReaders.find(V);
      if (RIt != VarReaders.end())
        for (uint32_t R : RIt->second)
          lenqueue(R);
    }

    Content poolContent() const {
      return PoolWritten ? LPool : contentOfSet(G.EscapePool);
    }

    void writePoolW(const Content &S) {
      if (!PoolWritten) {
        LPool = contentOfSet(G.EscapePool);
        PoolWritten = true;
      }
      if (!LPool.unionWith(S))
        return;
      for (uint32_t R : PoolReaders)
        lenqueue(R);
    }

    void lenqueue(uint32_t MIdx) {
      if (LIn[MIdx])
        return;
      LIn[MIdx] = 1;
      LQueue.push_back(MIdx);
      ++LocalEnqueued;
    }
  };

  bool processInline(const std::vector<uint32_t> &Frontier);
  void runRound(const std::vector<uint32_t> &Frontier);
  bool commit(Worker &W);

  ClosureAnalysis &A;
  unsigned Jobs;
  size_t Cap = 0;
  /// Entities whose value grew during the current round's commit; the
  /// post-commit sweep enqueues their dependents.
  std::vector<uint32_t> ChangedCtxs;
  std::vector<VarId> ChangedVars;
  bool PoolChanged = false;
};

//===----------------------------------------------------------------------===//
// Worker: member-local worklist against the frozen snapshot
//===----------------------------------------------------------------------===//

void ParallelEngine::Worker::run() {
  size_t N = Members.size();
  MemberIdx.reserve(N);
  MemberVal.reserve(N);
  CtxReaders.resize(N);
  LIn.assign(N, 1);
  LQueue.reserve(N);
  for (size_t I = 0; I != N; ++I) {
    MemberIdx.emplace(Members[I], I);
    MemberVal.push_back(contentOfSet(G.Ctxs[Members[I]].Val));
    LQueue.push_back(static_cast<uint32_t>(I));
  }
  while (LHead != LQueue.size()) {
    if (Evals >= Budget) {
      OverBudget = true;
      return;
    }
    uint32_t I = LQueue[LHead++];
    LIn[I] = 0;
    evalMember(I);
  }
}

void ParallelEngine::Worker::evalMember(size_t MIdx) {
  uint32_t C = Members[MIdx];
  const RExpr *N = G.Ctxs[C].N;
  uint32_t Env = G.Ctxs[C].Env;
  Content Out;

  switch (N->kind()) {
  case RExpr::Kind::Int:
  case RExpr::Kind::Bool:
  case RExpr::Kind::Unit:
  case RExpr::Kind::Nil:
    break;
  case RExpr::Kind::Var:
    Out = readVar(cast<RVarExpr>(N)->var(), C, MIdx);
    break;
  case RExpr::Kind::Lambda:
  case RExpr::Kind::RegApp:
    Out.insert(closureAtW(N, Env));
    break;
  case RExpr::Kind::App: {
    const auto *A = cast<RAppExpr>(N);
    Content Fns = childVal(A->fn(), Env, C, MIdx, true);
    Content Args = childVal(A->arg(), Env, C, MIdx, true);
    for (uint32_t Id : Fns) {
      auto [Fun, ClEnv] = closRefOf(Id);
      AbsClosure Probe{Fun, 0}; // paramOf/bodyOf only look at Fun
      writeVarW(G.paramOf(Probe), Args);
      Out.unionWith(childVal(G.bodyOf(Probe), ClEnv, C, MIdx, true));
    }
    break;
  }
  case RExpr::Kind::Let: {
    const auto *L = cast<RLetExpr>(N);
    writeVarW(L->var(), childVal(L->init(), Env, C, MIdx, true));
    Out = childVal(L->body(), Env, C, MIdx, true);
    break;
  }
  case RExpr::Kind::Letrec:
    Out = childVal(cast<RLetrecExpr>(N)->body(), Env, C, MIdx, true);
    break;
  case RExpr::Kind::If: {
    const auto *I = cast<RIfExpr>(N);
    childVal(I->cond(), Env, C, MIdx, false);
    Content T = childVal(I->thenExpr(), Env, C, MIdx, true);
    T.unionWith(childVal(I->elseExpr(), Env, C, MIdx, true));
    Out = std::move(T);
    break;
  }
  case RExpr::Kind::Pair: {
    const auto *P = cast<RPairExpr>(N);
    Content AV = childVal(P->first(), Env, C, MIdx, true);
    AV.unionWith(childVal(P->second(), Env, C, MIdx, true));
    writePoolW(AV);
    break;
  }
  case RExpr::Kind::Cons: {
    const auto *Cn = cast<RConsExpr>(N);
    Content H = childVal(Cn->head(), Env, C, MIdx, true);
    childVal(Cn->tail(), Env, C, MIdx, false);
    writePoolW(H);
    break;
  }
  case RExpr::Kind::UnOp: {
    const auto *U = cast<RUnOpExpr>(N);
    childVal(U->operand(), Env, C, MIdx, false);
    if (G.Prog.Types.kind(N->type()) == RTypeKind::Arrow) {
      EdgePool.push_back(C);
      PoolReaders.insert(static_cast<uint32_t>(MIdx));
      Out = poolContent();
    }
    break;
  }
  case RExpr::Kind::BinOp: {
    const auto *B = cast<RBinOpExpr>(N);
    childVal(B->lhs(), Env, C, MIdx, false);
    childVal(B->rhs(), Env, C, MIdx, false);
    break;
  }
  }

  ++Evals;
  if (MemberVal[MIdx].unionWith(Out))
    for (uint32_t R : CtxReaders[MIdx])
      lenqueue(R);
}

//===----------------------------------------------------------------------===//
// Engine: rounds, partitioning, commit, sweep
//===----------------------------------------------------------------------===//

bool ParallelEngine::processInline(const std::vector<uint32_t> &Frontier) {
  for (uint32_t C : Frontier) {
    if (A.Stats.ProcessedContexts >= Cap)
      return false;
    ++A.Stats.ProcessedContexts;
    A.process(C);
  }
  return true;
}

bool ParallelEngine::commit(Worker &W) {
  // 1. Overlay environments, in creation order. intern() dedupes
  // against environments an earlier partition's commit just added.
  std::vector<RegEnvId> EnvTrans(W.LEnvs.size());
  for (size_t I = 0; I != W.LEnvs.size(); ++I)
    EnvTrans[I] = A.Envs.intern(RegEnvMap(W.LEnvs[I]));
  auto resolveEnv = [&](uint32_t E) {
    return E < W.EBase ? E : EnvTrans[E - W.EBase];
  };

  // 2. Overlay closures.
  std::vector<AbsClosureId> ClosTrans(W.LClos.size());
  for (size_t I = 0; I != W.LClos.size(); ++I)
    ClosTrans[I] =
        A.internClosure(W.LClos[I].first, resolveEnv(W.LClos[I].second));

  // 3. Overlay contexts. registerCtx enqueues genuinely new ones.
  std::vector<uint32_t> CtxTrans(W.LCtxs.size());
  for (size_t I = 0; I != W.LCtxs.size(); ++I)
    CtxTrans[I] =
        A.registerCtx(W.LCtxs[I].first, resolveEnv(W.LCtxs[I].second));
  auto resolveCtx = [&](uint32_t C) {
    return C < W.CBase ? C : CtxTrans[C - W.CBase];
  };

  // 4. Dependency edges (FlatSet::insert dedupes repeats).
  for (auto [Child, C] : W.EdgeCtx)
    A.CtxDeps[resolveCtx(Child)].insert(C);
  for (auto [V, C] : W.EdgeVar)
    A.VarDeps[V].insert(C);
  for (uint32_t C : W.EdgePool)
    A.PoolDeps.insert(C);

  // 5. Values: translate overlay closure IDs, re-sort (translation is
  // injective within one worker but not order-preserving), intern,
  // union monotonically. Record what grew for the post-commit sweep.
  auto internContent = [&](const Content &S) -> SetId {
    std::vector<AbsClosureId> Ids = S.raw();
    bool AnyLocal = false;
    for (AbsClosureId &Id : Ids)
      if (Id >= W.KBase) {
        Id = ClosTrans[Id - W.KBase];
        AnyLocal = true;
      }
    if (AnyLocal)
      std::sort(Ids.begin(), Ids.end());
    return A.ValueSets.intern(FlatSet<AbsClosureId>::fromSorted(std::move(Ids)));
  };

  for (size_t I = 0; I != W.Members.size(); ++I) {
    uint32_t C = W.Members[I];
    SetId NewVal = A.ValueSets.unionSets(A.Ctxs[C].Val,
                                         internContent(W.MemberVal[I]));
    if (NewVal != A.Ctxs[C].Val) {
      A.Ctxs[C].Val = NewVal;
      ChangedCtxs.push_back(C);
    }
  }
  for (VarId V : W.VarWriteOrder) {
    SetId NewVal =
        A.ValueSets.unionSets(A.VarSets[V], internContent(W.LVars[V]));
    if (NewVal != A.VarSets[V]) {
      A.VarSets[V] = NewVal;
      ChangedVars.push_back(V);
    }
  }
  if (W.PoolWritten) {
    SetId NewVal =
        A.ValueSets.unionSets(A.EscapePool, internContent(W.LPool));
    if (NewVal != A.EscapePool) {
      A.EscapePool = NewVal;
      PoolChanged = true;
    }
  }

  A.Stats.ProcessedContexts += W.Evals;
  A.Stats.Enqueued += W.LocalEnqueued;
  return !W.OverBudget;
}

bool ParallelEngine::run() {
  using Clock = std::chrono::steady_clock;
  A.Stats.ThreadsUsed = Jobs;
  A.ensureCtx(A.Prog.Root, A.RootEnv);
  // Shared with runWorklist — ClosureOptions::stepCap is the single
  // overflow-checked derivation, so the two modes cannot drift.
  Cap = A.Options.stepCap(A.Prog.numNodes());

  std::vector<uint32_t> Frontier;
  std::vector<std::unique_ptr<Worker>> Workers;
  while (A.QHead != A.Queue.size()) {
    // Drain the queue into this round's frontier (enqueue() dedupes, so
    // the frontier has no repeats) and recycle the queue storage.
    Frontier.clear();
    while (A.QHead != A.Queue.size()) {
      uint32_t C = A.Queue[A.QHead++];
      A.InQueue[C] = 0;
      Frontier.push_back(C);
    }
    A.Queue.clear();
    A.QHead = 0;

    if (Frontier.size() < A.Options.ParallelMinFrontier) {
      ++A.Stats.InlineRounds;
      if (!processInline(Frontier)) {
        A.Error = "closure analysis failed to stabilize within " +
                  std::to_string(Cap) + " context evaluations";
        return false;
      }
      continue;
    }

    auto RoundStart = Clock::now();
    ++A.Stats.ParallelRounds;
    std::sort(Frontier.begin(), Frontier.end());

    // Partition: union-find over the known dependency edges between
    // frontier members. Correctness never depends on this grouping (the
    // post-commit sweep re-enqueues cross-partition staleness); it only
    // keeps value propagation between coupled contexts inside one task.
    size_t N = Frontier.size();
    std::unordered_map<uint32_t, size_t> FIdx;
    FIdx.reserve(N);
    for (size_t I = 0; I != N; ++I)
      FIdx.emplace(Frontier[I], I);
    std::vector<size_t> Parent(N);
    std::iota(Parent.begin(), Parent.end(), 0);
    std::function<size_t(size_t)> Find = [&](size_t X) {
      while (Parent[X] != X) {
        Parent[X] = Parent[Parent[X]];
        X = Parent[X];
      }
      return X;
    };
    auto Unite = [&](size_t X, size_t Y) {
      X = Find(X);
      Y = Find(Y);
      if (X != Y)
        Parent[std::max(X, Y)] = std::min(X, Y);
    };
    for (size_t I = 0; I != N; ++I)
      for (uint32_t D : A.CtxDeps[Frontier[I]]) {
        auto It = FIdx.find(D);
        if (It != FIdx.end())
          Unite(I, It->second);
      }

    // Materialize partitions ordered by smallest member (roots are
    // always the smallest index of their class), members ascending.
    std::vector<std::vector<uint32_t>> Parts;
    std::vector<size_t> RootSlot(N, static_cast<size_t>(-1));
    for (size_t I = 0; I != N; ++I) {
      size_t R = Find(I);
      if (RootSlot[R] == static_cast<size_t>(-1)) {
        RootSlot[R] = Parts.size();
        Parts.emplace_back();
      }
      Parts[RootSlot[R]].push_back(Frontier[I]);
    }

    A.Stats.Partitions += Parts.size();
    uint32_t EBase = static_cast<uint32_t>(A.Envs.size());
    uint32_t KBase = static_cast<uint32_t>(A.Closures.size());
    uint32_t CBase = static_cast<uint32_t>(A.Ctxs.size());
    Workers.clear();
    Workers.reserve(Parts.size());
    for (auto &Members : Parts) {
      A.Stats.LargestPartition =
          std::max(A.Stats.LargestPartition, Members.size());
      auto W = std::make_unique<Worker>(A, EBase, KBase, CBase);
      W->Members = std::move(Members);
      W->Budget = Cap;
      Workers.push_back(std::move(W));
    }

    ThreadPool::RunStats RS = ThreadPool::global().parallelFor(
        Workers.size(), Jobs, [&](size_t I) { Workers[I]->run(); });
    A.Stats.PoolTasksQueued += RS.TasksQueued;
    A.Stats.PoolItemsStolen += RS.RanByWorkers;

    // Deterministic replay: partition order, then the sweep.
    ChangedCtxs.clear();
    ChangedVars.clear();
    PoolChanged = false;
    bool Ok = true;
    for (auto &W : Workers)
      Ok &= commit(*W);
    for (uint32_t C : ChangedCtxs)
      for (uint32_t D : A.CtxDeps[C])
        A.enqueue(D);
    for (VarId V : ChangedVars)
      for (uint32_t D : A.VarDeps[V])
        A.enqueue(D);
    if (PoolChanged)
      for (uint32_t D : A.PoolDeps)
        A.enqueue(D);

    A.Stats.ParallelSeconds +=
        std::chrono::duration<double>(Clock::now() - RoundStart).count();
    if (!Ok || A.Stats.ProcessedContexts >= Cap) {
      A.Error = "closure analysis failed to stabilize within " +
                std::to_string(Cap) + " context evaluations";
      return false;
    }
  }
  A.Stats.Passes = 1;
  return true;
}

} // namespace closure
} // namespace afl

bool ClosureAnalysis::runParallel(unsigned Jobs) {
  ParallelEngine Engine(*this, Jobs);
  return Engine.run();
}
