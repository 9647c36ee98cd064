#include "closure/ClosureAnalysis.h"

#include <algorithm>
#include <limits>
#include <numeric>

using namespace afl;
using namespace afl::closure;
using namespace afl::regions;

size_t ClosureOptions::stepCap(size_t NumNodes) const {
  if (MaxSteps)
    return MaxSteps;
  size_t Nodes = NumNodes ? NumNodes : 1;
  size_t Passes = MaxPasses;
  if (Passes && Nodes > std::numeric_limits<size_t>::max() / Passes)
    return std::numeric_limits<size_t>::max();
  return Passes * Nodes;
}

ClosureAnalysis::ClosureAnalysis(const RegionProgram &Prog,
                                 ClosureOptions Options)
    : Prog(Prog), Options(Options) {
  RegEnvMap Root;
  Color C = 0;
  for (RegionVarId R : Prog.GlobalRegions)
    Root.push_back({R, C++});
  RootEnv = Envs.intern(std::move(Root));

  uint32_t N = Prog.numNodes();
  NodeEnvs.resize(N);
  NodeCtxIds.resize(N);
  CtxEnvCache.resize(N);
  ClosCache.resize(N);
  VarSets.assign(Prog.numVars(), EmptySet);
  VarDeps.resize(Prog.numVars());

  if (Options.Widening) {
    // Latent-effect regions per closure-carrying node, resolved up front
    // so closure creation is a flat lookup.
    VisibleRegions.resize(N);
    for (uint32_t I = 0; I != N; ++I) {
      const RExpr *Node = Prog.node(I);
      if (isa<RLambdaExpr>(Node) || isa<RLetrecExpr>(Node))
        VisibleRegions[I] = latentOf({Node, 0});
    }
  }
}

AbsClosureId ClosureAnalysis::internClosure(const RExpr *Fun, RegEnvId Env) {
  uint64_t Key = (static_cast<uint64_t>(Fun->id()) << 32) | Env;
  auto It = ClosureIndex.find(Key);
  if (It != ClosureIndex.end())
    return It->second;
  AbsClosureId Id = static_cast<AbsClosureId>(Closures.size());
  Closures.push_back({Fun, Env});
  ClosureIndex.emplace(Key, Id);
  return Id;
}

AbsClosureId ClosureAnalysis::closureAt(const RExpr *N, RegEnvId Env) {
  auto &Cache = ClosCache[N->id()];
  auto It = std::lower_bound(
      Cache.begin(), Cache.end(), Env,
      [](const auto &E, RegEnvId V) { return E.first < V; });
  if (It != Cache.end() && It->first == Env)
    return It->second;

  AbsClosureId Id;
  if (const auto *L = dyn_cast<RLambdaExpr>(N)) {
    Id = internClosure(N,
                       widenClosureEnv(N, Envs.restrict(Env, L->freeRegions())));
  } else {
    const auto *RA = cast<RRegAppExpr>(N);
    const RLetrecExpr *Callee = Prog.varInfo(RA->fn()).Letrec;
    assert(Callee && "region application of non-letrec");
    RegEnvId ClosEnv = Envs.restrict(Env, Callee->freeRegions());
    for (size_t I = 0; I != Callee->formals().size(); ++I)
      ClosEnv = Envs.extend(ClosEnv, Callee->formals()[I],
                            Envs.colorOf(Env, RA->actuals()[I]));
    Id = internClosure(Callee, widenClosureEnv(Callee, ClosEnv));
  }
  // The cache may have rehomed during interning-driven recursion; re-find
  // the insertion point.
  It = std::lower_bound(Cache.begin(), Cache.end(), Env,
                        [](const auto &E, RegEnvId V) { return E.first < V; });
  Cache.insert(It, {Env, Id});
  return Id;
}

RegEnvId ClosureAnalysis::contextEnv(const RExpr *N, RegEnvId Incoming) {
  if (N->boundRegions().empty())
    return Incoming;
  auto &Cache = CtxEnvCache[N->id()];
  auto It = std::lower_bound(
      Cache.begin(), Cache.end(), Incoming,
      [](const auto &E, RegEnvId V) { return E.first < V; });
  if (It != Cache.end() && It->first == Incoming)
    return It->second;
  RegEnvId Env = Incoming;
  for (RegionVarId R : N->boundRegions())
    Env = Envs.extendFresh(Env, R);
  Cache.insert(It, {Incoming, Env});
  return Env;
}

const FlatSet<AbsClosureId> &ClosureAnalysis::valuesOf(RNodeId N,
                                                       RegEnvId Env) const {
  size_t Pos = NodeEnvs[N].indexOf(Env);
  if (Pos == FlatSet<RegEnvId>::npos)
    return ValueSets.get(EmptySet);
  return ValueSets.get(Ctxs[NodeCtxIds[N][Pos]].Val);
}

uint32_t ClosureAnalysis::ctxIndex(RNodeId N, RegEnvId Env) const {
  size_t Pos = NodeEnvs[N].indexOf(Env);
  if (Pos == FlatSet<RegEnvId>::npos)
    return NoCtx;
  return NodeCtxIds[N][Pos];
}

const RExpr *ClosureAnalysis::bodyOf(const AbsClosure &C) const {
  if (const auto *L = dyn_cast<RLambdaExpr>(C.Fun))
    return L->body();
  return cast<RLetrecExpr>(C.Fun)->fnBody();
}

VarId ClosureAnalysis::paramOf(const AbsClosure &C) const {
  if (const auto *L = dyn_cast<RLambdaExpr>(C.Fun))
    return L->param();
  return cast<RLetrecExpr>(C.Fun)->param();
}

RegionSet ClosureAnalysis::latentOf(const AbsClosure &C) const {
  RTypeId Arrow;
  if (isa<RLambdaExpr>(C.Fun))
    Arrow = C.Fun->type();
  else
    Arrow = Prog.varInfo(cast<RLetrecExpr>(C.Fun)->fn()).Type;
  return Prog.Types.latentRegions(Prog.Types.arrowEffect(Arrow));
}

RegEnvId ClosureAnalysis::widenClosureEnv(const RExpr *Fun, RegEnvId Env) {
  if (!Options.Widening)
    return Env;
  RegEnvMap Map = Envs.get(Env);
  if (!widenRegEnvMap(Map, VisibleRegions[Fun->id()], Options.Widening))
    return Env;
  return Envs.intern(std::move(Map));
}

bool ClosureAnalysis::isWidened(const AbsClosure &C) const {
  if (!Options.Widening)
    return false;
  return !widenedRegEnvVars(Envs.get(C.Env), VisibleRegions[C.Fun->id()],
                            Options.Widening)
              .empty();
}

std::vector<RegionVarId>
ClosureAnalysis::widenedVars(const AbsClosure &C) const {
  if (!Options.Widening)
    return {};
  return widenedRegEnvVars(Envs.get(C.Env), VisibleRegions[C.Fun->id()],
                           Options.Widening);
}

void ClosureAnalysis::recordWideningStats() {
  Stats.WideningBound = Options.Widening;
  if (!Options.Widening)
    return;
  for (const AbsClosure &C : Closures) {
    size_t Vars = widenedVars(C).size();
    if (Vars) {
      ++Stats.WidenedClosures;
      Stats.WidenedVars += Vars;
    }
  }
}

uint32_t ClosureAnalysis::ensureCtx(const RExpr *N, RegEnvId Incoming) {
  RegEnvId Env = contextEnv(N, Incoming);
  RNodeId Node = N->id();
  auto [Pos, Inserted] = NodeEnvs[Node].insertPos(Env);
  std::vector<uint32_t> &Ids = NodeCtxIds[Node];
  if (!Inserted)
    return Ids[Pos];
  uint32_t C = static_cast<uint32_t>(Ctxs.size());
  Ids.insert(Ids.begin() + static_cast<ptrdiff_t>(Pos), C);
  Ctxs.push_back({N, Env, EmptySet});
  CtxDeps.emplace_back();
  InQueue.push_back(0);
  if (Options.UseWorklist)
    enqueue(C);
  else
    Changed = true;
  return C;
}

void ClosureAnalysis::enqueue(uint32_t C) {
  if (InQueue[C])
    return;
  InQueue[C] = 1;
  Queue.push_back(C);
  ++Stats.Enqueued;
}

void ClosureAnalysis::writeVar(VarId V, SetId S) {
  SetId New = ValueSets.unionSets(VarSets[V], S);
  if (New == VarSets[V])
    return;
  VarSets[V] = New;
  if (Options.UseWorklist) {
    for (uint32_t D : VarDeps[V])
      enqueue(D);
  } else {
    Changed = true;
  }
}

void ClosureAnalysis::writePool(SetId S) {
  SetId New = ValueSets.unionSets(EscapePool, S);
  if (New == EscapePool)
    return;
  EscapePool = New;
  if (Options.UseWorklist) {
    for (uint32_t D : PoolDeps)
      enqueue(D);
  } else {
    Changed = true;
  }
}

//===----------------------------------------------------------------------===//
// Worklist fixpoint (production mode)
//===----------------------------------------------------------------------===//

void ClosureAnalysis::process(uint32_t C) {
  const RExpr *N = Ctxs[C].N;
  RegEnvId Env = Ctxs[C].Env;
  SetId Out = EmptySet;

  // Reads a child's current value under this context's environment.
  // \p Dep records the reverse edge so C is re-evaluated when the child
  // grows; children whose value this transfer ignores skip the edge but
  // are still registered as contexts (their own evaluation side-effects
  // — variable bindings, escape-pool writes — propagate through their
  // own dependency edges).
  auto childVal = [&](const RExpr *Child, RegEnvId In, bool Dep) -> SetId {
    uint32_t CC = ensureCtx(Child, In);
    if (Dep)
      CtxDeps[CC].insert(C);
    return Ctxs[CC].Val;
  };

  switch (N->kind()) {
  case RExpr::Kind::Int:
  case RExpr::Kind::Bool:
  case RExpr::Kind::Unit:
  case RExpr::Kind::Nil:
    break;
  case RExpr::Kind::Var: {
    VarId V = cast<RVarExpr>(N)->var();
    VarDeps[V].insert(C);
    Out = VarSets[V];
    break;
  }
  case RExpr::Kind::Lambda:
  case RExpr::Kind::RegApp:
    Out = ValueSets.single(closureAt(N, Env));
    break;
  case RExpr::Kind::App: {
    const auto *A = cast<RAppExpr>(N);
    SetId Fns = childVal(A->fn(), Env, true);
    SetId Args = childVal(A->arg(), Env, true);
    // Copy: unions below may grow the interner and invalidate views.
    std::vector<AbsClosureId> FnList = ValueSets.get(Fns).raw();
    for (AbsClosureId Id : FnList) {
      const AbsClosure Cl = Closures[Id]; // copy: Closures may grow
      writeVar(paramOf(Cl), Args);
      Out = ValueSets.unionSets(Out, childVal(bodyOf(Cl), Cl.Env, true));
    }
    break;
  }
  case RExpr::Kind::Let: {
    const auto *L = cast<RLetExpr>(N);
    writeVar(L->var(), childVal(L->init(), Env, true));
    Out = childVal(L->body(), Env, true);
    break;
  }
  case RExpr::Kind::Letrec:
    // The function body is analyzed when its closures are applied.
    Out = childVal(cast<RLetrecExpr>(N)->body(), Env, true);
    break;
  case RExpr::Kind::If: {
    const auto *I = cast<RIfExpr>(N);
    childVal(I->cond(), Env, false);
    SetId T = childVal(I->thenExpr(), Env, true);
    SetId E = childVal(I->elseExpr(), Env, true);
    Out = ValueSets.unionSets(T, E);
    break;
  }
  case RExpr::Kind::Pair: {
    const auto *P = cast<RPairExpr>(N);
    SetId A = childVal(P->first(), Env, true);
    SetId B = childVal(P->second(), Env, true);
    writePool(ValueSets.unionSets(A, B));
    break;
  }
  case RExpr::Kind::Cons: {
    const auto *Cn = cast<RConsExpr>(N);
    SetId H = childVal(Cn->head(), Env, true);
    childVal(Cn->tail(), Env, false);
    writePool(H);
    break;
  }
  case RExpr::Kind::UnOp: {
    const auto *U = cast<RUnOpExpr>(N);
    childVal(U->operand(), Env, false);
    // Projections whose static type is a function read the escape pool.
    if (Prog.Types.kind(N->type()) == RTypeKind::Arrow) {
      PoolDeps.insert(C);
      Out = EscapePool;
    }
    break;
  }
  case RExpr::Kind::BinOp: {
    const auto *B = cast<RBinOpExpr>(N);
    childVal(B->lhs(), Env, false);
    childVal(B->rhs(), Env, false);
    break;
  }
  }

  SetId NewVal = ValueSets.unionSets(Ctxs[C].Val, Out);
  if (NewVal != Ctxs[C].Val) {
    Ctxs[C].Val = NewVal;
    for (uint32_t D : CtxDeps[C])
      enqueue(D);
  }
}

bool ClosureAnalysis::runWorklist() {
  ensureCtx(Prog.Root, RootEnv);
  size_t Cap = Options.stepCap(Prog.numNodes());
  while (QHead != Queue.size()) {
    if (Stats.ProcessedContexts >= Cap) {
      Error = "closure analysis failed to stabilize within " +
              std::to_string(Cap) + " context evaluations";
      return false;
    }
    uint32_t C = Queue[QHead++];
    InQueue[C] = 0;
    ++Stats.ProcessedContexts;
    process(C);
  }
  Stats.Passes = 1;
  return true;
}

//===----------------------------------------------------------------------===//
// Restart fixpoint (reference mode: the seed algorithm on dense tables)
//===----------------------------------------------------------------------===//

ClosureAnalysis::SetId ClosureAnalysis::analyzeRec(const RExpr *N,
                                                   RegEnvId Incoming) {
  uint32_t C = ensureCtx(N, Incoming);
  if (InProgress.size() <= C)
    InProgress.resize(C + 1, 0);
  // Cycle guard: recursive functions re-enter their own body context; the
  // cached set from the previous pass is the sound approximation.
  if (InProgress[C])
    return Ctxs[C].Val;
  InProgress[C] = 1;
  RegEnvId Env = Ctxs[C].Env;
  SetId Out = EmptySet;

  switch (N->kind()) {
  case RExpr::Kind::Int:
  case RExpr::Kind::Bool:
  case RExpr::Kind::Unit:
  case RExpr::Kind::Nil:
    break;
  case RExpr::Kind::Var:
    Out = VarSets[cast<RVarExpr>(N)->var()];
    break;
  case RExpr::Kind::Lambda:
  case RExpr::Kind::RegApp:
    Out = ValueSets.single(closureAt(N, Env));
    break;
  case RExpr::Kind::App: {
    const auto *A = cast<RAppExpr>(N);
    SetId Fns = analyzeRec(A->fn(), Env);
    SetId Args = analyzeRec(A->arg(), Env);
    std::vector<AbsClosureId> FnList = ValueSets.get(Fns).raw();
    for (AbsClosureId Id : FnList) {
      const AbsClosure Cl = Closures[Id]; // copy: Closures may grow
      writeVar(paramOf(Cl), Args);
      Out = ValueSets.unionSets(Out, analyzeRec(bodyOf(Cl), Cl.Env));
    }
    break;
  }
  case RExpr::Kind::Let: {
    const auto *L = cast<RLetExpr>(N);
    writeVar(L->var(), analyzeRec(L->init(), Env));
    Out = analyzeRec(L->body(), Env);
    break;
  }
  case RExpr::Kind::Letrec:
    Out = analyzeRec(cast<RLetrecExpr>(N)->body(), Env);
    break;
  case RExpr::Kind::If: {
    const auto *I = cast<RIfExpr>(N);
    analyzeRec(I->cond(), Env);
    SetId T = analyzeRec(I->thenExpr(), Env);
    SetId E = analyzeRec(I->elseExpr(), Env);
    Out = ValueSets.unionSets(T, E);
    break;
  }
  case RExpr::Kind::Pair: {
    const auto *P = cast<RPairExpr>(N);
    SetId A = analyzeRec(P->first(), Env);
    SetId B = analyzeRec(P->second(), Env);
    writePool(ValueSets.unionSets(A, B));
    break;
  }
  case RExpr::Kind::Cons: {
    const auto *Cn = cast<RConsExpr>(N);
    SetId H = analyzeRec(Cn->head(), Env);
    analyzeRec(Cn->tail(), Env);
    writePool(H);
    break;
  }
  case RExpr::Kind::UnOp: {
    const auto *U = cast<RUnOpExpr>(N);
    analyzeRec(U->operand(), Env);
    if (Prog.Types.kind(N->type()) == RTypeKind::Arrow)
      Out = EscapePool;
    break;
  }
  case RExpr::Kind::BinOp: {
    const auto *B = cast<RBinOpExpr>(N);
    analyzeRec(B->lhs(), Env);
    analyzeRec(B->rhs(), Env);
    break;
  }
  }

  InProgress[C] = 0;
  ++Stats.ProcessedContexts;
  SetId NewVal = ValueSets.unionSets(Ctxs[C].Val, Out);
  if (NewVal != Ctxs[C].Val) {
    Ctxs[C].Val = NewVal;
    Changed = true;
  }
  return Ctxs[C].Val;
}

bool ClosureAnalysis::runRestart() {
  do {
    Changed = false;
    std::fill(InProgress.begin(), InProgress.end(), 0);
    analyzeRec(Prog.Root, RootEnv);
    ++Stats.Passes;
    if (Changed && Stats.Passes >= Options.MaxPasses) {
      Error = "closure analysis failed to stabilize within " +
              std::to_string(Options.MaxPasses) + " passes";
      return false;
    }
  } while (Changed);
  return true;
}

//===----------------------------------------------------------------------===//
// Canonicalization
//===----------------------------------------------------------------------===//

ClosureAnalysis::SetId
ClosureAnalysis::remapSet(SetId S, const std::vector<AbsClosureId> &Perm,
                          std::unordered_map<SetId, SetId> &Memo) {
  if (S == EmptySet)
    return EmptySet;
  auto It = Memo.find(S);
  if (It != Memo.end())
    return It->second;
  std::vector<AbsClosureId> Mapped = ValueSets.get(S).raw();
  for (AbsClosureId &Id : Mapped)
    Id = Perm[Id];
  std::sort(Mapped.begin(), Mapped.end());
  SetId R = ValueSets.intern(FlatSet<AbsClosureId>::fromSorted(std::move(Mapped)));
  Memo.emplace(S, R);
  return R;
}

void ClosureAnalysis::canonicalize() {
  if (Closures.empty())
    return;
  // Content order: (function node id, lexicographic environment). Ids
  // become independent of the order the fixpoint discovered closures in,
  // so the worklist and restart modes hand constraint generation the
  // same iteration order — and the same emitted system.
  std::vector<AbsClosureId> Order(Closures.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::sort(Order.begin(), Order.end(),
            [&](AbsClosureId A, AbsClosureId B) {
              const AbsClosure &CA = Closures[A];
              const AbsClosure &CB = Closures[B];
              if (CA.Fun->id() != CB.Fun->id())
                return CA.Fun->id() < CB.Fun->id();
              return Envs.get(CA.Env) < Envs.get(CB.Env);
            });
  std::vector<AbsClosureId> Perm(Closures.size());
  for (uint32_t New = 0; New != Order.size(); ++New)
    Perm[Order[New]] = New;
  bool Identity = true;
  for (uint32_t I = 0; I != Perm.size(); ++I)
    if (Perm[I] != I) {
      Identity = false;
      break;
    }
  if (Identity)
    return;

  std::vector<AbsClosure> NewClosures(Closures.size());
  for (uint32_t I = 0; I != Closures.size(); ++I)
    NewClosures[Perm[I]] = Closures[I];
  Closures = std::move(NewClosures);
  ClosureIndex.clear();
  for (uint32_t I = 0; I != Closures.size(); ++I)
    ClosureIndex.emplace(
        (static_cast<uint64_t>(Closures[I].Fun->id()) << 32) |
            Closures[I].Env,
        I);
  // The memoized (env → closure) mapping holds pre-permutation ids and is
  // only consulted by the fixpoint; drop it.
  for (auto &Cache : ClosCache)
    Cache.clear();

  std::unordered_map<SetId, SetId> Memo;
  for (CtxInfo &C : Ctxs)
    C.Val = remapSet(C.Val, Perm, Memo);
  for (SetId &S : VarSets)
    S = remapSet(S, Perm, Memo);
  EscapePool = remapSet(EscapePool, Perm, Memo);
}

bool ClosureAnalysis::run() {
  Stats = ClosureStats();
  Stats.UsedWorklist = Options.UseWorklist;
  bool Ok = Options.UseWorklist ? runWorklist() : runRestart();
  if (Ok)
    canonicalize();
  Stats.Converged = Ok;
  Stats.NumContexts = Ctxs.size();
  Stats.NumClosures = Closures.size();
  Stats.NumEnvs = Envs.size();
  Stats.InternedSets = ValueSets.size();
  if (Ok)
    recordWideningStats();
  return Ok;
}
