#include "constraints/ConstraintGen.h"

#include "constraints/StateVecInterner.h"

#include <algorithm>
#include <chrono>

using namespace afl;
using namespace afl::constraints;
using namespace afl::regions;
using closure::AbsClosure;
using closure::AbsClosureId;
using closure::Color;
using closure::RegEnvId;

namespace {

using ShapeId = StateVecInterner::ShapeId;

/// A state vector: region color → state variable. The color half (the
/// *shape*) is interned — identical ascending color sets across contexts
/// share one ShapeId — so only the variable half is stored per vector,
/// and entry i holds the variable of the shape's i-th color. Iteration
/// is in ascending color order, the order the previous flat-pair
/// representation produced, so the emitted constraint system is
/// unchanged.
struct StateVec {
  ShapeId Shape = StateVecInterner::Empty;
  std::vector<StateVarId> Vars;
};

class Generator {
public:
  Generator(const RegionProgram &Prog, closure::ClosureAnalysis &CA,
            const GenOptions &Options, GenResult &Out)
      : Prog(Prog), CA(CA), Options(Options), Out(Out) {
    CtxCache.resize(CA.numCtxIds());
    // Pre-size: genApp holds references into this across recursion, so
    // the vector must never reallocate.
    CalleeCache.resize(CA.numClosures());
    for (auto &Index : BoolIndex)
      Index.resize(Prog.numNodes());
  }

  void run() {
    const CtxEntry &Root = genCtx(Prog.Root, CA.rootEnv());
    // Program start: all global regions unallocated.
    // Program end: the result is observed, so every global (result) region
    // must be allocated. (They are reclaimed by program exit.)
    for (RegionVarId R : Prog.GlobalRegions) {
      Color C = CA.envs().colorOf(CA.rootEnv(), R);
      if (const StateVarId *S = svFind(Root.In, C))
        Out.Sys.restrictState(*S, StU);
      if (const StateVarId *S = svFind(Root.Out, C))
        Out.Sys.restrictState(*S, StA);
    }
  }

  size_t numShapes() const { return IV.numShapes(); }

private:
  /// Cached in/out vectors of a generated context, indexed by the closure
  /// analysis' dense context id.
  struct CtxEntry {
    StateVec In, Out;
    bool Done = false;
  };

  ConstraintSystem &sys() { return Out.Sys; }

  /// Shared boolean for a syntactic choice point. Indexed per (kind,
  /// node) as a region→bool list kept sorted by region: the chains ask
  /// in ascending region order and every context of a node re-asks for
  /// the same regions, so lookups binary-search a short node-local list
  /// (the previous linear scan was quadratic in the effect-set size and
  /// showed up in generation profiles).
  BoolVarId boolFor(RNodeId Node, COpKind Kind, RegionVarId Region) {
    auto &Entries =
        BoolIndex[static_cast<unsigned>(Kind)][Node];
    auto It = std::lower_bound(
        Entries.begin(), Entries.end(), Region,
        [](const auto &E, RegionVarId R) { return E.first < R; });
    if (It != Entries.end() && It->first == Region)
      return It->second;
    BoolVarId B = sys().newBool();
    Entries.insert(It, {Region, B});
    Out.Choices.push_back({Node, Kind, Region, B});
    return B;
  }

  StateVec freshVec(ShapeId Shape) {
    StateVec V;
    V.Shape = Shape;
    size_t N = IV.size(Shape);
    V.Vars.reserve(N);
    for (size_t I = 0; I != N; ++I)
      V.Vars.push_back(sys().newState());
    return V;
  }

  const StateVarId *svFind(const StateVec &V, Color C) const {
    size_t Idx = IV.indexOf(V.Shape, C);
    if (Idx == FlatSet<Color>::npos)
      return nullptr;
    return &V.Vars[Idx];
  }

  StateVarId svAt(const StateVec &V, Color C) const {
    size_t Idx = IV.indexOf(V.Shape, C);
    assert(Idx != FlatSet<Color>::npos && "color missing from state vector");
    return V.Vars[Idx];
  }

  /// Equates \p A and \p B on their common colors (addEq calls in
  /// ascending color order, as before). Same shape — the dominant case —
  /// is a direct pairwise loop; otherwise the memoized common-index map
  /// replaces the linear merge.
  void linkEq(const StateVec &A, const StateVec &B) {
    if (A.Shape == B.Shape) {
      for (size_t I = 0; I != A.Vars.size(); ++I)
        sys().addEq(A.Vars[I], B.Vars[I]);
      return;
    }
    for (const auto &[IA, IB] : IV.common(A.Shape, B.Shape))
      sys().addEq(A.Vars[IA], B.Vars[IB]);
  }

  /// Projection of \p V onto shape \p To (all of \p To's colors must be
  /// present in \p V's shape).
  StateVec project(const StateVec &V, ShapeId To) {
    if (V.Shape == To)
      return V;
    StateVec P;
    P.Shape = To;
    const std::vector<uint32_t> &Map = IV.projection(V.Shape, To);
    P.Vars.reserve(Map.size());
    for (uint32_t Idx : Map)
      P.Vars.push_back(V.Vars[Idx]);
    return P;
  }

  void requireA(const StateVec &V, Color C) {
    sys().restrictState(svAt(V, C), StA);
  }

  /// Generates the in/out vectors for context (N, contextEnv(N, Incoming)).
  /// Cached so all call sites of a shared function body link to the same
  /// vectors; recursion terminates because the entry is marked done before
  /// the body is processed. The returned reference is stable: the cache is
  /// pre-sized to the analysis' context count and never reallocates.
  const CtxEntry &genCtx(const RExpr *N, RegEnvId Incoming) {
    RegEnvId Env = CA.contextEnv(N, Incoming);
    uint32_t Ctx = CA.ctxIndex(N->id(), Env);
    assert(Ctx != closure::ClosureAnalysis::NoCtx &&
           "constraint generation reached a context the closure analysis "
           "did not register");
    CtxEntry &E = CtxCache[Ctx];
    if (E.Done)
      return E;
    E.Done = true;

    ShapeId Sh = IV.intern(CA.envs().colorsOf(Env, N->overallEffect()));
    E.In = freshVec(Sh);
    E.Out = freshVec(Sh);
    ++Out.NumContexts;

    // letregion entry: freshly introduced regions start unallocated.
    for (RegionVarId R : N->boundRegions())
      sys().restrictState(svAt(E.In, CA.envs().colorOf(Env, R)), StU);

    // Pre-chain: potential alloc_before for every overall-effect region,
    // sequentialized in ascending region order (§4.2: aliased variables
    // must not both fire, which sequential triples guarantee). Under the
    // lexical-allocation ablation, only the introducing node gets a
    // choice point. The chain rewrites positions of the shared shape in
    // place — every touched color is in the overall effect, hence in Sh.
    StateVec Cur = E.In;
    for (RegionVarId R : N->overallEffect()) {
      if (!Options.LateAlloc && !introduces(N, R))
        continue;
      size_t Idx = IV.indexOf(Sh, CA.envs().colorOf(Env, R));
      assert(Idx != FlatSet<Color>::npos);
      BoolVarId B = boolFor(N->id(), COpKind::AllocBefore, R);
      StateVarId Next = sys().newState();
      sys().addAllocTriple(Cur.Vars[Idx], B, Next);
      Cur.Vars[Idx] = Next;
    }

    StateVec CoreOut = genCore(N, Env, std::move(Cur));
    assert(CoreOut.Shape == Sh && "core must preserve the context shape");

    // Post-chain: potential free_after for every overall-effect region.
    for (RegionVarId R : N->overallEffect()) {
      if (!Options.EarlyFree && !introduces(N, R))
        continue;
      size_t Idx = IV.indexOf(Sh, CA.envs().colorOf(Env, R));
      assert(Idx != FlatSet<Color>::npos);
      BoolVarId B = boolFor(N->id(), COpKind::FreeAfter, R);
      StateVarId Next = sys().newState();
      sys().addDeallocTriple(CoreOut.Vars[Idx], B, Next);
      CoreOut.Vars[Idx] = Next;
    }

    linkEq(CoreOut, E.Out);

    // letregion exit: introduced regions must not be left allocated.
    for (RegionVarId R : N->boundRegions())
      sys().restrictState(svAt(E.Out, CA.envs().colorOf(Env, R)), StU | StD);

    return E;
  }

  /// True if \p N is the point where \p R enters scope (its letregion
  /// node, or the program root for a global region).
  bool introduces(const RExpr *N, RegionVarId R) const {
    for (RegionVarId B : N->boundRegions())
      if (B == R)
        return true;
    if (N == Prog.Root)
      for (RegionVarId G : Prog.GlobalRegions)
        if (G == R)
          return true;
    return false;
  }

  /// Links child (in its own context) into the current chain: equates
  /// \p Cur with the child's in vector and returns the child's out vector
  /// projected onto shape \p My.
  StateVec genChild(const RExpr *Child, RegEnvId Env, const StateVec &Cur,
                    ShapeId My) {
    const CtxEntry &C = genCtx(Child, Env);
    linkEq(Cur, C.In);
    return project(C.Out, My);
  }

  StateVec genCore(const RExpr *N, RegEnvId Env, StateVec Cur) {
    ShapeId My = Cur.Shape;

    auto requireReadsWrites = [&](const StateVec &V) {
      if (N->hasWriteRegion())
        requireA(V, CA.envs().colorOf(Env, N->writeRegion()));
      for (RegionVarId R : N->readRegions())
        requireA(V, CA.envs().colorOf(Env, R));
    };

    switch (N->kind()) {
    case RExpr::Kind::Int:
    case RExpr::Kind::Bool:
    case RExpr::Kind::Unit:
    case RExpr::Kind::Nil:
    case RExpr::Kind::Lambda:
    case RExpr::Kind::RegApp:
      requireReadsWrites(Cur);
      return Cur;
    case RExpr::Kind::Var:
      return Cur;
    case RExpr::Kind::Let: {
      const auto *L = cast<RLetExpr>(N);
      StateVec AfterInit = genChild(L->init(), Env, Cur, My);
      return genChild(L->body(), Env, AfterInit, My);
    }
    case RExpr::Kind::Letrec: {
      const auto *L = cast<RLetrecExpr>(N);
      // Storing the region-polymorphic closure writes ρf.
      requireReadsWrites(Cur);
      return genChild(L->body(), Env, Cur, My);
    }
    case RExpr::Kind::If: {
      const auto *I = cast<RIfExpr>(N);
      StateVec AfterCond = genChild(I->cond(), Env, Cur, My);
      // The condition's region is read after it is evaluated.
      requireA(AfterCond, CA.envs().colorOf(Env, N->readRegions()[0]));
      const CtxEntry &T = genCtx(I->thenExpr(), Env);
      const CtxEntry &E = genCtx(I->elseExpr(), Env);
      linkEq(AfterCond, T.In);
      linkEq(AfterCond, E.In);
      StateVec Joined = freshVec(My);
      linkEq(project(T.Out, My), Joined);
      linkEq(project(E.Out, My), Joined);
      return Joined;
    }
    case RExpr::Kind::Pair: {
      const auto *P = cast<RPairExpr>(N);
      StateVec AfterFirst = genChild(P->first(), Env, Cur, My);
      StateVec AfterSecond = genChild(P->second(), Env, AfterFirst, My);
      requireReadsWrites(AfterSecond);
      return AfterSecond;
    }
    case RExpr::Kind::Cons: {
      const auto *Cn = cast<RConsExpr>(N);
      StateVec AfterHead = genChild(Cn->head(), Env, Cur, My);
      StateVec AfterTail = genChild(Cn->tail(), Env, AfterHead, My);
      requireReadsWrites(AfterTail);
      return AfterTail;
    }
    case RExpr::Kind::UnOp: {
      const auto *U = cast<RUnOpExpr>(N);
      StateVec AfterOp = genChild(U->operand(), Env, Cur, My);
      requireReadsWrites(AfterOp);
      return AfterOp;
    }
    case RExpr::Kind::BinOp: {
      const auto *B = cast<RBinOpExpr>(N);
      StateVec AfterLhs = genChild(B->lhs(), Env, Cur, My);
      StateVec AfterRhs = genChild(B->rhs(), Env, AfterLhs, My);
      requireReadsWrites(AfterRhs);
      return AfterRhs;
    }
    case RExpr::Kind::App:
      return genApp(cast<RAppExpr>(N), Env, std::move(Cur));
    }
    assert(false && "unknown node kind");
    return Cur;
  }

  StateVec genApp(const RAppExpr *N, RegEnvId Env, StateVec Cur) {
    ShapeId My = Cur.Shape;
    StateVec AfterFn = genChild(N->fn(), Env, Cur, My);
    StateVec AfterArg = genChild(N->arg(), Env, AfterFn, My);

    // Fetching the closure reads its region.
    RegionVarId ClosRegion = N->readRegions()[0];
    Color ClosColor = CA.envs().colorOf(Env, ClosRegion);
    requireA(AfterArg, ClosColor);

    // free_app choice point on the closure's region (§1): after the fetch,
    // before the body.
    StateVec FA = AfterArg;
    if (Options.FreeApp) {
      size_t ClosIdx = IV.indexOf(My, ClosColor);
      assert(ClosIdx != FlatSet<Color>::npos);
      BoolVarId B = boolFor(N->id(), COpKind::FreeApp, ClosRegion);
      StateVarId Next = sys().newState();
      sys().addDeallocTriple(FA.Vars[ClosIdx], B, Next);
      FA.Vars[ClosIdx] = Next;
    }

    // Caller-side effect colors of the call (set B in Fig. 4). The latent
    // region set depends only on the fn node's arrow type — cache per node.
    const RegionSet &CallerLatent = callerLatentOf(N->fn());
    FlatSet<Color> CallerB;
    for (RegionVarId R : CallerLatent)
      if (CA.envs().maps(Env, R))
        CallerB.insert(CA.envs().colorOf(Env, R));

    StateVec Result = freshVec(My);

    RegEnvId FnCtxEnv = CA.contextEnv(N->fn(), Env);
    const FlatSet<AbsClosureId> &Closures =
        CA.valuesOf(N->fn()->id(), FnCtxEnv);

    FlatSet<Color> BAll; // union of linked callee effect colors
    for (AbsClosureId Id : Closures) {
      const AbsClosure &Cl = CA.closure(Id);
      const CalleeInfo &Callee = calleeInfoOf(Id);
      const RegionSet &CalleeLatent = Callee.Latent;
      const FlatSet<Color> &CalleeB = Callee.B;
      const CtxEntry &Body = genCtx(CA.bodyOf(Cl), Cl.Env);

      // The B-equalities of Fig. 4 are justified only when the closure's
      // environment is color-consistent with the caller's: every *free*
      // region name mapped by both must have the same color. The callee's
      // region formals are excluded — rebinding them per call is exactly
      // what region polymorphism does, and their colors are caller colors
      // of the actuals by construction. Closures created in this caller's
      // lineage satisfy the check; closures that arrived through merged
      // flows (the escape pool, merged variable sets) may not. A shared
      // region in the closure's *widened* classes is never consistent:
      // its color is a canonical merge representative, so equality with
      // the caller's color does not certify agreement in every merged
      // pre-image environment.
      bool Aligned = true;
      bool WidenedMisalign = false;
      for (const auto &[Var, C] : CA.envs().get(Cl.Env)) {
        if (Callee.Formals.contains(Var))
          continue;
        if (!CA.envs().maps(Env, Var))
          continue;
        if (!Callee.Widened.empty() &&
            std::binary_search(Callee.Widened.begin(), Callee.Widened.end(),
                               Var)) {
          Aligned = false;
          WidenedMisalign = true;
          break;
        }
        if (CA.envs().colorOf(Env, Var) != C) {
          Aligned = false;
          break;
        }
      }

      if (Aligned) {
        // Equate caller and callee states over B on entry and exit.
        for (Color C : CalleeB) {
          const StateVarId *FAS = svFind(FA, C);
          const StateVarId *BInS = svFind(Body.In, C);
          if (FAS && BInS)
            sys().addEq(*FAS, *BInS);
          const StateVarId *RS = svFind(Result, C);
          const StateVarId *BOutS = svFind(Body.Out, C);
          if (RS && BOutS)
            sys().addEq(*RS, *BOutS);
        }
        BAll.unionWith(CalleeB);
      } else {
        // Conservative fallback: pin every region the call touches
        // allocated across the call, on both sides — by *name* on the
        // caller side, so the obligation reaches the caller's own
        // allocation chain regardless of color numbering.
        ++Out.NumPinnedCalls;
        if (WidenedMisalign)
          ++Out.NumWidenedPinned;
        for (regions::RegionVarId V : CalleeLatent) {
          if (CA.envs().maps(Env, V)) {
            Color C = CA.envs().colorOf(Env, V);
            if (const StateVarId *S = svFind(FA, C))
              sys().restrictState(*S, StA);
            if (const StateVarId *S = svFind(Result, C))
              sys().restrictState(*S, StA);
            // The caller may not change this region's state across the
            // call (the callee assumes it allocated throughout).
            BAll.insert(C);
          }
        }
        for (Color C : CallerB) {
          if (const StateVarId *S = svFind(FA, C))
            sys().restrictState(*S, StA);
          if (const StateVarId *S = svFind(Result, C))
            sys().restrictState(*S, StA);
          BAll.insert(C);
        }
        for (Color C : CalleeB) {
          if (const StateVarId *S = svFind(Body.In, C))
            sys().restrictState(*S, StA);
          if (const StateVarId *S = svFind(Body.Out, C))
            sys().restrictState(*S, StA);
        }
      }
    }

    // Set C: caller regions untouched by the call pass through
    // state-polymorphically. (With no known closures — dead code — all
    // colors pass through.) FA and Result share the caller shape, so the
    // pass-through is a direct pairwise loop.
    const FlatSet<Color> &MyColors = IV.colors(My);
    for (size_t I = 0; I != MyColors.size(); ++I) {
      Color C = MyColors[I];
      if (BAll.contains(C) && CallerB.contains(C))
        continue;
      sys().addEq(FA.Vars[I], Result.Vars[I]);
    }
    return Result;
  }

  /// Per-closure call-edge facts: the latent region variables of the
  /// closure's arrow type and their colors in the closure's environment
  /// (set B on the callee side). Both are functions of the closure id
  /// alone; applications with many call edges reuse them.
  struct CalleeInfo {
    RegionSet Latent;
    FlatSet<Color> B;
    /// Region formals of a letrec closure (excluded from the alignment
    /// check); empty for lambdas.
    FlatSet<regions::RegionVarId> Formals;
    /// Recolored environment variables under context-set widening
    /// (sorted; empty when widening is off or did not fire for this
    /// closure) — sharing one with the caller forces the pinned path.
    std::vector<regions::RegionVarId> Widened;
    bool Cached = false;
  };

  const CalleeInfo &calleeInfoOf(AbsClosureId Id) {
    assert(Id < CalleeCache.size() && "closure id out of range");
    CalleeInfo &Info = CalleeCache[Id];
    if (!Info.Cached) {
      const AbsClosure &Cl = CA.closure(Id);
      Info.Latent = CA.latentOf(Cl);
      Info.B = CA.envs().colorsOf(Cl.Env, Info.Latent);
      if (const auto *Callee = dyn_cast<RLetrecExpr>(Cl.Fun))
        for (regions::RegionVarId F : Callee->formals())
          Info.Formals.insert(F);
      Info.Widened = CA.widenedVars(Cl);
      Info.Cached = true;
    }
    return Info;
  }

  /// Caller-side latent region variables, keyed by the fn node.
  const RegionSet &callerLatentOf(const RExpr *Fn) {
    auto [It, Inserted] = CallerLatentCache.try_emplace(Fn->id());
    if (Inserted)
      It->second = Prog.Types.latentRegions(Prog.Types.arrowEffect(Fn->type()));
    return It->second;
  }

  const RegionProgram &Prog;
  closure::ClosureAnalysis &CA;
  const GenOptions &Options;
  GenResult &Out;
  StateVecInterner IV;
  std::vector<CtxEntry> CtxCache;
  std::vector<CalleeInfo> CalleeCache;
  std::unordered_map<RNodeId, RegionSet> CallerLatentCache;
  /// Per choice-point kind and node: (region, boolean variable) pairs.
  std::vector<std::vector<std::pair<RegionVarId, BoolVarId>>> BoolIndex[5];
};

} // namespace

GenResult constraints::generateConstraints(const RegionProgram &Prog,
                                           closure::ClosureAnalysis &CA,
                                           const GenOptions &Options) {
  GenResult Out;
  Generator G(Prog, CA, Options, Out);
  G.run();
  // Finalize the emission-time union-find into CSR shard tables now, so
  // the cost lands in the generation stage (where it is measured) and the
  // solver finds the shards ready.
  auto T0 = std::chrono::steady_clock::now();
  Out.Sharding.Shards = Out.Sys.numShards();
  Out.Sharding.LargestShardConstraints = Out.Sys.largestShardConstraints();
  Out.Sharding.InternedShapes = G.numShapes();
  Out.Sharding.FinalizeSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  return Out;
}
