#include "constraints/ConstraintGen.h"

#include "constraints/StateVecInterner.h"
#include "support/Metrics.h"

#include <algorithm>
#include <numeric>

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
/// share one ShapeId — and the variable half is a span of the
/// generator's id pool: entry i, at `Pool[Off + i]`, holds the variable
/// of the shape's i-th color. Iteration is in ascending color order, so
/// emission order does not depend on the representation.
///
/// Vectors are values over shared storage: a same-shape projection
/// returns its argument, so a span may be reachable from several
/// vectors (and from a cached context). Nothing rewrites a span in place
/// unless it cloned the span first.
struct StateVec {
  ShapeId Shape = StateVecInterner::Empty;
  uint32_t Off = 0;
};

constexpr StateVarId NoState = ~0u;
constexpr BoolVarId NoBool = ~0u;
constexpr uint32_t NoSlot = ~0u;

class Generator {
public:
  Generator(const RegionProgram &Prog, closure::ClosureAnalysis &CA,
            const GenOptions &Options, GenResult &Out)
      : Prog(Prog), CA(CA), Options(Options), Out(Out) {
    CtxCache.resize(CA.numCtxIds());
    // Pre-size: genApp holds references into this across recursion, so
    // the vector must never reallocate.
    CalleeCache.resize(CA.numClosures());
    SlotBase.assign(Prog.numNodes(), NoSlot);
  }

  void run() {
    const CtxEntry &Root = genCtx(Prog.Root, CA.rootEnv());
    // Program start: all global regions unallocated.
    // Program end: the result is observed, so every global (result) region
    // must be allocated. (They are reclaimed by program exit.)
    for (RegionVarId R : Prog.GlobalRegions) {
      Color C = CA.envs().colorOf(CA.rootEnv(), R);
      StateVarId S = svFind(Root.In, C);
      if (S != NoState)
        Out.Sys.restrictState(S, StU);
      S = svFind(Root.Out, C);
      if (S != NoState)
        Out.Sys.restrictState(S, StA);
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

  uint32_t poolSize() const { return static_cast<uint32_t>(Pool.size()); }

  /// First slot of \p N's choice booleans, reserved at its first context:
  /// alloc_before at `+ i` and free_after at `+ |overall effect| + i` for
  /// the i-th overall-effect region, then free_app for an application.
  uint32_t slotsOf(const RExpr *N) {
    uint32_t &Base = SlotBase[N->id()];
    if (Base == NoSlot) {
      Base = static_cast<uint32_t>(Slots.size());
      Slots.resize(Slots.size() + 2 * N->overallEffect().size() +
                       (N->kind() == RExpr::Kind::App ? 1 : 0),
                   NoBool);
    }
    return Base;
  }

  /// The boolean shared by every context of one syntactic choice point,
  /// created on first use: booleans and `GenResult::Choices` come out in
  /// first-use order.
  BoolVarId choice(uint32_t Slot, RNodeId Node, COpKind Kind,
                   RegionVarId Region) {
    BoolVarId &B = Slots[Slot];
    if (B == NoBool) {
      B = sys().newBool();
      Out.Choices.push_back({Node, Kind, Region, B});
    }
    return B;
  }

  /// The color plan of a context's overall effect \p Eff under \p Env:
  /// the interned shape, and (from PlanPos[Base]) each region's position
  /// in it — the chain positions, which the post-chain reads after the
  /// recursion.
  struct Plan {
    const RegionSet *Eff = nullptr;
    RegEnvId Env = 0;
    ShapeId Shape = StateVecInterner::Empty;
    size_t Base = 0;
  };

  /// Makes the plan of (\p Eff, \p Env) current. A context whose effect
  /// set and environment are the enclosing context's — a node that binds
  /// no region, reached from its parent — shares the enclosing plan.
  /// Otherwise each region of \p Eff is resolved to its color once (a
  /// forward search: the effect set and the environment both ascend by
  /// region variable), the shape is interned from those colors, and each
  /// region's position in the shape is pushed onto PlanPos. The caller
  /// restores the previous plan (and PlanPos) when it leaves.
  void enterPlan(const RegionSet &Eff, RegEnvId Env) {
    if (&Eff == CurPlan.Eff && Env == CurPlan.Env)
      return;
    const closure::RegEnvMap &Map = CA.envs().get(Env);
    ColorBuf.clear();
    auto It = Map.begin();
    for (RegionVarId R : Eff) {
      It = std::lower_bound(
          It, Map.end(), R,
          [](const auto &Entry, RegionVarId V) { return Entry.first < V; });
      assert(It != Map.end() && It->first == R &&
             "overall-effect region not in the context environment");
      ColorBuf.push_back(It->second);
    }
    ShapeBuf.assign(ColorBuf.begin(), ColorBuf.end());
    std::sort(ShapeBuf.begin(), ShapeBuf.end());
    ShapeBuf.erase(std::unique(ShapeBuf.begin(), ShapeBuf.end()),
                   ShapeBuf.end());
    CurPlan = {&Eff, Env, IV.intern(ShapeBuf), PlanPos.size()};
    for (Color C : ColorBuf)
      PlanPos.push_back(static_cast<uint32_t>(
          std::lower_bound(ShapeBuf.begin(), ShapeBuf.end(), C) -
          ShapeBuf.begin()));
  }

  StateVec freshVec(ShapeId Shape) {
    StateVec V{Shape, poolSize()};
    size_t N = IV.size(Shape);
    StateVarId First = sys().newStates(N);
    Pool.resize(Pool.size() + N);
    std::iota(Pool.begin() + V.Off, Pool.end(), First);
    return V;
  }

  /// A private copy of \p V's span, safe to rewrite.
  StateVec clone(const StateVec &V) {
    StateVec C{V.Shape, poolSize()};
    size_t N = IV.size(V.Shape);
    Pool.resize(Pool.size() + N);
    std::copy_n(Pool.begin() + V.Off, N, Pool.begin() + C.Off);
    return C;
  }

  /// \p V's variable for color \p C, or NoState.
  StateVarId svFind(const StateVec &V, Color C) const {
    size_t Idx = IV.indexOf(V.Shape, C);
    return Idx == FlatSet<Color>::npos ? NoState : Pool[V.Off + Idx];
  }

  StateVarId svAt(const StateVec &V, Color C) const {
    size_t Idx = IV.indexOf(V.Shape, C);
    assert(Idx != FlatSet<Color>::npos && "color missing from state vector");
    return Pool[V.Off + Idx];
  }

  /// Equates \p A and \p B on their common colors (addEq calls in
  /// ascending color order). Same shape — the dominant case — is a
  /// direct pairwise loop; otherwise the memoized common-index map
  /// replaces the linear merge.
  void linkEq(const StateVec &A, const StateVec &B) {
    if (A.Shape == B.Shape) {
      for (size_t I = 0, N = IV.size(A.Shape); I != N; ++I)
        sys().addEq(Pool[A.Off + I], Pool[B.Off + I]);
      return;
    }
    for (const auto &[IA, IB] : IV.common(A.Shape, B.Shape))
      sys().addEq(Pool[A.Off + IA], Pool[B.Off + IB]);
  }

  /// Projection of \p V onto shape \p To (all of \p To's colors must be
  /// present in \p V's shape). Same shape aliases \p V.
  StateVec project(const StateVec &V, ShapeId To) {
    if (V.Shape == To)
      return V;
    const std::vector<uint32_t> &Map = IV.projection(V.Shape, To);
    StateVec P{To, poolSize()};
    Pool.resize(Pool.size() + Map.size());
    for (size_t I = 0; I != Map.size(); ++I)
      Pool[P.Off + I] = Pool[V.Off + Map[I]];
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

    const RegionSet &Eff = N->overallEffect();
    const Plan Outer = CurPlan;
    const size_t OuterPlanPos = PlanPos.size();
    const uint32_t Slot = slotsOf(N);
    enterPlan(Eff, Env);
    const ShapeId Sh = CurPlan.Shape;
    const size_t Pos = CurPlan.Base;
    E.In = freshVec(Sh);
    E.Out = freshVec(Sh);
    ++Out.NumContexts;

    // letregion entry: freshly introduced regions start unallocated. A
    // node's bound regions are in its overall effect.
    for (RegionVarId R : N->boundRegions())
      sys().restrictState(Pool[E.In.Off + PlanPos[Pos + Eff.indexOf(R)]],
                          StU);

    // Pre-chain: potential alloc_before for every overall-effect region,
    // sequentialized in ascending region order (§4.2: aliased variables
    // must not both fire, which sequential triples guarantee). Under the
    // lexical-allocation ablation, only the introducing node gets a
    // choice point. The chain rewrites positions of a private copy of
    // the In vector — every touched color is in the overall effect,
    // hence in Sh.
    StateVec Cur = clone(E.In);
    for (size_t I = 0; I != Eff.size(); ++I) {
      if (!Options.LateAlloc && !introduces(N, Eff[I]))
        continue;
      BoolVarId B = choice(Slot + I, N->id(), COpKind::AllocBefore, Eff[I]);
      StateVarId Next = sys().newState();
      StateVarId &V = Pool[Cur.Off + PlanPos[Pos + I]];
      sys().addAllocTriple(V, B, Next);
      V = Next;
    }

    StateVec CoreOut = genCore(N, Env, Cur);
    assert(CoreOut.Shape == Sh && "core must preserve the context shape");

    // Post-chain: potential free_after for every overall-effect region.
    // A core that handed back the pre-chain copy (leaves) is rewritten
    // in place; any other result may alias a child's cached vector.
    StateVec Post = CoreOut.Off == Cur.Off ? CoreOut : clone(CoreOut);
    const size_t Free = Slot + Eff.size();
    for (size_t I = 0; I != Eff.size(); ++I) {
      if (!Options.EarlyFree && !introduces(N, Eff[I]))
        continue;
      BoolVarId B = choice(Free + I, N->id(), COpKind::FreeAfter, Eff[I]);
      StateVarId Next = sys().newState();
      StateVarId &V = Pool[Post.Off + PlanPos[Pos + I]];
      sys().addDeallocTriple(V, B, Next);
      V = Next;
    }

    linkEq(Post, E.Out);

    // letregion exit: introduced regions must not be left allocated.
    for (RegionVarId R : N->boundRegions())
      sys().restrictState(Pool[E.Out.Off + PlanPos[Pos + Eff.indexOf(R)]],
                          StU | StD);

    CurPlan = Outer;
    PlanPos.resize(OuterPlanPos);
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
      return genApp(cast<RAppExpr>(N), Env, Cur);
    }
    assert(false && "unknown node kind");
    return Cur;
  }

  StateVec genApp(const RAppExpr *N, RegEnvId Env, const StateVec &Cur) {
    ShapeId My = Cur.Shape;
    StateVec AfterFn = genChild(N->fn(), Env, Cur, My);
    StateVec AfterArg = genChild(N->arg(), Env, AfterFn, My);

    // Fetching the closure reads its region.
    RegionVarId ClosRegion = N->readRegions()[0];
    Color ClosColor = CA.envs().colorOf(Env, ClosRegion);
    requireA(AfterArg, ClosColor);

    // free_app choice point on the closure's region (§1): after the fetch,
    // before the body. AfterArg may alias the argument's cached vector.
    StateVec FA = AfterArg;
    if (Options.FreeApp) {
      size_t ClosIdx = IV.indexOf(My, ClosColor);
      assert(ClosIdx != FlatSet<Color>::npos);
      BoolVarId B =
          choice(slotsOf(N) + 2 * N->overallEffect().size(), N->id(),
                 COpKind::FreeApp, ClosRegion);
      StateVarId Next = sys().newState();
      FA = clone(AfterArg);
      StateVarId &V = Pool[FA.Off + ClosIdx];
      sys().addDeallocTriple(V, B, Next);
      V = Next;
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
          StateVarId FAS = svFind(FA, C), BInS = svFind(Body.In, C);
          if (FAS != NoState && BInS != NoState)
            sys().addEq(FAS, BInS);
          StateVarId RS = svFind(Result, C), BOutS = svFind(Body.Out, C);
          if (RS != NoState && BOutS != NoState)
            sys().addEq(RS, BOutS);
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
            pinA(FA, C);
            pinA(Result, C);
            // The caller may not change this region's state across the
            // call (the callee assumes it allocated throughout).
            BAll.insert(C);
          }
        }
        for (Color C : CallerB) {
          pinA(FA, C);
          pinA(Result, C);
          BAll.insert(C);
        }
        for (Color C : CalleeB) {
          pinA(Body.In, C);
          pinA(Body.Out, C);
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
      sys().addEq(Pool[FA.Off + I], Pool[Result.Off + I]);
    }
    return Result;
  }

  /// Restricts \p V's variable for \p C, if any, to A.
  void pinA(const StateVec &V, Color C) {
    StateVarId S = svFind(V, C);
    if (S != NoState)
      sys().restrictState(S, StA);
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
  /// Variable halves of every state vector (see StateVec).
  std::vector<StateVarId> Pool;
  /// Per node, the first of its choice slots (NoSlot until its first
  /// context); Slots holds the booleans (NoBool until first use).
  std::vector<uint32_t> SlotBase;
  std::vector<BoolVarId> Slots;
  /// Chain positions of the plans on the recursion stack, one per
  /// overall-effect region (see enterPlan), and the current plan.
  std::vector<uint32_t> PlanPos;
  Plan CurPlan;
  /// enterPlan scratch: colors in region order, and the shape.
  std::vector<Color> ColorBuf, ShapeBuf;
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
  Stopwatch Watch;
  Out.Sharding.Shards = Out.Sys.numShards();
  Out.Sharding.LargestShardConstraints = Out.Sys.largestShardConstraints();
  Out.Sharding.InternedShapes = G.numShapes();
  Out.Sharding.FinalizeSeconds = Watch.seconds();
  return Out;
}
