#include "completion/StorageModes.h"

#include "support/FlatSet.h"

using namespace afl;
using namespace afl::completion;
using namespace afl::regions;

namespace {

class ModeAnalyzer {
public:
  ModeAnalyzer(const RegionProgram &Prog, StorageModes &Out)
      : Prog(Prog), Out(Out) {}

  void run() {
    analyzeDomain(Prog.Root);
  }

private:
  using VarSet = FlatSet<VarId>;
  using RegSet = RegionSet;

  /// Collects the regions letregion-bound within the domain rooted at
  /// \p Body (not descending into inner domains).
  void collectLocals(const RExpr *N, RegSet &Out) const {
    for (RegionVarId R : N->boundRegions())
      Out.insert(R);
    switch (N->kind()) {
    case RExpr::Kind::App:
      collectLocals(cast<RAppExpr>(N)->fn(), Out);
      collectLocals(cast<RAppExpr>(N)->arg(), Out);
      return;
    case RExpr::Kind::Let:
      collectLocals(cast<RLetExpr>(N)->init(), Out);
      collectLocals(cast<RLetExpr>(N)->body(), Out);
      return;
    case RExpr::Kind::Letrec:
      collectLocals(cast<RLetrecExpr>(N)->body(), Out);
      return;
    case RExpr::Kind::If:
      collectLocals(cast<RIfExpr>(N)->cond(), Out);
      collectLocals(cast<RIfExpr>(N)->thenExpr(), Out);
      collectLocals(cast<RIfExpr>(N)->elseExpr(), Out);
      return;
    case RExpr::Kind::Pair:
      collectLocals(cast<RPairExpr>(N)->first(), Out);
      collectLocals(cast<RPairExpr>(N)->second(), Out);
      return;
    case RExpr::Kind::Cons:
      collectLocals(cast<RConsExpr>(N)->head(), Out);
      collectLocals(cast<RConsExpr>(N)->tail(), Out);
      return;
    case RExpr::Kind::UnOp:
      collectLocals(cast<RUnOpExpr>(N)->operand(), Out);
      return;
    case RExpr::Kind::BinOp:
      collectLocals(cast<RBinOpExpr>(N)->lhs(), Out);
      collectLocals(cast<RBinOpExpr>(N)->rhs(), Out);
      return;
    default:
      return; // leaves; Lambda/fnBody start their own domain
    }
  }

  /// Local regions of μ \p T.
  RegSet typeRegions(RTypeId T) const {
    RegionSet All;
    Prog.Types.freeRegionVars(T, All);
    RegSet Out;
    for (RegionVarId R : All)
      if (Locals.count(R))
        Out.insert(R);
    return Out;
  }

  /// Local regions reachable from the types of \p Vars.
  RegSet varRegions(const VarSet &Vars) const {
    RegSet Out;
    for (VarId V : Vars)
      Out.unionWith(typeRegions(Prog.varInfo(V).Type));
    return Out;
  }

  /// Decides the mode of \p N's write: `atbot` iff the region is local
  /// and none of \p LiveAfter's variables, \p Pending, or \p ValueRefs
  /// (regions the value being written itself references) can reach its
  /// current contents.
  void decide(const RExpr *N, const VarSet &LiveAfter, const RegSet &Pending,
              const RegSet &ValueRefs) {
    if (!N->hasWriteRegion())
      return;
    RegionVarId R = N->writeRegion();
    if (!Locals.count(R))
      return;
    if (Pending.count(R) || ValueRefs.count(R))
      return;
    RegSet LiveRegions = varRegions(LiveAfter);
    if (LiveRegions.count(R))
      return;
    Out.AtBot.insert(N->id());
  }

  /// Regions the value being written references (components, captured
  /// environments) — these must survive the write, *including* the write
  /// region itself when a component lives there (a cons cell's tail is in
  /// the very spine region the cell is written to).
  RegSet valueRefs(const RExpr *N) const {
    switch (N->kind()) {
    case RExpr::Kind::Pair: {
      const auto *P = cast<RPairExpr>(N);
      RegSet Refs = typeRegions(P->first()->type());
      Refs.unionWith(typeRegions(P->second()->type()));
      return Refs;
    }
    case RExpr::Kind::Cons: {
      const auto *C = cast<RConsExpr>(N);
      RegSet Refs = typeRegions(C->head()->type());
      Refs.unionWith(typeRegions(C->tail()->type()));
      return Refs;
    }
    case RExpr::Kind::Lambda:
    case RExpr::Kind::Letrec:
    case RExpr::Kind::RegApp:
      // Closures capture values reachable through the arrow type's latent
      // effect; keep the full type frv (conservative: includes the box).
      return typeRegions(N->type());
    default:
      // Ints, booleans, unit, nil: self-contained values.
      return RegSet();
    }
  }

  /// Backward liveness walk. \p LiveAfter: variables live after \p N;
  /// \p Pending: local regions of values held by enclosing evaluation
  /// contexts while \p N runs. Returns the variables live before \p N.
  VarSet walk(const RExpr *N, VarSet LiveAfter, const RegSet &Pending) {
    switch (N->kind()) {
    case RExpr::Kind::Int:
    case RExpr::Kind::Bool:
    case RExpr::Kind::Unit:
    case RExpr::Kind::Nil:
      decide(N, LiveAfter, Pending, RegSet());
      return LiveAfter;
    case RExpr::Kind::Var:
      LiveAfter.insert(cast<RVarExpr>(N)->var());
      return LiveAfter;
    case RExpr::Kind::Lambda: {
      // The closure's captured values are covered by its type's latent
      // effect; the body is a separate domain.
      decide(N, LiveAfter, Pending, valueRefs(N));
      analyzeDomain(cast<RLambdaExpr>(N)->body());
      // Captured variables must stay live as long as the closure value
      // can be applied; approximate by keeping them live from here.
      VarSet Live = LiveAfter;
      addFreeVars(cast<RLambdaExpr>(N)->body(), Live);
      Live.erase(cast<RLambdaExpr>(N)->param());
      return Live;
    }
    case RExpr::Kind::RegApp: {
      decide(N, LiveAfter, Pending, valueRefs(N));
      LiveAfter.insert(cast<RRegAppExpr>(N)->fn());
      return LiveAfter;
    }
    case RExpr::Kind::App: {
      const auto *A = cast<RAppExpr>(N);
      // While the argument evaluates, the function value is pending, and
      // everything the callee may later read is reachable through the
      // function type's latent effect (part of frv of the arrow type).
      RegSet DuringArg = Pending;
      DuringArg.unionWith(typeRegions(A->fn()->type()));
      VarSet LiveArg = walk(A->arg(), LiveAfter, DuringArg);
      return walk(A->fn(), std::move(LiveArg), Pending);
    }
    case RExpr::Kind::Let: {
      const auto *L = cast<RLetExpr>(N);
      VarSet LiveBody = walk(L->body(), std::move(LiveAfter), Pending);
      LiveBody.erase(L->var());
      return walk(L->init(), std::move(LiveBody), Pending);
    }
    case RExpr::Kind::Letrec: {
      const auto *L = cast<RLetrecExpr>(N);
      decide(N, LiveAfter, Pending, valueRefs(N));
      analyzeDomain(L->fnBody());
      VarSet LiveBody = walk(L->body(), std::move(LiveAfter), Pending);
      LiveBody.erase(L->fn());
      return LiveBody;
    }
    case RExpr::Kind::If: {
      const auto *I = cast<RIfExpr>(N);
      VarSet LiveThen = walk(I->thenExpr(), LiveAfter, Pending);
      VarSet LiveElse = walk(I->elseExpr(), LiveAfter, Pending);
      LiveThen.unionWith(LiveElse);
      return walk(I->cond(), std::move(LiveThen), Pending);
    }
    case RExpr::Kind::Pair: {
      const auto *P = cast<RPairExpr>(N);
      decide(N, LiveAfter, Pending, valueRefs(N));
      RegSet DuringSecond = Pending;
      DuringSecond.unionWith(typeRegions(P->first()->type()));
      VarSet LiveSecond = walk(P->second(), std::move(LiveAfter),
                               DuringSecond);
      return walk(P->first(), std::move(LiveSecond), Pending);
    }
    case RExpr::Kind::Cons: {
      const auto *C = cast<RConsExpr>(N);
      decide(N, LiveAfter, Pending, valueRefs(N));
      RegSet DuringTail = Pending;
      DuringTail.unionWith(typeRegions(C->head()->type()));
      VarSet LiveTail = walk(C->tail(), std::move(LiveAfter), DuringTail);
      return walk(C->head(), std::move(LiveTail), Pending);
    }
    case RExpr::Kind::UnOp: {
      const auto *U = cast<RUnOpExpr>(N);
      // Projections return addresses INTO the operand's value: the
      // result's regions are pending while nothing — they are covered by
      // the result being consumed upstream (Pending at this node).
      decide(N, LiveAfter, Pending, RegSet());
      return walk(U->operand(), std::move(LiveAfter), Pending);
    }
    case RExpr::Kind::BinOp: {
      const auto *B = cast<RBinOpExpr>(N);
      // Operands are fully consumed (read) before the result is written,
      // so they need not block an atbot on the result region.
      decide(N, LiveAfter, Pending, RegSet());
      RegSet DuringRhs = Pending;
      DuringRhs.unionWith(typeRegions(B->lhs()->type()));
      VarSet LiveRhs = walk(B->rhs(), std::move(LiveAfter), DuringRhs);
      return walk(B->lhs(), std::move(LiveRhs), Pending);
    }
    }
    return LiveAfter;
  }

  /// Adds the free value variables of \p N's subtree to \p Out
  /// (over-approximation: includes bound ones too, which is harmless for
  /// liveness since their types' regions are in scope anyway).
  void addFreeVars(const RExpr *N, VarSet &Out) const {
    switch (N->kind()) {
    case RExpr::Kind::Var:
      Out.insert(cast<RVarExpr>(N)->var());
      return;
    case RExpr::Kind::RegApp:
      Out.insert(cast<RRegAppExpr>(N)->fn());
      return;
    case RExpr::Kind::Lambda:
      addFreeVars(cast<RLambdaExpr>(N)->body(), Out);
      return;
    case RExpr::Kind::App:
      addFreeVars(cast<RAppExpr>(N)->fn(), Out);
      addFreeVars(cast<RAppExpr>(N)->arg(), Out);
      return;
    case RExpr::Kind::Let:
      addFreeVars(cast<RLetExpr>(N)->init(), Out);
      addFreeVars(cast<RLetExpr>(N)->body(), Out);
      return;
    case RExpr::Kind::Letrec:
      addFreeVars(cast<RLetrecExpr>(N)->fnBody(), Out);
      addFreeVars(cast<RLetrecExpr>(N)->body(), Out);
      return;
    case RExpr::Kind::If:
      addFreeVars(cast<RIfExpr>(N)->cond(), Out);
      addFreeVars(cast<RIfExpr>(N)->thenExpr(), Out);
      addFreeVars(cast<RIfExpr>(N)->elseExpr(), Out);
      return;
    case RExpr::Kind::Pair:
      addFreeVars(cast<RPairExpr>(N)->first(), Out);
      addFreeVars(cast<RPairExpr>(N)->second(), Out);
      return;
    case RExpr::Kind::Cons:
      addFreeVars(cast<RConsExpr>(N)->head(), Out);
      addFreeVars(cast<RConsExpr>(N)->tail(), Out);
      return;
    case RExpr::Kind::UnOp:
      addFreeVars(cast<RUnOpExpr>(N)->operand(), Out);
      return;
    case RExpr::Kind::BinOp:
      addFreeVars(cast<RBinOpExpr>(N)->lhs(), Out);
      addFreeVars(cast<RBinOpExpr>(N)->rhs(), Out);
      return;
    default:
      return;
    }
  }

  void analyzeDomain(const RExpr *Body) {
    RegSet SavedLocals = std::move(Locals);
    Locals.clear();
    collectLocals(Body, Locals);
    // Nothing outside the domain can reach a domain-local region's
    // contents, so liveness starts empty at the domain's end.
    walk(Body, VarSet(), RegSet());
    Locals = std::move(SavedLocals);
  }

  const RegionProgram &Prog;
  StorageModes &Out;
  RegSet Locals;
};

} // namespace

StorageModes
completion::inferStorageModes(const regions::RegionProgram &Prog) {
  StorageModes Out;
  ModeAnalyzer A(Prog, Out);
  A.run();
  return Out;
}
