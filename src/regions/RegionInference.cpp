#include "regions/RegionInference.h"

#include "regions/RegionFinalize.h"

#include "ast/ASTContext.h"
#include "ast/Expr.h"

#include <algorithm>
#include <unordered_map>

using namespace afl;
using namespace afl::regions;

namespace {

/// Region-polymorphic type scheme of a letrec-bound function.
struct FunDecl {
  VarId Var = 0;
  /// The arrow μ of the scheme. Its box region plays the role of the
  /// per-use "@ρ" of a region application and is always instantiated
  /// fresh.
  RTypeId SchemeArrow = 0;
  /// ρf: the region holding the region-polymorphic closure itself.
  RegionVarId ClosRegion = 0;
  /// Environment prefix length at the letrec (bindings visible *outside*
  /// f), used to compute the quantifiable variables.
  size_t EnvDepth = 0;
  /// Final ordered formal region parameters (canonical ids), fixed after
  /// the fixpoint completes.
  std::vector<RegionVarId> Formals;
  bool FormalsFixed = false;
};

/// One environment binding.
struct Binding {
  Symbol Name;
  VarId Var = 0;
  RTypeId Type = 0;
  FunDecl *Fun = nullptr; // non-null iff letrec-bound function
};

/// Result of inferring one expression.
struct Res {
  RExpr *Node = nullptr;
  RTypeId Type = 0;
  EffectSet Eff;
};

class RegionInferencer {
public:
  RegionInferencer(RegionProgram &Prog, const ast::ASTContext &Ctx,
                   const types::TypedProgram &Typed, DiagnosticEngine &Diags)
      : Prog(Prog), Ctx(Ctx), Typed(Typed), Diags(Diags) {}

  bool run(const ast::Expr *Root);

  /// Instantiation substitution per region-application node.
  std::unordered_map<RNodeId, RSubst> RegAppSubst;

private:
  RTypeTable &types() { return Prog.Types; }

  Res infer(const ast::Expr *E);
  Res inferVar(const ast::VarExpr *E);
  Res inferLetrec(const ast::LetrecExpr *E);

  /// Sets \p N's type and returns its Res. The node's own effect needs no
  /// record: it is what the node writes and reads (plus the applied
  /// function's arrow effect at an application), so finalization
  /// recomputes the per-node effects from the annotations.
  static Res finish(RExpr *N, RTypeId Type, EffectSet Eff) {
    N->setType(Type);
    return {N, Type, std::move(Eff)};
  }

  //===------------------------------------------------------------------===//
  // Observable variables. A query marks the canonical region and effect
  // variables free in some environment prefix and types with the current
  // stamp, so membership is one array read. No set is built, and each
  // effect variable's latent set is expanded once per query even when
  // several bindings share it.
  //===------------------------------------------------------------------===//

  /// Starts a new query: nothing is marked.
  void beginMarks() {
    ++Stamp;
    RegionMark.resize(types().numRegionVars(), 0);
    EffectMark.resize(types().numEffectVars(), 0);
  }
  /// Marks frv and fev of the first \p Depth environment bindings, plus
  /// the closure region of each letrec-bound function among them.
  void markEnv(size_t Depth);
  /// Marks frv and fev of μ \p T.
  void markType(RTypeId T);
  void markRegion(RegionVarId R) { RegionMark[types().findRegion(R)] = Stamp; }
  void markEffect(EffectVarId E);
  /// Whether canonical \p R / \p E is marked in the current query.
  bool regionMarked(RegionVarId R) const {
    return R < RegionMark.size() && RegionMark[R] == Stamp;
  }
  bool effectMarked(EffectVarId E) const {
    return E < EffectMark.size() && EffectMark[E] == Stamp;
  }

  /// Computes the observable part of a function body's effect — the
  /// marked regions and effect variables of \p BodyEff — and merges it
  /// into the arrow effect \p Eps. Unmarked regions stay latent-local
  /// (letregion placement binds them inside the body later).
  bool pruneIntoArrowEffect(EffectVarId Eps, const EffectSet &BodyEff);

  /// The variables of a region-polymorphic function's scheme that are not
  /// free in the environment outside it: canonical region variables, and
  /// effect variables, each ascending.
  void quantifiable(const FunDecl &F, std::vector<RegionVarId> &Regions,
                    std::vector<EffectVarId> &Effects);

  /// Deterministic fingerprint of a scheme's region/effect structure, used
  /// to detect the polymorphic-recursion fixpoint.
  std::string fingerprint(RTypeId T) const;
  void fingerprintAppend(RTypeId T, std::string &Out) const;

  RegionProgram &Prog;
  const ast::ASTContext &Ctx;
  const types::TypedProgram &Typed;
  DiagnosticEngine &Diags;
  std::vector<Binding> Env;
  /// Keeps FunDecls alive for the whole run (Env holds raw pointers).
  std::vector<std::unique_ptr<FunDecl>> FunDecls;
  /// Query marks per region / effect variable id, and the current stamp.
  std::vector<uint32_t> RegionMark;
  std::vector<uint32_t> EffectMark;
  uint32_t Stamp = 0;
  std::vector<EffectVarId> EffectWork;
  static constexpr unsigned MaxFixpointIters = 64;
};

} // namespace

void RegionInferencer::markEnv(size_t Depth) {
  size_t N = std::min(Depth, Env.size());
  for (size_t I = 0; I != N; ++I) {
    markType(Env[I].Type);
    if (Env[I].Fun)
      markRegion(Env[I].Fun->ClosRegion);
  }
}

void RegionInferencer::markType(RTypeId T) {
  const RTypeTable &TT = Prog.Types;
  markRegion(TT.regionOf(T));
  switch (TT.kind(T)) {
  case RTypeKind::Int:
  case RTypeKind::Bool:
  case RTypeKind::Unit:
    return;
  case RTypeKind::Pair:
    markType(TT.child0(T));
    markType(TT.child1(T));
    return;
  case RTypeKind::List:
    markType(TT.child0(T));
    return;
  case RTypeKind::Arrow:
    markEffect(TT.arrowEffect(T));
    markType(TT.child0(T));
    markType(TT.child1(T));
    return;
  }
}

void RegionInferencer::markEffect(EffectVarId E) {
  const RTypeTable &TT = Prog.Types;
  EffectWork.assign(1, TT.findEffectVar(E));
  while (!EffectWork.empty()) {
    EffectVarId EV = EffectWork.back();
    EffectWork.pop_back();
    if (EffectMark[EV] == Stamp)
      continue;
    EffectMark[EV] = Stamp;
    const EffectSet &Latent = TT.latentOf(EV);
    for (RegionVarId R : Latent.Regions)
      markRegion(R);
    for (EffectVarId Next : Latent.EffectVars)
      EffectWork.push_back(TT.findEffectVar(Next));
  }
}

bool RegionInferencer::pruneIntoArrowEffect(EffectVarId Eps,
                                            const EffectSet &BodyEff) {
  EffectSet Phi;
  std::vector<RegionVarId> Regions;
  for (RegionVarId R : types().regionsOf(BodyEff))
    if (regionMarked(R))
      Regions.push_back(R);
  Phi.Regions = RegionSet::fromSorted(std::move(Regions));
  std::vector<EffectVarId> Effects;
  for (EffectVarId E : BodyEff.EffectVars) {
    EffectVarId C = types().findEffectVar(E);
    if (effectMarked(C))
      Effects.push_back(C);
  }
  Phi.EffectVars = EffectVarSet::fromUnsorted(std::move(Effects));
  return types().addToEffectVar(Eps, Phi);
}

void RegionInferencer::quantifiable(const FunDecl &F,
                                    std::vector<RegionVarId> &Regions,
                                    std::vector<EffectVarId> &Effects) {
  // The region holding f's own region-polymorphic closure is bound at the
  // letrec, never quantified (the body reads it at recursive calls, so it
  // appears in the latent effect).
  beginMarks();
  markEnv(F.EnvDepth);
  markRegion(F.ClosRegion);
  RegionSet SchemeR;
  types().freeRegionVars(F.SchemeArrow, SchemeR);
  SchemeR.insert(types().regionOf(F.SchemeArrow));
  for (RegionVarId R : SchemeR)
    if (!regionMarked(R))
      Regions.push_back(R);
  EffectVarSet SchemeE;
  types().freeEffectVars(F.SchemeArrow, SchemeE);
  for (EffectVarId EV : SchemeE)
    if (!effectMarked(EV))
      Effects.push_back(EV);
}

void RegionInferencer::fingerprintAppend(RTypeId T, std::string &Out) const {
  const RTypeTable &TT = Prog.Types;
  Out += static_cast<char>('A' + static_cast<int>(TT.kind(T)));
  Out += std::to_string(TT.regionOf(T));
  Out += ';';
  switch (TT.kind(T)) {
  case RTypeKind::Int:
  case RTypeKind::Bool:
  case RTypeKind::Unit:
    return;
  case RTypeKind::Pair:
    fingerprintAppend(TT.child0(T), Out);
    fingerprintAppend(TT.child1(T), Out);
    return;
  case RTypeKind::List:
    fingerprintAppend(TT.child0(T), Out);
    return;
  case RTypeKind::Arrow: {
    Out += '{';
    for (RegionVarId R : TT.latentRegions(TT.arrowEffect(T))) {
      Out += std::to_string(R);
      Out += ',';
    }
    Out += '}';
    fingerprintAppend(TT.child0(T), Out);
    fingerprintAppend(TT.child1(T), Out);
    return;
  }
  }
}

std::string RegionInferencer::fingerprint(RTypeId T) const {
  std::string Out;
  fingerprintAppend(T, Out);
  return Out;
}

Res RegionInferencer::inferVar(const ast::VarExpr *E) {
  for (auto It = Env.rbegin(), End = Env.rend(); It != End; ++It) {
    if (It->Name != E->name())
      continue;
    if (!It->Fun) {
      RVarExpr *N = Prog.create<RVarExpr>(It->Var);
      return finish(N, It->Type, EffectSet());
    }
    // Use of a region-polymorphic function: region application f[ρ⃗]@ρ.
    FunDecl &F = *It->Fun;
    std::vector<RegionVarId> QuantR;
    std::vector<EffectVarId> QuantE;
    quantifiable(F, QuantR, QuantE);
    RSubst Subst;
    for (RegionVarId R : QuantR)
      Subst.Regions.push_back({R, types().freshRegion()});
    for (EffectVarId EV : QuantE)
      Subst.Effects.push_back({EV, types().freshEffectVar()});

    RTypeId Inst = types().instantiate(F.SchemeArrow, Subst);
    RRegAppExpr *N =
        Prog.create<RRegAppExpr>(F.Var, std::vector<RegionVarId>());
    RegAppSubst[N->id()] = Subst;
    N->setWriteRegion(types().regionOf(Inst));
    N->addReadRegion(F.ClosRegion);
    EffectSet Eff;
    Eff.Regions.insert(F.ClosRegion);
    Eff.Regions.insert(types().regionOf(Inst));
    return finish(N, Inst, std::move(Eff));
  }
  assert(false && "unbound variable survived type checking");
  return {};
}

Res RegionInferencer::inferLetrec(const ast::LetrecExpr *E) {
  // Build the initial scheme from the ML type of f.
  types::TypeId ParamMLTy = Typed.paramTypeOf(E);
  types::TypeId ResultMLTy = Typed.typeOf(E->fnBody());
  RTypeId ParamTy = types().freshFromType(Typed.Table, ParamMLTy);
  RTypeId ResultTy = types().freshFromType(Typed.Table, ResultMLTy);
  EffectVarId Eps = types().freshEffectVar();
  RTypeId SchemeArrow =
      types().mkArrow(ParamTy, Eps, ResultTy, types().freshRegion());

  auto Fun = std::make_unique<FunDecl>();
  Fun->Var = Prog.addVar(std::string(Ctx.text(E->fnName())), SchemeArrow);
  Fun->SchemeArrow = SchemeArrow;
  Fun->ClosRegion = types().freshRegion();
  Fun->EnvDepth = Env.size();
  Prog.varInfo(Fun->Var).Type = SchemeArrow;
  Env.push_back({E->fnName(), Fun->Var, SchemeArrow, Fun.get()});

  // Polymorphic-recursion fixpoint: re-infer the body (recursive uses
  // instantiate the current scheme) until the scheme stops changing.
  std::string PrevFp = fingerprint(SchemeArrow);
  Res BodyRes;
  VarId ParamVar = 0;
  bool Stable = false;
  for (unsigned Iter = 0; Iter != MaxFixpointIters; ++Iter) {
    ParamVar = Prog.addVar(std::string(Ctx.text(E->param())), ParamTy);
    Env.push_back({E->param(), ParamVar, ParamTy, nullptr});
    BodyRes = infer(E->fnBody());
    Env.pop_back();
    types().unify(BodyRes.Type, ResultTy);

    beginMarks();
    markEnv(Env.size());
    markType(ParamTy);
    markType(ResultTy);
    pruneIntoArrowEffect(Eps, BodyRes.Eff);

    std::string Fp = fingerprint(SchemeArrow);
    if (Fp == PrevFp) {
      Stable = true;
      break;
    }
    PrevFp = std::move(Fp);
  }
  if (!Stable) {
    Diags.error(E->loc(), "region inference did not reach a fixpoint for '" +
                              std::string(Ctx.text(E->fnName())) + "'");
    Env.pop_back();
    return {};
  }

  // Freeze the formal region parameters: the quantifiable regions minus
  // the per-use box region of the arrow.
  std::vector<RegionVarId> QuantR;
  std::vector<EffectVarId> QuantE;
  quantifiable(*Fun, QuantR, QuantE);
  RegionVarId BoxRegion = types().regionOf(Fun->SchemeArrow);
  for (RegionVarId R : QuantR)
    if (R != BoxRegion)
      Fun->Formals.push_back(R);
  Fun->FormalsFixed = true;

  Res InRes = infer(E->body());
  Env.pop_back();
  if (!InRes.Node || !BodyRes.Node)
    return {};

  RLetrecExpr *N =
      Prog.create<RLetrecExpr>(Fun->Var, Fun->Formals, ParamVar, BodyRes.Node,
                               InRes.Node);
  N->setWriteRegion(Fun->ClosRegion);
  Prog.varInfo(Fun->Var).Letrec = N;
  FunDecls.push_back(std::move(Fun));

  EffectSet Eff = std::move(InRes.Eff);
  Eff.Regions.insert(FunDecls.back()->ClosRegion);
  return finish(N, InRes.Type, std::move(Eff));
}

Res RegionInferencer::infer(const ast::Expr *E) {
  using ast::Expr;
  switch (E->kind()) {
  case Expr::Kind::IntLit: {
    RegionVarId R = types().freshRegion();
    RIntExpr *N = Prog.create<RIntExpr>(ast::cast<ast::IntLitExpr>(E)->value());
    N->setWriteRegion(R);
    EffectSet Eff;
    Eff.Regions.insert(R);
    return finish(N, types().mkInt(R), std::move(Eff));
  }
  case Expr::Kind::BoolLit: {
    RegionVarId R = types().freshRegion();
    RBoolExpr *N =
        Prog.create<RBoolExpr>(ast::cast<ast::BoolLitExpr>(E)->value());
    N->setWriteRegion(R);
    EffectSet Eff;
    Eff.Regions.insert(R);
    return finish(N, types().mkBool(R), std::move(Eff));
  }
  case Expr::Kind::UnitLit: {
    RegionVarId R = types().freshRegion();
    RUnitExpr *N = Prog.create<RUnitExpr>();
    N->setWriteRegion(R);
    EffectSet Eff;
    Eff.Regions.insert(R);
    return finish(N, types().mkUnit(R), std::move(Eff));
  }
  case Expr::Kind::Var:
    return inferVar(ast::cast<ast::VarExpr>(E));
  case Expr::Kind::Lambda: {
    const auto *L = ast::cast<ast::LambdaExpr>(E);
    RTypeId ParamTy =
        types().freshFromType(Typed.Table, Typed.paramTypeOf(E));
    VarId ParamVar = Prog.addVar(std::string(Ctx.text(L->param())), ParamTy);
    Env.push_back({L->param(), ParamVar, ParamTy, nullptr});
    Res Body = infer(L->body());
    Env.pop_back();
    if (!Body.Node)
      return {};

    EffectVarId Eps = types().freshEffectVar();
    beginMarks();
    markEnv(Env.size());
    markType(ParamTy);
    markType(Body.Type);
    pruneIntoArrowEffect(Eps, Body.Eff);

    RegionVarId R = types().freshRegion();
    RTypeId Ty = types().mkArrow(ParamTy, Eps, Body.Type, R);
    RLambdaExpr *N = Prog.create<RLambdaExpr>(ParamVar, Body.Node);
    N->setWriteRegion(R);
    EffectSet Eff;
    Eff.Regions.insert(R);
    return finish(N, Ty, std::move(Eff));
  }
  case Expr::Kind::App: {
    const auto *A = ast::cast<ast::AppExpr>(E);
    Res Fn = infer(A->fn());
    if (!Fn.Node)
      return {};
    Res Arg = infer(A->arg());
    if (!Arg.Node)
      return {};
    assert(types().kind(Fn.Type) == RTypeKind::Arrow &&
           "application of non-arrow survived type checking");
    types().unify(types().child0(Fn.Type), Arg.Type);
    RTypeId ResultTy = types().child1(Fn.Type);
    RAppExpr *N = Prog.create<RAppExpr>(Fn.Node, Arg.Node);
    RegionVarId ClosR = types().regionOf(Fn.Type);
    N->addReadRegion(ClosR);
    EffectSet Eff = std::move(Fn.Eff);
    Eff.unionWith(Arg.Eff);
    Eff.Regions.insert(ClosR);
    Eff.EffectVars.insert(types().arrowEffect(Fn.Type));
    return finish(N, ResultTy, std::move(Eff));
  }
  case Expr::Kind::Let: {
    const auto *L = ast::cast<ast::LetExpr>(E);
    Res Init = infer(L->init());
    if (!Init.Node)
      return {};
    VarId V = Prog.addVar(std::string(Ctx.text(L->name())), Init.Type);
    Env.push_back({L->name(), V, Init.Type, nullptr});
    Res Body = infer(L->body());
    Env.pop_back();
    if (!Body.Node)
      return {};
    RLetExpr *N = Prog.create<RLetExpr>(V, Init.Node, Body.Node);
    EffectSet Eff = std::move(Init.Eff);
    Eff.unionWith(Body.Eff);
    return finish(N, Body.Type, std::move(Eff));
  }
  case Expr::Kind::Letrec:
    return inferLetrec(ast::cast<ast::LetrecExpr>(E));
  case Expr::Kind::If: {
    const auto *I = ast::cast<ast::IfExpr>(E);
    Res Cond = infer(I->cond());
    if (!Cond.Node)
      return {};
    Res Then = infer(I->thenExpr());
    if (!Then.Node)
      return {};
    Res Else = infer(I->elseExpr());
    if (!Else.Node)
      return {};
    types().unify(Then.Type, Else.Type);
    RIfExpr *N = Prog.create<RIfExpr>(Cond.Node, Then.Node, Else.Node);
    RegionVarId CondR = types().regionOf(Cond.Type);
    N->addReadRegion(CondR);
    EffectSet Eff = std::move(Cond.Eff);
    Eff.unionWith(Then.Eff);
    Eff.unionWith(Else.Eff);
    Eff.Regions.insert(CondR);
    return finish(N, Then.Type, std::move(Eff));
  }
  case Expr::Kind::Pair: {
    const auto *P = ast::cast<ast::PairExpr>(E);
    Res First = infer(P->first());
    if (!First.Node)
      return {};
    Res Second = infer(P->second());
    if (!Second.Node)
      return {};
    RegionVarId R = types().freshRegion();
    RTypeId Ty = types().mkPair(First.Type, Second.Type, R);
    RPairExpr *N = Prog.create<RPairExpr>(First.Node, Second.Node);
    N->setWriteRegion(R);
    EffectSet Eff = std::move(First.Eff);
    Eff.unionWith(Second.Eff);
    Eff.Regions.insert(R);
    return finish(N, Ty, std::move(Eff));
  }
  case Expr::Kind::Nil: {
    RTypeId Ty = types().freshFromType(Typed.Table, Typed.typeOf(E));
    assert(types().kind(Ty) == RTypeKind::List && "nil must have list type");
    RNilExpr *N = Prog.create<RNilExpr>();
    RegionVarId R = types().regionOf(Ty);
    N->setWriteRegion(R);
    EffectSet Eff;
    Eff.Regions.insert(R);
    return finish(N, Ty, std::move(Eff));
  }
  case Expr::Kind::Cons: {
    const auto *C = ast::cast<ast::ConsExpr>(E);
    Res Head = infer(C->head());
    if (!Head.Node)
      return {};
    Res Tail = infer(C->tail());
    if (!Tail.Node)
      return {};
    assert(types().kind(Tail.Type) == RTypeKind::List && "cons of non-list");
    types().unify(types().child0(Tail.Type), Head.Type);
    RConsExpr *N = Prog.create<RConsExpr>(Head.Node, Tail.Node);
    RegionVarId SpineR = types().regionOf(Tail.Type);
    N->setWriteRegion(SpineR);
    EffectSet Eff = std::move(Head.Eff);
    Eff.unionWith(Tail.Eff);
    Eff.Regions.insert(SpineR);
    return finish(N, Tail.Type, std::move(Eff));
  }
  case Expr::Kind::UnOp: {
    const auto *U = ast::cast<ast::UnOpExpr>(E);
    Res Operand = infer(U->operand());
    if (!Operand.Node)
      return {};
    RUnOpExpr *N = Prog.create<RUnOpExpr>(U->op(), Operand.Node);
    RegionVarId OpR = types().regionOf(Operand.Type);
    N->addReadRegion(OpR);
    EffectSet Eff = std::move(Operand.Eff);
    Eff.Regions.insert(OpR);
    switch (U->op()) {
    case ast::UnOpKind::Fst:
      return finish(N, types().child0(Operand.Type), std::move(Eff));
    case ast::UnOpKind::Snd:
      return finish(N, types().child1(Operand.Type), std::move(Eff));
    case ast::UnOpKind::Null: {
      RegionVarId R = types().freshRegion();
      N->setWriteRegion(R);
      Eff.Regions.insert(R);
      return finish(N, types().mkBool(R), std::move(Eff));
    }
    case ast::UnOpKind::Hd:
      return finish(N, types().child0(Operand.Type), std::move(Eff));
    case ast::UnOpKind::Tl:
      return finish(N, Operand.Type, std::move(Eff));
    }
    return {};
  }
  case Expr::Kind::BinOp: {
    const auto *B = ast::cast<ast::BinOpExpr>(E);
    Res Lhs = infer(B->lhs());
    if (!Lhs.Node)
      return {};
    Res Rhs = infer(B->rhs());
    if (!Rhs.Node)
      return {};
    RBinOpExpr *N = Prog.create<RBinOpExpr>(B->op(), Lhs.Node, Rhs.Node);
    RegionVarId LR = types().regionOf(Lhs.Type);
    RegionVarId RR = types().regionOf(Rhs.Type);
    N->addReadRegion(LR);
    N->addReadRegion(RR);
    RegionVarId ResR = types().freshRegion();
    N->setWriteRegion(ResR);
    EffectSet Eff = std::move(Lhs.Eff);
    Eff.unionWith(Rhs.Eff);
    Eff.Regions.insert(LR);
    Eff.Regions.insert(RR);
    Eff.Regions.insert(ResR);
    bool IsCompare = B->op() == ast::BinOpKind::Lt ||
                     B->op() == ast::BinOpKind::Le ||
                     B->op() == ast::BinOpKind::Eq;
    RTypeId Ty =
        IsCompare ? types().mkBool(ResR) : types().mkInt(ResR);
    return finish(N, Ty, std::move(Eff));
  }
  }
  return {};
}

bool RegionInferencer::run(const ast::Expr *Root) {
  Res R = infer(Root);
  if (!R.Node)
    return false;
  Prog.Root = R.Node;
  // Globals: the regions of the program result, observed at program end.
  RegionSet ResultRegions;
  types().freeRegionVars(R.Type, ResultRegions);
  Prog.GlobalRegions = ResultRegions.raw();
  return true;
}

std::unique_ptr<RegionProgram>
regions::inferRegions(const ast::Expr *Root, const ast::ASTContext &Ctx,
                      const types::TypedProgram &Typed,
                      DiagnosticEngine &Diags) {
  assert(Typed.Success && "region inference requires a typed program");
  auto Prog = std::make_unique<RegionProgram>();
  RegionInferencer Inf(*Prog, Ctx, Typed, Diags);
  if (!Inf.run(Root))
    return nullptr;
  finalizeRegionProgram(*Prog, Inf.RegAppSubst);
  return Prog;
}
