#include "vm/Compiler.h"

#include <cassert>
#include <optional>
#include <unordered_map>

using namespace afl;
using namespace afl::vm;
using namespace afl::regions;

namespace {

/// Per-function compilation state. Contexts form the lexical chain of
/// enclosing functions; capture descriptors are created on demand when a
/// reference resolves through a parent context (flat-closure conversion,
/// one record entry per distinct free binding).
struct FuncCtx {
  FuncCtx *Parent = nullptr;
  /// Set for a letrec function body: references to the letrec's own
  /// function variable become a Self capture (the walker patches the
  /// closure environment with the closure's own address after writing
  /// it; Self reproduces that knot).
  const RLetrecExpr *SelfLetrec = nullptr;

  /// Value bindings local to this function (parameter, let binders,
  /// letrec function names) → frame slot.
  std::unordered_map<VarId, uint32_t> Locals;
  /// Value bindings already captured → descriptor index.
  std::unordered_map<VarId, uint32_t> ValCapIdx;
  /// Region bindings in scope → reference word (frame slot, or
  /// RefCapture | record index). Letregion entries are saved/restored
  /// around each node so shadowing mirrors the walker's chain.
  std::unordered_map<RegionVarId, uint32_t> RegMap;

  FuncInfo Info;
  std::vector<uint32_t> Code;
  /// Operand positions within Code holding function-local jump targets;
  /// adjusted to absolute offsets when functions are concatenated.
  std::vector<uint32_t> JumpFixups;
};

/// Finished per-function artifacts, indexed by function id until linking.
struct PendingFunc {
  FuncInfo Info;
  std::vector<uint32_t> Code;
  std::vector<uint32_t> JumpFixups;
};

class Compiler {
public:
  Compiler(const RegionProgram &Prog, const Completion &C)
      : Prog(Prog), C(C) {}

  VmProgram compile();

private:
  //===------------------------------------------------------------------===//
  // Pools
  //===------------------------------------------------------------------===//

  uint32_t intConst(int64_t V) {
    auto [It, New] = IntIdx.try_emplace(V, P.IntPool.size());
    if (New)
      P.IntPool.push_back(V);
    return It->second;
  }

  uint32_t trapMsg(const std::string &Msg) {
    auto [It, New] = MsgIdx.try_emplace(Msg, P.TrapMsgs.size());
    if (New)
      P.TrapMsgs.push_back(Msg);
    return It->second;
  }

  uint32_t poison(const std::string &Msg) { return RefPoison | trapMsg(Msg); }

  //===------------------------------------------------------------------===//
  // Reference resolution (flat-closure conversion)
  //===------------------------------------------------------------------===//

  static CaptureSource sourceFromRef(uint32_t Ref) {
    if (Ref & RefCapture)
      return {CaptureSource::Capture, Ref & RefIndexMask};
    return {CaptureSource::Local, Ref & RefIndexMask};
  }

  /// Resolves value variable \p V in \p Ctx to a reference word valid in
  /// that function (frame slot / capture index / poison).
  uint32_t resolveVal(FuncCtx &Ctx, VarId V) {
    if (auto It = Ctx.Locals.find(V); It != Ctx.Locals.end())
      return It->second;
    if (auto It = Ctx.ValCapIdx.find(V); It != Ctx.ValCapIdx.end())
      return RefCapture | It->second;
    if (Ctx.SelfLetrec && V == Ctx.SelfLetrec->fn()) {
      uint32_t Idx = static_cast<uint32_t>(Ctx.Info.ValCaps.size());
      Ctx.Info.ValCaps.push_back({CaptureSource::Self, 0});
      Ctx.ValCapIdx.emplace(V, Idx);
      return RefCapture | Idx;
    }
    if (!Ctx.Parent)
      return poison("unbound variable '" + Prog.varInfo(V).Name +
                    "' at runtime (interpreter bug)");
    uint32_t PRef = resolveVal(*Ctx.Parent, V);
    if (PRef & RefPoison)
      return PRef;
    uint32_t Idx = static_cast<uint32_t>(Ctx.Info.ValCaps.size());
    Ctx.Info.ValCaps.push_back(sourceFromRef(PRef));
    Ctx.ValCapIdx.emplace(V, Idx);
    return RefCapture | Idx;
  }

  /// Resolves region variable \p RV likewise. Capture indices address the
  /// function's *composed* region record, so new captures land after the
  /// formals: record index = NumFormals + descriptor position.
  uint32_t resolveReg(FuncCtx &Ctx, RegionVarId RV) {
    if (auto It = Ctx.RegMap.find(RV); It != Ctx.RegMap.end())
      return It->second;
    if (!Ctx.Parent)
      return poison("unbound region variable r" + std::to_string(RV) +
                    " at runtime (analysis bug)");
    uint32_t PRef = resolveReg(*Ctx.Parent, RV);
    if (PRef & RefPoison)
      return PRef;
    uint32_t RecIdx =
        Ctx.Info.NumFormals + static_cast<uint32_t>(Ctx.Info.RegCaps.size());
    Ctx.Info.RegCaps.push_back(sourceFromRef(PRef));
    uint32_t Ref = RefCapture | RecIdx;
    Ctx.RegMap.emplace(RV, Ref);
    return Ref;
  }

  /// The destination reference for \p N's own write (@ρ annotation).
  uint32_t writeRef(FuncCtx &Ctx, const RExpr *N) {
    assert(N->hasWriteRegion() && "node writes no value");
    return resolveReg(Ctx, N->writeRegion());
  }

  //===------------------------------------------------------------------===//
  // Emission
  //===------------------------------------------------------------------===//

  static void emit(FuncCtx &Ctx, Op O) {
    Ctx.Code.push_back(static_cast<uint32_t>(O));
  }
  static void emit(FuncCtx &Ctx, Op O, uint32_t A) {
    emit(Ctx, O);
    Ctx.Code.push_back(A);
  }
  static void emit(FuncCtx &Ctx, Op O, uint32_t A, uint32_t B) {
    emit(Ctx, O, A);
    Ctx.Code.push_back(B);
  }

  /// Emits a jump-family instruction with a placeholder target; returns
  /// the operand position for patchTarget.
  static uint32_t emitJump(FuncCtx &Ctx, Op O) {
    emit(Ctx, O);
    uint32_t Pos = static_cast<uint32_t>(Ctx.Code.size());
    Ctx.Code.push_back(0);
    Ctx.JumpFixups.push_back(Pos);
    return Pos;
  }
  static void patchTarget(FuncCtx &Ctx, uint32_t Pos) {
    Ctx.Code[Pos] = static_cast<uint32_t>(Ctx.Code.size());
  }

  void compileOps(FuncCtx &Ctx, const std::vector<COp> *Ops) {
    if (!Ops)
      return;
    for (const COp &O : *Ops) {
      bool Alloc =
          O.Kind == COpKind::AllocBefore || O.Kind == COpKind::AllocAfter;
      emit(Ctx, Alloc ? Op::AllocReg : Op::FreeReg, resolveReg(Ctx, O.Region));
    }
  }

  //===------------------------------------------------------------------===//
  // Functions
  //===------------------------------------------------------------------===//

  uint32_t newFunc() {
    uint32_t Idx = static_cast<uint32_t>(Pending.size());
    Pending.emplace_back();
    return Idx;
  }

  void finishFunc(uint32_t Idx, FuncCtx &Ctx) {
    Pending[Idx].Info = std::move(Ctx.Info);
    Pending[Idx].Code = std::move(Ctx.Code);
    Pending[Idx].JumpFixups = std::move(Ctx.JumpFixups);
  }

  /// Compiles a lambda/letrec function body into a fresh function; \p Rec
  /// is the letrec whose formals seed the region scope (null for
  /// lambdas).
  uint32_t compileFunction(FuncCtx &Parent, VarId Param, const RExpr *Body,
                           const RLetrecExpr *Rec) {
    uint32_t Idx = newFunc();
    FuncCtx Ctx;
    Ctx.Parent = &Parent;
    Ctx.SelfLetrec = Rec;
    Ctx.Info.NumValSlots = 1; // slot 0: the parameter
    Ctx.Locals.emplace(Param, 0);
    if (Rec) {
      const auto &Formals = Rec->formals();
      Ctx.Info.NumFormals = static_cast<uint32_t>(Formals.size());
      for (uint32_t K = 0; K != Formals.size(); ++K)
        Ctx.RegMap[Formals[K]] = RefCapture | K; // later duplicates win
    }
    compileNode(Ctx, Body, 0);
    emit(Ctx, Op::Ret);
    finishFunc(Idx, Ctx);
    return Idx;
  }

  void compileNode(FuncCtx &Ctx, const RExpr *N, uint32_t Depth);
  void compileCore(FuncCtx &Ctx, const RExpr *N, uint32_t Depth);

  VmProgram link();

  const RegionProgram &Prog;
  const Completion &C;
  VmProgram P;
  std::vector<PendingFunc> Pending;
  std::unordered_map<int64_t, uint32_t> IntIdx;
  std::unordered_map<std::string, uint32_t> MsgIdx;
};

void Compiler::compileNode(FuncCtx &Ctx, const RExpr *N, uint32_t Depth) {
  // Mirrors Machine::eval: step + depth guards, letregion entry, pre ops,
  // the node itself, post ops, letregion exit checks.
  emit(Ctx, Op::Enter, Depth);

  const std::vector<RegionVarId> &Bound = N->boundRegions();
  std::vector<std::pair<RegionVarId, std::optional<uint32_t>>> Saved;
  Saved.reserve(Bound.size());
  for (RegionVarId RV : Bound) {
    uint32_t Slot = Ctx.Info.NumRegSlots++;
    auto It = Ctx.RegMap.find(RV);
    Saved.emplace_back(RV, It == Ctx.RegMap.end()
                               ? std::nullopt
                               : std::optional<uint32_t>(It->second));
    Ctx.RegMap[RV] = Slot;
    emit(Ctx, Op::NewRegion, Slot);
  }

  compileOps(Ctx, C.preOps(N->id()));
  compileCore(Ctx, N, Depth);
  compileOps(Ctx, C.postOps(N->id()));

  // The exit check re-resolves each bound variable like the walker does,
  // so with duplicate bindings both checks hit the innermost region.
  for (RegionVarId RV : Bound)
    emit(Ctx, Op::CheckEnd, Ctx.RegMap[RV] & RefIndexMask, RV);

  for (auto It = Saved.rbegin(); It != Saved.rend(); ++It) {
    if (It->second)
      Ctx.RegMap[It->first] = *It->second;
    else
      Ctx.RegMap.erase(It->first);
  }
}

void Compiler::compileCore(FuncCtx &Ctx, const RExpr *N, uint32_t Depth) {
  switch (N->kind()) {
  case RExpr::Kind::Int:
    emit(Ctx, Op::WriteInt, intConst(cast<RIntExpr>(N)->value()),
         writeRef(Ctx, N));
    return;
  case RExpr::Kind::Bool:
    emit(Ctx, Op::WriteTag, cast<RBoolExpr>(N)->value() ? TagTrue : TagFalse,
         writeRef(Ctx, N));
    return;
  case RExpr::Kind::Unit:
    emit(Ctx, Op::WriteTag, TagUnit, writeRef(Ctx, N));
    return;
  case RExpr::Kind::Var: {
    uint32_t Ref = resolveVal(Ctx, cast<RVarExpr>(N)->var());
    if (Ref & RefPoison)
      emit(Ctx, Op::Trap, Ref & RefIndexMask);
    else if (Ref & RefCapture)
      emit(Ctx, Op::LoadCap, Ref & RefIndexMask);
    else
      emit(Ctx, Op::LoadLocal, Ref);
    return;
  }
  case RExpr::Kind::Lambda: {
    const auto *L = cast<RLambdaExpr>(N);
    uint32_t FIdx = compileFunction(Ctx, L->param(), L->body(), nullptr);
    emit(Ctx, Op::MakeClos, FIdx, writeRef(Ctx, N));
    return;
  }
  case RExpr::Kind::App: {
    const auto *A = cast<RAppExpr>(N);
    compileNode(Ctx, A->fn(), Depth + 1);
    compileNode(Ctx, A->arg(), Depth + 1);
    emit(Ctx, Op::ReadClos);
    compileOps(Ctx, C.freeAppOps(N->id()));
    // The body evaluates one level below the application node.
    emit(Ctx, Op::Call, Depth + 1);
    return;
  }
  case RExpr::Kind::Let: {
    const auto *L = cast<RLetExpr>(N);
    compileNode(Ctx, L->init(), Depth + 1);
    uint32_t Slot = Ctx.Info.NumValSlots++;
    Ctx.Locals.emplace(L->var(), Slot);
    emit(Ctx, Op::StoreLocal, Slot);
    compileNode(Ctx, L->body(), Depth + 1);
    return;
  }
  case RExpr::Kind::Letrec: {
    const auto *L = cast<RLetrecExpr>(N);
    uint32_t FIdx = compileFunction(Ctx, L->param(), L->fnBody(), L);
    emit(Ctx, Op::MakeRegClos, FIdx, writeRef(Ctx, N));
    uint32_t Slot = Ctx.Info.NumValSlots++;
    Ctx.Locals.emplace(L->fn(), Slot);
    emit(Ctx, Op::StoreLocal, Slot);
    compileNode(Ctx, L->body(), Depth + 1);
    return;
  }
  case RExpr::Kind::RegApp: {
    const auto *RA = cast<RRegAppExpr>(N);
    uint32_t Src = resolveVal(Ctx, RA->fn());
    if (Src & RefPoison) {
      emit(Ctx, Op::Trap, Src & RefIndexMask);
      return;
    }
    emit(Ctx, Op::ReadRegClos, Src);
    emit(Ctx, Op::RegAppWrite, writeRef(Ctx, N));
    Ctx.Code.push_back(static_cast<uint32_t>(RA->actuals().size()));
    for (RegionVarId RV : RA->actuals())
      Ctx.Code.push_back(resolveReg(Ctx, RV));
    return;
  }
  case RExpr::Kind::If: {
    const auto *I = cast<RIfExpr>(N);
    compileNode(Ctx, I->cond(), Depth + 1);
    uint32_t ElseT = emitJump(Ctx, Op::Branch);
    compileNode(Ctx, I->thenExpr(), Depth + 1);
    uint32_t EndT = emitJump(Ctx, Op::Jump);
    patchTarget(Ctx, ElseT);
    compileNode(Ctx, I->elseExpr(), Depth + 1);
    patchTarget(Ctx, EndT);
    return;
  }
  case RExpr::Kind::Pair: {
    const auto *Pr = cast<RPairExpr>(N);
    compileNode(Ctx, Pr->first(), Depth + 1);
    compileNode(Ctx, Pr->second(), Depth + 1);
    emit(Ctx, Op::WritePair, writeRef(Ctx, N));
    return;
  }
  case RExpr::Kind::Nil:
    emit(Ctx, Op::WriteTag, TagNil, writeRef(Ctx, N));
    return;
  case RExpr::Kind::Cons: {
    const auto *Cn = cast<RConsExpr>(N);
    compileNode(Ctx, Cn->head(), Depth + 1);
    compileNode(Ctx, Cn->tail(), Depth + 1);
    emit(Ctx, Op::WriteCons, writeRef(Ctx, N));
    return;
  }
  case RExpr::Kind::UnOp: {
    const auto *U = cast<RUnOpExpr>(N);
    compileNode(Ctx, U->operand(), Depth + 1);
    switch (U->op()) {
    case ast::UnOpKind::Fst:
      emit(Ctx, Op::Proj, 0);
      return;
    case ast::UnOpKind::Snd:
      emit(Ctx, Op::Proj, 1);
      return;
    case ast::UnOpKind::Hd:
      emit(Ctx, Op::Proj, 2);
      return;
    case ast::UnOpKind::Tl:
      emit(Ctx, Op::Proj, 3);
      return;
    case ast::UnOpKind::Null:
      emit(Ctx, Op::NullTest, writeRef(Ctx, N));
      return;
    }
    emit(Ctx, Op::Trap, trapMsg("unknown unary operator"));
    return;
  }
  case RExpr::Kind::BinOp: {
    const auto *B = cast<RBinOpExpr>(N);
    compileNode(Ctx, B->lhs(), Depth + 1);
    compileNode(Ctx, B->rhs(), Depth + 1);
    emit(Ctx, Op::BinOp, static_cast<uint32_t>(B->op()), writeRef(Ctx, N));
    return;
  }
  }
  emit(Ctx, Op::Trap, trapMsg("unknown expression kind"));
}

VmProgram Compiler::link() {
  uint32_t Base = 0;
  P.Funcs.reserve(Pending.size());
  for (PendingFunc &F : Pending) {
    F.Info.Entry = Base;
    for (uint32_t Pos : F.JumpFixups)
      F.Code[Pos] += Base;
    Base += static_cast<uint32_t>(F.Code.size());
  }
  P.Code.reserve(Base);
  for (PendingFunc &F : Pending) {
    P.Code.insert(P.Code.end(), F.Code.begin(), F.Code.end());
    P.Funcs.push_back(std::move(F.Info));
  }
  return std::move(P);
}

VmProgram Compiler::compile() {
  uint32_t RootIdx = newFunc();
  FuncCtx Root;
  // The global (result) regions are created before the root expression
  // evaluates, exactly like Machine::run's preamble.
  P.NumGlobalRegions = static_cast<uint32_t>(Prog.GlobalRegions.size());
  for (RegionVarId RV : Prog.GlobalRegions) {
    uint32_t Slot = Root.Info.NumRegSlots++;
    Root.RegMap[RV] = Slot; // later duplicates shadow, like the chain
    emit(Root, Op::NewRegion, Slot);
  }
  compileNode(Root, Prog.Root, 0);
  emit(Root, Op::Halt);
  finishFunc(RootIdx, Root);
  P.RootFunc = RootIdx;
  return link();
}

} // namespace

VmProgram vm::compile(const RegionProgram &Prog, const Completion &C) {
  return Compiler(Prog, C).compile();
}
