#include "interp/Interp.h"

#include "ast/IntOps.h"
#include "support/Arena.h"
#include "support/BigStack.h"
#include "vm/Compiler.h"
#include "vm/VM.h"

#include <cassert>
#include <chrono>
#include <optional>
#include <string_view>

using namespace afl;
using namespace afl::interp;
using namespace afl::regions;

namespace {

/// Runtime address: (region index in the store, offset within it).
struct Addr {
  uint32_t Region = 0;
  uint32_t Offset = 0;
};

struct EnvNode;
struct RegEnvNode;

/// A boxed runtime value.
struct Value {
  enum class Kind : uint8_t { Int, Bool, Unit, Clos, RegClos, Pair, Nil, Cons };
  Kind K = Kind::Unit;
  int64_t Int = 0;
  /// Clos: an RLambdaExpr, or an RLetrecExpr whose fnBody is the code (the
  /// ordinary closure created by a region application). RegClos: the
  /// RLetrecExpr itself.
  const RExpr *Fun = nullptr;
  const EnvNode *Env = nullptr;
  const RegEnvNode *RegEnv = nullptr;
  Addr A, B; // Pair components / Cons head+tail
};

/// Persistent value environment (arena-allocated chain).
struct EnvNode {
  VarId Var;
  Addr A;
  const EnvNode *Parent;
};

/// Persistent region environment.
struct RegEnvNode {
  RegionVarId Var;
  uint32_t Region;
  const RegEnvNode *Parent;
};

enum class RegState : uint8_t { Unallocated, Allocated, Deallocated };

struct Region {
  RegState St = RegState::Unallocated;
  std::vector<Value> Vals;
  uint64_t AllocTime = 0;
  uint64_t FreeTime = 0;
  uint64_t ValuesAtFree = 0;
};

class Machine {
public:
  Machine(const RegionProgram &Prog, const Completion &C,
          const RunOptions &Options)
      : Prog(Prog), C(C), Options(Options) {}

  RunResult run();

private:
  //===------------------------------------------------------------------===//
  // Errors
  //===------------------------------------------------------------------===//

  std::optional<Addr> fail(const std::string &Message) {
    if (Err.empty())
      Err = Message;
    return std::nullopt;
  }

  //===------------------------------------------------------------------===//
  // Store operations (all instrumented)
  //===------------------------------------------------------------------===//

  void tick() {
    ++S.Time;
    if (Options.RecordTrace)
      Trace.push_back({S.Time, S.CurValues});
  }

  uint32_t newRegion() {
    Store.emplace_back();
    return static_cast<uint32_t>(Store.size() - 1);
  }

  bool allocRegion(uint32_t R) {
    Region &Reg = Store[R];
    if (Reg.St != RegState::Unallocated) {
      fail("allocation of a region that is not unallocated");
      return false;
    }
    Reg.St = RegState::Allocated;
    ++S.TotalRegionAllocs;
    ++S.CurRegions;
    S.MaxRegions = std::max(S.MaxRegions, S.CurRegions);
    tick();
    Reg.AllocTime = S.Time;
    return true;
  }

  bool freeRegion(uint32_t R) {
    Region &Reg = Store[R];
    if (Reg.St != RegState::Allocated) {
      fail("deallocation of a region that is not allocated");
      return false;
    }
    Reg.St = RegState::Deallocated;
    --S.CurRegions;
    S.CurValues -= Reg.Vals.size();
    Reg.ValuesAtFree = Reg.Vals.size();
    Reg.Vals.clear();
    Reg.Vals.shrink_to_fit();
    tick();
    Reg.FreeTime = S.Time;
    return true;
  }

  std::optional<Addr> write(uint32_t R, Value V) {
    Region &Reg = Store[R];
    if (Reg.St != RegState::Allocated)
      return fail("write to a region that is not allocated");
    Reg.Vals.push_back(std::move(V));
    ++S.Writes;
    ++S.TotalValueAllocs;
    ++S.CurValues;
    S.MaxValues = std::max(S.MaxValues, S.CurValues);
    tick();
    return Addr{R, static_cast<uint32_t>(Reg.Vals.size() - 1)};
  }

  const Value *read(Addr A) {
    Region &Reg = Store[A.Region];
    if (Reg.St != RegState::Allocated) {
      fail("read from a region that is not allocated");
      return nullptr;
    }
    if (A.Offset >= Reg.Vals.size()) {
      // Writes only append and a region is never reallocated, so every
      // address points below its region's length; this guards the index.
      fail("read past the end of a region's values (interpreter bug)");
      return nullptr;
    }
    ++S.Reads;
    tick();
    return &Reg.Vals[A.Offset];
  }

  //===------------------------------------------------------------------===//
  // Environments
  //===------------------------------------------------------------------===//

  const EnvNode *pushEnv(const EnvNode *Parent, VarId V, Addr A) {
    return Mem.create<EnvNode>(EnvNode{V, A, Parent});
  }
  const RegEnvNode *pushRegEnv(const RegEnvNode *Parent, RegionVarId V,
                               uint32_t R) {
    return Mem.create<RegEnvNode>(RegEnvNode{V, R, Parent});
  }

  std::optional<Addr> lookupVar(const EnvNode *Env, VarId V) {
    for (; Env; Env = Env->Parent)
      if (Env->Var == V)
        return Env->A;
    return fail("unbound variable '" + Prog.varInfo(V).Name +
                "' at runtime (interpreter bug)");
  }

  bool lookupRegion(const RegEnvNode *REnv, RegionVarId V, uint32_t &Out) {
    for (; REnv; REnv = REnv->Parent) {
      if (REnv->Var == V) {
        Out = REnv->Region;
        return true;
      }
    }
    fail("unbound region variable r" + std::to_string(V) +
         " at runtime (analysis bug)");
    return false;
  }

  //===------------------------------------------------------------------===//
  // Completion operations
  //===------------------------------------------------------------------===//

  bool applyOps(const std::vector<COp> *Ops, const RegEnvNode *REnv) {
    if (!Ops)
      return true;
    for (const COp &Op : *Ops) {
      uint32_t R;
      if (!lookupRegion(REnv, Op.Region, R))
        return false;
      switch (Op.Kind) {
      case COpKind::AllocBefore:
      case COpKind::AllocAfter:
        if (!allocRegion(R))
          return false;
        break;
      case COpKind::FreeBefore:
      case COpKind::FreeAfter:
      case COpKind::FreeApp:
        if (!freeRegion(R))
          return false;
        break;
      }
    }
    return true;
  }

  //===------------------------------------------------------------------===//
  // Evaluation
  //===------------------------------------------------------------------===//

  std::optional<Addr> eval(const RExpr *N, const EnvNode *Env,
                           const RegEnvNode *REnv);
  std::optional<Addr> evalCore(const RExpr *N, const EnvNode *Env,
                               const RegEnvNode *REnv);

  /// Resolves the write region of \p N through \p REnv and writes \p V.
  std::optional<Addr> writeAt(const RExpr *N, const RegEnvNode *REnv,
                              Value V) {
    assert(N->hasWriteRegion() && "node writes no value");
    uint32_t R;
    if (!lookupRegion(REnv, N->writeRegion(), R))
      return std::nullopt;
    return write(R, std::move(V));
  }

  std::string render(Addr A, unsigned Depth = 0);

  /// RAII depth counter for the recursion guard.
  struct DepthGuard {
    uint32_t &D;
    explicit DepthGuard(uint32_t &D) : D(D) { ++D; }
    ~DepthGuard() { --D; }
  };

  const RegionProgram &Prog;
  const Completion &C;
  const RunOptions &Options;
  uint32_t Depth = 0;
  Arena Mem;
  std::vector<Region> Store;
  Stats S;
  std::vector<TracePoint> Trace;
  std::string Err;
};

std::optional<Addr> Machine::eval(const RExpr *N, const EnvNode *Env,
                                  const RegEnvNode *REnv) {
  if (++S.Steps > Options.MaxSteps)
    return fail("step limit exceeded");
  if (Depth >= Options.MaxDepth)
    return fail("recursion depth limit exceeded");
  DepthGuard Guard(Depth);

  // letregion bindings wrap the node (including its completion ops).
  for (RegionVarId RV : N->boundRegions())
    REnv = pushRegEnv(REnv, RV, newRegion());

  if (!applyOps(C.preOps(N->id()), REnv))
    return std::nullopt;

  std::optional<Addr> Result = evalCore(N, Env, REnv);
  if (!Result)
    return std::nullopt;

  if (!applyOps(C.postOps(N->id()), REnv))
    return std::nullopt;

  // Leaving the letregion scope: each introduced region must have
  // completed its lifetime (deallocated) or never have been allocated.
  for (RegionVarId RV : N->boundRegions()) {
    uint32_t R;
    if (!lookupRegion(REnv, RV, R))
      return std::nullopt;
    if (Store[R].St == RegState::Allocated)
      return fail("region r" + std::to_string(RV) +
                  " still allocated at letregion exit");
  }
  return Result;
}

std::optional<Addr> Machine::evalCore(const RExpr *N, const EnvNode *Env,
                                      const RegEnvNode *REnv) {
  switch (N->kind()) {
  case RExpr::Kind::Int: {
    Value V;
    V.K = Value::Kind::Int;
    V.Int = cast<RIntExpr>(N)->value();
    return writeAt(N, REnv, V);
  }
  case RExpr::Kind::Bool: {
    Value V;
    V.K = Value::Kind::Bool;
    V.Int = cast<RBoolExpr>(N)->value() ? 1 : 0;
    return writeAt(N, REnv, V);
  }
  case RExpr::Kind::Unit: {
    Value V;
    V.K = Value::Kind::Unit;
    return writeAt(N, REnv, V);
  }
  case RExpr::Kind::Var:
    return lookupVar(Env, cast<RVarExpr>(N)->var());
  case RExpr::Kind::Lambda: {
    Value V;
    V.K = Value::Kind::Clos;
    V.Fun = N;
    V.Env = Env;
    V.RegEnv = REnv;
    return writeAt(N, REnv, V);
  }
  case RExpr::Kind::App: {
    const auto *A = cast<RAppExpr>(N);
    std::optional<Addr> FnA = eval(A->fn(), Env, REnv);
    if (!FnA)
      return std::nullopt;
    std::optional<Addr> ArgA = eval(A->arg(), Env, REnv);
    if (!ArgA)
      return std::nullopt;
    const Value *Clos = read(*FnA);
    if (!Clos)
      return std::nullopt;
    if (Clos->K != Value::Kind::Clos)
      return fail("application of a non-closure value");
    // The closure has been fetched; free_app point (§1).
    const Value ClosCopy = *Clos; // freeRegion may drop the closure's cell
    if (!applyOps(C.freeAppOps(N->id()), REnv))
      return std::nullopt;
    if (const auto *L = dyn_cast<RLambdaExpr>(ClosCopy.Fun)) {
      const EnvNode *BodyEnv = pushEnv(ClosCopy.Env, L->param(), *ArgA);
      return eval(L->body(), BodyEnv, ClosCopy.RegEnv);
    }
    const auto *L = cast<RLetrecExpr>(ClosCopy.Fun);
    const EnvNode *BodyEnv = pushEnv(ClosCopy.Env, L->param(), *ArgA);
    return eval(L->fnBody(), BodyEnv, ClosCopy.RegEnv);
  }
  case RExpr::Kind::Let: {
    const auto *L = cast<RLetExpr>(N);
    std::optional<Addr> InitA = eval(L->init(), Env, REnv);
    if (!InitA)
      return std::nullopt;
    return eval(L->body(), pushEnv(Env, L->var(), *InitA), REnv);
  }
  case RExpr::Kind::Letrec: {
    const auto *L = cast<RLetrecExpr>(N);
    Value V;
    V.K = Value::Kind::RegClos;
    V.Fun = N;
    V.RegEnv = REnv;
    V.Env = nullptr; // patched below (the closure environment contains f)
    std::optional<Addr> SelfA = writeAt(N, REnv, V);
    if (!SelfA)
      return std::nullopt;
    const EnvNode *BodyEnv = pushEnv(Env, L->fn(), *SelfA);
    Store[SelfA->Region].Vals[SelfA->Offset].Env = BodyEnv;
    return eval(L->body(), BodyEnv, REnv);
  }
  case RExpr::Kind::RegApp: {
    const auto *RA = cast<RRegAppExpr>(N);
    std::optional<Addr> FnA = lookupVar(Env, RA->fn());
    if (!FnA)
      return std::nullopt;
    const Value *RC = read(*FnA);
    if (!RC)
      return std::nullopt;
    if (RC->K != Value::Kind::RegClos)
      return fail("region application of a non-region-closure");
    const auto *L = cast<RLetrecExpr>(RC->Fun);
    assert(L->formals().size() == RA->actuals().size() &&
           "region arity mismatch");
    const RegEnvNode *ClosREnv = RC->RegEnv;
    for (size_t I = 0; I != RA->actuals().size(); ++I) {
      uint32_t R;
      if (!lookupRegion(REnv, RA->actuals()[I], R))
        return std::nullopt;
      ClosREnv = pushRegEnv(ClosREnv, L->formals()[I], R);
    }
    Value V;
    V.K = Value::Kind::Clos;
    V.Fun = L;
    V.Env = RC->Env;
    V.RegEnv = ClosREnv;
    return writeAt(N, REnv, V);
  }
  case RExpr::Kind::If: {
    const auto *I = cast<RIfExpr>(N);
    std::optional<Addr> CondA = eval(I->cond(), Env, REnv);
    if (!CondA)
      return std::nullopt;
    const Value *CondV = read(*CondA);
    if (!CondV)
      return std::nullopt;
    if (CondV->K != Value::Kind::Bool)
      return fail("if condition is not a boolean");
    return eval(CondV->Int ? I->thenExpr() : I->elseExpr(), Env, REnv);
  }
  case RExpr::Kind::Pair: {
    const auto *P = cast<RPairExpr>(N);
    std::optional<Addr> FirstA = eval(P->first(), Env, REnv);
    if (!FirstA)
      return std::nullopt;
    std::optional<Addr> SecondA = eval(P->second(), Env, REnv);
    if (!SecondA)
      return std::nullopt;
    Value V;
    V.K = Value::Kind::Pair;
    V.A = *FirstA;
    V.B = *SecondA;
    return writeAt(N, REnv, V);
  }
  case RExpr::Kind::Nil: {
    Value V;
    V.K = Value::Kind::Nil;
    return writeAt(N, REnv, V);
  }
  case RExpr::Kind::Cons: {
    const auto *Cn = cast<RConsExpr>(N);
    std::optional<Addr> HeadA = eval(Cn->head(), Env, REnv);
    if (!HeadA)
      return std::nullopt;
    std::optional<Addr> TailA = eval(Cn->tail(), Env, REnv);
    if (!TailA)
      return std::nullopt;
    Value V;
    V.K = Value::Kind::Cons;
    V.A = *HeadA;
    V.B = *TailA;
    return writeAt(N, REnv, V);
  }
  case RExpr::Kind::UnOp: {
    const auto *U = cast<RUnOpExpr>(N);
    std::optional<Addr> OpA = eval(U->operand(), Env, REnv);
    if (!OpA)
      return std::nullopt;
    const Value *V = read(*OpA);
    if (!V)
      return std::nullopt;
    switch (U->op()) {
    case ast::UnOpKind::Fst:
      if (V->K != Value::Kind::Pair)
        return fail("fst of a non-pair");
      return V->A;
    case ast::UnOpKind::Snd:
      if (V->K != Value::Kind::Pair)
        return fail("snd of a non-pair");
      return V->B;
    case ast::UnOpKind::Null: {
      if (V->K != Value::Kind::Nil && V->K != Value::Kind::Cons)
        return fail("null of a non-list");
      Value R;
      R.K = Value::Kind::Bool;
      R.Int = V->K == Value::Kind::Nil ? 1 : 0;
      return writeAt(N, REnv, R);
    }
    case ast::UnOpKind::Hd:
      if (V->K != Value::Kind::Cons)
        return fail("hd of an empty or non-list value");
      return V->A;
    case ast::UnOpKind::Tl:
      if (V->K != Value::Kind::Cons)
        return fail("tl of an empty or non-list value");
      return V->B;
    }
    return fail("unknown unary operator");
  }
  case RExpr::Kind::BinOp: {
    const auto *B = cast<RBinOpExpr>(N);
    std::optional<Addr> LhsA = eval(B->lhs(), Env, REnv);
    if (!LhsA)
      return std::nullopt;
    std::optional<Addr> RhsA = eval(B->rhs(), Env, REnv);
    if (!RhsA)
      return std::nullopt;
    const Value *LV = read(*LhsA);
    if (!LV)
      return std::nullopt;
    int64_t L = LV->Int;
    const Value *RV = read(*RhsA);
    if (!RV)
      return std::nullopt;
    int64_t R = RV->Int;
    Value Out;
    Out.K = ast::isComparison(B->op()) ? Value::Kind::Bool : Value::Kind::Int;
    if (const char *Error = ast::applyBinOp(B->op(), L, R, Out.Int))
      return fail(Error);
    return writeAt(N, REnv, Out);
  }
  }
  return fail("unknown expression kind");
}

std::string Machine::render(Addr A, unsigned Depth) {
  if (Depth > 64)
    return "...";
  const Region &Reg = Store[A.Region];
  if (Reg.St != RegState::Allocated)
    return "<freed>";
  const Value &V = Reg.Vals[A.Offset];
  switch (V.K) {
  case Value::Kind::Int:
    return std::to_string(V.Int);
  case Value::Kind::Bool:
    return V.Int ? "true" : "false";
  case Value::Kind::Unit:
    return "()";
  case Value::Kind::Clos:
    return "<fn>";
  case Value::Kind::RegClos:
    return "<regfn>";
  case Value::Kind::Pair: {
    // Built with += rather than operator+ chains: GCC 12's -Wrestrict
    // fires a false positive on the inlined char*+string&& overload.
    std::string Out = "(";
    Out += render(V.A, Depth + 1);
    Out += ", ";
    Out += render(V.B, Depth + 1);
    Out += ")";
    return Out;
  }
  case Value::Kind::Nil:
  case Value::Kind::Cons: {
    std::string Out = "[";
    Addr Cur = A;
    bool First = true;
    for (unsigned I = 0; I < 100000; ++I) {
      const Region &CurReg = Store[Cur.Region];
      if (CurReg.St != RegState::Allocated)
        return Out + "<freed>]";
      const Value &Cell = CurReg.Vals[Cur.Offset];
      if (Cell.K == Value::Kind::Nil)
        break;
      if (!First)
        Out += ", ";
      First = false;
      Out += render(Cell.A, Depth + 1);
      Cur = Cell.B;
    }
    return Out + "]";
  }
  }
  return "?";
}

RunResult Machine::run() {
  // Bind the global (result) regions; the completion decides when they
  // are allocated. They are reclaimed by program exit, not by frees.
  const RegEnvNode *REnv = nullptr;
  for (RegionVarId RV : Prog.GlobalRegions)
    REnv = pushRegEnv(REnv, RV, newRegion());

  std::optional<Addr> Result = eval(Prog.Root, nullptr, REnv);
  RunResult Out;
  Out.Trace = std::move(Trace);
  if (!Result) {
    Out.Ok = false;
    Out.Error = Err.empty() ? "unknown runtime error" : Err;
    Out.S = S;
    return Out;
  }
  S.FinalValues = S.CurValues;
  Out.Ok = true;
  Out.ResultText = render(*Result);
  Out.S = S;
  if (Options.RecordLifetimes) {
    Out.Lifetimes.reserve(Store.size());
    for (const Region &Reg : Store) {
      RegionLifetime L;
      L.AllocTime = Reg.AllocTime;
      L.FreeTime = Reg.FreeTime;
      L.ValuesAtFree = Reg.St == RegState::Allocated
                           ? Reg.Vals.size()
                           : Reg.ValuesAtFree;
      Out.Lifetimes.push_back(L);
    }
  }
  return Out;
}

} // namespace

bool interp::parseBackendName(std::string_view Text, BackendKind &Out) {
  if (Text == "vm") {
    Out = BackendKind::Vm;
    return true;
  }
  if (Text == "tree") {
    Out = BackendKind::Tree;
    return true;
  }
  return false;
}

RunResult interp::run(const RegionProgram &Prog, const Completion &C,
                      const RunOptions &Options) {
  if (Options.Backend == BackendKind::Vm) {
    // The VM holds explicit frames, so no big-stack thread is needed:
    // MaxDepth bounds VM frame vectors, not C++ recursion. Bytecode
    // compilation recurses over the IR, which the parser already bounds.
    using Clock = std::chrono::steady_clock;
    Clock::time_point T0 = Clock::now();
    vm::VmProgram P = vm::compile(Prog, C);
    Clock::time_point T1 = Clock::now();
    RunResult Out = vm::execute(P, Options);
    Clock::time_point T2 = Clock::now();
    Out.VmCompileSeconds = std::chrono::duration<double>(T1 - T0).count();
    Out.VmExecuteSeconds = std::chrono::duration<double>(T2 - T1).count();
    return Out;
  }

  // Evaluation recurses on the host stack (one C++ frame per nested
  // expression), so deep — but legitimate — recursion needs more than
  // the default thread stack, especially in unoptimized builds: run the
  // machine on the big-stack executor (MaxDepth still bounds it).
  Machine M(Prog, C, Options);
  RunResult Result;
  runOnBigStack([&] { Result = M.run(); });
  return Result;
}
