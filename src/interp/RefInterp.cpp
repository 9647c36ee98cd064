#include "interp/RefInterp.h"

#include "ast/ASTContext.h"
#include "ast/Expr.h"
#include "ast/IntOps.h"
#include "support/BigStack.h"

#include <memory>
#include <optional>
#include <vector>

using namespace afl;
using namespace afl::ast;
using namespace afl::interp;

namespace {

struct RefValue;
using RefValuePtr = std::shared_ptr<RefValue>;

struct RefEnv {
  Symbol Name;
  RefValuePtr Val;
  std::shared_ptr<RefEnv> Parent;
};
using RefEnvPtr = std::shared_ptr<RefEnv>;

struct RefValue {
  enum class Kind : uint8_t { Int, Bool, Unit, Clos, Pair, Nil, Cons };
  Kind K = Kind::Unit;
  int64_t Int = 0;
  const Expr *Fun = nullptr; // Lambda or Letrec
  RefEnvPtr Env;
  RefValuePtr A, B;
};

class RefMachine {
public:
  RefMachine(const ASTContext &Ctx, uint64_t MaxSteps)
      : Ctx(Ctx), MaxSteps(MaxSteps) {}

  RefResult run(const Expr *Root) {
    std::optional<RefValuePtr> V = eval(Root, nullptr);
    RefResult Out;
    if (!V) {
      Out.Ok = false;
      Out.Error = Err.empty() ? "unknown runtime error" : Err;
      return Out;
    }
    Out.Ok = true;
    Out.ResultText = render(*V, 0);
    return Out;
  }

private:
  std::optional<RefValuePtr> fail(const std::string &Message) {
    if (Err.empty())
      Err = Message;
    return std::nullopt;
  }

  static RefValuePtr mkInt(int64_t I) {
    auto V = std::make_shared<RefValue>();
    V->K = RefValue::Kind::Int;
    V->Int = I;
    return V;
  }
  static RefValuePtr mkBool(bool B) {
    auto V = std::make_shared<RefValue>();
    V->K = RefValue::Kind::Bool;
    V->Int = B;
    return V;
  }

  std::optional<RefValuePtr> lookup(const RefEnvPtr &Env, Symbol Name) {
    for (RefEnv *E = Env.get(); E; E = E->Parent.get())
      if (E->Name == Name)
        return E->Val;
    return fail("unbound variable '" + std::string(Ctx.text(Name)) + "'");
  }

  static RefEnvPtr push(RefEnvPtr Parent, Symbol Name, RefValuePtr Val) {
    auto E = std::make_shared<RefEnv>();
    E->Name = Name;
    E->Val = std::move(Val);
    E->Parent = std::move(Parent);
    return E;
  }

  std::optional<RefValuePtr> eval(const Expr *E, RefEnvPtr Env) {
    if (++Steps > MaxSteps)
      return fail("step limit exceeded");
    if (Depth >= 15000)
      return fail("recursion depth limit exceeded");
    struct Guard {
      uint64_t &D;
      explicit Guard(uint64_t &D) : D(D) { ++D; }
      ~Guard() { --D; }
    } G(Depth);
    switch (E->kind()) {
    case Expr::Kind::IntLit:
      return mkInt(cast<IntLitExpr>(E)->value());
    case Expr::Kind::BoolLit:
      return mkBool(cast<BoolLitExpr>(E)->value());
    case Expr::Kind::UnitLit: {
      auto V = std::make_shared<RefValue>();
      V->K = RefValue::Kind::Unit;
      return V;
    }
    case Expr::Kind::Var:
      return lookup(Env, cast<VarExpr>(E)->name());
    case Expr::Kind::Lambda: {
      auto V = std::make_shared<RefValue>();
      V->K = RefValue::Kind::Clos;
      V->Fun = E;
      V->Env = Env;
      return V;
    }
    case Expr::Kind::App: {
      const auto *A = cast<AppExpr>(E);
      std::optional<RefValuePtr> Fn = eval(A->fn(), Env);
      if (!Fn)
        return std::nullopt;
      std::optional<RefValuePtr> Arg = eval(A->arg(), Env);
      if (!Arg)
        return std::nullopt;
      if ((*Fn)->K != RefValue::Kind::Clos)
        return fail("application of a non-closure");
      if (const auto *L = dyn_cast<LambdaExpr>((*Fn)->Fun))
        return eval(L->body(), push((*Fn)->Env, L->param(), *Arg));
      // Recursive closures capture their environment *without* themselves
      // (avoiding a shared_ptr cycle); rebind the function name here.
      const auto *L = cast<LetrecExpr>((*Fn)->Fun);
      RefEnvPtr BodyEnv = push((*Fn)->Env, L->fnName(), *Fn);
      return eval(L->fnBody(), push(std::move(BodyEnv), L->param(), *Arg));
    }
    case Expr::Kind::Let: {
      const auto *L = cast<LetExpr>(E);
      std::optional<RefValuePtr> Init = eval(L->init(), Env);
      if (!Init)
        return std::nullopt;
      return eval(L->body(), push(Env, L->name(), *Init));
    }
    case Expr::Kind::Letrec: {
      const auto *L = cast<LetrecExpr>(E);
      auto V = std::make_shared<RefValue>();
      V->K = RefValue::Kind::Clos;
      V->Fun = E;
      V->Env = Env; // self is rebound at each application (no cycle)
      return eval(L->body(), push(Env, L->fnName(), V));
    }
    case Expr::Kind::If: {
      const auto *I = cast<IfExpr>(E);
      std::optional<RefValuePtr> C = eval(I->cond(), Env);
      if (!C)
        return std::nullopt;
      if ((*C)->K != RefValue::Kind::Bool)
        return fail("if condition is not a boolean");
      return eval((*C)->Int ? I->thenExpr() : I->elseExpr(), Env);
    }
    case Expr::Kind::Pair: {
      const auto *P = cast<PairExpr>(E);
      std::optional<RefValuePtr> A = eval(P->first(), Env);
      if (!A)
        return std::nullopt;
      std::optional<RefValuePtr> B = eval(P->second(), Env);
      if (!B)
        return std::nullopt;
      auto V = std::make_shared<RefValue>();
      V->K = RefValue::Kind::Pair;
      V->A = *A;
      V->B = *B;
      return V;
    }
    case Expr::Kind::Nil: {
      auto V = std::make_shared<RefValue>();
      V->K = RefValue::Kind::Nil;
      return V;
    }
    case Expr::Kind::Cons: {
      const auto *Cn = cast<ConsExpr>(E);
      std::optional<RefValuePtr> H = eval(Cn->head(), Env);
      if (!H)
        return std::nullopt;
      std::optional<RefValuePtr> T = eval(Cn->tail(), Env);
      if (!T)
        return std::nullopt;
      auto V = std::make_shared<RefValue>();
      V->K = RefValue::Kind::Cons;
      V->A = *H;
      V->B = *T;
      return V;
    }
    case Expr::Kind::UnOp: {
      const auto *U = cast<UnOpExpr>(E);
      std::optional<RefValuePtr> V = eval(U->operand(), Env);
      if (!V)
        return std::nullopt;
      switch (U->op()) {
      case UnOpKind::Fst:
        if ((*V)->K != RefValue::Kind::Pair)
          return fail("fst of a non-pair");
        return (*V)->A;
      case UnOpKind::Snd:
        if ((*V)->K != RefValue::Kind::Pair)
          return fail("snd of a non-pair");
        return (*V)->B;
      case UnOpKind::Null:
        if ((*V)->K != RefValue::Kind::Nil && (*V)->K != RefValue::Kind::Cons)
          return fail("null of a non-list");
        return mkBool((*V)->K == RefValue::Kind::Nil);
      case UnOpKind::Hd:
        if ((*V)->K != RefValue::Kind::Cons)
          return fail("hd of an empty or non-list value");
        return (*V)->A;
      case UnOpKind::Tl:
        if ((*V)->K != RefValue::Kind::Cons)
          return fail("tl of an empty or non-list value");
        return (*V)->B;
      }
      return fail("unknown unary operator");
    }
    case Expr::Kind::BinOp: {
      const auto *B = cast<BinOpExpr>(E);
      std::optional<RefValuePtr> L = eval(B->lhs(), Env);
      if (!L)
        return std::nullopt;
      std::optional<RefValuePtr> R = eval(B->rhs(), Env);
      if (!R)
        return std::nullopt;
      int64_t Out = 0;
      if (const char *Error =
              applyBinOp(B->op(), (*L)->Int, (*R)->Int, Out))
        return fail(Error);
      return isComparison(B->op()) ? mkBool(Out != 0) : mkInt(Out);
    }
    }
    return fail("unknown expression kind");
  }

  std::string render(const RefValuePtr &V, unsigned Depth) {
    if (Depth > 64)
      return "...";
    switch (V->K) {
    case RefValue::Kind::Int:
      return std::to_string(V->Int);
    case RefValue::Kind::Bool:
      return V->Int ? "true" : "false";
    case RefValue::Kind::Unit:
      return "()";
    case RefValue::Kind::Clos:
      return "<fn>";
    case RefValue::Kind::Pair: {
      // Built with += rather than operator+ chains: GCC 12's -Wrestrict
      // fires a false positive on the inlined char*+string&& overload.
      std::string Out = "(";
      Out += render(V->A, Depth + 1);
      Out += ", ";
      Out += render(V->B, Depth + 1);
      Out += ")";
      return Out;
    }
    case RefValue::Kind::Nil:
    case RefValue::Kind::Cons: {
      std::string Out = "[";
      const RefValue *Cur = V.get();
      bool First = true;
      while (Cur->K == RefValue::Kind::Cons) {
        if (!First)
          Out += ", ";
        First = false;
        Out += render(Cur->A, Depth + 1);
        Cur = Cur->B.get();
      }
      return Out + "]";
    }
    }
    return "?";
  }

  const ASTContext &Ctx;
  uint64_t MaxSteps;
  uint64_t Steps = 0;
  uint64_t Depth = 0;
  std::string Err;
};

} // namespace

RefResult interp::runRef(const Expr *Root, const ASTContext &Ctx,
                         uint64_t MaxSteps) {
  // Like the tree walker, evaluation recurses on the host stack, and so
  // does the destruction of long lists and environments at the end of
  // run(): both run on the big-stack executor, bounded by eval's depth
  // guard.
  RefResult Result;
  runOnBigStack([&] { Result = RefMachine(Ctx, MaxSteps).run(Root); });
  return Result;
}
