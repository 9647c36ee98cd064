#include "regions/Validator.h"

#include <set>

using namespace afl;
using namespace afl::regions;

namespace {

class ProgramValidator {
public:
  explicit ProgramValidator(const RegionProgram &Prog) : Prog(Prog) {}

  std::vector<std::string> run() {
    RegionSet Scope = RegionSet::fromUnsorted(Prog.GlobalRegions);
    for (RegionVarId R : Prog.GlobalRegions)
      checkCanonical(R, "global region");
    visit(Prog.Root, Scope);
    return std::move(Errors);
  }

private:
  void error(const RExpr *N, const std::string &Message) {
    Errors.push_back("node " + std::to_string(N->id()) + ": " + Message);
  }

  void checkCanonical(RegionVarId R, const char *What) {
    if (Prog.Types.findRegion(R) != R)
      Errors.push_back(std::string(What) + " r" + std::to_string(R) +
                       " is not canonical");
  }

  void checkInScope(const RExpr *N, RegionVarId R,
                    const RegionSet &Scope, const char *What) {
    if (!Scope.count(R))
      error(N, std::string(What) + " r" + std::to_string(R) +
                   " is not in scope");
  }

  void visit(const RExpr *N, RegionSet Scope) {
    for (RegionVarId R : N->boundRegions()) {
      checkCanonical(R, "letregion-bound region");
      if (!Scope.insert(R))
        error(N, "letregion rebinds in-scope region r" + std::to_string(R));
    }

    if (N->hasWriteRegion()) {
      checkCanonical(N->writeRegion(), "write region");
      checkInScope(N, N->writeRegion(), Scope, "write region");
      if (!N->effect().count(N->writeRegion()))
        error(N, "write region missing from node effect");
    }
    for (RegionVarId R : N->readRegions()) {
      checkCanonical(R, "read region");
      checkInScope(N, R, Scope, "read region");
      if (!N->effect().count(R))
        error(N, "read region missing from node effect");
    }
    for (RegionVarId R : N->overallEffect())
      checkInScope(N, R, Scope, "overall-effect region");

    switch (N->kind()) {
    case RExpr::Kind::Int:
    case RExpr::Kind::Bool:
    case RExpr::Kind::Unit:
    case RExpr::Kind::Var:
    case RExpr::Kind::Nil:
      return;
    case RExpr::Kind::Lambda:
      visit(cast<RLambdaExpr>(N)->body(), Scope);
      return;
    case RExpr::Kind::App:
      visit(cast<RAppExpr>(N)->fn(), Scope);
      visit(cast<RAppExpr>(N)->arg(), Scope);
      return;
    case RExpr::Kind::Let:
      visit(cast<RLetExpr>(N)->init(), Scope);
      visit(cast<RLetExpr>(N)->body(), Scope);
      return;
    case RExpr::Kind::Letrec: {
      const auto *L = cast<RLetrecExpr>(N);
      RegionSet Formals;
      RegionSet BodyScope = Scope;
      for (RegionVarId F : L->formals()) {
        checkCanonical(F, "letrec formal");
        if (!Formals.insert(F))
          error(N, "duplicate letrec formal r" + std::to_string(F));
        if (Scope.count(F))
          error(N, "letrec formal r" + std::to_string(F) +
                       " shadows an in-scope region");
        BodyScope.insert(F);
      }
      visit(L->fnBody(), BodyScope);
      visit(L->body(), Scope);
      return;
    }
    case RExpr::Kind::RegApp: {
      const auto *RA = cast<RRegAppExpr>(N);
      const RLetrecExpr *Callee = Prog.varInfo(RA->fn()).Letrec;
      if (!Callee) {
        error(N, "region application of a non-letrec variable");
        return;
      }
      if (Callee->formals().size() != RA->actuals().size())
        error(N, "region arity mismatch");
      for (RegionVarId R : RA->actuals()) {
        checkCanonical(R, "region-application actual");
        checkInScope(N, R, Scope, "region-application actual");
      }
      return;
    }
    case RExpr::Kind::If:
      visit(cast<RIfExpr>(N)->cond(), Scope);
      visit(cast<RIfExpr>(N)->thenExpr(), Scope);
      visit(cast<RIfExpr>(N)->elseExpr(), Scope);
      return;
    case RExpr::Kind::Pair:
      visit(cast<RPairExpr>(N)->first(), Scope);
      visit(cast<RPairExpr>(N)->second(), Scope);
      return;
    case RExpr::Kind::Cons:
      visit(cast<RConsExpr>(N)->head(), Scope);
      visit(cast<RConsExpr>(N)->tail(), Scope);
      return;
    case RExpr::Kind::UnOp:
      visit(cast<RUnOpExpr>(N)->operand(), Scope);
      return;
    case RExpr::Kind::BinOp:
      visit(cast<RBinOpExpr>(N)->lhs(), Scope);
      visit(cast<RBinOpExpr>(N)->rhs(), Scope);
      return;
    }
  }

  const RegionProgram &Prog;
  std::vector<std::string> Errors;
};

class CompletionValidator {
public:
  CompletionValidator(const RegionProgram &Prog, const Completion &C)
      : Prog(Prog), C(C) {}

  std::vector<std::string> run() {
    RegionSet Scope = RegionSet::fromUnsorted(Prog.GlobalRegions);
    visit(Prog.Root, Scope);
    // Every op must be anchored at a node we visited.
    for (const auto &[Node, Ops] : C.Pre)
      checkAnchored(Node, Ops);
    for (const auto &[Node, Ops] : C.Post)
      checkAnchored(Node, Ops);
    for (const auto &[Node, Ops] : C.FreeApp) {
      checkAnchored(Node, Ops);
      if (Visited.count(Node) &&
          Prog.node(Node)->kind() != RExpr::Kind::App)
        Errors.push_back("free_app ops on non-application node " +
                         std::to_string(Node));
    }
    return std::move(Errors);
  }

private:
  void checkAnchored(RNodeId Node, const std::vector<COp> &Ops) {
    if (Ops.empty())
      return;
    if (!Visited.count(Node))
      Errors.push_back("completion ops on unreachable node " +
                       std::to_string(Node));
  }

  void checkOps(const RExpr *N, const std::vector<COp> *Ops,
                const RegionSet &Scope) {
    if (!Ops)
      return;
    for (const COp &Op : *Ops) {
      if (!Scope.count(Op.Region))
        Errors.push_back("node " + std::to_string(N->id()) + ": " +
                         spelling(Op.Kind) + " on out-of-scope region r" +
                         std::to_string(Op.Region));
      if (!N->overallEffect().count(Op.Region))
        Errors.push_back("node " + std::to_string(N->id()) + ": " +
                         spelling(Op.Kind) +
                         " outside the node's overall effect (r" +
                         std::to_string(Op.Region) + ")");
    }
  }

  void visit(const RExpr *N, RegionSet Scope) {
    Visited.insert(N->id());
    for (RegionVarId R : N->boundRegions())
      Scope.insert(R);
    checkOps(N, C.preOps(N->id()), Scope);
    checkOps(N, C.postOps(N->id()), Scope);
    checkOps(N, C.freeAppOps(N->id()), Scope);

    switch (N->kind()) {
    case RExpr::Kind::Lambda:
      visit(cast<RLambdaExpr>(N)->body(), Scope);
      break;
    case RExpr::Kind::App:
      visit(cast<RAppExpr>(N)->fn(), Scope);
      visit(cast<RAppExpr>(N)->arg(), Scope);
      break;
    case RExpr::Kind::Let:
      visit(cast<RLetExpr>(N)->init(), Scope);
      visit(cast<RLetExpr>(N)->body(), Scope);
      break;
    case RExpr::Kind::Letrec: {
      const auto *L = cast<RLetrecExpr>(N);
      RegionSet BodyScope = Scope;
      for (RegionVarId F : L->formals())
        BodyScope.insert(F);
      visit(L->fnBody(), BodyScope);
      visit(L->body(), Scope);
      break;
    }
    case RExpr::Kind::If:
      visit(cast<RIfExpr>(N)->cond(), Scope);
      visit(cast<RIfExpr>(N)->thenExpr(), Scope);
      visit(cast<RIfExpr>(N)->elseExpr(), Scope);
      break;
    case RExpr::Kind::Pair:
      visit(cast<RPairExpr>(N)->first(), Scope);
      visit(cast<RPairExpr>(N)->second(), Scope);
      break;
    case RExpr::Kind::Cons:
      visit(cast<RConsExpr>(N)->head(), Scope);
      visit(cast<RConsExpr>(N)->tail(), Scope);
      break;
    case RExpr::Kind::UnOp:
      visit(cast<RUnOpExpr>(N)->operand(), Scope);
      break;
    case RExpr::Kind::BinOp:
      visit(cast<RBinOpExpr>(N)->lhs(), Scope);
      visit(cast<RBinOpExpr>(N)->rhs(), Scope);
      break;
    default:
      break;
    }
  }

  const RegionProgram &Prog;
  const Completion &C;
  std::set<RNodeId> Visited;
  std::vector<std::string> Errors;
};

} // namespace

std::vector<std::string>
regions::validateRegionProgram(const RegionProgram &Prog) {
  ProgramValidator V(Prog);
  return V.run();
}

std::vector<std::string>
regions::validateCompletion(const RegionProgram &Prog, const Completion &C) {
  CompletionValidator V(Prog, C);
  return V.run();
}
