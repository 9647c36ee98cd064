#include "regions/RegionPrinter.h"

#include "regions/Completion.h"
#include "regions/RegionProgram.h"

using namespace afl;
using namespace afl::regions;

namespace {

class Printer {
public:
  Printer(const RegionProgram &Prog, const Completion *C) : Prog(Prog), C(C) {}

  std::string Out;

  void print(const RExpr *N, unsigned Indent) {
    bool HasRegions = !N->boundRegions().empty();
    const std::vector<COp> *Pre = C ? C->preOps(N->id()) : nullptr;
    const std::vector<COp> *Post = C ? C->postOps(N->id()) : nullptr;
    if (HasRegions) {
      line(Indent, "letregion " + regionList(N->boundRegions()) + " in");
      ++Indent;
    }
    if (Pre)
      for (const COp &Op : *Pre)
        line(Indent, std::string(spelling(Op.Kind)) + " " + reg(Op.Region));
    printCore(N, Indent);
    if (Post)
      for (const COp &Op : *Post)
        line(Indent, std::string(spelling(Op.Kind)) + " " + reg(Op.Region));
    if (HasRegions)
      line(Indent - 1, "end");
  }

private:
  void line(unsigned Indent, const std::string &Text) {
    Out.append(2 * Indent, ' ');
    Out += Text;
    Out += '\n';
  }

  // Strings here are built with += rather than `"lit" + std::string&&`
  // chains: GCC 12 at -O3 raises a false -Wrestrict on that overload.
  static std::string reg(RegionVarId R) {
    std::string Out = "r";
    Out += std::to_string(R);
    return Out;
  }

  static std::string regionList(const std::vector<RegionVarId> &Rs) {
    std::string S;
    for (size_t I = 0; I != Rs.size(); ++I) {
      if (I)
        S += ", ";
      S += reg(Rs[I]);
    }
    return S;
  }

  std::string var(VarId V) const {
    return Prog.varInfo(V).Name + "#" + std::to_string(V);
  }

  std::string at(const RExpr *N) const {
    if (!N->hasWriteRegion())
      return "";
    std::string Out = "@";
    Out += reg(N->writeRegion());
    return Out;
  }

  void printCore(const RExpr *N, unsigned Indent) {
    switch (N->kind()) {
    case RExpr::Kind::Int:
      line(Indent, std::to_string(cast<RIntExpr>(N)->value()) + at(N));
      return;
    case RExpr::Kind::Bool:
      line(Indent,
           std::string(cast<RBoolExpr>(N)->value() ? "true" : "false") +
               at(N));
      return;
    case RExpr::Kind::Unit:
      line(Indent, "()" + at(N));
      return;
    case RExpr::Kind::Var:
      line(Indent, var(cast<RVarExpr>(N)->var()));
      return;
    case RExpr::Kind::Lambda: {
      const auto *L = cast<RLambdaExpr>(N);
      line(Indent, "(fn " + var(L->param()) + " =>");
      print(L->body(), Indent + 1);
      std::string Close = ")";
      Close += at(N);
      line(Indent, Close);
      return;
    }
    case RExpr::Kind::App: {
      const auto *A = cast<RAppExpr>(N);
      line(Indent, "apply");
      print(A->fn(), Indent + 1);
      print(A->arg(), Indent + 1);
      if (C) {
        if (const std::vector<COp> *Ops = C->freeAppOps(N->id()))
          for (const COp &Op : *Ops)
            line(Indent + 1,
                 std::string(spelling(Op.Kind)) + " " + reg(Op.Region));
      }
      line(Indent, "endapply");
      return;
    }
    case RExpr::Kind::Let: {
      const auto *L = cast<RLetExpr>(N);
      line(Indent, "let " + var(L->var()) + " =");
      print(L->init(), Indent + 1);
      line(Indent, "in");
      print(L->body(), Indent + 1);
      line(Indent, "end");
      return;
    }
    case RExpr::Kind::Letrec: {
      const auto *L = cast<RLetrecExpr>(N);
      line(Indent, "letrec " + var(L->fn()) + "[" +
                       regionList(L->formals()) + "](" + var(L->param()) +
                       ")" + at(N) + " =");
      print(L->fnBody(), Indent + 1);
      line(Indent, "in");
      print(L->body(), Indent + 1);
      line(Indent, "end");
      return;
    }
    case RExpr::Kind::RegApp: {
      const auto *RA = cast<RRegAppExpr>(N);
      line(Indent,
           var(RA->fn()) + "[" + regionList(RA->actuals()) + "]" + at(N));
      return;
    }
    case RExpr::Kind::If: {
      const auto *I = cast<RIfExpr>(N);
      line(Indent, "if");
      print(I->cond(), Indent + 1);
      line(Indent, "then");
      print(I->thenExpr(), Indent + 1);
      line(Indent, "else");
      print(I->elseExpr(), Indent + 1);
      line(Indent, "endif");
      return;
    }
    case RExpr::Kind::Pair: {
      const auto *P = cast<RPairExpr>(N);
      line(Indent, "pair" + at(N));
      print(P->first(), Indent + 1);
      print(P->second(), Indent + 1);
      line(Indent, "endpair");
      return;
    }
    case RExpr::Kind::Nil:
      line(Indent, "nil" + at(N));
      return;
    case RExpr::Kind::Cons: {
      const auto *Cn = cast<RConsExpr>(N);
      line(Indent, "cons" + at(N));
      print(Cn->head(), Indent + 1);
      print(Cn->tail(), Indent + 1);
      line(Indent, "endcons");
      return;
    }
    case RExpr::Kind::UnOp: {
      const auto *U = cast<RUnOpExpr>(N);
      line(Indent, std::string(ast::spelling(U->op())) + at(N));
      print(U->operand(), Indent + 1);
      line(Indent, "endop");
      return;
    }
    case RExpr::Kind::BinOp: {
      const auto *B = cast<RBinOpExpr>(N);
      line(Indent, std::string("binop ") + ast::spelling(B->op()) + at(N));
      print(B->lhs(), Indent + 1);
      print(B->rhs(), Indent + 1);
      line(Indent, "endop");
      return;
    }
    }
  }

  const RegionProgram &Prog;
  const Completion *C;
};

} // namespace

std::string regions::printRegionProgram(const RegionProgram &Prog,
                                        const Completion *C) {
  Printer P(Prog, C);
  std::string Header = "program globals: ";
  for (size_t I = 0; I != Prog.GlobalRegions.size(); ++I) {
    if (I)
      Header += ", ";
    Header += "r";
    Header += std::to_string(Prog.GlobalRegions[I]);
  }
  P.Out = Header + "\n";
  P.print(Prog.Root, 0);
  return P.Out;
}
