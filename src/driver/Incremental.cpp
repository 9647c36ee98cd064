#include "driver/Incremental.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

namespace afl {
namespace driver {

using closure::IncrementalSeed;
using regions::RegionProgram;
using regions::RegionVarId;
using regions::RExpr;
using regions::RNodeId;
using regions::RTypeId;
using regions::RTypeKind;
using regions::RTypeTable;
using regions::VarId;

namespace {

constexpr uint32_t NoMap = IncrementalSeed::NoMap;

/// True iff any type node reachable from \p Root is an Arrow.
bool typeContainsArrow(const RTypeTable &T, RTypeId Root) {
  std::vector<RTypeId> Stack{Root};
  std::unordered_set<RTypeId> Seen;
  while (!Stack.empty()) {
    RTypeId Ty = Stack.back();
    Stack.pop_back();
    if (!Seen.insert(Ty).second)
      continue;
    switch (T.kind(Ty)) {
    case RTypeKind::Arrow:
      return true;
    case RTypeKind::Pair:
      Stack.push_back(T.child0(Ty));
      Stack.push_back(T.child1(Ty));
      break;
    case RTypeKind::List:
      Stack.push_back(T.child0(Ty));
      break;
    default:
      break;
    }
  }
  return false;
}

/// Child edges of a node, in a fixed order shared by both revisions.
void appendChildren(const RExpr *N, std::vector<const RExpr *> &Out) {
  switch (N->kind()) {
  case RExpr::Kind::Lambda:
    Out.push_back(regions::cast<regions::RLambdaExpr>(N)->body());
    break;
  case RExpr::Kind::App: {
    const auto *A = regions::cast<regions::RAppExpr>(N);
    Out.push_back(A->fn());
    Out.push_back(A->arg());
    break;
  }
  case RExpr::Kind::Let: {
    const auto *L = regions::cast<regions::RLetExpr>(N);
    Out.push_back(L->init());
    Out.push_back(L->body());
    break;
  }
  case RExpr::Kind::Letrec: {
    const auto *L = regions::cast<regions::RLetrecExpr>(N);
    Out.push_back(L->fnBody());
    Out.push_back(L->body());
    break;
  }
  case RExpr::Kind::If: {
    const auto *I = regions::cast<regions::RIfExpr>(N);
    Out.push_back(I->cond());
    Out.push_back(I->thenExpr());
    Out.push_back(I->elseExpr());
    break;
  }
  case RExpr::Kind::Pair: {
    const auto *P = regions::cast<regions::RPairExpr>(N);
    Out.push_back(P->first());
    Out.push_back(P->second());
    break;
  }
  case RExpr::Kind::Cons: {
    const auto *C = regions::cast<regions::RConsExpr>(N);
    Out.push_back(C->head());
    Out.push_back(C->tail());
    break;
  }
  case RExpr::Kind::UnOp:
    Out.push_back(regions::cast<regions::RUnOpExpr>(N)->operand());
    break;
  case RExpr::Kind::BinOp: {
    const auto *B = regions::cast<regions::RBinOpExpr>(N);
    Out.push_back(B->lhs());
    Out.push_back(B->rhs());
    break;
  }
  default: // Int, Bool, Unit, Var, RegApp, Nil: leaves.
    break;
  }
}

/// True iff the subtree rooted at \p Root is arrow-free: no abstraction or
/// region application node and no node whose type contains an arrow. Such
/// subtrees can only carry empty abstract closure values, so replacing one
/// cannot perturb any closure fact outside it.
bool arrowFreeSubtree(const RTypeTable &Types, const RExpr *Root) {
  std::vector<const RExpr *> Stack{Root};
  while (!Stack.empty()) {
    const RExpr *N = Stack.back();
    Stack.pop_back();
    switch (N->kind()) {
    case RExpr::Kind::Lambda:
    case RExpr::Kind::Letrec:
    case RExpr::Kind::RegApp:
      return false;
    default:
      break;
    }
    if (typeContainsArrow(Types, N->type()))
      return false;
    appendChildren(N, Stack);
  }
  return true;
}

/// True iff \p Child is the body of the lambda \p Parent or the function
/// body of the letrec \p Parent.
bool isFunctionBody(const RExpr *Parent, const RExpr *Child) {
  if (const auto *L = regions::dyn_cast<regions::RLambdaExpr>(Parent))
    return L->body() == Child;
  if (const auto *L = regions::dyn_cast<regions::RLetrecExpr>(Parent))
    return L->fnBody() == Child;
  return false;
}

/// Lockstep walker over the two trees. Builds the old→new id maps, records
/// structural breaks, and accumulates the raw-equality / literal-difference
/// evidence used to classify the edit.
class Differ {
public:
  Differ(const RegionProgram &Old, const RegionProgram &New)
      : Old(Old), New(New) {
    NodeMap.assign(Old.numNodes(), NoMap);
    VarMap.assign(Old.numVars(), NoMap);
    RevVar.assign(New.numVars(), NoMap);
    RegionMap.assign(Old.Types.numRegionVars(), NoMap);
    RevRegion.assign(New.Types.numRegionVars(), NoMap);
  }

  ProgramDiff run();

private:
  struct Frame {
    const RExpr *O;
    const RExpr *N;
    const RExpr *ParentNew;
  };

  bool mapRegion(RegionVarId O, RegionVarId N2) {
    if (O >= RegionMap.size() || N2 >= RevRegion.size())
      return false;
    if (RegionMap[O] != NoMap)
      return RegionMap[O] == N2;
    if (RevRegion[N2] != NoMap)
      return false;
    RegionMap[O] = N2;
    RevRegion[N2] = O;
    return true;
  }

  bool bindVar(VarId O, VarId N2) {
    if (O >= VarMap.size() || N2 >= RevVar.size() || VarMap[O] != NoMap ||
        RevVar[N2] != NoMap)
      return false;
    VarMap[O] = N2;
    RevVar[N2] = O;
    return true;
  }

  /// A variable *use* must reference an already-mapped binder (binders
  /// dominate uses in the walk order).
  bool useVar(VarId O, VarId N2) {
    return O < VarMap.size() && VarMap[O] == N2;
  }

  /// Maps \p OldSet through RegionMap and compares against \p NewSet.
  bool regionSetMatches(const regions::RegionSet &OldSet,
                        const regions::RegionSet &NewSet) {
    if (OldSet.size() != NewSet.size())
      return false;
    std::vector<RegionVarId> Mapped;
    Mapped.reserve(OldSet.size());
    for (RegionVarId R : OldSet) {
      if (R >= RegionMap.size() || RegionMap[R] == NoMap)
        return false;
      Mapped.push_back(RegionMap[R]);
    }
    std::sort(Mapped.begin(), Mapped.end());
    return std::equal(Mapped.begin(), Mapped.end(), NewSet.begin());
  }

  void visit(const RExpr *O, const RExpr *N2, const RExpr *ParentNew,
             std::vector<Frame> &Stack);

  const RegionProgram &Old;
  const RegionProgram &New;

  std::vector<uint32_t> NodeMap;
  std::vector<uint32_t> VarMap;
  std::vector<uint32_t> RevVar;
  std::vector<uint32_t> RegionMap;
  std::vector<uint32_t> RevRegion;

  /// Structural break pairs (old subtree, new subtree) and the new-program
  /// parent of the first break.
  std::vector<std::pair<const RExpr *, const RExpr *>> Breaks;
  const RExpr *BreakParentNew = nullptr;

  /// Deferred checks that need the completed region map: Lambda/Letrec
  /// freeRegions sets, and RegApp actual vectors.
  std::vector<std::pair<const RExpr *, const RExpr *>> FreeRegionChecks;
  std::vector<std::pair<const regions::RRegAppExpr *,
                        const regions::RRegAppExpr *>>
      ActualChecks;

  bool Conflict = false;
  bool ArrowKindOk = true;
  bool LiteralDiff = false;
  /// Whether every mapped pair is raw-identical (same ids, same
  /// annotations) — the precondition for whole-analysis reuse.
  bool RawEqual = true;
};

void Differ::visit(const RExpr *O, const RExpr *N2, const RExpr *ParentNew,
                   std::vector<Frame> &Stack) {
  bool StructuralMatch = O->kind() == N2->kind();
  if (StructuralMatch && O->kind() == RExpr::Kind::UnOp)
    StructuralMatch = regions::cast<regions::RUnOpExpr>(O)->op() ==
                      regions::cast<regions::RUnOpExpr>(N2)->op();
  if (StructuralMatch && O->kind() == RExpr::Kind::BinOp)
    StructuralMatch = regions::cast<regions::RBinOpExpr>(O)->op() ==
                      regions::cast<regions::RBinOpExpr>(N2)->op();
  if (!StructuralMatch) {
    if (Breaks.empty())
      BreakParentNew = ParentNew;
    Breaks.push_back({O, N2});
    return;
  }

  NodeMap[O->id()] = N2->id();

  // The closure analysis consults whether a node's type is an Arrow (pool
  // reads at fst/snd/hd/tl); the mapped revisions must agree.
  if ((Old.Types.kind(O->type()) == RTypeKind::Arrow) !=
      (New.Types.kind(N2->type()) == RTypeKind::Arrow))
    ArrowKindOk = false;

  // letregion binders map positionally.
  const auto &OB = O->boundRegions();
  const auto &NB = N2->boundRegions();
  if (OB.size() != NB.size()) {
    Conflict = true;
    return;
  }
  for (size_t I = 0; I != OB.size(); ++I) {
    if (!mapRegion(OB[I], NB[I])) {
      Conflict = true;
      return;
    }
  }

  RawEqual = RawEqual && O->id() == N2->id() && O->type() == N2->type() &&
             O->writeRegion() == N2->writeRegion() &&
             O->readRegions() == N2->readRegions() && OB == NB &&
             O->effect() == N2->effect() &&
             O->overallEffect() == N2->overallEffect();

  switch (O->kind()) {
  case RExpr::Kind::Int:
    if (regions::cast<regions::RIntExpr>(O)->value() !=
        regions::cast<regions::RIntExpr>(N2)->value())
      LiteralDiff = true;
    break;
  case RExpr::Kind::Bool:
    if (regions::cast<regions::RBoolExpr>(O)->value() !=
        regions::cast<regions::RBoolExpr>(N2)->value())
      LiteralDiff = true;
    break;
  case RExpr::Kind::Var: {
    VarId OV = regions::cast<regions::RVarExpr>(O)->var();
    VarId NV = regions::cast<regions::RVarExpr>(N2)->var();
    if (!useVar(OV, NV)) {
      Conflict = true;
      return;
    }
    RawEqual = RawEqual && OV == NV;
    break;
  }
  case RExpr::Kind::Lambda: {
    const auto *OL = regions::cast<regions::RLambdaExpr>(O);
    const auto *NL = regions::cast<regions::RLambdaExpr>(N2);
    if (!bindVar(OL->param(), NL->param())) {
      Conflict = true;
      return;
    }
    FreeRegionChecks.push_back({O, N2});
    RawEqual = RawEqual && OL->param() == NL->param() &&
               OL->freeRegions() == NL->freeRegions();
    break;
  }
  case RExpr::Kind::Let: {
    const auto *OL = regions::cast<regions::RLetExpr>(O);
    const auto *NL = regions::cast<regions::RLetExpr>(N2);
    if (!bindVar(OL->var(), NL->var())) {
      Conflict = true;
      return;
    }
    RawEqual = RawEqual && OL->var() == NL->var();
    break;
  }
  case RExpr::Kind::Letrec: {
    const auto *OL = regions::cast<regions::RLetrecExpr>(O);
    const auto *NL = regions::cast<regions::RLetrecExpr>(N2);
    if (!bindVar(OL->fn(), NL->fn()) || !bindVar(OL->param(), NL->param())) {
      Conflict = true;
      return;
    }
    const auto &OF = OL->formals();
    const auto &NF = NL->formals();
    if (OF.size() != NF.size()) {
      Conflict = true;
      return;
    }
    for (size_t I = 0; I != OF.size(); ++I) {
      if (!mapRegion(OF[I], NF[I])) {
        Conflict = true;
        return;
      }
    }
    FreeRegionChecks.push_back({O, N2});
    RawEqual = RawEqual && OL->fn() == NL->fn() &&
               OL->param() == NL->param() && OF == NF &&
               OL->freeRegions() == NL->freeRegions();
    break;
  }
  case RExpr::Kind::RegApp: {
    const auto *OR = regions::cast<regions::RRegAppExpr>(O);
    const auto *NR = regions::cast<regions::RRegAppExpr>(N2);
    if (!useVar(OR->fn(), NR->fn()) ||
        OR->actuals().size() != NR->actuals().size()) {
      Conflict = true;
      return;
    }
    ActualChecks.push_back({OR, NR});
    RawEqual =
        RawEqual && OR->fn() == NR->fn() && OR->actuals() == NR->actuals();
    break;
  }
  default:
    break;
  }

  std::vector<const RExpr *> OC, NC;
  appendChildren(O, OC);
  appendChildren(N2, NC);
  // Same kind implies the same child arity.
  for (size_t I = 0; I != OC.size(); ++I)
    Stack.push_back({OC[I], NC[I], N2});
}

ProgramDiff Differ::run() {
  ProgramDiff D;
  if (!Old.Root || !New.Root ||
      Old.GlobalRegions.size() != New.GlobalRegions.size())
    return D;

  std::vector<Frame> Stack{{Old.Root, New.Root, nullptr}};
  while (!Stack.empty()) {
    Frame F = Stack.back();
    Stack.pop_back();
    visit(F.O, F.N, F.ParentNew, Stack);
    if (Conflict || Breaks.size() > 1)
      return D;
  }

  if (Breaks.empty()) {
    // Identity reuse demands raw equality of everything the analyses and
    // the report could observe — id spaces included.
    if (!RawEqual || Old.numNodes() != New.numNodes() ||
        Old.numVars() != New.numVars() ||
        Old.GlobalRegions != New.GlobalRegions)
      return D;
    D.Kind = LiteralDiff ? DiffKind::LiteralsOnly : DiffKind::Identical;
    return D;
  }

  // Exactly one break: Subtree candidate. A break that is a function body
  // stays full: the seeded restart re-enqueues the parent's contexts, but
  // a lambda or letrec node never evaluates its body — body contexts are
  // registered by the call sites that apply the closure — so the new body
  // would be left without any context.
  if (!BreakParentNew || !ArrowKindOk ||
      isFunctionBody(BreakParentNew, Breaks[0].second))
    return D;
  if (!arrowFreeSubtree(Old.Types, Breaks[0].first) ||
      !arrowFreeSubtree(New.Types, Breaks[0].second))
    return D;
  for (size_t I = 0; I != Old.GlobalRegions.size(); ++I)
    if (!mapRegion(Old.GlobalRegions[I], New.GlobalRegions[I]))
      return D;
  for (auto [O, N2] : FreeRegionChecks) {
    if (auto *OL = regions::dyn_cast<regions::RLambdaExpr>(O)) {
      if (!regionSetMatches(
              OL->freeRegions(),
              regions::cast<regions::RLambdaExpr>(N2)->freeRegions()))
        return D;
    } else if (!regionSetMatches(
                   regions::cast<regions::RLetrecExpr>(O)->freeRegions(),
                   regions::cast<regions::RLetrecExpr>(N2)->freeRegions())) {
      return D;
    }
  }
  for (auto [OR, NR] : ActualChecks) {
    for (size_t I = 0; I != OR->actuals().size(); ++I) {
      RegionVarId R = OR->actuals()[I];
      if (R >= RegionMap.size() || RegionMap[R] != NR->actuals()[I])
        return D;
    }
  }

  D.Kind = DiffKind::Subtree;
  D.Seed.NodeMap = std::move(NodeMap);
  D.Seed.VarMap = std::move(VarMap);
  D.Seed.RegionVarMap = std::move(RegionMap);
  D.Seed.ParentNode = BreakParentNew->id();
  return D;
}

} // namespace

ProgramDiff diffPrograms(const RegionProgram &Old, const RegionProgram &New) {
  return Differ(Old, New).run();
}

} // namespace driver
} // namespace afl
