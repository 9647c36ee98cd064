#include "regions/RegionTypes.h"

#include <algorithm>

using namespace afl;
using namespace afl::regions;

bool EffectSet::unionWith(const EffectSet &Other) {
  bool Grew = Regions.unionWith(Other.Regions);
  return EffectVars.unionWith(Other.EffectVars) || Grew;
}

RegionVarId RSubst::lookupRegion(RegionVarId R) const {
  for (const auto &[From, To] : Regions)
    if (From == R)
      return To;
  return R;
}

EffectVarId RSubst::lookupEffect(EffectVarId E) const {
  for (const auto &[From, To] : Effects)
    if (From == E)
      return To;
  return E;
}

//===----------------------------------------------------------------------===//
// Region variables
//===----------------------------------------------------------------------===//

RegionVarId RTypeTable::freshRegion() {
  RegionVarId Id = static_cast<RegionVarId>(RegionParents.size());
  RegionParents.push_back(Id);
  return Id;
}

RegionVarId RTypeTable::findRegion(RegionVarId R) const {
  assert(R < RegionParents.size() && "bad region var");
  while (RegionParents[R] != R) {
    RegionParents[R] = RegionParents[RegionParents[R]]; // path halving
    R = RegionParents[R];
  }
  return R;
}

void RTypeTable::unifyRegions(RegionVarId A, RegionVarId B) {
  A = findRegion(A);
  B = findRegion(B);
  if (A == B)
    return;
  // Keep the smaller id as representative so canonical names are stable.
  if (A > B)
    std::swap(A, B);
  RegionParents[B] = A;
}

//===----------------------------------------------------------------------===//
// Effect variables
//===----------------------------------------------------------------------===//

EffectVarId RTypeTable::freshEffectVar() {
  EffectVarId Id = static_cast<EffectVarId>(EffectParents.size());
  EffectParents.push_back(Id);
  EffectSets.emplace_back();
  return Id;
}

EffectVarId RTypeTable::findEffectVar(EffectVarId E) const {
  assert(E < EffectParents.size() && "bad effect var");
  while (EffectParents[E] != E) {
    EffectParents[E] = EffectParents[EffectParents[E]];
    E = EffectParents[E];
  }
  return E;
}

void RTypeTable::unifyEffectVars(EffectVarId A, EffectVarId B) {
  A = findEffectVar(A);
  B = findEffectVar(B);
  if (A == B)
    return;
  if (A > B)
    std::swap(A, B);
  EffectParents[B] = A;
  EffectSets[A].unionWith(EffectSets[B]);
  EffectSets[B] = EffectSet();
}

bool RTypeTable::addToEffectVar(EffectVarId E, const EffectSet &Effects) {
  return EffectSets[findEffectVar(E)].unionWith(Effects);
}

const EffectSet &RTypeTable::latentOf(EffectVarId E) const {
  return EffectSets[findEffectVar(E)];
}

//===----------------------------------------------------------------------===//
// Region types
//===----------------------------------------------------------------------===//

RTypeId RTypeTable::freshFromType(const types::TypeTable &Types,
                                  types::TypeId T) {
  using types::TypeKind;
  RegionVarId R = freshRegion();
  switch (Types.kind(T)) {
  case TypeKind::Int:
  case TypeKind::Var: // residual vars were defaulted to int upstream
    return mkInt(R);
  case TypeKind::Bool:
    return mkBool(R);
  case TypeKind::Unit:
    return mkUnit(R);
  case TypeKind::Arrow: {
    RTypeId Param = freshFromType(Types, Types.child0(T));
    RTypeId Result = freshFromType(Types, Types.child1(T));
    return mkArrow(Param, freshEffectVar(), Result, R);
  }
  case TypeKind::Pair: {
    RTypeId First = freshFromType(Types, Types.child0(T));
    RTypeId Second = freshFromType(Types, Types.child1(T));
    return mkPair(First, Second, R);
  }
  case TypeKind::List:
    return mkList(freshFromType(Types, Types.child0(T)), R);
  }
  assert(false && "unknown type kind");
  return 0;
}

void RTypeTable::unify(RTypeId A, RTypeId B) {
  if (A == B)
    return;
  const Node &NA = Nodes[A];
  const Node &NB = Nodes[B];
  assert(NA.Kind == NB.Kind && "region unification of mismatched shapes");
  unifyRegions(NA.Region, NB.Region);
  switch (NA.Kind) {
  case RTypeKind::Int:
  case RTypeKind::Bool:
  case RTypeKind::Unit:
    return;
  case RTypeKind::Arrow:
    unifyEffectVars(NA.Eps, NB.Eps);
    unify(NA.Child0, NB.Child0);
    unify(NA.Child1, NB.Child1);
    return;
  case RTypeKind::Pair:
    unify(NA.Child0, NB.Child0);
    unify(NA.Child1, NB.Child1);
    return;
  case RTypeKind::List:
    unify(NA.Child0, NB.Child0);
    return;
  }
}

RTypeId RTypeTable::instantiate(RTypeId T, const RSubst &Subst) {
  const Node N = Nodes[T]; // copy: Nodes may reallocate below
  RegionVarId R = Subst.lookupRegion(findRegion(N.Region));
  switch (N.Kind) {
  case RTypeKind::Int:
    return mkInt(R);
  case RTypeKind::Bool:
    return mkBool(R);
  case RTypeKind::Unit:
    return mkUnit(R);
  case RTypeKind::Pair: {
    RTypeId First = instantiate(N.Child0, Subst);
    RTypeId Second = instantiate(N.Child1, Subst);
    return mkPair(First, Second, R);
  }
  case RTypeKind::List:
    return mkList(instantiate(N.Child0, Subst), R);
  case RTypeKind::Arrow: {
    RTypeId Param = instantiate(N.Child0, Subst);
    RTypeId Result = instantiate(N.Child1, Subst);
    EffectVarId OldEps = findEffectVar(N.Eps);
    EffectVarId NewEps = Subst.lookupEffect(OldEps);
    if (NewEps != OldEps) {
      // Quantified arrow effect: substitute its latent set into the copy.
      EffectSet Latent = latentOf(OldEps); // copy before mutation
      EffectSet Mapped;
      for (RegionVarId LR : Latent.Regions)
        Mapped.Regions.insert(Subst.lookupRegion(findRegion(LR)));
      for (EffectVarId LE : Latent.EffectVars)
        Mapped.EffectVars.insert(Subst.lookupEffect(findEffectVar(LE)));
      addToEffectVar(NewEps, Mapped);
    }
    return mkArrow(Param, NewEps, Result, R);
  }
  }
  assert(false && "unknown region type kind");
  return 0;
}

void RTypeTable::collectLatent(EffectVarId E, std::vector<RegionVarId> &Out,
                               EffectVarSet &Expanded) const {
  std::vector<EffectVarId> Work{findEffectVar(E)};
  while (!Work.empty()) {
    EffectVarId EV = Work.back();
    Work.pop_back();
    if (!Expanded.insert(EV))
      continue;
    const EffectSet &Latent = EffectSets[EV];
    for (RegionVarId R : Latent.Regions)
      Out.push_back(findRegion(R));
    for (EffectVarId Next : Latent.EffectVars)
      Work.push_back(findEffectVar(Next));
  }
}

void RTypeTable::collectRegions(RTypeId T, std::vector<RegionVarId> &Out,
                                EffectVarSet &Expanded) const {
  const Node &N = Nodes[T];
  Out.push_back(findRegion(N.Region));
  switch (N.Kind) {
  case RTypeKind::Int:
  case RTypeKind::Bool:
  case RTypeKind::Unit:
    return;
  case RTypeKind::Pair:
    collectRegions(N.Child0, Out, Expanded);
    collectRegions(N.Child1, Out, Expanded);
    return;
  case RTypeKind::List:
    collectRegions(N.Child0, Out, Expanded);
    return;
  case RTypeKind::Arrow:
    collectLatent(N.Eps, Out, Expanded);
    collectRegions(N.Child0, Out, Expanded);
    collectRegions(N.Child1, Out, Expanded);
    return;
  }
}

void RTypeTable::freeRegionVars(RTypeId T, RegionSet &Out) const {
  std::vector<RegionVarId> Found;
  EffectVarSet Expanded;
  collectRegions(T, Found, Expanded);
  Out.unionWith(RegionSet::fromUnsorted(std::move(Found)));
}

void RTypeTable::freeEffectVars(RTypeId T, EffectVarSet &Out) const {
  const Node &N = Nodes[T];
  switch (N.Kind) {
  case RTypeKind::Int:
  case RTypeKind::Bool:
  case RTypeKind::Unit:
    return;
  case RTypeKind::Pair:
    freeEffectVars(N.Child0, Out);
    freeEffectVars(N.Child1, Out);
    return;
  case RTypeKind::List:
    freeEffectVars(N.Child0, Out);
    return;
  case RTypeKind::Arrow: {
    // The arrow's own ε plus any ε reachable through its latent set.
    std::vector<EffectVarId> Work;
    Work.push_back(findEffectVar(N.Eps));
    while (!Work.empty()) {
      EffectVarId E = Work.back();
      Work.pop_back();
      if (!Out.insert(E))
        continue;
      for (EffectVarId Next : EffectSets[E].EffectVars)
        Work.push_back(findEffectVar(Next));
    }
    freeEffectVars(N.Child0, Out);
    freeEffectVars(N.Child1, Out);
    return;
  }
  }
}

RegionSet RTypeTable::regionsOf(const EffectSet &E) const {
  std::vector<RegionVarId> Found;
  Found.reserve(E.Regions.size());
  for (RegionVarId R : E.Regions)
    Found.push_back(findRegion(R));
  EffectVarSet Expanded;
  for (EffectVarId EV : E.EffectVars)
    collectLatent(EV, Found, Expanded);
  return RegionSet::fromUnsorted(std::move(Found));
}

RegionSet RTypeTable::latentRegions(EffectVarId E) const {
  std::vector<RegionVarId> Found;
  EffectVarSet Expanded;
  collectLatent(E, Found, Expanded);
  return RegionSet::fromUnsorted(std::move(Found));
}

void RTypeTable::strAppend(RTypeId T, std::string &Out) const {
  const Node &N = Nodes[T];
  switch (N.Kind) {
  case RTypeKind::Int:
    Out += "int";
    break;
  case RTypeKind::Bool:
    Out += "bool";
    break;
  case RTypeKind::Unit:
    Out += "unit";
    break;
  case RTypeKind::Pair:
    Out += '(';
    strAppend(N.Child0, Out);
    Out += " * ";
    strAppend(N.Child1, Out);
    Out += ')';
    break;
  case RTypeKind::List:
    Out += '(';
    strAppend(N.Child0, Out);
    Out += " list)";
    break;
  case RTypeKind::Arrow: {
    Out += '(';
    strAppend(N.Child0, Out);
    EffectVarId E = findEffectVar(N.Eps);
    Out += " -e" + std::to_string(E) + "{";
    bool FirstR = true;
    for (RegionVarId R : latentRegions(E)) {
      if (!FirstR)
        Out += ',';
      Out += 'r' + std::to_string(R);
      FirstR = false;
    }
    Out += "}-> ";
    strAppend(N.Child1, Out);
    Out += ')';
    break;
  }
  }
  Out += "@r" + std::to_string(findRegion(N.Region));
}

std::string RTypeTable::str(RTypeId T) const {
  std::string Out;
  strAppend(T, Out);
  return Out;
}
