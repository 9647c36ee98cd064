#include "regions/RegionFinalize.h"

#include <algorithm>

using namespace afl;
using namespace afl::regions;

namespace {

/// The children of a node that belong to its *placement domain*: all of
/// them except lambda bodies and letrec function bodies, which start their
/// own domains. At most three (an `if`).
class Children {
public:
  explicit Children(const RExpr *N) {
    switch (N->kind()) {
    case RExpr::Kind::Int:
    case RExpr::Kind::Bool:
    case RExpr::Kind::Unit:
    case RExpr::Kind::Var:
    case RExpr::Kind::Nil:
    case RExpr::Kind::RegApp:
    case RExpr::Kind::Lambda: // body is a separate domain
      return;
    case RExpr::Kind::App:
      add(cast<RAppExpr>(N)->fn());
      add(cast<RAppExpr>(N)->arg());
      return;
    case RExpr::Kind::Let:
      add(cast<RLetExpr>(N)->init());
      add(cast<RLetExpr>(N)->body());
      return;
    case RExpr::Kind::Letrec:
      // fnBody is a separate domain; the continuation is same-domain.
      add(cast<RLetrecExpr>(N)->body());
      return;
    case RExpr::Kind::If:
      add(cast<RIfExpr>(N)->cond());
      add(cast<RIfExpr>(N)->thenExpr());
      add(cast<RIfExpr>(N)->elseExpr());
      return;
    case RExpr::Kind::Pair:
      add(cast<RPairExpr>(N)->first());
      add(cast<RPairExpr>(N)->second());
      return;
    case RExpr::Kind::Cons:
      add(cast<RConsExpr>(N)->head());
      add(cast<RConsExpr>(N)->tail());
      return;
    case RExpr::Kind::UnOp:
      add(cast<RUnOpExpr>(N)->operand());
      return;
    case RExpr::Kind::BinOp:
      add(cast<RBinOpExpr>(N)->lhs());
      add(cast<RBinOpExpr>(N)->rhs());
      return;
    }
  }

  const RExpr *const *begin() const { return Nodes; }
  const RExpr *const *end() const { return Nodes + Size; }
  size_t size() const { return Size; }
  const RExpr *operator[](size_t I) const { return Nodes[I]; }

private:
  void add(const RExpr *C) { Nodes[Size++] = C; }

  const RExpr *Nodes[3] = {};
  size_t Size = 0;
};

/// Finalization runs after the inference pass, when the RTypeTable no
/// longer changes: every union-find class and latent effect set is final.
/// The free regions of a type and the latent regions of an effect
/// variable are therefore pure functions of the id, computed once into
/// id-indexed tables however many nodes and passes ask for them.
class Finalizer {
public:
  Finalizer(RegionProgram &Prog,
            const std::unordered_map<RNodeId, RSubst> &RegAppSubst)
      : Prog(Prog), Types(Prog.Types), RegAppSubst(RegAppSubst) {
    Latent.resize(Types.numEffectVars());
    LatentDone.assign(Types.numEffectVars(), false);
    TypeFrv.resize(Types.numTypes());
    TypeFrvDone.assign(Types.numTypes(), false);
    Parent.resize(Prog.numNodes());
    NodeDepth.resize(Prog.numNodes());
    RegionDomain.assign(Types.numRegionVars(), 0);
    FirstMention.resize(Types.numRegionVars());
    LastMention.resize(Types.numRegionVars());
  }

  void run() {
    canonicalizeGlobals();
    resolveNode(Prog.nodeMut(Prog.Root->id()));
    RegionSet Globals = RegionSet::fromSorted(Prog.GlobalRegions);
    placeDomain(Prog.Root, Globals);
    RegionSet FromGlobals;
    captures(Prog.nodeMut(Prog.Root->id()), FromGlobals);
    walkOverall(Prog.nodeMut(Prog.Root->id()),
                Prog.keepSet(std::move(Globals)));
  }

private:
  RegionVarId canon(RegionVarId R) const { return Types.findRegion(R); }

  void canonicalizeGlobals() {
    std::vector<RegionVarId> G;
    for (RegionVarId R : Prog.GlobalRegions)
      G.push_back(canon(R));
    Prog.GlobalRegions = RegionSet::fromUnsorted(std::move(G)).raw();
  }

  /// The (canonical) regions the latent effect of ε \p E may touch.
  const RegionSet &latent(EffectVarId E) {
    E = Types.findEffectVar(E);
    if (!LatentDone[E]) {
      Latent[E] = Types.latentRegions(E);
      LatentDone[E] = true;
    }
    return Latent[E];
  }

  /// The (canonical) free region variables of μ \p T.
  const RegionSet &typeFrv(RTypeId T) {
    if (TypeFrvDone[T])
      return TypeFrv[T];
    RegionSet S;
    S.insert(Types.regionOf(T));
    switch (Types.kind(T)) {
    case RTypeKind::Int:
    case RTypeKind::Bool:
    case RTypeKind::Unit:
      break;
    case RTypeKind::Arrow:
      S.unionWith(latent(Types.arrowEffect(T)));
      S.unionWith(typeFrv(Types.child0(T)));
      S.unionWith(typeFrv(Types.child1(T)));
      break;
    case RTypeKind::Pair:
      S.unionWith(typeFrv(Types.child0(T)));
      S.unionWith(typeFrv(Types.child1(T)));
      break;
    case RTypeKind::List:
      S.unionWith(typeFrv(Types.child0(T)));
      break;
    }
    TypeFrv[T] = std::move(S);
    TypeFrvDone[T] = true;
    return TypeFrv[T];
  }

  /// Free regions of a letrec's scheme, plus \p Extra, minus its formals
  /// and minus the scheme arrow's box region (a per-use placeholder that
  /// is substituted fresh at every region application, so nothing binds or
  /// accesses it).
  RegionSet schemeRegions(const RLetrecExpr *L,
                          RegionVarId Extra = RExpr::NoRegion) {
    RTypeId Scheme = Prog.varInfo(L->fn()).Type;
    RegionSet S = typeFrv(Scheme);
    if (Extra != RExpr::NoRegion)
      S.insert(Extra);
    for (RegionVarId F : L->formals())
      S.erase(F);
    S.erase(Types.regionOf(Scheme));
    return S;
  }

  //===------------------------------------------------------------------===//
  // Pass 1: canonicalize node annotations, resolve effects and actuals.
  //===------------------------------------------------------------------===//

  /// Resolves \p N and its subtree. A node's effect is the effect of its
  /// own evaluation step joined with the effects of its in-domain children
  /// — the cumulative effect the inference pass threads upward, assembled
  /// bottom-up here instead of being stored per node during inference.
  void resolveNode(RExpr *N) {
    // Write/read regions.
    if (N->hasWriteRegion())
      N->setWriteRegion(canon(N->writeRegion()));
    for (RegionVarId &R : N->readRegionsMut())
      R = canon(R);

    switch (N->kind()) {
    case RExpr::Kind::Letrec: {
      auto *L = static_cast<RLetrecExpr *>(N);
      std::vector<RegionVarId> Formals;
      for (RegionVarId R : L->formals()) {
        RegionVarId C = canon(R);
        // Unification may have merged two formals (the function is then
        // used with aliased actuals everywhere); keep one copy.
        if (std::find(Formals.begin(), Formals.end(), C) == Formals.end())
          Formals.push_back(C);
      }
      L->formalsMut() = Formals;
      resolveNode(Prog.nodeMut(L->fnBody()->id()));
      resolveNode(Prog.nodeMut(L->body()->id()));

      // Free regions of the recursive function's body: the scheme and the
      // closure region, excluding formals and the box region.
      L->freeRegionsMut() = schemeRegions(L, N->writeRegion());
      break;
    }
    case RExpr::Kind::RegApp: {
      auto *RA = static_cast<RRegAppExpr *>(N);
      auto It = RegAppSubst.find(N->id());
      assert(It != RegAppSubst.end() && "region application without subst");
      const RSubst &Subst = It->second;
      const RLetrecExpr *Callee = Prog.varInfo(RA->fn()).Letrec;
      assert(Callee && "region application of a non-letrec variable");
      std::vector<RegionVarId> Actuals;
      for (RegionVarId Formal : Callee->formals()) {
        RegionVarId Image = Formal;
        for (const auto &[From, To] : Subst.Regions) {
          if (canon(From) == Formal) {
            Image = To;
            break;
          }
        }
        Actuals.push_back(canon(Image));
      }
      RA->actualsMut() = Actuals;
      break;
    }
    case RExpr::Kind::Lambda: {
      auto *L = static_cast<RLambdaExpr *>(N);
      resolveNode(Prog.nodeMut(L->body()->id()));
      L->freeRegionsMut() = typeFrv(N->type());
      break;
    }
    default:
      for (const RExpr *C : Children(N))
        resolveNode(Prog.nodeMut(C->id()));
      break;
    }

    // The own step's effect is exactly what it writes and reads, plus the
    // latent effect of the applied function at an application.
    std::vector<RegionVarId> OwnRegions = N->readRegions();
    if (N->hasWriteRegion())
      OwnRegions.push_back(N->writeRegion());
    RegionSet Eff = RegionSet::fromUnsorted(std::move(OwnRegions));
    if (const auto *A = dyn_cast<RAppExpr>(N))
      Eff.unionWith(latent(Types.arrowEffect(A->fn()->type())));
    for (const RExpr *C : Children(N))
      Eff.unionWith(C->effect());
    N->effectMut() = std::move(Eff);
  }

  //===------------------------------------------------------------------===//
  // Pass 2: letregion placement.
  //
  // Within a placement domain a local region ρ is bound at the lowest
  // node covering every mention of ρ: the descent from the domain root
  // moves into the unique child whose subtree mentions ρ, and stops at a
  // node that mentions ρ itself, at a node with several such children, or
  // above a child whose value type contains ρ. That stop is the LCA of
  // the nodes mentioning ρ — or its parent when the LCA is not the
  // domain root and ρ is free in the LCA's type (a node whose type
  // contains ρ mentions ρ, so the type test can only fire at the LCA).
  // The LCA of a node set is the LCA of its first and last member in
  // preorder, so one preorder walk per domain records everything needed.
  //===------------------------------------------------------------------===//

  /// Records that node \p N, visited in preorder, mentions \p R.
  void mention(RegionVarId R, RNodeId N) {
    if (RegionDomain[R] != DomainStamp) {
      RegionDomain[R] = DomainStamp;
      FirstMention[R] = N;
      DomainRegions.push_back(R);
    }
    LastMention[R] = N;
  }

  /// Preorder walk of \p N's in-domain subtree: records each node's
  /// domain parent and depth and the regions the node itself mentions (its
  /// own memory operations, its value's type, region-application actuals;
  /// for letrec nodes also the scheme minus formals and box region), and
  /// collects the lambda and letrec nodes whose function bodies start the
  /// next domains down. Every annotation is canonical after pass 1.
  /// Lambda free regions already flow in through the type (the latent
  /// effect is part of frv of the arrow).
  void walkDomain(const RExpr *N, RNodeId ParentId, uint32_t Depth,
                  std::vector<const RExpr *> &Inner) {
    RNodeId Id = N->id();
    Parent[Id] = ParentId;
    NodeDepth[Id] = Depth;
    for (RegionVarId R : typeFrv(N->type()))
      mention(R, Id);
    if (N->hasWriteRegion())
      mention(N->writeRegion(), Id);
    for (RegionVarId R : N->readRegions())
      mention(R, Id);
    if (const auto *RA = dyn_cast<RRegAppExpr>(N))
      for (RegionVarId R : RA->actuals())
        mention(R, Id);
    if (const auto *L = dyn_cast<RLetrecExpr>(N)) {
      for (RegionVarId R : schemeRegions(L))
        mention(R, Id);
      Inner.push_back(N);
    } else if (isa<RLambdaExpr>(N)) {
      Inner.push_back(N);
    }
    for (const RExpr *C : Children(N))
      walkDomain(C, Id, Depth + 1, Inner);
  }

  RNodeId lca(RNodeId A, RNodeId B) const {
    while (NodeDepth[A] > NodeDepth[B])
      A = Parent[A];
    while (NodeDepth[B] > NodeDepth[A])
      B = Parent[B];
    while (A != B) {
      A = Parent[A];
      B = Parent[B];
    }
    return A;
  }

  void placeDomain(const RExpr *Body, const RegionSet &OuterBound) {
    ++DomainStamp;
    DomainRegions.clear();
    std::vector<const RExpr *> Inner;
    walkDomain(Body, Body->id(), 0, Inner);

    std::sort(DomainRegions.begin(), DomainRegions.end());
    std::vector<RegionVarId> Locals;
    for (RegionVarId R : DomainRegions) {
      if (OuterBound.contains(R))
        continue;
      Locals.push_back(R);
      RNodeId At = lca(FirstMention[R], LastMention[R]);
      if (At != Body->id() && typeFrv(Prog.node(At)->type()).contains(R))
        At = Parent[At];
      // Regions are placed in ascending order, so each node's letregion
      // list comes out sorted.
      Prog.nodeMut(At)->boundRegionsMut().push_back(R);
    }

    // Inner domains: lambda bodies see NewBound, letrec function bodies
    // NewBound plus the letrec's formals.
    RegionSet NewBound = OuterBound;
    NewBound.unionWith(RegionSet::fromSorted(std::move(Locals)));
    for (const RExpr *Fun : Inner) {
      if (const auto *L = dyn_cast<RLambdaExpr>(Fun)) {
        placeDomain(L->body(), NewBound);
        continue;
      }
      const auto *L = cast<RLetrecExpr>(Fun);
      RegionSet B = NewBound;
      for (RegionVarId F : L->formals())
        B.insert(F);
      placeDomain(L->fnBody(), B);
    }
  }

  //===------------------------------------------------------------------===//
  // Pass 3: closure captures.
  //
  // The closure analysis restricts a closure's environment to its
  // function's free regions, and every closure created in the body is
  // restricted from that environment (plus the regions bound in between).
  // The function's type misses what an inner closure that neither
  // escapes nor runs captures: nothing in the type of
  // `fn x => let g = fn y => v in x end` names v's region.
  //===------------------------------------------------------------------===//

  /// Adds to \p Out what the closures created in \p N's in-domain subtree
  /// capture from outside it: nested lambdas' free regions, and region
  /// applications' callee free regions and actuals, minus the regions
  /// bound on the way. Widens the nested functions first.
  void captures(RExpr *N, RegionSet &Out) {
    RegionSet Local;
    RegionSet &Dst = N->boundRegions().empty() ? Out : Local;
    if (isa<RLambdaExpr>(N)) {
      auto *L = static_cast<RLambdaExpr *>(N);
      captures(Prog.nodeMut(L->body()->id()), L->freeRegionsMut());
      Dst.unionWith(L->freeRegions());
    } else if (isa<RLetrecExpr>(N)) {
      auto *L = static_cast<RLetrecExpr *>(N);
      RExpr *FnBody = Prog.nodeMut(L->fnBody()->id());
      RegionSet Captured;
      captures(FnBody, Captured);
      for (RegionVarId F : L->formals())
        Captured.erase(F);
      // A lambda in the body that calls L itself re-creates L's closure
      // from its own environment, so it needs the widened set: walk once
      // more when L grew.
      if (L->freeRegionsMut().unionWith(Captured)) {
        Captured.clear();
        captures(FnBody, Captured);
      }
    } else if (const auto *RA = dyn_cast<RRegAppExpr>(N)) {
      Dst.unionWith(Prog.varInfo(RA->fn()).Letrec->freeRegions());
      for (RegionVarId R : RA->actuals())
        Dst.insert(R);
    }
    for (const RExpr *C : Children(N))
      captures(Prog.nodeMut(C->id()), Dst);
    if (&Dst == &Local) {
      for (RegionVarId R : N->boundRegions())
        Local.erase(R);
      Out.unionWith(Local);
    }
  }

  //===------------------------------------------------------------------===//
  // Pass 4: overall effects.
  //===------------------------------------------------------------------===//

  /// Sets the overall effect of \p N's subtree. \p Ambient is shared by
  /// every node that binds no region of its own; only letregion nodes and
  /// function bodies start a new set.
  void walkOverall(RExpr *N, const RegionSet *Ambient) {
    const RegionSet *Amb = Ambient;
    if (!N->boundRegions().empty()) {
      RegionSet S = *Ambient;
      for (RegionVarId R : N->boundRegions())
        S.insert(R);
      Amb = Prog.keepSet(std::move(S));
    }
    N->setOverallEffect(Amb);

    if (auto *L = dyn_cast<RLambdaExpr>(N)) {
      walkOverall(Prog.nodeMut(L->body()->id()),
                  Prog.keepSet(latent(Types.arrowEffect(N->type()))));
      return;
    }
    if (auto *L = dyn_cast<RLetrecExpr>(N)) {
      RTypeId Scheme = Prog.varInfo(L->fn()).Type;
      walkOverall(Prog.nodeMut(L->fnBody()->id()),
                  Prog.keepSet(latent(Types.arrowEffect(Scheme))));
      walkOverall(Prog.nodeMut(L->body()->id()), Amb);
      return;
    }
    for (const RExpr *C : Children(N))
      walkOverall(Prog.nodeMut(C->id()), Amb);
  }

  RegionProgram &Prog;
  const RTypeTable &Types;
  const std::unordered_map<RNodeId, RSubst> &RegAppSubst;

  /// Latent regions per canonical effect variable.
  std::vector<RegionSet> Latent;
  std::vector<bool> LatentDone;
  /// Free region variables per region type.
  std::vector<RegionSet> TypeFrv;
  std::vector<bool> TypeFrvDone;
  /// Placement: the domain tree (parent and depth per node), and per
  /// region the first and last mentioning node of the current domain.
  std::vector<RNodeId> Parent;
  std::vector<uint32_t> NodeDepth;
  std::vector<uint32_t> RegionDomain;
  std::vector<RNodeId> FirstMention;
  std::vector<RNodeId> LastMention;
  std::vector<RegionVarId> DomainRegions;
  uint32_t DomainStamp = 0;
};

} // namespace

void regions::finalizeRegionProgram(
    RegionProgram &Prog,
    const std::unordered_map<RNodeId, RSubst> &RegAppSubst) {
  Finalizer F(Prog, RegAppSubst);
  F.run();
}
