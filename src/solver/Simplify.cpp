#include "solver/Workspace.h"

#include <algorithm>
#include <cassert>

using namespace afl;
using namespace afl::solver;
using namespace afl::constraints;

void SimplifyStats::accumulate(const SimplifyStats &Other) {
  StateVarsBefore += Other.StateVarsBefore;
  StateVarsAfter += Other.StateVarsAfter;
  ConstraintsBefore += Other.ConstraintsBefore;
  ConstraintsAfter += Other.ConstraintsAfter;
  EqRemoved += Other.EqRemoved;
  ForcedTriplesRemoved += Other.ForcedTriplesRemoved;
  BoolsForced += Other.BoolsForced;
  Components += Other.Components;
  LargestComponent = std::max(LargestComponent, Other.LargestComponent);
  SimplifySeconds += Other.SimplifySeconds;
}

bool solver::simplifyGroup(const ConstraintSystem &Sys, uint32_t KBegin,
                           uint32_t KEnd, Workspace &W, SimplifyStats &Stats) {
  constexpr uint32_t None = ~0u;

  // Group-local initial domains, member by member: state lanes in Dom,
  // boolean lanes straight into the residual's BD (forcing below only
  // narrows them). The callers reject a system with an empty initial
  // domain before any group runs, so every lane here is nonempty.
  std::vector<uint8_t> &Dom = W.Dom;
  Dom.clear();
  W.BD.clear();
  size_t NumCons = 0;
  for (uint32_t K = KBegin; K != KEnd; ++K) {
    for (uint32_t S : Sys.shardStates(K))
      Dom.push_back(Sys.StateDom[S]);
    for (uint32_t B : Sys.shardBools(K))
      W.BD.push_back(Sys.BoolDom[B]);
    NumCons += Sys.shardConstraints(K).size();
  }
  const uint32_t NS = static_cast<uint32_t>(Dom.size());
  const size_t NB = W.BD.size();
  Stats.StateVarsBefore = NS;
  Stats.ConstraintsBefore = NumCons;

  // Union-find over the state variables. Each root carries the class
  // domain (the intersection of the members' initial domains) and, in
  // phase 2, the list of triples touching the class.
  std::vector<uint32_t> &Parent = W.Parent;
  Parent.resize(NS);
  for (uint32_t I = 0; I != NS; ++I)
    Parent[I] = I;
  auto Find = [&Parent](uint32_t V) {
    while (Parent[V] != V) {
      Parent[V] = Parent[Parent[V]];
      V = Parent[V];
    }
    return V;
  };

  // Phase 1: collapse every Eq constraint; collect the triples in
  // group-local ids. MemberTriples[M] is where member M's triples start.
  std::vector<Constraint> &T = W.Triples;
  T.clear();
  std::vector<uint32_t> &BoolStart = W.BOccStart;
  BoolStart.assign(NB + 1, 0);
  W.MemberTriples.clear();
  for (uint32_t K = KBegin; K != KEnd; ++K) {
    W.MemberTriples.push_back(static_cast<uint32_t>(T.size()));
    for (uint32_t CI : Sys.shardConstraints(K)) {
      Constraint C = Sys.Cons[CI];
      C.S1 = W.LocalState[C.S1];
      C.S2 = W.LocalState[C.S2];
      if (C.K != Constraint::Kind::Eq) {
        C.B = W.LocalBool[C.B];
        ++BoolStart[C.B + 1];
        T.push_back(C);
        continue;
      }
      ++Stats.EqRemoved;
      uint32_t A = Find(C.S1), B = Find(C.S2);
      if (A == B)
        continue;
      Parent[B] = A;
      Dom[A] &= Dom[B];
      if (Dom[A] == 0)
        return false;
    }
  }
  W.MemberTriples.push_back(static_cast<uint32_t>(T.size()));
  uint8_t *const DomP = Dom.data();

  // Phase 2: propagate the full §4.3 triple rule to the arc-consistent
  // fixpoint, worklist-driven. A triple whose boolean is (or becomes)
  // determined is applied and dropped: a false one is an equality (fed
  // back into the union-find, so collapses cascade), a true one
  // restricts its endpoints. An undetermined triple prunes each
  // endpoint to the union of its two scenarios. A triple is
  // (re)examined when one of its endpoint classes merges or shrinks, or
  // its boolean is forced — but not on its own pruning, which is
  // idempotent. Classes keep their incident triple lists — array-backed
  // linked lists over a fixed node pool, so a class merge concatenates
  // in O(1) with no allocation — merged small-into-large, making the
  // whole phase near-linear.
  const uint32_t NT = static_cast<uint32_t>(T.size());
  W.Alive.assign(NT, 1);
  W.InQueue.assign(NT, 0);
  // Byte stores may alias anything: work through raw pointers so the
  // loops below need not reload the vectors' storage after each one.
  uint8_t *const Alive = W.Alive.data(), *const InQ = W.InQueue.data();
  std::vector<uint32_t> &Queue = W.Queue;
  Queue.clear();
  size_t QHead = 0;
  auto Enqueue = [&](uint32_t TI) {
    if (Alive[TI] && !InQ[TI]) {
      InQ[TI] = 1;
      Queue.push_back(TI);
    }
  };

  // Boolean -> incident triples, CSR-shaped in ascending triple order
  // (counted in phase 1). Filled with BoolStart[B] as B's cursor, then
  // the cursors (each at the next list's start) shift up one slot.
  for (size_t I = 1; I <= NB; ++I)
    BoolStart[I] += BoolStart[I - 1];
  std::vector<uint32_t> &BoolTriples = W.BOccData;
  BoolTriples.resize(NT);
  for (uint32_t TI = 0; TI != NT; ++TI)
    BoolTriples[BoolStart[T[TI].B]++] = TI;
  BoolStart.insert(BoolStart.begin(), 0);
  BoolStart.pop_back();

  // Per-root incident triple lists (post-Eq roots), nodes pooled (at
  // most two incidences per triple).
  std::vector<Workspace::ClassList> &Lists = W.Lists;
  std::vector<Workspace::Node> &Nodes = W.Nodes;
  Lists.assign(NS, {None, None, 0});
  Nodes.clear();
  auto AddIncidence = [&](uint32_t R, uint32_t TI) {
    Workspace::ClassList &L = Lists[R];
    uint32_t N = static_cast<uint32_t>(Nodes.size());
    Nodes.push_back({TI, L.Head});
    L.Head = N;
    if (L.Tail == None)
      L.Tail = N;
    ++L.Count;
  };
  for (uint32_t TI = 0; TI != NT; ++TI) {
    const Constraint &C = T[TI];
    uint32_t R1 = Find(C.S1), R2 = Find(C.S2);
    AddIncidence(R1, TI);
    if (R2 != R1)
      AddIncidence(R2, TI);
  }
  auto EnqueueClass = [&](uint32_t R) {
    for (uint32_t N = Lists[R].Head; N != None; N = Nodes[N].Next)
      Enqueue(Nodes[N].Triple);
  };

  bool Conflict = false;
  // Merges B's class into A's (or vice versa — the larger incident list
  // wins). Enqueues the absorbed side's triples (their root identity
  // changed) and, when the surviving domain shrank, the surviving
  // side's too.
  auto Merge = [&](uint32_t A, uint32_t B) {
    A = Find(A);
    B = Find(B);
    if (A == B)
      return;
    if (Lists[A].Count < Lists[B].Count)
      std::swap(A, B);
    Parent[B] = A;
    uint8_t NewDom = DomP[A] & DomP[B];
    if (NewDom != DomP[A])
      EnqueueClass(A);
    EnqueueClass(B);
    DomP[A] = NewDom;
    if (NewDom == 0) {
      Conflict = true;
      return;
    }
    Workspace::ClassList &LA = Lists[A], &LB = Lists[B];
    if (LB.Head != None) {
      if (LA.Head == None)
        LA.Head = LB.Head;
      else
        Nodes[LA.Tail].Next = LB.Head;
      LA.Tail = LB.Tail;
      LA.Count += LB.Count;
      LB = {None, None, 0};
    }
  };
  auto Restrict = [&](uint32_t R, uint8_t Mask) {
    R = Find(R);
    uint8_t NewDom = DomP[R] & Mask;
    if (NewDom == DomP[R])
      return;
    DomP[R] = NewDom;
    if (NewDom == 0) {
      Conflict = true;
      return;
    }
    EnqueueClass(R);
  };

  // The residual's boolean lanes, in group-local ids: initially fixed
  // and forced values stay as singleton domains.
  uint8_t *const BD = W.BD.data();
  auto ForceBool = [&](BoolVarId B, uint8_t Value) {
    assert(BD[B] == BAny);
    BD[B] = Value;
    ++Stats.BoolsForced;
    for (uint32_t I = BoolStart[B]; I != BoolStart[B + 1]; ++I)
      Enqueue(BoolTriples[I]);
  };

  for (uint32_t TI = 0; TI != NT; ++TI)
    Enqueue(TI);
  while (QHead != Queue.size() && !Conflict) {
    // The flag stays set while the triple is examined, so its own
    // pruning below does not queue it again. A dropped triple is never
    // queued again, whatever its flag.
    uint32_t TI = Queue[QHead++];
    if (!Alive[TI])
      continue;
    const Constraint &C = T[TI];
    const bool IsAlloc = C.K == Constraint::Kind::AllocTriple;
    const uint8_t From = IsAlloc ? StU : StA;
    const uint8_t To = IsAlloc ? StA : StD;
    uint32_t R1 = Find(C.S1), R2 = Find(C.S2);
    if (BD[C.B] == BTrue) {
      // Checked before the R1 == R2 case: a true boolean on a
      // same-representative triple empties the domain below (From and
      // To are disjoint), which is the correct conflict.
      Alive[TI] = 0;
      ++Stats.ForcedTriplesRemoved;
      Restrict(R1, From);
      if (!Conflict)
        Restrict(R2, To);
      continue;
    }
    if (BD[C.B] == BFalse || R1 == R2) {
      // ¬b → s1 = s2. With s1 and s2 already one variable the
      // transition is impossible, so b is false either way.
      Alive[TI] = 0;
      ++Stats.ForcedTriplesRemoved;
      if (BD[C.B] == BAny)
        ForceBool(C.B, BFalse);
      Merge(R1, R2);
      continue;
    }
    uint8_t D1 = DomP[R1], D2 = DomP[R2];
    if (!(D1 & From) || !(D2 & To)) {
      // The transition states are unreachable: b must be false.
      Alive[TI] = 0;
      ++Stats.ForcedTriplesRemoved;
      ForceBool(C.B, BFalse);
      Merge(R1, R2);
      continue;
    }
    if ((D1 & D2) == 0) {
      // s1 = s2 is impossible: b must be true.
      Alive[TI] = 0;
      ++Stats.ForcedTriplesRemoved;
      ForceBool(C.B, BTrue);
      Restrict(R1, From);
      if (!Conflict)
        Restrict(R2, To);
      continue;
    }
    // Both options open: prune each endpoint to the union of the two
    // scenarios, the second prune reading the narrowed first. Neither
    // can empty a domain or decide the boolean (D1 & From, D2 & To and
    // D1 & D2 all survive), and a second application changes nothing.
    Restrict(R1, static_cast<uint8_t>(D2 | From));
    Restrict(R2, static_cast<uint8_t>(DomP[R1] | To));
    InQ[TI] = 0;
  }
  if (Conflict)
    return false;

  // Phase 3: number the representatives (ascending order of the
  // smallest class member, so relative variable order is preserved),
  // load their domains, and record the local -> representative map. A
  // root's own slot holds its class's number from the class's first
  // member on.
  std::vector<uint32_t> &StateRep = W.StateRep;
  StateRep.assign(NS, None);
  W.SD.clear();
  for (uint32_t V = 0; V != NS; ++V) {
    uint32_t Root = Find(V);
    if (StateRep[Root] == None) {
      StateRep[Root] = static_cast<uint32_t>(W.SD.size());
      W.SD.push_back(DomP[Root]);
    }
    StateRep[V] = StateRep[Root];
  }

  // Emit the residual in triple order over representative ids; member
  // triple ranges give the per-component residual sizes. Identical
  // triples all stay: the solver's candidate stacks pop the later copy
  // first, so an earlier copy is only ever examined under the
  // conditions its twin was just rejected or chosen under
  // (docs/SOLVER.md).
  W.Cons.clear();
  size_t Largest = 0;
  for (size_t M = 0; M + 1 < W.MemberTriples.size(); ++M) {
    const size_t Before = W.Cons.size();
    for (uint32_t TI = W.MemberTriples[M]; TI != W.MemberTriples[M + 1]; ++TI)
      if (Alive[TI]) {
        assert(BD[T[TI].B] == BAny &&
               StateRep[T[TI].S1] != StateRep[T[TI].S2] &&
               "a residual triple is open and joins two classes");
        W.Cons.push_back(
            {T[TI].K, StateRep[T[TI].S1], StateRep[T[TI].S2], T[TI].B});
      }
    Largest = std::max(Largest, W.Cons.size() - Before);
  }

  Stats.StateVarsAfter = W.SD.size();
  Stats.ConstraintsAfter = W.Cons.size();
  Stats.LargestComponent = Largest;
  return true;
}
