// Unit tests for the solver preprocessing layer, observed through the
// production solve and its statistics: union-find collapse of Eq
// constraints, the arc-consistent fixpoint with forced-boolean
// elimination, early conflict detection, and the emission-time shard
// index the solve consumes (checked against a test-local union-find
// oracle).

#include "constraints/ConstraintSystem.h"
#include "solver/Solver.h"

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

using namespace afl;
using namespace afl::constraints;
using namespace afl::solver;

namespace {

/// Test-local connected-component oracle: a union-find over the state
/// and boolean variables (a triple connects its boolean to both
/// endpoints), components numbered by smallest member state, members
/// and constraints ascending. Only variables some constraint mentions
/// belong to a component.
struct OracleComponent {
  std::vector<StateVarId> States;
  std::vector<BoolVarId> Bools;
  std::vector<uint32_t> Cons;
};

std::vector<OracleComponent> splitComponents(const ConstraintSystem &Sys) {
  const size_t NS = Sys.numStateVars(), NB = Sys.numBoolVars();
  std::vector<uint32_t> Parent(NS + NB);
  for (uint32_t I = 0; I != Parent.size(); ++I)
    Parent[I] = I;
  auto Find = [&](uint32_t V) {
    while (Parent[V] != V)
      V = Parent[V] = Parent[Parent[V]];
    return V;
  };
  std::vector<bool> Occurs(NS + NB, false);
  for (const Constraint &C : Sys.Cons) {
    Parent[Find(C.S2)] = Find(C.S1);
    Occurs[C.S1] = Occurs[C.S2] = true;
    if (C.K != Constraint::Kind::Eq) {
      Parent[Find(static_cast<uint32_t>(NS + C.B))] = Find(C.S1);
      Occurs[NS + C.B] = true;
    }
  }
  std::vector<OracleComponent> Comps;
  std::map<uint32_t, size_t> CompOfRoot;
  auto CompOf = [&](uint32_t V) -> OracleComponent & {
    auto [It, New] = CompOfRoot.emplace(Find(V), Comps.size());
    if (New)
      Comps.emplace_back();
    return Comps[It->second];
  };
  for (uint32_t S = 0; S != NS; ++S)
    if (Occurs[S])
      CompOf(S).States.push_back(S);
  for (uint32_t B = 0; B != NB; ++B)
    if (Occurs[NS + B])
      CompOf(static_cast<uint32_t>(NS + B)).Bools.push_back(B);
  for (uint32_t CI = 0; CI != Sys.Cons.size(); ++CI)
    CompOf(Sys.Cons[CI].S1).Cons.push_back(CI);
  return Comps;
}

SolveResult solveRaw(const ConstraintSystem &Sys) {
  SolveOptions Raw;
  Raw.Simplify = false;
  return solve(Sys, Raw);
}

TEST(Simplify, UnionFindCollapsesEqChains) {
  ConstraintSystem Sys;
  StateVarId S1 = Sys.newState(StA);
  StateVarId S2 = Sys.newState();
  StateVarId S3 = Sys.newState();
  Sys.addEq(S1, S2);
  Sys.addEq(S2, S3);
  SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  EXPECT_EQ(R.Simplify.EqRemoved, 2u);
  EXPECT_EQ(R.Simplify.StateVarsBefore, 3u);
  EXPECT_EQ(R.Simplify.StateVarsAfter, 1u);
  EXPECT_EQ(R.Simplify.ConstraintsAfter, 0u);
  // All three share one representative, whose domain is the
  // intersection of the member domains — with nothing left to solve.
  EXPECT_EQ(R.StateDom[S1], StA);
  EXPECT_EQ(R.StateDom[S2], StA);
  EXPECT_EQ(R.StateDom[S3], StA);
  EXPECT_EQ(R.Propagations, 0u);
}

TEST(Simplify, EqRemovedToZeroAlways) {
  // The headline invariant: no Eq constraint survives simplification.
  ConstraintSystem Sys;
  StateVarId Prev = Sys.newState(StU);
  for (int I = 0; I != 50; ++I) {
    StateVarId Next = Sys.newState();
    if (I % 2) {
      Sys.addEq(Prev, Next);
    } else {
      BoolVarId B = Sys.newBool();
      Sys.addAllocTriple(Prev, B, Next);
    }
    Prev = Next;
  }
  SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  EXPECT_EQ(R.Simplify.EqRemoved, 25u);
  // Every residual constraint is one of the 25 triples.
  EXPECT_LE(R.Simplify.ConstraintsAfter, 25u);
  EXPECT_EQ(R.StateDom, solveRaw(Sys).StateDom);
}

TEST(Simplify, EqConflictDetectedEarly) {
  ConstraintSystem Sys;
  StateVarId S1 = Sys.newState(StA);
  StateVarId S2 = Sys.newState(StD);
  Sys.addEq(S1, S2);
  SolveResult R = solve(Sys);
  EXPECT_FALSE(R.Sat);
  // Found by the union-find, before the engine ran a single step.
  EXPECT_EQ(R.Simplify.EqRemoved, 1u);
  EXPECT_EQ(R.Propagations, 0u);
}

TEST(Simplify, EmptyInitialDomainIsConflict) {
  // Regression: restrictState can zero a domain on a variable that
  // occurs in no constraint; the solver must notice.
  ConstraintSystem Sys;
  StateVarId S = Sys.newState();
  Sys.restrictState(S, StA);
  Sys.restrictState(S, StD); // A & D = empty
  EXPECT_FALSE(solve(Sys).Sat);
  EXPECT_FALSE(solveRaw(Sys).Sat);
}

TEST(Simplify, IdenticalTriplesBothStay) {
  // Two contexts generating the same triple over Eq-linked states: the
  // residual keeps both copies (the engine pops the later one first, so
  // the earlier never decides anything), and the answer is the raw
  // engine's.
  ConstraintSystem Sys;
  StateVarId A1 = Sys.newState();
  StateVarId A2 = Sys.newState();
  StateVarId B1 = Sys.newState();
  StateVarId B2 = Sys.newState();
  BoolVarId B = Sys.newBool();
  Sys.addEq(A1, A2);
  Sys.addEq(B1, B2);
  Sys.addAllocTriple(A1, B, B1);
  Sys.addAllocTriple(A2, B, B2);
  SolveResult R = solve(Sys);
  SolveResult Raw = solveRaw(Sys);
  ASSERT_TRUE(R.Sat);
  ASSERT_TRUE(Raw.Sat);
  EXPECT_EQ(R.Simplify.ConstraintsAfter, 2u);
  EXPECT_EQ(R.StateDom, Raw.StateDom);
  EXPECT_EQ(R.BoolDom, Raw.BoolDom);
}

TEST(Simplify, UnionPruningForcesBothTriples) {
  // Only the undetermined-case rule (prune each endpoint to the union
  // of the two scenarios) decides this system. alloc(S0, b1, S1) with
  // S1 = {A} prunes S0 to {U, A}; then dealloc(S3, b2, S0) cannot reach
  // D in S0, so b2 is false and S3 = S0 = {A}; then S0 cannot be U, so
  // b1 is false too. The simplifier forces both, leaving the engine
  // nothing to propagate.
  ConstraintSystem Sys;
  StateVarId S0 = Sys.newState();
  StateVarId S1 = Sys.newState(StA);
  StateVarId S3 = Sys.newState(static_cast<uint8_t>(StA | StD));
  BoolVarId B1 = Sys.newBool();
  BoolVarId B2 = Sys.newBool();
  Sys.addAllocTriple(S0, B1, S1);
  Sys.addDeallocTriple(S3, B2, S0);
  SolveResult R = solve(Sys);
  SolveResult Raw = solveRaw(Sys);
  ASSERT_TRUE(R.Sat);
  ASSERT_TRUE(Raw.Sat);
  EXPECT_EQ(R.Simplify.ConstraintsAfter, 0u);
  EXPECT_EQ(R.Simplify.BoolsForced, 2u);
  EXPECT_EQ(R.Propagations, 0u);
  EXPECT_EQ(R.StateDom, Raw.StateDom);
  EXPECT_EQ(R.BoolDom, Raw.BoolDom);
  EXPECT_EQ(R.StateDom[S0], StA);
  EXPECT_EQ(R.BoolDom[B1], BFalse);
  EXPECT_EQ(R.BoolDom[B2], BFalse);
  EXPECT_EQ(checkSolution(Sys, R), "");
}

TEST(Simplify, ForcedTrueTripleEliminated) {
  // Disjoint endpoint domains force the boolean true; the triple is
  // applied (domains restricted to the transition states) and dropped.
  ConstraintSystem Sys;
  StateVarId S1 = Sys.newState(StU);
  StateVarId S2 = Sys.newState(StA);
  BoolVarId B = Sys.newBool();
  Sys.addAllocTriple(S1, B, S2);
  SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  EXPECT_EQ(R.Simplify.BoolsForced, 1u);
  EXPECT_EQ(R.Simplify.ForcedTriplesRemoved, 1u);
  EXPECT_EQ(R.Simplify.ConstraintsAfter, 0u);
  EXPECT_TRUE(R.boolValue(B));
  // Forced, not chosen.
  EXPECT_EQ(R.Choices, 0u);
}

TEST(Simplify, SameRepresentativeTripleForcesFalse) {
  // An allocation triple whose endpoints are Eq-linked cannot fire (the
  // U->A transition cannot happen on one variable).
  ConstraintSystem Sys;
  StateVarId S1 = Sys.newState();
  StateVarId S2 = Sys.newState();
  BoolVarId B = Sys.newBool();
  Sys.addEq(S1, S2);
  Sys.addAllocTriple(S1, B, S2);
  SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  EXPECT_EQ(R.BoolDom[B], BFalse);
  EXPECT_EQ(R.Simplify.ConstraintsAfter, 0u);
  EXPECT_EQ(R.Simplify.BoolsForced, 1u);
  EXPECT_EQ(R.Choices, 0u);
}

TEST(Simplify, ForcedFalseCascadesIntoUnion) {
  // A pre-state that can never be U forces the alloc boolean false,
  // which turns the triple into an equality — merging the endpoints and
  // intersecting their domains.
  ConstraintSystem Sys;
  StateVarId S1 = Sys.newState(StA);
  StateVarId S2 = Sys.newState(static_cast<uint8_t>(StA | StD));
  BoolVarId B = Sys.newBool();
  Sys.addAllocTriple(S1, B, S2);
  SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  EXPECT_EQ(R.Simplify.StateVarsAfter, 1u);
  EXPECT_EQ(R.StateDom[S1], StA);
  EXPECT_EQ(R.StateDom[S2], StA);
  EXPECT_EQ(R.BoolDom[B], BFalse);
  EXPECT_EQ(R.Choices, 0u);
}

TEST(Components, IndependentChainsSplit) {
  // Two disjoint alloc chains land in two components; a shared boolean
  // would merge them.
  ConstraintSystem Sys;
  StateVarId A1 = Sys.newState(StU);
  StateVarId A2 = Sys.newState(StAny);
  BoolVarId BA = Sys.newBool();
  Sys.addAllocTriple(A1, BA, A2);
  StateVarId B1 = Sys.newState(StA);
  StateVarId B2 = Sys.newState(StAny);
  BoolVarId BB = Sys.newBool();
  Sys.addDeallocTriple(B1, BB, B2);
  std::vector<OracleComponent> Split = splitComponents(Sys);
  ASSERT_EQ(Split.size(), 2u);
  EXPECT_EQ(Split[0].Cons.size(), 1u);
  EXPECT_EQ(Split[1].Cons.size(), 1u);
  ASSERT_EQ(Sys.numShards(), 2u);
  EXPECT_EQ(Sys.largestShardConstraints(), 1u);
  SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  EXPECT_EQ(R.Simplify.Components, 2u);
  EXPECT_LE(R.Simplify.LargestComponent, 1u);
}

TEST(Components, SharedBooleanMergesComponents) {
  ConstraintSystem Sys;
  StateVarId A1 = Sys.newState();
  StateVarId A2 = Sys.newState();
  StateVarId B1 = Sys.newState();
  StateVarId B2 = Sys.newState();
  BoolVarId B = Sys.newBool();
  Sys.addAllocTriple(A1, B, A2);
  Sys.addAllocTriple(B1, B, B2);
  EXPECT_EQ(splitComponents(Sys).size(), 1u);
  EXPECT_EQ(Sys.numShards(), 1u);
  EXPECT_EQ(solve(Sys).Simplify.Components, 1u);
}

TEST(Components, UnconstrainedVariablesBelongToNoComponent) {
  ConstraintSystem Sys;
  Sys.newState(StA); // never mentioned by a constraint
  StateVarId S1 = Sys.newState();
  StateVarId S2 = Sys.newState();
  BoolVarId B = Sys.newBool();
  Sys.newBool(); // unconstrained boolean
  Sys.addAllocTriple(S1, B, S2);
  std::vector<OracleComponent> Split = splitComponents(Sys);
  ASSERT_EQ(Split.size(), 1u);
  EXPECT_EQ(Split[0].States.size(), 2u);
  EXPECT_EQ(Split[0].Bools.size(), 1u);
  ASSERT_EQ(Sys.numShards(), 1u);
  EXPECT_EQ(Sys.shardStates(0).size(), 2u);
  EXPECT_EQ(Sys.shardBools(0).size(), 1u);
  // The unconstrained state is its own representative on top of the
  // shard's.
  SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  EXPECT_EQ(R.Simplify.StateVarsBefore, 3u);
}

TEST(Components, SingleComponentFallback) {
  // A single-component system: the grouped solve, the per-shard cached
  // solve and the raw engine agree.
  ConstraintSystem Sys;
  StateVarId Prev = Sys.newState(StU);
  std::vector<BoolVarId> Bs;
  for (int I = 0; I != 20; ++I) {
    StateVarId Next = Sys.newState();
    BoolVarId B = Sys.newBool();
    Sys.addAllocTriple(Prev, B, Next);
    Bs.push_back(B);
    Prev = Next;
  }
  Sys.restrictState(Prev, StA);
  ShardSolutionCache Cache;
  SolveResult RCached = solveCached(Sys, SolveOptions(), Cache);
  SolveResult RDef = solve(Sys);
  SolveResult RRaw = solveRaw(Sys);
  ASSERT_TRUE(RDef.Sat);
  EXPECT_EQ(RDef.Simplify.Components, 1u);
  EXPECT_EQ(RCached.StateDom, RDef.StateDom);
  EXPECT_EQ(RCached.BoolDom, RDef.BoolDom);
  EXPECT_EQ(RRaw.StateDom, RDef.StateDom);
  EXPECT_EQ(RRaw.BoolDom, RDef.BoolDom);
  // Exactly one (late) allocation either way.
  EXPECT_TRUE(RDef.BoolDom[Bs.back()] == BTrue);
}

/// A small multi-shard fixture: N disjoint alloc chains, each pinned to
/// end in A so the solve is forced to pick the late allocation. Chain C
/// has Len + C links, so no two shards are identical.
ConstraintSystem chainsSystem(int Chains, int Len) {
  ConstraintSystem Sys;
  for (int Chain = 0; Chain != Chains; ++Chain) {
    StateVarId Prev = Sys.newState(StU);
    for (int I = 0; I != Len + Chain; ++I) {
      StateVarId Next = Sys.newState();
      BoolVarId B = Sys.newBool();
      if (I % 3 == 2)
        Sys.addEq(Prev, Next);
      else
        Sys.addAllocTriple(Prev, B, Next);
      Prev = Next;
    }
    Sys.restrictState(Prev, StA);
  }
  return Sys;
}

/// Shard \p K of \p Sys rebuilt as a system of its own, in shard-local
/// ids (rank within the shard).
ConstraintSystem materializeShard(const ConstraintSystem &Sys, uint32_t K) {
  ConstraintSystem Out;
  std::map<uint32_t, uint32_t> LocalState, LocalBool;
  for (uint32_t S : Sys.shardStates(K))
    LocalState[S] = Out.newState(Sys.StateDom[S]);
  for (uint32_t B : Sys.shardBools(K))
    LocalBool[B] = Out.newBool(Sys.BoolDom[B]);
  for (uint32_t CI : Sys.shardConstraints(K)) {
    const Constraint &C = Sys.Cons[CI];
    switch (C.K) {
    case Constraint::Kind::Eq:
      Out.addEq(LocalState[C.S1], LocalState[C.S2]);
      break;
    case Constraint::Kind::AllocTriple:
      Out.addAllocTriple(LocalState[C.S1], LocalBool[C.B], LocalState[C.S2]);
      break;
    case Constraint::Kind::DeallocTriple:
      Out.addDeallocTriple(LocalState[C.S1], LocalBool[C.B],
                           LocalState[C.S2]);
      break;
    }
  }
  return Out;
}

TEST(Shards, EmissionShardsMatchSplitComponents) {
  // The emission-time union-find must finalize into exactly the
  // components the oracle discovers, in the same deterministic order
  // (ascending smallest state variable) with the same ascending member
  // and constraint lists.
  for (const ConstraintSystem &Sys :
       {chainsSystem(7, 9), chainsSystem(1, 4), chainsSystem(5, 8)}) {
    std::vector<OracleComponent> Split = splitComponents(Sys);
    ASSERT_EQ(Sys.numShards(), Split.size());
    size_t Largest = 0;
    for (uint32_t K = 0; K != Sys.numShards(); ++K) {
      const OracleComponent &C = Split[K];
      ConstraintSystem::OccRange States = Sys.shardStates(K);
      ConstraintSystem::OccRange Bools = Sys.shardBools(K);
      ConstraintSystem::OccRange Cons = Sys.shardConstraints(K);
      ASSERT_EQ(States.size(), C.States.size());
      ASSERT_EQ(Bools.size(), C.Bools.size());
      ASSERT_EQ(Cons.size(), C.Cons.size());
      EXPECT_TRUE(std::equal(States.begin(), States.end(), C.States.begin()));
      EXPECT_TRUE(std::equal(Bools.begin(), Bools.end(), C.Bools.begin()));
      EXPECT_TRUE(std::equal(Cons.begin(), Cons.end(), C.Cons.begin()));
      Largest = std::max(Largest, C.Cons.size());
    }
    EXPECT_EQ(Sys.largestShardConstraints(), Largest);
  }
}

TEST(Shards, SharedBooleanMergesShards) {
  // Same topology as Components.SharedBooleanMergesComponents, observed
  // through the emission-time index.
  ConstraintSystem Sys;
  StateVarId A1 = Sys.newState();
  StateVarId A2 = Sys.newState();
  StateVarId B1 = Sys.newState();
  StateVarId B2 = Sys.newState();
  BoolVarId B = Sys.newBool();
  Sys.addAllocTriple(A1, B, A2);
  Sys.addAllocTriple(B1, B, B2);
  EXPECT_EQ(Sys.numShards(), 1u);
  EXPECT_EQ(Sys.shardStates(0).size(), 4u);
  EXPECT_EQ(Sys.shardBools(0).size(), 1u);
}

TEST(Shards, SelfTripleFormsSingletonShard) {
  // Degenerate triple S -B-> S: only one state variable is involved, so
  // no merge happens, but S is constrained and must still surface as a
  // (singleton) shard holding the boolean.
  ConstraintSystem Sys;
  Sys.newState(); // unconstrained; belongs to no shard
  StateVarId S = Sys.newState();
  BoolVarId B = Sys.newBool();
  Sys.addAllocTriple(S, B, S);
  ASSERT_EQ(Sys.numShards(), 1u);
  ASSERT_EQ(Sys.shardStates(0).size(), 1u);
  EXPECT_EQ(*Sys.shardStates(0).begin(), S);
  ASSERT_EQ(Sys.shardBools(0).size(), 1u);
  EXPECT_EQ(*Sys.shardBools(0).begin(), B);
  EXPECT_EQ(Sys.shardConstraints(0).size(), 1u);
}

TEST(Shards, SimplifyShardMatchesMaterializedSimplify) {
  // The kernel simplifies a shard in place, straight off the CSR index;
  // its contract is the answer and the statistics of simplifying and
  // solving the materialized shard as a system of its own.
  ConstraintSystem Sys = chainsSystem(6, 7);
  SolveResult Whole = solve(Sys);
  ASSERT_TRUE(Whole.Sat);
  SimplifyStats Sum;
  uint64_t Propagations = 0;
  for (uint32_t K = 0; K != Sys.numShards(); ++K) {
    ConstraintSystem Part = materializeShard(Sys, K);
    SolveResult R = solve(Part);
    ASSERT_TRUE(R.Sat);
    EXPECT_EQ(R.Simplify.Components, 1u);
    Sum.accumulate(R.Simplify);
    Propagations += R.Propagations;
    uint32_t L = 0;
    for (uint32_t S : Sys.shardStates(K))
      EXPECT_EQ(Whole.StateDom[S], R.StateDom[L++]);
    L = 0;
    for (uint32_t B : Sys.shardBools(K))
      EXPECT_EQ(Whole.BoolDom[B], R.BoolDom[L++]);
  }
  EXPECT_EQ(Whole.Simplify.StateVarsAfter, Sum.StateVarsAfter);
  EXPECT_EQ(Whole.Simplify.ConstraintsAfter, Sum.ConstraintsAfter);
  EXPECT_EQ(Whole.Simplify.EqRemoved, Sum.EqRemoved);
  EXPECT_EQ(Whole.Simplify.BoolsForced, Sum.BoolsForced);
  EXPECT_EQ(Whole.Simplify.LargestComponent, Sum.LargestComponent);
  EXPECT_EQ(Whole.Propagations, Propagations);
}

TEST(Shards, SimplifyShardRangeIsConcatenation) {
  // A contiguous range of shards simplifies and solves as the exact
  // concatenation of its members: the grouped solve (all six shards in
  // one group) does precisely the per-shard solves' work, counter for
  // counter, and reaches the same answer.
  ConstraintSystem Sys = chainsSystem(6, 7);
  ASSERT_GT(Sys.numShards(), 2u);
  SolveResult Grouped = solve(Sys);
  ShardSolutionCache Cache;
  SolveResult PerShard = solveCached(Sys, SolveOptions(), Cache);
  ASSERT_TRUE(Grouped.Sat);
  ASSERT_TRUE(PerShard.Sat);
  EXPECT_EQ(Cache.Misses, Sys.numShards());
  EXPECT_EQ(Grouped.StateDom, PerShard.StateDom);
  EXPECT_EQ(Grouped.BoolDom, PerShard.BoolDom);
  EXPECT_EQ(Grouped.Propagations, PerShard.Propagations);
  EXPECT_EQ(Grouped.Choices, PerShard.Choices);
  EXPECT_EQ(Grouped.Backtracks, PerShard.Backtracks);
  const SimplifyStats &G = Grouped.Simplify, &P = PerShard.Simplify;
  EXPECT_EQ(G.StateVarsBefore, P.StateVarsBefore);
  EXPECT_EQ(G.StateVarsAfter, P.StateVarsAfter);
  EXPECT_EQ(G.ConstraintsBefore, P.ConstraintsBefore);
  EXPECT_EQ(G.ConstraintsAfter, P.ConstraintsAfter);
  EXPECT_EQ(G.EqRemoved, P.EqRemoved);
  EXPECT_EQ(G.ForcedTriplesRemoved, P.ForcedTriplesRemoved);
  EXPECT_EQ(G.BoolsForced, P.BoolsForced);
  EXPECT_EQ(G.Components, P.Components);
  EXPECT_EQ(G.LargestComponent, P.LargestComponent);
}

TEST(Components, MultiComponentMatchesRaw) {
  // Many independent chains: the sharded solve must match the raw
  // engine on the whole system.
  ConstraintSystem Sys;
  for (int Chain = 0; Chain != 16; ++Chain) {
    StateVarId Prev = Sys.newState(StU);
    for (int I = 0; I != 10; ++I) {
      StateVarId Next = Sys.newState();
      BoolVarId B = Sys.newBool();
      Sys.addAllocTriple(Prev, B, Next);
      Prev = Next;
    }
    Sys.restrictState(Prev, StA);
  }
  SolveResult RSeq = solve(Sys);
  SolveResult RRaw = solveRaw(Sys);
  ASSERT_TRUE(RSeq.Sat);
  ASSERT_TRUE(RRaw.Sat);
  EXPECT_EQ(RSeq.Simplify.Components, 16u);
  EXPECT_EQ(RSeq.StateDom, RRaw.StateDom);
  EXPECT_EQ(RSeq.BoolDom, RRaw.BoolDom);
}

} // namespace
