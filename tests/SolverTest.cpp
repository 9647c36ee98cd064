// Unit tests for the constraint solver: propagation rules for equality
// and allocation/deallocation triples, the border-choice strategy
// (late alloc / early free), and backtracking.

#include "constraints/ConstraintSystem.h"
#include "solver/Solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <vector>

using namespace afl;
using namespace afl::constraints;
using namespace afl::solver;

namespace {

TEST(Solver, EqualityPropagates) {
  ConstraintSystem Sys;
  StateVarId S1 = Sys.newState(StA);
  StateVarId S2 = Sys.newState();
  StateVarId S3 = Sys.newState();
  Sys.addEq(S1, S2);
  Sys.addEq(S2, S3);
  SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  EXPECT_EQ(R.StateDom[S2], StA);
  EXPECT_EQ(R.StateDom[S3], StA);
}

TEST(Solver, InconsistentEqualityUnsat) {
  ConstraintSystem Sys;
  StateVarId S1 = Sys.newState(StA);
  StateVarId S2 = Sys.newState(StD);
  Sys.addEq(S1, S2);
  SolveResult R = solve(Sys);
  EXPECT_FALSE(R.Sat);
}

TEST(Solver, AllocTripleForcedTrue) {
  // s1 = U and s2 = A with no overlap: the boolean must be true.
  ConstraintSystem Sys;
  StateVarId S1 = Sys.newState(StU);
  StateVarId S2 = Sys.newState(StA);
  BoolVarId B = Sys.newBool();
  Sys.addAllocTriple(S1, B, S2);
  SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  EXPECT_TRUE(R.boolValue(B));
}

TEST(Solver, AllocTripleForcedFalse) {
  // s1 = A already: allocation here is impossible; states equalize.
  ConstraintSystem Sys;
  StateVarId S1 = Sys.newState(StA);
  StateVarId S2 = Sys.newState();
  BoolVarId B = Sys.newBool();
  Sys.addAllocTriple(S1, B, S2);
  SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  EXPECT_FALSE(R.boolValue(B));
  EXPECT_EQ(R.StateDom[S2], StA);
}

TEST(Solver, DeallocTripleForcedTrue) {
  ConstraintSystem Sys;
  StateVarId S1 = Sys.newState(StA);
  StateVarId S2 = Sys.newState(StD);
  BoolVarId B = Sys.newBool();
  Sys.addDeallocTriple(S1, B, S2);
  SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  EXPECT_TRUE(R.boolValue(B));
}

TEST(Solver, LateAllocationPreferred) {
  // Chain U --b1--> s --b2--> A. Both single allocations are legal; the
  // border heuristic must pick the LATE one (b2), leaving s unallocated.
  ConstraintSystem Sys;
  StateVarId S0 = Sys.newState(StU);
  StateVarId S1 = Sys.newState();
  StateVarId S2 = Sys.newState(StA);
  BoolVarId B1 = Sys.newBool();
  BoolVarId B2 = Sys.newBool();
  Sys.addAllocTriple(S0, B1, S1);
  Sys.addAllocTriple(S1, B2, S2);
  SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  EXPECT_FALSE(R.boolValue(B1));
  EXPECT_TRUE(R.boolValue(B2));
  EXPECT_EQ(R.StateDom[S1], StU);
}

TEST(Solver, EarlyFreePreferred) {
  // Chain A --b1--> s --b2--> (end, unconstrained). Early free wins: b1.
  ConstraintSystem Sys;
  StateVarId S0 = Sys.newState(StA);
  StateVarId S1 = Sys.newState();
  StateVarId S2 = Sys.newState();
  BoolVarId B1 = Sys.newBool();
  BoolVarId B2 = Sys.newBool();
  Sys.addDeallocTriple(S0, B1, S1);
  Sys.addDeallocTriple(S1, B2, S2);
  SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  EXPECT_TRUE(R.boolValue(B1));
  EXPECT_FALSE(R.boolValue(B2));
  EXPECT_EQ(R.StateDom[S1], StD);
}

TEST(Solver, MustStayAllocatedBetweenUses) {
  // A region accessed at two points with a potential free between them:
  // the free must be rejected (U→A→D is monotone; no re-allocation).
  ConstraintSystem Sys;
  StateVarId Use1 = Sys.newState(StA);
  StateVarId Mid = Sys.newState();
  StateVarId Use2 = Sys.newState(StA);
  BoolVarId Free = Sys.newBool();
  Sys.addDeallocTriple(Use1, Free, Mid);
  Sys.addEq(Mid, Use2);
  SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  EXPECT_FALSE(R.boolValue(Free));
  EXPECT_EQ(R.StateDom[Mid], StA);
}

TEST(Solver, SharedBooleanAcrossContexts) {
  // The same boolean drives triples in two contexts; context 2 forbids
  // the allocation (its pre-state is already A), so context 1 must not
  // allocate either.
  ConstraintSystem Sys;
  BoolVarId B = Sys.newBool();
  StateVarId C1Pre = Sys.newState();
  StateVarId C1Post = Sys.newState();
  Sys.addAllocTriple(C1Pre, B, C1Post);
  StateVarId C2Pre = Sys.newState(StA);
  StateVarId C2Post = Sys.newState();
  Sys.addAllocTriple(C2Pre, B, C2Post);
  SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  EXPECT_FALSE(R.boolValue(B));
}

TEST(Solver, BacktracksOnBadBorderChoice) {
  // Two independent alloc borders share one boolean through a diamond
  // where choosing true first conflicts: U-chain with a forced-A middle.
  //   S0(U) --B--> S1,  S1 = A required, and S0 also = A via equality
  // Choosing B=true forces S0=U, conflicting with S0=A.
  ConstraintSystem Sys;
  StateVarId S0 = Sys.newState();
  StateVarId S1 = Sys.newState(StA);
  StateVarId SA = Sys.newState(StA);
  BoolVarId B = Sys.newBool();
  Sys.addAllocTriple(S0, B, S1);
  Sys.addEq(S0, SA);
  SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  EXPECT_FALSE(R.boolValue(B));
}

TEST(Solver, AllBooleansAssignedWhenSat) {
  ConstraintSystem Sys;
  StateVarId S0 = Sys.newState();
  StateVarId S1 = Sys.newState();
  BoolVarId B = Sys.newBool();
  Sys.addAllocTriple(S0, B, S1);
  SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  EXPECT_NE(R.BoolDom[B], BAny);
  // Unforced booleans default to false (no operation).
  EXPECT_FALSE(R.boolValue(B));
}

TEST(Solver, EmptyInitialDomainUnsat) {
  // Regression: restrictState can zero the domain of a variable that
  // occurs in no constraint. Propagation never visits it, so the solver
  // must scan initial domains for emptiness instead of reporting Sat.
  ConstraintSystem Sys;
  StateVarId Dangling = Sys.newState();
  Sys.restrictState(Dangling, StA);
  Sys.restrictState(Dangling, StD); // A & D = empty
  // An unrelated, satisfiable constraint so the system is non-trivial.
  StateVarId S1 = Sys.newState(StU);
  StateVarId S2 = Sys.newState();
  BoolVarId B = Sys.newBool();
  Sys.addAllocTriple(S1, B, S2);
  SolveResult Simplified = solve(Sys);
  EXPECT_FALSE(Simplified.Sat);
  SolveOptions Raw;
  Raw.Simplify = false;
  SolveResult RawResult = solve(Sys, Raw);
  EXPECT_FALSE(RawResult.Sat);
}

TEST(Solver, EmptyDomainOnConstrainedVarUnsat) {
  ConstraintSystem Sys;
  StateVarId S1 = Sys.newState();
  StateVarId S2 = Sys.newState();
  Sys.addEq(S1, S2);
  Sys.restrictState(S1, 0);
  for (bool Simplify : {false, true}) {
    SolveOptions Options;
    Options.Simplify = Simplify;
    EXPECT_FALSE(solve(Sys, Options).Sat);
  }
}

TEST(Solver, LongChainScales) {
  // A long U ... A chain: exactly one allocation is chosen, at the end.
  ConstraintSystem Sys;
  const int N = 2000;
  StateVarId Prev = Sys.newState(StU);
  std::vector<BoolVarId> Bs;
  for (int I = 0; I != N; ++I) {
    StateVarId Next = Sys.newState();
    BoolVarId B = Sys.newBool();
    Sys.addAllocTriple(Prev, B, Next);
    Bs.push_back(B);
    Prev = Next;
  }
  Sys.restrictState(Prev, StA);
  SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  int NumTrue = 0;
  for (BoolVarId B : Bs)
    NumTrue += R.boolValue(B);
  EXPECT_EQ(NumTrue, 1);
  EXPECT_TRUE(R.boolValue(Bs.back()));
}

/// Many independent pinned chains — a multi-shard system for exercising
/// the sharded solve path end to end.
ConstraintSystem multiChainSystem(int Chains, int Len,
                                  std::vector<BoolVarId> *LastBools) {
  ConstraintSystem Sys;
  for (int Chain = 0; Chain != Chains; ++Chain) {
    StateVarId Prev = Sys.newState(StU);
    BoolVarId Last = 0;
    for (int I = 0; I != Len; ++I) {
      StateVarId Next = Sys.newState();
      BoolVarId B = Sys.newBool();
      Sys.addAllocTriple(Prev, B, Next);
      Last = B;
      Prev = Next;
    }
    Sys.restrictState(Prev, StA);
    if (LastBools)
      LastBools->push_back(Last);
  }
  return Sys;
}

TEST(Solver, ShardedMatchesRawAndCached) {
  // The production path (per-shard simplify + solve), the raw engine
  // (no preprocessing) and the shard-cached solve must agree
  // bit-for-bit.
  std::vector<BoolVarId> LastBools;
  ConstraintSystem Sys = multiChainSystem(12, 15, &LastBools);
  EXPECT_EQ(Sys.numShards(), 12u);

  SolveResult Sharded = solve(Sys);
  SolveOptions RawOpts;
  RawOpts.Simplify = false;
  SolveResult Raw = solve(Sys, RawOpts);
  ShardSolutionCache Cache;
  SolveResult Cached = solveCached(Sys, SolveOptions(), Cache);

  ASSERT_TRUE(Sharded.Sat);
  ASSERT_TRUE(Raw.Sat);
  ASSERT_TRUE(Cached.Sat);
  EXPECT_EQ(Sharded.StateDom, Raw.StateDom);
  EXPECT_EQ(Sharded.BoolDom, Raw.BoolDom);
  EXPECT_EQ(Sharded.StateDom, Cached.StateDom);
  EXPECT_EQ(Sharded.BoolDom, Cached.BoolDom);
  // The sharded path reports the emission shards as its components, with
  // no component-discovery pass of its own.
  EXPECT_EQ(Sharded.Simplify.Components, 12u);
  // The twelve chains are identical up to renaming: one solve, eleven
  // cache hits.
  EXPECT_EQ(Cache.Misses, 1u);
  EXPECT_EQ(Cache.Hits, 11u);
  // Late allocation chosen in every chain.
  for (BoolVarId B : LastBools)
    EXPECT_TRUE(Sharded.boolValue(B));
}

TEST(Solver, UnsatShardFailsWholeSystem) {
  // One inconsistent shard among many healthy ones must surface as
  // global Unsat on every path, cached included (a cached Unsat entry
  // fails the replay too).
  ConstraintSystem Sys = multiChainSystem(6, 10, nullptr);
  StateVarId S1 = Sys.newState(StA);
  StateVarId S2 = Sys.newState(StD);
  Sys.addEq(S1, S2);
  SolveResult Sharded = solve(Sys);
  EXPECT_FALSE(Sharded.Sat);
  SolveOptions RawOpts;
  RawOpts.Simplify = false;
  EXPECT_FALSE(solve(Sys, RawOpts).Sat);
  ShardSolutionCache Cache;
  EXPECT_FALSE(solveCached(Sys, SolveOptions(), Cache).Sat);
  EXPECT_FALSE(solveCached(Sys, SolveOptions(), Cache).Sat);
  EXPECT_GT(Cache.Hits, 0u);
}

/// Pinned chains of the given lengths, one shard each; chains of equal
/// length are identical shards.
ConstraintSystem chainsOfLengths(std::initializer_list<int> Lengths) {
  ConstraintSystem Sys;
  for (int Len : Lengths) {
    StateVarId Prev = Sys.newState(StU);
    for (int I = 0; I != Len; ++I) {
      StateVarId Next = Sys.newState();
      Sys.addAllocTriple(Prev, Sys.newBool(), Next);
      Prev = Next;
    }
    Sys.restrictState(Prev, StA);
  }
  return Sys;
}

TEST(Solver, ShardCacheHoldsOneGeneration) {
  // B is A with its length-5 chain replaced by a length-6 one. After each
  // call the cache holds exactly the distinct shards of the system just
  // solved, so going back from B to A re-solves the shard only A has.
  const ConstraintSystem A = chainsOfLengths({3, 4, 4, 5});
  const ConstraintSystem B = chainsOfLengths({3, 4, 4, 6});
  ASSERT_EQ(A.numShards(), 4u);
  ASSERT_EQ(B.numShards(), 4u);
  auto Keys = [](const ShardSolutionCache &C) {
    std::set<std::string> K;
    for (const auto &KV : C.Entries)
      K.insert(KV.first);
    return K;
  };
  ShardSolutionCache Cache;
  auto SolveAndCheck = [&](const ConstraintSystem &Sys, const char *Name) {
    SolveResult Cached = solveCached(Sys, SolveOptions(), Cache);
    SolveResult Plain = solve(Sys);
    ASSERT_TRUE(Cached.Sat) << Name;
    EXPECT_EQ(Cached.StateDom, Plain.StateDom) << Name;
    EXPECT_EQ(Cached.BoolDom, Plain.BoolDom) << Name;
    EXPECT_EQ(checkSolution(Sys, Cached), "") << Name;
  };

  SolveAndCheck(A, "A");
  EXPECT_EQ(Cache.Misses, 3u);
  EXPECT_EQ(Cache.Hits, 1u);
  const std::set<std::string> KeysA = Keys(Cache);
  EXPECT_EQ(KeysA.size(), 3u);

  SolveAndCheck(B, "B");
  EXPECT_EQ(Cache.Misses, 4u);
  EXPECT_EQ(Cache.Hits, 4u);
  const std::set<std::string> KeysB = Keys(Cache);
  EXPECT_EQ(KeysB.size(), 3u);
  std::vector<std::string> Shared;
  std::set_intersection(KeysA.begin(), KeysA.end(), KeysB.begin(),
                        KeysB.end(), std::back_inserter(Shared));
  EXPECT_EQ(Shared.size(), 2u);

  SolveAndCheck(A, "A again");
  EXPECT_EQ(Cache.Misses, 5u);
  EXPECT_EQ(Cache.Hits, 7u);
  EXPECT_EQ(Keys(Cache), KeysA);
}

TEST(Solver, ShardedHandlesUnconstrainedVariables) {
  // Variables outside every shard keep their initial domains; unforced
  // booleans default to false — same conventions as the raw engine.
  ConstraintSystem Sys;
  StateVarId Free = Sys.newState(StD);
  BoolVarId FreeB = Sys.newBool();
  StateVarId S1 = Sys.newState(StU);
  StateVarId S2 = Sys.newState(StA);
  BoolVarId B = Sys.newBool();
  Sys.addAllocTriple(S1, B, S2);
  SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  EXPECT_EQ(R.StateDom[Free], StD);
  EXPECT_EQ(R.BoolDom[FreeB], BFalse);
  EXPECT_TRUE(R.boolValue(B));
}

TEST(Solver, CheckSolutionRejectsCorruptedResults) {
  // U --b1--> s1 --b2--> A = s3, then a potential free (s2, b3, s4).
  ConstraintSystem Sys;
  StateVarId S0 = Sys.newState(StU);
  StateVarId S1 = Sys.newState();
  StateVarId S2 = Sys.newState(StA);
  StateVarId S3 = Sys.newState();
  StateVarId S4 = Sys.newState();
  BoolVarId B1 = Sys.newBool();
  BoolVarId B2 = Sys.newBool();
  BoolVarId B3 = Sys.newBool();
  Sys.addAllocTriple(S0, B1, S1);
  Sys.addAllocTriple(S1, B2, S2);
  Sys.addEq(S2, S3);
  Sys.addDeallocTriple(S2, B3, S4);
  const SolveResult R = solve(Sys);
  ASSERT_TRUE(R.Sat);
  ASSERT_TRUE(R.boolValue(B2));
  EXPECT_EQ(checkSolution(Sys, R), "");
  SolveOptions RawOpts;
  RawOpts.Simplify = false;
  EXPECT_EQ(checkSolution(Sys, solve(Sys, RawOpts)), "");

  auto Rejects = [&](auto Corrupt) {
    SolveResult Bad = R;
    Corrupt(Bad);
    return !checkSolution(Sys, Bad).empty();
  };
  // Flipped booleans: a dropped allocation leaves U = A across a false
  // triple; a spurious one fires from U into U.
  EXPECT_TRUE(Rejects([&](SolveResult &X) { X.BoolDom[B2] = BFalse; }));
  EXPECT_TRUE(Rejects([&](SolveResult &X) { X.BoolDom[B1] = BTrue; }));
  // An undecided boolean.
  EXPECT_TRUE(Rejects([&](SolveResult &X) { X.BoolDom[B3] = BAny; }));
  // Widened state domains: past the initial domain, and past an
  // equality partner.
  EXPECT_TRUE(Rejects([&](SolveResult &X) { X.StateDom[S0] = StU | StA; }));
  EXPECT_TRUE(Rejects([&](SolveResult &X) { X.StateDom[S3] = StU | StA; }));
  // Empty domains, missing variables, and unsatisfiable results.
  EXPECT_TRUE(Rejects([&](SolveResult &X) { X.StateDom[S4] = 0; }));
  EXPECT_TRUE(Rejects([&](SolveResult &X) { X.BoolDom.pop_back(); }));
  EXPECT_TRUE(Rejects([&](SolveResult &X) { X.Sat = false; }));
}

TEST(Solver, ZeroedDomainOutsideShardsUnsat) {
  // A domain emptied by restrictState on a variable no constraint
  // mentions: the sharded path's global pre-scan must catch it even
  // though the variable belongs to no shard.
  ConstraintSystem Sys = multiChainSystem(3, 5, nullptr);
  StateVarId S = Sys.newState();
  Sys.restrictState(S, StA);
  Sys.restrictState(S, StD); // A & D = empty
  EXPECT_FALSE(solve(Sys).Sat);
  SolveOptions RawOpts;
  RawOpts.Simplify = false;
  EXPECT_FALSE(solve(Sys, RawOpts).Sat);
  ShardSolutionCache Cache;
  EXPECT_FALSE(solveCached(Sys, SolveOptions(), Cache).Sat);
}

} // namespace
