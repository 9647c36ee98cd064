// Differential property test for the solver: on the builtin corpus and
// a large random-program sweep, the production solve (per-shard
// simplification on the fused workspace kernel) and the shard-cached
// solve (cold, then warm) must produce bit-identical output — Sat, state
// domains and boolean domains — to the raw §4.3 engine on the
// unsimplified system; when no two shards are identical, the cold cache
// must also reproduce the production solve's work counters. A
// hand-built system with ids past 2^21 checks that wide ids stay exact,
// and hand-built systems with restricted initial boolean domains check
// that the production paths honour them.
// Every satisfiable raw and production result is also certified against
// the original system by solver::checkSolution.

#include "ast/ASTContext.h"
#include "closure/ClosureAnalysis.h"
#include "constraints/ConstraintGen.h"
#include "parser/Parser.h"
#include "programs/Corpus.h"
#include "programs/RandomProgram.h"
#include "regions/RegionInference.h"
#include "solver/Solver.h"
#include "types/TypeInference.h"

#include <gtest/gtest.h>

using namespace afl;
using namespace afl::constraints;
using namespace afl::solver;

namespace {

/// Checks raw vs production vs cached (cold and warm) on \p Sys.
void expectSolvesAgree(const ConstraintSystem &Sys, const char *Label) {
  SolveOptions RawOpts;
  RawOpts.Simplify = false;
  SolveResult Raw = solve(Sys, RawOpts);
  SolveResult Simplified = solve(Sys);

  // Cold: every distinct shard is solved once (identical shards within
  // the system already hit). Warm: every shard replays.
  ShardSolutionCache Cache;
  SolveResult Cold = solveCached(Sys, SolveOptions(), Cache);
  const uint64_t ColdHits = Cache.Hits, ColdMisses = Cache.Misses;
  // An unsatisfiable system stops at its first conflict, or before any
  // shard on an empty initial domain.
  if (Raw.Sat) {
    EXPECT_EQ(ColdHits + ColdMisses, Sys.numShards()) << Label;
  }
  SolveResult Warm = solveCached(Sys, SolveOptions(), Cache);
  EXPECT_EQ(Cache.Misses, ColdMisses) << Label;

  ASSERT_EQ(Raw.Sat, Simplified.Sat) << Label;
  ASSERT_EQ(Raw.Sat, Cold.Sat) << Label;
  ASSERT_EQ(Raw.Sat, Warm.Sat) << Label;
  // Certify the oracle and the production path against the original
  // system, independently of their agreement.
  if (Raw.Sat) {
    EXPECT_EQ(checkSolution(Sys, Raw), "") << Label;
    EXPECT_EQ(checkSolution(Sys, Simplified), "") << Label;
  }
  EXPECT_EQ(Raw.StateDom, Simplified.StateDom) << Label;
  EXPECT_EQ(Raw.BoolDom, Simplified.BoolDom) << Label;
  EXPECT_EQ(Simplified.StateDom, Cold.StateDom) << Label;
  EXPECT_EQ(Simplified.BoolDom, Cold.BoolDom) << Label;
  EXPECT_EQ(Simplified.StateDom, Warm.StateDom) << Label;
  EXPECT_EQ(Simplified.BoolDom, Warm.BoolDom) << Label;

  // Grouping shards is pure amortization: when no two shards are
  // identical, a cold cache solves every shard on its own and must do
  // exactly the grouped solve's work.
  if (ColdHits == 0) {
    EXPECT_EQ(Cold.Propagations, Simplified.Propagations) << Label;
    EXPECT_EQ(Cold.Choices, Simplified.Choices) << Label;
    EXPECT_EQ(Cold.Backtracks, Simplified.Backtracks) << Label;
    EXPECT_EQ(Cold.Simplify.ConstraintsAfter,
              Simplified.Simplify.ConstraintsAfter)
        << Label;
    EXPECT_EQ(Cold.Simplify.LargestComponent,
              Simplified.Simplify.LargestComponent)
        << Label;
  }
  // A warm cache replays every shard: no solver work at all.
  EXPECT_EQ(Warm.Propagations, 0u) << Label;

  // The preprocessing proof obligations: every Eq constraint collapsed,
  // never more residual than original constraints.
  if (Simplified.Sat) {
    EXPECT_EQ(Simplified.Simplify.EqRemoved,
              Sys.numConstraintsOfKind(Constraint::Kind::Eq))
        << Label;
  }
  EXPECT_LE(Simplified.Simplify.ConstraintsAfter,
            Simplified.Simplify.ConstraintsBefore)
      << Label;
}

/// Runs frontend + closure analysis + constraint generation and checks
/// that every solve path agrees exactly.
void expectSolveModesAgree(const std::string &Source, const char *Label) {
  ast::ASTContext Ctx;
  DiagnosticEngine Diags;
  const ast::Expr *E = parseExpr(Source, Ctx, Diags);
  ASSERT_NE(E, nullptr) << Label;
  types::TypedProgram Typed = types::inferTypes(E, Ctx, Diags);
  ASSERT_TRUE(Typed.Success) << Label;
  auto Prog = regions::inferRegions(E, Ctx, Typed, Diags);
  ASSERT_NE(Prog, nullptr) << Label;
  closure::ClosureAnalysis CA(*Prog);
  CA.run();
  GenResult Gen = generateConstraints(*Prog, CA);
  ASSERT_TRUE(solve(Gen.Sys).Sat)
      << Label
      << ": the conservative completion witnesses satisfiability, so "
         "every generated system must be Sat";
  expectSolvesAgree(Gen.Sys, Label);
}

TEST(SolverDifferential, Table2Corpus) {
  for (const programs::BenchProgram &P : programs::table2Corpus())
    expectSolveModesAgree(P.Source, P.Name.c_str());
}

TEST(SolverDifferential, SmallCorpus) {
  for (const programs::BenchProgram &P : programs::smallCorpus())
    expectSolveModesAgree(P.Source, P.Name.c_str());
}

TEST(SolverDifferential, BuiltinScaledPrograms) {
  expectSolveModesAgree(programs::appelSource(20), "@appel 20");
  expectSolveModesAgree(programs::quicksortSource(12), "@quicksort 12");
  expectSolveModesAgree(programs::fibSource(10), "@fib 10");
  expectSolveModesAgree(programs::randlistSource(12), "@randlist 12");
  expectSolveModesAgree(programs::facSource(8), "@fac 8");
}

TEST(SolverDifferential, RandomPrograms500) {
  // 500 random programs across the generator's feature space, including
  // the closure-escape shapes that exercise conservative pinning.
  for (unsigned Seed = 0; Seed != 500; ++Seed) {
    programs::RandomProgramOptions Options;
    Options.HigherOrder = Seed % 3 != 0;
    Options.Recursion = Seed % 4 != 0;
    Options.ClosureEscape = Seed % 5 == 0;
    std::string Source = programs::generateRandomProgram(Seed, Options);
    std::string Label = "seed " + std::to_string(Seed);
    expectSolveModesAgree(Source, Label.c_str());
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

TEST(SolverDifferential, DedupKeyIsExactPastTwentyOneBits) {
  // A residual dedup pass (since deleted) once packed (kind, rep, rep,
  // boolean) into one word with 21-bit fields. Here boolean X = 2^21 + 4
  // and X - 2^21 = 4 are distinct, and so are the post-states S[9] and
  // S[10] — but the packed keys of T0 -X-> S[9] and T0 -(X - 2^21)->
  // S[10] coincided, which dropped the second triple and changed the
  // solution. The system stays as a guard for any id-keyed shortcut.
  constexpr uint32_t Wide = 1u << 21;
  ConstraintSystem Sys;
  StateVarId T0 = Sys.newState();
  std::vector<StateVarId> S{Sys.newState()};
  for (uint32_t I = 0; I != Wide + 4; ++I) {
    S.push_back(Sys.newState());
    Sys.addAllocTriple(S[I], Sys.newBool(), S[I + 1]);
  }
  BoolVarId X = Sys.newBool();
  Sys.addAllocTriple(T0, X, S[9]);
  Sys.addAllocTriple(T0, X - Wide, S[10]);
  Sys.restrictState(S[10], StA);

  ASSERT_TRUE(solve(Sys).Sat) << "wide ids";
  expectSolvesAgree(Sys, "wide ids");
}

TEST(SolverDifferential, InitialBooleanDomainsMatchRaw) {
  // Generated systems never restrict a boolean's initial domain, but a
  // hand-built one may. The production paths must honour it exactly
  // like the raw engine: a boolean fixed to true forces its triple's
  // transition, and an empty boolean domain is Unsat even when the
  // boolean occurs in no constraint.
  SolveOptions RawOpts;
  RawOpts.Simplify = false;
  {
    ConstraintSystem Sys;
    StateVarId S1 = Sys.newState(StU | StA), S2 = Sys.newState(StU | StA);
    BoolVarId B = Sys.newBool(BTrue);
    Sys.addAllocTriple(S1, B, S2);
    SolveResult Raw = solve(Sys, RawOpts);
    ASSERT_TRUE(Raw.Sat);
    EXPECT_EQ(Raw.StateDom[S1], StU);
    EXPECT_EQ(Raw.StateDom[S2], StA);
    EXPECT_TRUE(Raw.boolValue(B));
    expectSolvesAgree(Sys, "boolean fixed to true");
  }
  {
    ConstraintSystem Sys;
    StateVarId S1 = Sys.newState(), S2 = Sys.newState();
    Sys.addAllocTriple(S1, Sys.newBool(0), S2);
    EXPECT_FALSE(solve(Sys, RawOpts).Sat);
    expectSolvesAgree(Sys, "empty boolean in a triple");
  }
  {
    ConstraintSystem Sys;
    StateVarId S1 = Sys.newState(), S2 = Sys.newState();
    Sys.addAllocTriple(S1, Sys.newBool(), S2);
    Sys.newBool(0);
    EXPECT_FALSE(solve(Sys, RawOpts).Sat);
    expectSolvesAgree(Sys, "empty boolean in no constraint");
  }
}

} // namespace
