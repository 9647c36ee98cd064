// Differential property test for the closure-analysis fixpoint: on the
// builtin corpus and a large random-program sweep, the dependency-tracked
// worklist (production mode) and the whole-program restart fixpoint
// (reference mode, the seed algorithm) must be result-identical — the
// same contexts and closures, byte-identical generated constraint
// systems, identical solver domains, and identical extracted completions.

#include "ast/ASTContext.h"
#include "closure/ClosureAnalysis.h"
#include "completion/AflCompletion.h"
#include "constraints/ConstraintGen.h"
#include "constraints/ConstraintPrinter.h"
#include "parser/Parser.h"
#include "programs/Corpus.h"
#include "programs/RandomProgram.h"
#include "regions/RegionInference.h"
#include "regions/RegionPrinter.h"
#include "solver/Solver.h"
#include "types/TypeInference.h"

#include <gtest/gtest.h>

#include <map>

using namespace afl;
using namespace afl::constraints;

namespace {

std::unique_ptr<regions::RegionProgram>
frontend(const std::string &Source, ast::ASTContext &Ctx, const char *Label) {
  DiagnosticEngine Diags;
  const ast::Expr *E = parseExpr(Source, Ctx, Diags);
  EXPECT_NE(E, nullptr) << Label;
  if (!E)
    return nullptr;
  types::TypedProgram Typed = types::inferTypes(E, Ctx, Diags);
  EXPECT_TRUE(Typed.Success) << Label;
  if (!Typed.Success)
    return nullptr;
  auto Prog = regions::inferRegions(E, Ctx, Typed, Diags);
  EXPECT_NE(Prog, nullptr) << Label;
  return Prog;
}

/// Runs closure analysis + constraint generation + solve + completion in
/// both fixpoint modes — the dependency-tracked worklist (production
/// default) and the whole-program restart (reference) — and checks every
/// artifact is identical.
void expectClosureModesAgree(const std::string &Source, const char *Label) {
  ast::ASTContext Ctx;
  auto Prog = frontend(Source, Ctx, Label);
  ASSERT_NE(Prog, nullptr) << Label;

  closure::ClosureOptions WorklistOpts; // UseWorklist = true
  closure::ClosureOptions RestartOpts;
  RestartOpts.UseWorklist = false;

  closure::ClosureAnalysis Worklist(*Prog, WorklistOpts);
  ASSERT_TRUE(Worklist.run()) << Label << ": " << Worklist.error();
  EXPECT_TRUE(Worklist.stats().UsedWorklist) << Label;
  GenResult WGen = generateConstraints(*Prog, Worklist);
  solver::SolveResult WSol = solver::solve(WGen.Sys);
  ASSERT_TRUE(WSol.Sat) << Label;
  completion::AflStats WStats;
  regions::Completion WCpl = completion::aflCompletion(
      *Prog, &WStats, constraints::GenOptions(), solver::SolveOptions(),
      WorklistOpts);
  EXPECT_TRUE(WStats.Solved) << Label;
  std::string WPrinted = regions::printRegionProgram(*Prog, &WCpl);

  // Env *ids* are interner-order dependent (independent interners per
  // mode), so key each context by its environment contents; closure ids
  // are canonicalized to content order in every mode and must match
  // exactly.
  using CtxMap =
      std::map<closure::RegEnvMap, std::vector<closure::AbsClosureId>>;
  auto collect = [](closure::ClosureAnalysis &CA,
                    const regions::RExpr *N) {
    CtxMap M;
    for (closure::RegEnvId Env : CA.contextsOf(N->id()))
      M.emplace(CA.envs().get(Env), CA.valuesOf(N->id(), Env).raw());
    return M;
  };

  SCOPED_TRACE(std::string(Label) + " worklist vs restart");
  closure::ClosureAnalysis Restart(*Prog, RestartOpts);
  ASSERT_TRUE(Restart.run()) << Restart.error();
  EXPECT_FALSE(Restart.stats().UsedWorklist);

  // Same analysis result: contexts, closures, per-context value sets.
  ASSERT_EQ(Worklist.numContexts(), Restart.numContexts());
  ASSERT_EQ(Worklist.numClosures(), Restart.numClosures());
  for (const regions::RExpr *N : Prog->nodes())
    EXPECT_EQ(collect(Worklist, N), collect(Restart, N))
        << "node " << N->id();

  // Byte-identical generated constraint systems.
  GenResult RGen = generateConstraints(*Prog, Restart);
  EXPECT_EQ(dumpSystem(WGen), dumpSystem(RGen));
  ASSERT_EQ(WGen.Choices.size(), RGen.Choices.size());
  for (size_t I = 0; I != WGen.Choices.size(); ++I) {
    EXPECT_EQ(WGen.Choices[I].Node, RGen.Choices[I].Node);
    EXPECT_EQ(WGen.Choices[I].Kind, RGen.Choices[I].Kind);
    EXPECT_EQ(WGen.Choices[I].Region, RGen.Choices[I].Region);
    EXPECT_EQ(WGen.Choices[I].B, RGen.Choices[I].B);
  }
  EXPECT_EQ(WGen.NumContexts, RGen.NumContexts);
  EXPECT_EQ(WGen.NumPinnedCalls, RGen.NumPinnedCalls);

  // Identical solver outcomes over the identical systems.
  solver::SolveResult RSol = solver::solve(RGen.Sys);
  ASSERT_EQ(WSol.Sat, RSol.Sat);
  EXPECT_EQ(WSol.StateDom, RSol.StateDom);
  EXPECT_EQ(WSol.BoolDom, RSol.BoolDom);

  // Identical end-to-end completions (the user-visible artifact).
  completion::AflStats RStats;
  regions::Completion RCpl = completion::aflCompletion(
      *Prog, &RStats, constraints::GenOptions(), solver::SolveOptions(),
      RestartOpts);
  EXPECT_TRUE(RStats.Solved);
  EXPECT_EQ(WPrinted, regions::printRegionProgram(*Prog, &RCpl));
}

TEST(ClosureDifferential, Table2Corpus) {
  for (const programs::BenchProgram &P : programs::table2Corpus())
    expectClosureModesAgree(P.Source, P.Name.c_str());
}

TEST(ClosureDifferential, SmallCorpus) {
  for (const programs::BenchProgram &P : programs::smallCorpus())
    expectClosureModesAgree(P.Source, P.Name.c_str());
}

TEST(ClosureDifferential, BuiltinScaledPrograms) {
  expectClosureModesAgree(programs::appelSource(20), "@appel 20");
  expectClosureModesAgree(programs::quicksortSource(12), "@quicksort 12");
  expectClosureModesAgree(programs::fibSource(10), "@fib 10");
  expectClosureModesAgree(programs::randlistSource(12), "@randlist 12");
  expectClosureModesAgree(programs::facSource(8), "@fac 8");
}

TEST(ClosureDifferential, RandomPrograms500) {
  // 500 random programs across the generator's feature space, including
  // closure-escape shapes where discovery order differs most between the
  // two fixpoints, and the permuted-payload nested-HOF family whose
  // environment orbits stress context discovery hardest.
  for (unsigned Seed = 0; Seed != 500; ++Seed) {
    programs::RandomProgramOptions Options;
    Options.HigherOrder = Seed % 3 != 0;
    Options.Recursion = Seed % 4 != 0;
    Options.ClosureEscape = Seed % 5 == 0;
    Options.NestedHof = Seed % 7 == 0;
    std::string Source = programs::generateRandomProgram(Seed, Options);
    std::string Label = "seed " + std::to_string(Seed);
    expectClosureModesAgree(Source, Label.c_str());
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

} // namespace
