// Unit tests for completions: conservative structure, A-F-L op placement
// on the paper's examples (Fig. 1b), and completion validity.

#include "ast/ASTContext.h"
#include "completion/AflCompletion.h"
#include "completion/Conservative.h"
#include "parser/Parser.h"
#include "programs/Corpus.h"
#include "regions/RegionInference.h"
#include "regions/RegionPrinter.h"
#include "regions/Validator.h"
#include "types/TypeInference.h"

#include <gtest/gtest.h>

using namespace afl;
using namespace afl::regions;

namespace {

std::unique_ptr<RegionProgram> infer(const std::string &Source) {
  ast::ASTContext Ctx;
  DiagnosticEngine Diags;
  const ast::Expr *E = parseExpr(Source, Ctx, Diags);
  EXPECT_NE(E, nullptr) << Diags.str();
  types::TypedProgram T = types::inferTypes(E, Ctx, Diags);
  EXPECT_TRUE(T.Success) << Diags.str();
  auto P = inferRegions(E, Ctx, T, Diags);
  EXPECT_NE(P, nullptr) << Diags.str();
  return P;
}

/// Counts ops of kind \p K on region \p R anywhere in \p C (~0u = any).
unsigned countOps(const Completion &C, COpKind K, RegionVarId R = ~0u) {
  unsigned N = 0;
  auto Scan = [&](const std::unordered_map<RNodeId, std::vector<COp>> &M) {
    for (const auto &[Node, Ops] : M)
      for (const COp &Op : Ops)
        if (Op.Kind == K && (R == ~0u || Op.Region == R))
          ++N;
  };
  Scan(C.Pre);
  Scan(C.Post);
  Scan(C.FreeApp);
  return N;
}

TEST(Conservative, AllocFreePairsPerBoundRegion) {
  auto P = infer("let x = (1, 2) in fst x end");
  Completion C = completion::conservativeCompletion(*P);
  unsigned Bound = 0;
  for (const RExpr *N : P->nodes())
    Bound += static_cast<unsigned>(N->boundRegions().size());
  EXPECT_EQ(countOps(C, COpKind::AllocBefore),
            Bound + P->GlobalRegions.size());
  EXPECT_EQ(countOps(C, COpKind::FreeAfter), Bound);
  EXPECT_EQ(countOps(C, COpKind::FreeApp), 0u);
  EXPECT_TRUE(validateCompletion(*P, C).empty());
}

TEST(Afl, Example11MatchesPaperFig1b) {
  // On Example 1.1 the solver reproduces the paper's optimal completion:
  //   * the closure's region is freed by free_app;
  //   * the region of the dead "3" is freed immediately (a free_after on
  //     the literal itself);
  //   * the z-pair's region is allocated only after the first component
  //     is evaluated (i.e. NOT at its letregion).
  auto P = infer(programs::example11Source());
  completion::AflStats Stats;
  Completion C = completion::aflCompletion(*P, &Stats);
  ASSERT_TRUE(Stats.Solved);
  EXPECT_TRUE(validateCompletion(*P, C).empty());

  EXPECT_EQ(countOps(C, COpKind::FreeApp), 1u);

  // Find the literal 3 and check it has a free_after of its own region.
  const RExpr *Three = nullptr;
  for (const RExpr *N : P->nodes()) {
    if (const auto *I = dyn_cast<RIntExpr>(N))
      if (I->value() == 3)
        Three = N;
  }
  ASSERT_NE(Three, nullptr);
  const std::vector<COp> *Post = C.postOps(Three->id());
  ASSERT_NE(Post, nullptr);
  bool FreesOwnRegion = false;
  for (const COp &Op : *Post)
    FreesOwnRegion |= Op.Kind == COpKind::FreeAfter &&
                      Op.Region == Three->writeRegion();
  EXPECT_TRUE(FreesOwnRegion)
      << "the dead 3 should be freed immediately after creation";
}

TEST(Afl, OpsOnlyWhereChosen) {
  auto P = infer(programs::facSource(4));
  completion::AflStats Stats;
  Completion C = completion::aflCompletion(*P, &Stats);
  ASSERT_TRUE(Stats.Solved);
  EXPECT_TRUE(validateCompletion(*P, C).empty());
  // The completion must contain at least one alloc (values are written)
  // and at least one free (locals die).
  EXPECT_GE(countOps(C, COpKind::AllocBefore), 1u);
  EXPECT_GE(countOps(C, COpKind::FreeAfter) + countOps(C, COpKind::FreeApp),
            1u);
}

TEST(Afl, StatsPopulated) {
  auto P = infer(programs::fibSource(5));
  completion::AflStats Stats;
  completion::aflCompletion(*P, &Stats);
  EXPECT_TRUE(Stats.Solved);
  EXPECT_GE(Stats.Closure.Passes, 1u);
  EXPECT_GT(Stats.NumContexts, 0u);
  EXPECT_GT(Stats.NumStateVars, 0u);
  EXPECT_GT(Stats.NumBoolVars, 0u);
  EXPECT_GT(Stats.NumConstraints, 0u);
  EXPECT_GT(Stats.SolverChoices, 0u);
}

TEST(Afl, CompletionValidatesOnCorpus) {
  for (const programs::BenchProgram &BP : programs::smallCorpus()) {
    auto P = infer(BP.Source);
    completion::AflStats Stats;
    Completion C = completion::aflCompletion(*P, &Stats);
    EXPECT_TRUE(Stats.Solved) << BP.Name;
    std::vector<std::string> Errors = validateCompletion(*P, C);
    EXPECT_TRUE(Errors.empty()) << BP.Name << ": " << Errors.front();
  }
}

/// The analysis counters a cached and an uncached solve must agree on
/// (solver work is counted only for the shards a call actually solves).
void expectSameAnalysis(const completion::AflStats &Got,
                        const completion::AflStats &Want) {
  EXPECT_EQ(Got.Solved, Want.Solved);
  EXPECT_EQ(Got.Closure.Converged, Want.Closure.Converged);
  EXPECT_EQ(Got.Closure.ProcessedContexts, Want.Closure.ProcessedContexts);
  EXPECT_EQ(Got.Closure.NumContexts, Want.Closure.NumContexts);
  EXPECT_EQ(Got.Closure.NumClosures, Want.Closure.NumClosures);
  EXPECT_EQ(Got.NumContexts, Want.NumContexts);
  EXPECT_EQ(Got.NumStateVars, Want.NumStateVars);
  EXPECT_EQ(Got.NumBoolVars, Want.NumBoolVars);
  EXPECT_EQ(Got.NumConstraints, Want.NumConstraints);
  EXPECT_EQ(Got.NumPinnedCalls, Want.NumPinnedCalls);
  EXPECT_EQ(Got.Sharding.Shards, Want.Sharding.Shards);
  EXPECT_EQ(Got.Sharding.LargestShardConstraints,
            Want.Sharding.LargestShardConstraints);
}

TEST(Afl, CachedDriverMatchesUncached) {
  std::vector<programs::BenchProgram> Corpus = programs::table2Corpus();
  for (programs::BenchProgram &BP : programs::smallCorpus())
    Corpus.push_back(std::move(BP));
  for (const programs::BenchProgram &BP : Corpus) {
    SCOPED_TRACE(BP.Name);
    auto P = infer(BP.Source);
    completion::AflStats Want;
    solver::SolveResult WantSol;
    Completion WantC = completion::aflCompletion(
        *P, &Want, constraints::GenOptions(), solver::SolveOptions(),
        closure::ClosureOptions(), nullptr, &WantSol);
    ASSERT_TRUE(Want.Solved);
    const std::string WantText = printRegionProgram(*P, &WantC);

    // A cold cache solves every shard; the warm call replays them all.
    solver::ShardSolutionCache Cache;
    for (bool Warm : {false, true}) {
      SCOPED_TRACE(Warm ? "warm" : "cold");
      uint64_t Hits0 = Cache.Hits, Misses0 = Cache.Misses;
      completion::AflStats Got;
      solver::SolveResult GotSol;
      Completion GotC = completion::aflCompletion(
          *P, &Got, constraints::GenOptions(), solver::SolveOptions(),
          closure::ClosureOptions(), &Cache, &GotSol);
      EXPECT_EQ(printRegionProgram(*P, &GotC), WantText);
      EXPECT_EQ(GotSol.Sat, WantSol.Sat);
      EXPECT_EQ(GotSol.StateDom, WantSol.StateDom);
      EXPECT_EQ(GotSol.BoolDom, WantSol.BoolDom);
      expectSameAnalysis(Got, Want);
      EXPECT_EQ((Cache.Hits - Hits0) + (Cache.Misses - Misses0),
                Got.Sharding.Shards);
      if (Warm) {
        EXPECT_EQ(Cache.Hits - Hits0, Got.Sharding.Shards);
      } else {
        EXPECT_GT(Cache.Misses - Misses0, 0u);
      }
    }
  }
}

TEST(Afl, DriverResetsCallerStats) {
  // The server keeps one AflStats per document across edits: a run that
  // stops early must not leave the previous run's numbers behind.
  auto P = infer(programs::fibSource(5));
  completion::AflStats Stats;
  solver::SolveResult Sol;
  completion::aflCompletion(*P, &Stats, constraints::GenOptions(),
                            solver::SolveOptions(), closure::ClosureOptions(),
                            nullptr, &Sol);
  ASSERT_TRUE(Stats.Solved);
  ASSERT_GT(Stats.NumConstraints, 0u);
  ASSERT_FALSE(Sol.StateDom.empty());

  closure::ClosureOptions Capped;
  Capped.MaxSteps = 2;
  Completion C =
      completion::aflCompletion(*P, &Stats, constraints::GenOptions(),
                                solver::SolveOptions(), Capped, nullptr, &Sol);
  EXPECT_FALSE(Stats.Closure.Converged);
  EXPECT_EQ(Stats.NumConstraints, 0u);
  EXPECT_EQ(Stats.NumStateVars, 0u);
  EXPECT_EQ(Stats.Sharding.Shards, 0u);
  EXPECT_FALSE(Stats.Solved);
  EXPECT_FALSE(Sol.Sat);
  EXPECT_TRUE(Sol.StateDom.empty());
  EXPECT_TRUE(Sol.BoolDom.empty());
  // The fallback is the conservative completion.
  Completion Conservative = completion::conservativeCompletion(*P);
  EXPECT_EQ(printRegionProgram(*P, &C),
            printRegionProgram(*P, &Conservative));
}

TEST(Completion, NumOpsCounts) {
  Completion C;
  EXPECT_EQ(C.numOps(), 0u);
  C.Pre[0].push_back({COpKind::AllocBefore, 1});
  C.Post[0].push_back({COpKind::FreeAfter, 1});
  C.FreeApp[2].push_back({COpKind::FreeApp, 3});
  EXPECT_EQ(C.numOps(), 3u);
  EXPECT_NE(C.preOps(0), nullptr);
  EXPECT_EQ(C.preOps(1), nullptr);
}

TEST(Completion, Spellings) {
  EXPECT_STREQ(spelling(COpKind::AllocBefore), "alloc_before");
  EXPECT_STREQ(spelling(COpKind::FreeBefore), "free_before");
  EXPECT_STREQ(spelling(COpKind::AllocAfter), "alloc_after");
  EXPECT_STREQ(spelling(COpKind::FreeAfter), "free_after");
  EXPECT_STREQ(spelling(COpKind::FreeApp), "free_app");
}

} // namespace
