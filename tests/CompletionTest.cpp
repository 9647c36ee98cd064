// Unit tests for completions: conservative structure, A-F-L op placement
// on the paper's examples (Fig. 1b), and completion validity.

#include "ast/ASTContext.h"
#include "completion/AflCompletion.h"
#include "completion/Conservative.h"
#include "parser/Parser.h"
#include "programs/Corpus.h"
#include "regions/RegionInference.h"
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
