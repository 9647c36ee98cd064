// Tests for constraint-system statistics and dumping.

#include "ast/ASTContext.h"
#include "closure/ClosureAnalysis.h"
#include "constraints/ConstraintPrinter.h"
#include "parser/Parser.h"
#include "programs/Corpus.h"
#include "regions/RegionInference.h"
#include "types/TypeInference.h"

#include <gtest/gtest.h>

using namespace afl;
using namespace afl::constraints;

namespace {

GenResult genFor(const std::string &Source,
                 std::unique_ptr<regions::RegionProgram> &ProgOut) {
  ast::ASTContext Ctx;
  DiagnosticEngine Diags;
  const ast::Expr *E = parseExpr(Source, Ctx, Diags);
  EXPECT_NE(E, nullptr) << Diags.str();
  types::TypedProgram T = types::inferTypes(E, Ctx, Diags);
  EXPECT_TRUE(T.Success);
  ProgOut = regions::inferRegions(E, Ctx, T, Diags);
  EXPECT_NE(ProgOut, nullptr);
  closure::ClosureAnalysis CA(*ProgOut);
  CA.run();
  return generateConstraints(*ProgOut, CA);
}

TEST(ConstraintPrinter, StatsAddUp) {
  std::unique_ptr<regions::RegionProgram> Prog;
  GenResult Gen = genFor(programs::example11Source(), Prog);
  SystemStats S = systemStats(Gen);
  EXPECT_EQ(S.Equalities + S.AllocTriples + S.DeallocTriples,
            Gen.Sys.numConstraints());
  EXPECT_EQ(S.AllocBeforeChoices + S.FreeAfterChoices + S.FreeAppChoices,
            Gen.Choices.size());
  EXPECT_GT(S.AllocTriples, 0u);
  EXPECT_GT(S.DeallocTriples, 0u);
  EXPECT_GT(S.RestrictedStates, 0u); // letregion U-entries, access =A
  EXPECT_EQ(S.FreeAppChoices, 1u);   // one application in Example 1.1
}

TEST(ConstraintPrinter, SummaryAndDump) {
  std::unique_ptr<regions::RegionProgram> Prog;
  GenResult Gen = genFor("1 + 2", Prog);
  std::string Summary = summarize(Gen);
  EXPECT_NE(Summary.find("state vars"), std::string::npos);
  EXPECT_NE(Summary.find("alloc triples"), std::string::npos);
  std::string Dump = dumpSystem(Gen);
  EXPECT_NE(Dump.find(")a"), std::string::npos);
  EXPECT_NE(Dump.find(")d"), std::string::npos);
  EXPECT_NE(Dump.find("alloc_before r"), std::string::npos);
  // Every choice boolean appears in the dump.
  for (const ChoicePoint &CP : Gen.Choices) {
    std::string Assign = "c";
    Assign += std::to_string(CP.B);
    Assign += " := ";
    EXPECT_NE(Dump.find(Assign), std::string::npos);
  }
}

TEST(ConstraintPrinter, ChoicesCoverEveryOverallEffectRegion) {
  std::unique_ptr<regions::RegionProgram> Prog;
  GenResult Gen = genFor("let x = (1, 2) in fst x end", Prog);
  // Each reachable node must have one alloc_before and one free_after
  // choice per overall-effect region (the §4.2 pre-pass).
  std::map<std::pair<regions::RNodeId, regions::RegionVarId>, int> Alloc;
  for (const ChoicePoint &CP : Gen.Choices)
    if (CP.Kind == regions::COpKind::AllocBefore)
      ++Alloc[{CP.Node, CP.Region}];
  for (const auto &[Key, Count] : Alloc)
    EXPECT_EQ(Count, 1) << "duplicate choice point";
}

} // namespace
