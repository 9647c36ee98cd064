// Scaling guards: the full analysis must stay fast on programs an order
// of magnitude larger than the corpus (§7: constraint generation and
// solving run in low-order polynomial time; the solver's border-choice
// search is incremental, not a per-choice rescan).

#include "driver/Pipeline.h"

#include <chrono>
#include <gtest/gtest.h>

using namespace afl;

namespace {

std::string chainProgram(int K) {
  std::string Src;
  for (int I = 0; I != K; ++I) {
    // Names built with += (GCC 12 at -O3 raises a false -Wrestrict on
    // `"lit" + std::string&&`).
    std::string F = "f", N = "n";
    F += std::to_string(I);
    N += std::to_string(I);
    Src += "letrec " + F + " " + N + " = if " + N + " <= 0 then 0 else " +
           N + " + " + F + " (" + N + " - 1) in ";
  }
  Src += "let acc = 0 in ";
  for (int I = 0; I != K; ++I)
    Src += "let acc = acc + f" + std::to_string(I) + " 3 in ";
  Src += "acc";
  for (int I = 0; I != 2 * K + 1; ++I)
    Src += " end";
  return Src;
}

TEST(Scaling, SixtyFourFunctionsAnalyzeQuickly) {
  auto Start = std::chrono::steady_clock::now();
  driver::PipelineOptions Options;
  Options.SkipRuns = true;
  driver::PipelineResult R = driver::runPipeline(chainProgram(64), Options);
  auto Elapsed = std::chrono::duration_cast<std::chrono::seconds>(
      std::chrono::steady_clock::now() - Start);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  EXPECT_TRUE(R.Analysis.Solved);
  // Generous bound (was ~0.5s after the incremental-candidate fix; the
  // pre-fix full-rescan solver took ~26s).
  EXPECT_LT(Elapsed.count(), 15);
}

TEST(Scaling, LargeChainRunsCorrectly) {
  driver::PipelineResult R = driver::runPipeline(chainProgram(24));
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  // Each f_i(3) = 3+2+1 = 6; 24 of them.
  EXPECT_EQ(R.Afl.ResultText, std::to_string(24 * 6));
  EXPECT_EQ(R.Afl.ResultText, R.Reference.ResultText);
  EXPECT_LE(R.Afl.S.MaxValues, R.Conservative.S.MaxValues);
}

TEST(Scaling, DeepListProgram) {
  // A 400-element list built and consumed: deep recursion within the
  // depth guard, thousands of memory operations.
  driver::PipelineResult R = driver::runPipeline(
      "letrec fromto n = if n = 0 then nil else n :: fromto (n - 1) in "
      "letrec sum l = if null l then 0 else hd l + sum (tl l) in "
      "sum (fromto 400) end end");
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  EXPECT_EQ(R.Afl.ResultText, "80200");
}

} // namespace
