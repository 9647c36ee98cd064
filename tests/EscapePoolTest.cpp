// Tests for closures stored in data structures (the escape-pool path of
// the closure analysis, a documented deviation in DESIGN.md). Programs
// here must still be sound and correct; where caller/callee colors
// cannot be aligned, the constraint generator pins regions allocated
// across the call (AflStats::NumPinnedCalls).

#include "driver/Pipeline.h"

#include <gtest/gtest.h>

using namespace afl;

namespace {

void checkSoundAndCorrect(const std::string &Source,
                          const std::string &Expected) {
  SCOPED_TRACE(Source);
  driver::PipelineResult R = driver::runPipeline(Source);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  EXPECT_EQ(R.Afl.ResultText, Expected);
  EXPECT_EQ(R.Reference.ResultText, Expected);
  EXPECT_LE(R.Afl.S.MaxValues, R.Conservative.S.MaxValues);
}

TEST(EscapePool, ClosureInPair) {
  checkSoundAndCorrect(
      "let p = (fn x => x + 1, 5) in (fst p) (snd p) end", "6");
}

TEST(EscapePool, ClosureInBothPairSlots) {
  checkSoundAndCorrect("let p = (fn x => x + 1, fn y => y * 2) in "
                       "(fst p) 3 + (snd p) 3 end",
                       "10");
}

TEST(EscapePool, ClosureInList) {
  checkSoundAndCorrect(
      "let fs = (fn x => x + 1) :: (fn y => y * 2) :: nil in "
      "(hd fs) 10 + (hd (tl fs)) 10 end",
      "31");
}

TEST(EscapePool, ClosureThroughNestedPairs) {
  checkSoundAndCorrect(
      "let q = ((fn x => x - 1, 1), 2) in (fst (fst q)) 10 end", "9");
}

TEST(EscapePool, CapturedEnvironmentSurvives) {
  // The stored closure captures k; the capture's region must stay
  // allocated until the (later) call through the data structure.
  checkSoundAndCorrect("let k = 40 in let p = (fn x => x + k, 0) in "
                       "(fst p) 2 end end",
                       "42");
}

TEST(EscapePool, ListOfClosuresAppliedInLoop) {
  checkSoundAndCorrect(
      "let fs = (fn x => x + 1) :: (fn x => x + 2) :: (fn x => x + 3) :: "
      "nil in "
      "letrec sumapp l = if null l then 0 else (hd l) 10 + sumapp (tl l) "
      "in sumapp fs end end",
      "36");
}

TEST(EscapePool, PinnedCallsReported) {
  // A closure reaching a call through the pool may require pinning. The
  // first program's colors align (nothing to pin); the second stores a
  // closure in a pair inside a recursive function, and its calls through
  // the pool get pinned. Either way the count reaches --metrics.
  struct Case {
    const char *Source;
    const char *Result;
    bool Pins;
  };
  const Case Cases[] = {
      {"let p = (fn x => x + 1, 5) in (fst p) (snd p) end", "6", false},
      {"letrec f n = if n <= 0 then 1 else (let p = (fn a => a + 4, 25) in "
       "(fst p) (snd p) end) + f (n - 1) in f 2 end",
       "59", true},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Source);
    checkSoundAndCorrect(C.Source, C.Result);
    driver::PipelineResult R = driver::runPipeline(C.Source);
    ASSERT_TRUE(R.ok()) << R.Diags.str();
    EXPECT_TRUE(R.Analysis.Solved);
    if (C.Pins) {
      EXPECT_GT(R.Analysis.NumPinnedCalls, 0u);
    }
    MetricsRegistry Reg;
    R.recordMetrics(Reg);
    ASSERT_TRUE(Reg.has("stages/constraint_gen/pinned_calls"));
    EXPECT_EQ(Reg.counter("stages/constraint_gen/pinned_calls"),
              R.Analysis.NumPinnedCalls);
  }
}

} // namespace
