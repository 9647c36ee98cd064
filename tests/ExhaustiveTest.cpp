// Systematic enumeration of small programs: every combinator shape
// crossed with every small sub-expression, plus dedicated aliasing
// matrices. Complements random fuzzing with exhaustive coverage of the
// corner cases (dead values, branch-local regions, aliased actuals,
// immediately-applied closures, shadowing).

#include "driver/Pipeline.h"
#include "interp/Interp.h"

#include <gtest/gtest.h>

using namespace afl;

namespace {

/// Reruns completion \p C on the Fig. 2 tree walker, which must reproduce
/// the VM run \p Vm: its result text and all five Table 2 counters.
void expectTreeMatches(const driver::PipelineResult &R,
                       const regions::Completion &C,
                       const interp::RunResult &Vm) {
  interp::RunOptions Opts;
  Opts.Backend = interp::BackendKind::Tree;
  interp::RunResult Tree = interp::run(*R.Prog, C, Opts);
  ASSERT_TRUE(Tree.Ok) << Tree.Error;
  EXPECT_EQ(Tree.ResultText, Vm.ResultText);
  EXPECT_EQ(Tree.S.MaxRegions, Vm.S.MaxRegions);
  EXPECT_EQ(Tree.S.TotalRegionAllocs, Vm.S.TotalRegionAllocs);
  EXPECT_EQ(Tree.S.TotalValueAllocs, Vm.S.TotalValueAllocs);
  EXPECT_EQ(Tree.S.MaxValues, Vm.S.MaxValues);
  EXPECT_EQ(Tree.S.FinalValues, Vm.S.FinalValues);
}

/// Runs the pipeline and checks the full property set, then replays both
/// completions on the tree walker (the differential oracle of the VM).
void checkAll(const std::string &Source) {
  SCOPED_TRACE(Source);
  driver::PipelineResult R = driver::runPipeline(Source);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  EXPECT_EQ(R.Afl.ResultText, R.Reference.ResultText);
  EXPECT_EQ(R.Conservative.ResultText, R.Reference.ResultText);
  EXPECT_LE(R.Afl.S.MaxValues, R.Conservative.S.MaxValues);
  EXPECT_EQ(R.Afl.S.TotalValueAllocs, R.Conservative.S.TotalValueAllocs);
  EXPECT_TRUE(R.Analysis.Solved);
  expectTreeMatches(R, R.ConservativeC, R.Conservative);
  expectTreeMatches(R, R.AflC, R.Afl);
}

// Small "atoms" to plug into combinator shapes.
const char *IntAtoms[] = {"0", "7", "(1 + 2)", "(fst (3, 4))",
                          "(hd (5 :: nil))", "((fn z => z + 1) 8)"};
const char *ListAtoms[] = {"nil", "(1 :: nil)", "(1 :: 2 :: nil)",
                           "(tl (9 :: nil))"};

class IntAtomShape : public ::testing::TestWithParam<int> {};

TEST_P(IntAtomShape, AllShapes) {
  const char *A = IntAtoms[GetParam() % 6];
  const char *B = IntAtoms[(GetParam() / 6) % 6];
  std::string SA = A, SB = B;
  // Cross two atoms through each binary shape.
  checkAll(SA + " + " + SB);
  checkAll("(" + SA + ", " + SB + ")");
  checkAll("if " + SA + " < " + SB + " then " + SA + " else " + SB);
  checkAll("let v = " + SA + " in v + " + SB + " end");
  checkAll("(fn v => v + " + SB + ") " + SA);
  checkAll(SA + " :: " + SB + " :: nil");
}

INSTANTIATE_TEST_SUITE_P(Pairs, IntAtomShape, ::testing::Range(0, 36));

class ListAtomShape : public ::testing::TestWithParam<int> {};

TEST_P(ListAtomShape, AllShapes) {
  const char *L = ListAtoms[GetParam() % 4];
  const char *A = IntAtoms[(GetParam() / 4) % 6];
  std::string SL = L, SA = A;
  checkAll("null " + SL);
  checkAll("if null " + SL + " then " + SA + " else hd " + SL);
  checkAll(SA + " :: " + SL);
  checkAll("let l = " + SL + " in if null l then nil else tl l end");
  checkAll("letrec len l = if null l then 0 else 1 + len (tl l) in len " +
           SL + " end");
}

INSTANTIATE_TEST_SUITE_P(Cross, ListAtomShape, ::testing::Range(0, 24));

TEST(Exhaustive, AliasingMatrix) {
  // A pair-taking recursive function called with every combination of
  // shared/distinct components: aliased actuals must produce sound
  // completions in all mixes (the §3 region-aliasing requirement).
  const char *Args[] = {"(a, a)", "(a, b)", "(b, a)", "(b, b)"};
  for (const char *Arg1 : Args) {
    for (const char *Arg2 : Args) {
      checkAll(std::string("let a = 1 in let b = 2 in "
                           "letrec f p = if fst p <= 0 then snd p + 0 "
                           "else f (fst p - 1, snd p) in "
                           "(f ") +
               Arg1 + ") + (f " + Arg2 + ") end end end");
    }
  }
}

TEST(Exhaustive, DeadValueMatrix) {
  // Values that are never used in every position: their regions must be
  // freed (A-F-L) without disturbing the live computation.
  checkAll("let dead = (1, 2) in 5 end");
  checkAll("let dead = fn x => x in 5 end");
  checkAll("let dead = 1 :: 2 :: nil in 5 end");
  checkAll("let dead = (fn x => x) 3 in 5 end");
  checkAll("if true then 1 else hd nil");       // dead partial branch
  checkAll("let d1 = 1 in let d2 = (d1, d1) in d1 end end");
  checkAll("(fn u => 9) ((1, 2))"); // argument value never used
}

TEST(Exhaustive, ShadowingMatrix) {
  checkAll("let x = 1 in let x = x + 1 in let x = x * 2 in x end end end");
  checkAll("let x = 1 in (fn x => x + 1) x end");
  checkAll("letrec f x = if x = 0 then 0 else let x = x - 1 in f x end "
           "in f 3 end");
}

TEST(Exhaustive, CurriedChains) {
  checkAll("(fn a => fn b => fn c => a + b * c) 1 2 3");
  checkAll("let add = fn a => fn b => a + b in add 1 (add 2 3) end");
  checkAll("let twice = fn f => fn x => f (f x) in twice (twice (fn n => "
           "n + 1)) 0 end");
}

TEST(Exhaustive, RecursionShapes) {
  // Non-tail, tail, tree, and list recursion.
  checkAll("letrec f n = if n = 0 then 0 else n + f (n - 1) in f 6 end");
  checkAll("letrec f p = if fst p = 0 then snd p else f (fst p - 1, snd p "
           "+ fst p) in f (6, 0) end");
  checkAll("letrec t n = if n < 2 then 1 else t (n - 1) + t (n - 2) in t "
           "7 end");
  checkAll("letrec r n = if n = 0 then nil else n :: r (n - 1) in letrec "
           "s l = if null l then 0 else hd l + s (tl l) in s (r 6) end "
           "end");
}

TEST(Exhaustive, FunctionsReturningFunctions) {
  checkAll("let mk = fn a => fn b => a - b in let f = mk 10 in f 3 + f 4 "
           "end end");
  checkAll("letrec mk n = fn x => x + n in (mk 1) 10 + (mk 2) 20 end");
}

} // namespace
