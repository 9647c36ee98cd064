// Unit tests for the instrumented interpreter: Fig. 2 semantics,
// instrumentation counters, trace recording, and safety trapping
// (the dynamic checks behind Theorem 5.1). Every test runs under both
// evaluators — the bytecode VM and the tree walker — so the trap
// messages and counters are pinned for each backend independently; the
// integer edge cases are checked against the reference interpreter too.

#include "ast/ASTContext.h"
#include "completion/Conservative.h"
#include "interp/Interp.h"
#include "interp/RefInterp.h"
#include "parser/Parser.h"
#include "regions/RegionInference.h"
#include "types/TypeInference.h"

#include <gtest/gtest.h>

using namespace afl;
using namespace afl::regions;

namespace {

struct Built {
  std::unique_ptr<RegionProgram> Prog;
  Completion Cons;
};

Built build(const std::string &Source) {
  ast::ASTContext Ctx;
  DiagnosticEngine Diags;
  const ast::Expr *E = parseExpr(Source, Ctx, Diags);
  EXPECT_NE(E, nullptr) << Diags.str();
  types::TypedProgram T = types::inferTypes(E, Ctx, Diags);
  EXPECT_TRUE(T.Success) << Diags.str();
  Built B;
  B.Prog = inferRegions(E, Ctx, T, Diags);
  EXPECT_NE(B.Prog, nullptr) << Diags.str();
  B.Cons = completion::conservativeCompletion(*B.Prog);
  return B;
}

class InterpTest : public ::testing::TestWithParam<interp::BackendKind> {
protected:
  interp::RunResult run(const RegionProgram &Prog, const Completion &C,
                        interp::RunOptions Options = interp::RunOptions()) {
    Options.Backend = GetParam();
    return interp::run(Prog, C, Options);
  }
};

TEST_P(InterpTest, CountsValueAllocations) {
  Built B = build("1 + 2");
  interp::RunResult R = run(*B.Prog, B.Cons);
  ASSERT_TRUE(R.Ok) << R.Error;
  // Three boxed values: 1, 2, and the sum.
  EXPECT_EQ(R.S.TotalValueAllocs, 3u);
  EXPECT_EQ(R.S.Writes, 3u);
  EXPECT_EQ(R.S.Reads, 2u); // both operands read
  EXPECT_EQ(R.ResultText, "3");
}

TEST_P(InterpTest, RegionAllocationCounting) {
  Built B = build("let x = (1, 2) in fst x end");
  interp::RunResult R = run(*B.Prog, B.Cons);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GE(R.S.TotalRegionAllocs, 3u);
  EXPECT_GE(R.S.MaxRegions, 1u);
  EXPECT_LE(R.S.MaxValues, R.S.TotalValueAllocs);
}

TEST_P(InterpTest, FinalValuesCountsResidentOnly) {
  // The dead pair is freed by the conservative completion at letregion
  // exit; only the result int remains.
  Built B = build("let x = (1, 2) in 5 end");
  interp::RunResult R = run(*B.Prog, B.Cons);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.S.FinalValues, 1u);
}

TEST_P(InterpTest, TraceIsMonotoneInTime) {
  Built B = build("letrec f n = if n = 0 then 0 else f (n - 1) in f 5 end");
  interp::RunOptions Options;
  Options.RecordTrace = true;
  interp::RunResult R = run(*B.Prog, B.Cons, Options);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_FALSE(R.Trace.empty());
  uint64_t Peak = 0;
  for (size_t I = 1; I != R.Trace.size(); ++I) {
    EXPECT_LT(R.Trace[I - 1].Time, R.Trace[I].Time);
    Peak = std::max(Peak, R.Trace[I].ValuesHeld);
  }
  EXPECT_EQ(Peak, R.S.MaxValues);
  EXPECT_EQ(R.Trace.size(), R.S.Time);
}

TEST_P(InterpTest, TrapsOnUseAfterFree) {
  // Sabotage the completion: free the result region of "1 + 2" before
  // the addition reads its operands.
  Built B = build("1 + 2");
  // Find the two int literal nodes; free the lhs region right after it
  // is written.
  const RExpr *Lhs = cast<RBinOpExpr>(B.Prog->Root)->lhs();
  Completion Bad = B.Cons;
  Bad.Post[Lhs->id()].push_back({COpKind::FreeAfter, Lhs->writeRegion()});
  interp::RunResult R = run(*B.Prog, Bad);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("not allocated"), std::string::npos);
}

TEST_P(InterpTest, TrapsOnDoubleAllocation) {
  Built B = build("1 + 2");
  Completion Bad = B.Cons;
  const RExpr *Lhs = cast<RBinOpExpr>(B.Prog->Root)->lhs();
  // The region is already allocated (conservatively, at program entry
  // or letregion entry); allocating again must trap.
  Bad.Pre[Lhs->id()].push_back({COpKind::AllocBefore, Lhs->writeRegion()});
  interp::RunResult R = run(*B.Prog, Bad);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("not unallocated"), std::string::npos);
}

TEST_P(InterpTest, TrapsOnDoubleFree) {
  Built B = build("let x = 1 in 2 end");
  // Free x's region twice.
  const auto *Let = cast<RLetExpr>(B.Prog->Root);
  const RExpr *Init = Let->init();
  Completion Bad = B.Cons;
  Bad.Post[Init->id()].push_back({COpKind::FreeAfter, Init->writeRegion()});
  Bad.Post[Init->id()].push_back({COpKind::FreeAfter, Init->writeRegion()});
  interp::RunResult R = run(*B.Prog, Bad);
  EXPECT_FALSE(R.Ok);
}

TEST_P(InterpTest, TrapsOnWriteToUnallocatedRegion) {
  Built B = build("1 + 2");
  // Remove every allocation: the first write faults.
  Completion Empty;
  interp::RunResult R = run(*B.Prog, Empty);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("not allocated"), std::string::npos);
}

TEST_P(InterpTest, TrapsOnRegionLeftAllocatedAtScopeExit) {
  Built B = build("let x = (1, 2) in 5 end");
  // Strip the frees from the conservative completion: letregion exit
  // must detect the still-allocated region.
  Completion NoFrees = B.Cons;
  NoFrees.Post.clear();
  interp::RunResult R = run(*B.Prog, NoFrees);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("letregion exit"), std::string::npos);
}

TEST_P(InterpTest, StepLimit) {
  Built B = build("letrec loop n = loop n in loop 1 end");
  interp::RunOptions Options;
  Options.MaxSteps = 10000;
  interp::RunResult R = run(*B.Prog, B.Cons, Options);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("step limit"), std::string::npos);
}

TEST_P(InterpTest, DepthLimit) {
  // Runaway recursion with a small frame budget hits the depth guard
  // before the step limit. The walker counts host-stack recursion
  // levels; the VM counts explicit frames plus static depth — both
  // report the same trap.
  Built B = build("letrec loop n = loop (n + 1) in loop 1 end");
  interp::RunOptions Options;
  Options.MaxDepth = 64;
  interp::RunResult R = run(*B.Prog, B.Cons, Options);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("recursion depth limit exceeded"), std::string::npos)
      << R.Error;
}

TEST_P(InterpTest, RendersValues) {
  struct Case {
    const char *Source;
    const char *Expected;
  } Cases[] = {
      {"42", "42"},
      {"(-7)", "-7"},
      {"true", "true"},
      {"()", "()"},
      {"(1, (2, 3))", "(1, (2, 3))"},
      {"1 :: 2 :: nil", "[1, 2]"},
      {"nil", "[]"},
      {"fn x => x", "<fn>"},
      {"(1 :: nil, true)", "([1], true)"},
  };
  for (const Case &C : Cases) {
    Built B = build(C.Source);
    interp::RunResult R = run(*B.Prog, B.Cons);
    ASSERT_TRUE(R.Ok) << C.Source << ": " << R.Error;
    EXPECT_EQ(R.ResultText, C.Expected) << C.Source;
  }
}

TEST_P(InterpTest, IntegerEdgeCasesMatchReference) {
  // 64-bit two's complement (docs/LANGUAGE.md): + - * wrap, min div -1
  // is min and min mod -1 is 0. The division cases used to kill the
  // process with SIGFPE, and the wrapping ones were undefined behaviour.
  // All three evaluators must agree.
  struct Case {
    const char *Source;
    const char *Expected;
  } Cases[] = {
      {"(0 - 9223372036854775807 - 1) div (0 - 1)", "-9223372036854775808"},
      {"(0 - 9223372036854775807 - 1) mod (0 - 1)", "0"},
      {"9223372036854775807 + 1", "-9223372036854775808"},
      {"(0 - 9223372036854775807 - 1) - 1", "9223372036854775807"},
      {"9223372036854775807 * 2", "-2"},
      {"(0 - 7) div 2", "-3"},
      {"(0 - 7) mod 2", "-1"},
      {"7 div (0 - 1)", "-7"},
  };
  for (const Case &C : Cases) {
    ast::ASTContext Ctx;
    DiagnosticEngine Diags;
    const ast::Expr *E = parseExpr(C.Source, Ctx, Diags);
    ASSERT_NE(E, nullptr) << C.Source << ": " << Diags.str();
    interp::RefResult Ref = interp::runRef(E, Ctx);
    ASSERT_TRUE(Ref.Ok) << C.Source << ": " << Ref.Error;
    EXPECT_EQ(Ref.ResultText, C.Expected) << C.Source;
    Built B = build(C.Source);
    interp::RunResult R = run(*B.Prog, B.Cons);
    ASSERT_TRUE(R.Ok) << C.Source << ": " << R.Error;
    EXPECT_EQ(R.ResultText, C.Expected) << C.Source;
  }
  // A zero divisor stays a runtime error everywhere.
  for (const char *Source : {"1 div 0", "1 mod 0"}) {
    ast::ASTContext Ctx;
    DiagnosticEngine Diags;
    const ast::Expr *E = parseExpr(Source, Ctx, Diags);
    ASSERT_NE(E, nullptr) << Source;
    interp::RefResult Ref = interp::runRef(E, Ctx);
    EXPECT_FALSE(Ref.Ok) << Source;
    Built B = build(Source);
    interp::RunResult R = run(*B.Prog, B.Cons);
    EXPECT_FALSE(R.Ok) << Source;
    EXPECT_EQ(R.Error, Ref.Error) << Source;
    EXPECT_NE(R.Error.find("by zero"), std::string::npos) << R.Error;
  }
}

TEST_P(InterpTest, TimeCountsAllMemoryOperations) {
  Built B = build("1 + 2");
  interp::RunResult R = run(*B.Prog, B.Cons);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.S.Time, R.S.Reads + R.S.Writes + R.S.TotalRegionAllocs +
                          (R.S.TotalRegionAllocs - R.S.CurRegions));
}

INSTANTIATE_TEST_SUITE_P(Backends, InterpTest,
                         ::testing::Values(interp::BackendKind::Vm,
                                           interp::BackendKind::Tree),
                         [](const auto &Info) {
                           return Info.param == interp::BackendKind::Vm
                                      ? "Vm"
                                      : "Tree";
                         });

} // namespace
