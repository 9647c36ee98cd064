// Differential property test for the bytecode VM (src/vm/): on the
// builtin corpus, the scaled builtin programs and a 500-seed random
// sweep, executing under the VM must be *bit-identical* to the Fig. 2
// tree walker — same success flag, error string, rendered result, every
// Table 2 counter, the full memory-over-time trace, and every region
// lifetime — under both the conservative and the A-F-L completion.

#include "ast/ASTContext.h"
#include "completion/AflCompletion.h"
#include "completion/Conservative.h"
#include "interp/Interp.h"
#include "parser/Parser.h"
#include "programs/Corpus.h"
#include "programs/RandomProgram.h"
#include "regions/RegionInference.h"
#include "types/TypeInference.h"

#include <gtest/gtest.h>

using namespace afl;

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

/// Runs \p Prog under \p C on both backends and checks every observable
/// field of the results matches bit for bit.
void expectBackendsAgree(const regions::RegionProgram &Prog,
                         const regions::Completion &C, const char *Label) {
  interp::RunOptions Options;
  Options.RecordTrace = true;
  Options.RecordLifetimes = true;

  Options.Backend = interp::BackendKind::Tree;
  interp::RunResult T = interp::run(Prog, C, Options);
  Options.Backend = interp::BackendKind::Vm;
  interp::RunResult V = interp::run(Prog, C, Options);

  EXPECT_EQ(T.Ok, V.Ok) << Label << " tree: " << T.Error
                        << " vm: " << V.Error;
  EXPECT_EQ(T.Error, V.Error) << Label;
  EXPECT_EQ(T.ResultText, V.ResultText) << Label;

  // Table 2 counters plus every auxiliary counter.
  EXPECT_EQ(T.S.MaxRegions, V.S.MaxRegions) << Label;
  EXPECT_EQ(T.S.TotalRegionAllocs, V.S.TotalRegionAllocs) << Label;
  EXPECT_EQ(T.S.TotalValueAllocs, V.S.TotalValueAllocs) << Label;
  EXPECT_EQ(T.S.MaxValues, V.S.MaxValues) << Label;
  EXPECT_EQ(T.S.FinalValues, V.S.FinalValues) << Label;
  EXPECT_EQ(T.S.CurRegions, V.S.CurRegions) << Label;
  EXPECT_EQ(T.S.CurValues, V.S.CurValues) << Label;
  EXPECT_EQ(T.S.Reads, V.S.Reads) << Label;
  EXPECT_EQ(T.S.Writes, V.S.Writes) << Label;
  EXPECT_EQ(T.S.Steps, V.S.Steps) << Label;
  EXPECT_EQ(T.S.Time, V.S.Time) << Label;

  // The full memory-over-time trace (Figures 5-8).
  ASSERT_EQ(T.Trace.size(), V.Trace.size()) << Label;
  for (size_t I = 0; I != T.Trace.size(); ++I) {
    if (T.Trace[I].Time != V.Trace[I].Time ||
        T.Trace[I].ValuesHeld != V.Trace[I].ValuesHeld) {
      ADD_FAILURE() << Label << ": trace diverges at sample " << I << ": tree ("
                    << T.Trace[I].Time << ", " << T.Trace[I].ValuesHeld
                    << ") vm (" << V.Trace[I].Time << ", "
                    << V.Trace[I].ValuesHeld << ")";
      break;
    }
  }

  // Region lifetimes, indexed by runtime creation order (Figure 1c):
  // identical indices prove the VM creates regions in walker order.
  ASSERT_EQ(T.Lifetimes.size(), V.Lifetimes.size()) << Label;
  for (size_t I = 0; I != T.Lifetimes.size(); ++I) {
    if (T.Lifetimes[I].AllocTime != V.Lifetimes[I].AllocTime ||
        T.Lifetimes[I].FreeTime != V.Lifetimes[I].FreeTime ||
        T.Lifetimes[I].ValuesAtFree != V.Lifetimes[I].ValuesAtFree) {
      ADD_FAILURE() << Label << ": lifetime diverges for region " << I;
      break;
    }
  }
}

/// Full harness for one source program: conservative and A-F-L
/// completions.
void expectVmMatchesTree(const std::string &Source, const char *Label) {
  ast::ASTContext Ctx;
  auto Prog = frontend(Source, Ctx, Label);
  ASSERT_NE(Prog, nullptr) << Label;

  regions::Completion Cons = completion::conservativeCompletion(*Prog);
  completion::AflStats Stats;
  regions::Completion Afl = completion::aflCompletion(*Prog, &Stats);
  ASSERT_TRUE(Stats.Solved) << Label;

  expectBackendsAgree(*Prog, Cons, (std::string(Label) + " [cons]").c_str());
  expectBackendsAgree(*Prog, Afl, (std::string(Label) + " [afl]").c_str());
}

TEST(VmDifferential, Table2Corpus) {
  for (const programs::BenchProgram &P : programs::table2Corpus())
    expectVmMatchesTree(P.Source, P.Name.c_str());
}

TEST(VmDifferential, SmallCorpus) {
  for (const programs::BenchProgram &P : programs::smallCorpus())
    expectVmMatchesTree(P.Source, P.Name.c_str());
}

TEST(VmDifferential, BuiltinScaledPrograms) {
  expectVmMatchesTree(programs::appelSource(20), "@appel 20");
  expectVmMatchesTree(programs::quicksortSource(12), "@quicksort 12");
  expectVmMatchesTree(programs::fibSource(10), "@fib 10");
  expectVmMatchesTree(programs::randlistSource(12), "@randlist 12");
  expectVmMatchesTree(programs::facSource(8), "@fac 8");
}

TEST(VmDifferential, RandomPrograms500) {
  // Same feature-space sweep as ClosureDifferential.RandomPrograms500:
  // higher-order, recursive and closure-escape shapes all represented.
  for (unsigned Seed = 0; Seed != 500; ++Seed) {
    programs::RandomProgramOptions Options;
    Options.HigherOrder = Seed % 3 != 0;
    Options.Recursion = Seed % 4 != 0;
    Options.ClosureEscape = Seed % 5 == 0;
    std::string Source = programs::generateRandomProgram(Seed, Options);
    std::string Label = "seed " + std::to_string(Seed);
    expectVmMatchesTree(Source, Label.c_str());
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

} // namespace
