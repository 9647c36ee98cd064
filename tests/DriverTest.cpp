// Tests for the pipeline facade: option handling, failure reporting, and
// the ablation consistency guarantee (fully-lexical == conservative).

#include "driver/Pipeline.h"
#include "programs/Corpus.h"
#include "programs/RandomProgram.h"
#include "support/Json.h"

#include <gtest/gtest.h>

namespace afl::programs {
// Print a corpus entry by name. gtest appends the printed parameter to
// each test's listed name, and ctest discovery bakes that into the test
// name; the default byte dump would embed heap addresses that change on
// every run.
static void PrintTo(const BenchProgram &P, std::ostream *OS) { *OS << P.Name; }
} // namespace afl::programs

using namespace afl;

namespace {

TEST(Driver, ParseErrorReported) {
  driver::PipelineResult R = driver::runPipeline("let x = in x end");
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(R.Diags.hasErrors());
  EXPECT_EQ(R.Prog, nullptr);
}

TEST(Driver, TypeErrorReported) {
  driver::PipelineResult R = driver::runPipeline("1 + true");
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(R.Diags.hasErrors());
}

TEST(Driver, SkipRunsProducesAnalysisOnly) {
  driver::PipelineOptions Options;
  Options.SkipRuns = true;
  driver::PipelineResult R =
      driver::runPipeline(programs::fibSource(5), Options);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  EXPECT_NE(R.Prog, nullptr);
  EXPECT_TRUE(R.Analysis.Solved);
  EXPECT_FALSE(R.Conservative.Ok); // runs skipped
  EXPECT_FALSE(R.Afl.Ok);
}

TEST(Driver, TraceOptionRecordsTraces) {
  driver::PipelineOptions Options;
  Options.RecordTrace = true;
  driver::PipelineResult R =
      driver::runPipeline(programs::facSource(4), Options);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  EXPECT_FALSE(R.Conservative.Trace.empty());
  EXPECT_FALSE(R.Afl.Trace.empty());
}

TEST(Driver, StepLimitSurfacesAsFailure) {
  driver::PipelineOptions Options;
  Options.MaxSteps = 100;
  driver::PipelineResult R =
      driver::runPipeline(programs::quicksortSource(50), Options);
  EXPECT_FALSE(R.ok());
}

TEST(Driver, PrintersProduceOutput) {
  driver::PipelineResult R = driver::runPipeline("1 + 2");
  ASSERT_TRUE(R.ok());
  EXPECT_NE(R.printConservative().find("binop +"), std::string::npos);
  EXPECT_NE(R.printAfl().find("binop +"), std::string::npos);
  EXPECT_NE(R.printConservative().find("alloc_before"), std::string::npos);
}

/// The fully-lexical ablation must reproduce the conservative (T-T)
/// completion's memory behavior exactly — the constraint system and the
/// direct construction agree.
class LexicalEqualsConservative
    : public ::testing::TestWithParam<programs::BenchProgram> {};

TEST_P(LexicalEqualsConservative, SameMemoryBehavior) {
  driver::PipelineOptions Options;
  Options.GenOptions.FreeApp = false;
  Options.GenOptions.LateAlloc = false;
  Options.GenOptions.EarlyFree = false;
  driver::PipelineResult R =
      driver::runPipeline(GetParam().Source, Options);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  // Value metrics match the conservative completion exactly. Region
  // counts may be slightly lower: even lexically-restricted solving can
  // skip allocating a region that is never dynamically accessed.
  EXPECT_EQ(R.Afl.S.MaxValues, R.Conservative.S.MaxValues);
  EXPECT_EQ(R.Afl.S.FinalValues, R.Conservative.S.FinalValues);
  EXPECT_LE(R.Afl.S.MaxRegions, R.Conservative.S.MaxRegions);
  EXPECT_GE(R.Afl.S.MaxRegions + 8, R.Conservative.S.MaxRegions);
  EXPECT_LE(R.Afl.S.TotalRegionAllocs, R.Conservative.S.TotalRegionAllocs);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, LexicalEqualsConservative,
    ::testing::ValuesIn(programs::smallCorpus()),
    [](const ::testing::TestParamInfo<programs::BenchProgram> &Info) {
      std::string Name = Info.param.Name;
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

/// The sum of a recorded run's stage times: every stages/*/wall_seconds
/// leaf, with the stage names read from the registry's own rendering.
double stageSum(const MetricsRegistry &Reg) {
  json::Value V;
  std::string Error;
  EXPECT_TRUE(json::parseJson(Reg.json(false), V, Error)) << Error;
  const json::Value *Stages = V.find("stages");
  EXPECT_NE(Stages, nullptr);
  double Sum = 0;
  if (Stages)
    for (const auto &[Name, Stage] : Stages->members())
      if (Stage.find("wall_seconds"))
        Sum += Reg.timer("stages/" + Name + "/wall_seconds");
  return Sum;
}

double stageSum(const driver::PipelineResult &R) {
  MetricsRegistry Reg;
  R.recordMetrics(Reg);
  return stageSum(Reg);
}

TEST(Driver, StatsPopulatedOnFullRun) {
  driver::PipelineResult R =
      driver::runPipeline(programs::example11Source());
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  const driver::PipelineStats &S = R.Stats;
  const completion::AflStats &A = R.Analysis;
  // Every stage that executed reports a strictly positive wall time.
  EXPECT_GT(S.ParseSeconds, 0.0);
  EXPECT_GT(S.TypeInferSeconds, 0.0);
  EXPECT_GT(S.RegionInferSeconds, 0.0);
  EXPECT_GT(S.ConservativeSeconds, 0.0);
  EXPECT_GT(A.ClosureSeconds, 0.0);
  EXPECT_GT(A.ConstraintGenSeconds, 0.0);
  EXPECT_GT(A.SolveSeconds, 0.0);
  EXPECT_GT(S.RunConservativeSeconds, 0.0);
  EXPECT_GT(S.RunAflSeconds, 0.0);
  EXPECT_GT(S.RunReferenceSeconds, 0.0);
  EXPECT_GT(S.TotalSeconds, 0.0);
  // Stages partition the pipeline: their sum cannot exceed the total.
  EXPECT_LE(stageSum(R), S.TotalSeconds);
  // Artifact sizes come from the run itself.
  EXPECT_EQ(S.AstNodes, R.Ctx->numNodes());
  EXPECT_EQ(S.RegionNodes, R.Prog->numNodes());
  EXPECT_GT(S.RegionVars, 0u);
  // The solve stage time recorded is the one the analysis reported.
  MetricsRegistry Reg;
  R.recordMetrics(Reg);
  EXPECT_DOUBLE_EQ(Reg.timer("stages/solve/wall_seconds"), A.SolveSeconds);
}

TEST(Driver, StatsOnSkippedRunsLeaveRunTimesZero) {
  driver::PipelineOptions Options;
  Options.SkipRuns = true;
  driver::PipelineResult R =
      driver::runPipeline(programs::fibSource(5), Options);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  EXPECT_GT(R.Analysis.SolveSeconds, 0.0);
  EXPECT_EQ(R.Stats.RunConservativeSeconds, 0.0);
  EXPECT_EQ(R.Stats.RunAflSeconds, 0.0);
  EXPECT_EQ(R.Stats.RunReferenceSeconds, 0.0);
  EXPECT_LE(stageSum(R), R.Stats.TotalSeconds);
}

TEST(Driver, StatsOnFailureStillTimed) {
  driver::PipelineResult R = driver::runPipeline("let x = in x end");
  EXPECT_FALSE(R.ok());
  EXPECT_GT(R.Stats.ParseSeconds, 0.0);
  EXPECT_GT(R.Stats.TotalSeconds, 0.0);
  EXPECT_EQ(R.Analysis.SolveSeconds, 0.0);
}

TEST(Driver, RecordMetricsEmitsSchema) {
  driver::PipelineResult R =
      driver::runPipeline(programs::example11Source());
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  MetricsRegistry Reg;
  R.recordMetrics(Reg);
  EXPECT_EQ(Reg.counter("ok"), 1u);
  EXPECT_GT(Reg.counter("sizes/ast_nodes"), 0u);
  EXPECT_GT(Reg.counter("sizes/constraints"), 0u);
  EXPECT_GT(Reg.timer("stages/parse/wall_seconds"), 0.0);
  EXPECT_GT(Reg.timer("stages/region_inference/wall_seconds"), 0.0);
  EXPECT_GT(Reg.timer("stages/constraint_gen/wall_seconds"), 0.0);
  EXPECT_GT(Reg.timer("stages/solve/wall_seconds"), 0.0);
  EXPECT_GT(Reg.timer("stages/run_afl/wall_seconds"), 0.0);
  EXPECT_EQ(Reg.counter("stages/solve/propagations"),
            R.Analysis.SolverPropagations);
  EXPECT_EQ(Reg.counter("runs/afl/max_values"), R.Afl.S.MaxValues);
  EXPECT_GT(Reg.timer("total_seconds"), 0.0);
  // The timings table renders every stage.
  std::string Table = R.formatTimings();
  EXPECT_NE(Table.find("region inference"), std::string::npos);
  EXPECT_NE(Table.find("solve"), std::string::npos);
  EXPECT_NE(Table.find("propagations"), std::string::npos);
}

TEST(Driver, AblationsNeverWorseThanLexical) {
  // Each single ablation still improves on (or matches) T-T and is never
  // better than the full system.
  for (unsigned Seed = 100; Seed != 130; ++Seed) {
    std::string Source = programs::generateRandomProgram(Seed);
    SCOPED_TRACE(Source);

    driver::PipelineResult Full = driver::runPipeline(Source);
    ASSERT_TRUE(Full.ok()) << Full.Diags.str();

    for (int Ablate = 0; Ablate != 3; ++Ablate) {
      driver::PipelineOptions Options;
      if (Ablate == 0)
        Options.GenOptions.FreeApp = false;
      if (Ablate == 1)
        Options.GenOptions.LateAlloc = false;
      if (Ablate == 2) {
        Options.GenOptions.EarlyFree = false;
        Options.GenOptions.FreeApp = false;
      }
      driver::PipelineResult R = driver::runPipeline(Source, Options);
      ASSERT_TRUE(R.ok()) << R.Diags.str();
      EXPECT_LE(R.Afl.S.MaxValues, R.Conservative.S.MaxValues);
      EXPECT_GE(R.Afl.S.MaxValues, Full.Afl.S.MaxValues);
      EXPECT_EQ(R.Afl.ResultText, Full.Reference.ResultText);
    }
  }
}

} // namespace
