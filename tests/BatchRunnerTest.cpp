// Tests for the thread-pooled batch runner: parallel runs must be
// deterministic and equal to sequential runs, failures must stay
// isolated to their own item, and the aggregates must add up.

#include "driver/BatchRunner.h"
#include "programs/Corpus.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include <cstdlib>
#include <sys/stat.h>

using namespace afl;

namespace {

namespace fs = std::filesystem;

/// A unique directory under the system temp dir, removed (with its
/// contents, permissions restored) on scope exit.
struct ScopedTempDir {
  fs::path Path;
  ScopedTempDir() {
    std::string Templ =
        (fs::temp_directory_path() / "afl-batch-XXXXXX").string();
    const char *Made = ::mkdtemp(Templ.data());
    EXPECT_NE(Made, nullptr);
    Path = Made ? Made : Templ.c_str();
  }
  ~ScopedTempDir() {
    std::error_code EC;
    // Re-open anything a test locked down so remove_all can descend.
    for (fs::recursive_directory_iterator
             It(Path, fs::directory_options::skip_permission_denied, EC),
         End;
         It != End; It.increment(EC)) {
      if (EC)
        break;
      ::chmod(It->path().c_str(), 0755);
    }
    fs::remove_all(Path, EC);
  }
  void write(const std::string &Rel, const std::string &Text) const {
    fs::path P = Path / Rel;
    fs::create_directories(P.parent_path());
    std::ofstream(P) << Text;
  }
};

/// Sorted by name, as aflc's batch mode presents them.
std::vector<driver::BatchItem> collectSorted(const fs::path &Dir,
                                             std::string &Error) {
  std::vector<driver::BatchItem> Work;
  EXPECT_TRUE(driver::collectBatchItems(Dir.string(), Work, Error)) << Error;
  std::sort(Work.begin(), Work.end(),
            [](const driver::BatchItem &A, const driver::BatchItem &B) {
              return A.Name < B.Name;
            });
  return Work;
}

TEST(CollectBatchItems, WalksNestedDirsWithRelativeNames) {
  ScopedTempDir Tmp;
  Tmp.write("a.afl", "1 + 2");
  Tmp.write("sub/b.afl", "2 * 3");
  Tmp.write("sub/deeper/c.afl", "4 - 1");
  Tmp.write("notes.txt", "not a program");
  std::string Error;
  std::vector<driver::BatchItem> Work = collectSorted(Tmp.Path, Error);
  ASSERT_EQ(Work.size(), 3u);
  EXPECT_EQ(Work[0].Name, "a.afl");
  EXPECT_EQ(Work[0].Source, "1 + 2");
  EXPECT_TRUE(Work[0].LoadError.empty());
  EXPECT_EQ(Work[1].Name, "sub/b.afl");
  EXPECT_EQ(Work[2].Name, "sub/deeper/c.afl");
}

TEST(CollectBatchItems, MissingRootIsBatchLevelError) {
  ScopedTempDir Tmp;
  std::vector<driver::BatchItem> Work;
  std::string Error;
  EXPECT_FALSE(driver::collectBatchItems(
      (Tmp.Path / "does-not-exist").string(), Work, Error));
  EXPECT_NE(Error.find("cannot read directory"), std::string::npos);
  EXPECT_TRUE(Work.empty());
}

TEST(CollectBatchItems, EmptyAfterFilterYieldsEmptyWork) {
  // A readable directory with no .afl files is not an error from the
  // walker's point of view; the caller decides what an empty batch
  // means.
  ScopedTempDir Tmp;
  Tmp.write("readme.md", "# nothing to run");
  Tmp.write("sub/data.json", "{}");
  std::vector<driver::BatchItem> Work;
  std::string Error;
  EXPECT_TRUE(driver::collectBatchItems(Tmp.Path.string(), Work, Error));
  EXPECT_TRUE(Work.empty());
}

TEST(CollectBatchItems, DanglingSymlinkBecomesFailedItem) {
  ScopedTempDir Tmp;
  Tmp.write("good.afl", "1 + 2");
  std::error_code EC;
  fs::create_symlink(Tmp.Path / "nowhere.afl", Tmp.Path / "broken.afl", EC);
  ASSERT_FALSE(EC) << EC.message();
  std::string Error;
  std::vector<driver::BatchItem> Work = collectSorted(Tmp.Path, Error);
  ASSERT_EQ(Work.size(), 2u);
  EXPECT_EQ(Work[0].Name, "broken.afl");
  EXPECT_FALSE(Work[0].LoadError.empty());
  EXPECT_EQ(Work[1].Name, "good.afl");
  EXPECT_TRUE(Work[1].LoadError.empty());

  // The failed item flows through runBatch as a failed row; the sibling
  // still runs.
  driver::BatchResult B =
      driver::runBatch(Work, driver::PipelineOptions(), 2);
  EXPECT_EQ(B.NumOk, 1u);
  EXPECT_EQ(B.NumFailed, 1u);
  EXPECT_EQ(B.Items[1].ResultText, "3");
}

TEST(CollectBatchItems, UnreadableInputBecomesFailedItem) {
  // Unreadable-by-construction: a `.afl` entry that resolves to a
  // directory can never be read as a program, on any host — including
  // root CI containers, where chmod-000 permission denials do not fire.
  ScopedTempDir Tmp;
  Tmp.write("good.afl", "1 + 2");
  fs::create_directories(Tmp.Path / "target-dir");
  std::error_code EC;
  fs::create_directory_symlink(Tmp.Path / "target-dir",
                               Tmp.Path / "trap.afl", EC);
  ASSERT_FALSE(EC) << EC.message();
  std::string Error;
  std::vector<driver::BatchItem> Work = collectSorted(Tmp.Path, Error);
  ASSERT_EQ(Work.size(), 2u);
  EXPECT_EQ(Work[0].Name, "good.afl");
  EXPECT_TRUE(Work[0].LoadError.empty());
  EXPECT_EQ(Work[1].Name, "trap.afl");
  EXPECT_NE(Work[1].LoadError.find("not a regular file"), std::string::npos);

  // The fault stays isolated: the failed item flows through runBatch as
  // a failed row while the sibling still runs.
  driver::BatchResult B =
      driver::runBatch(Work, driver::PipelineOptions(), 2);
  EXPECT_EQ(B.NumOk, 1u);
  EXPECT_EQ(B.NumFailed, 1u);
  EXPECT_EQ(B.Items[0].ResultText, "3");
}

TEST(CollectBatchItems, PermissionDeniedSubdirBecomesFailedItem) {
  // The classic chmod-000 denial, kept for hosts that do enforce it; on
  // root containers (where the probe shows no denial) the walker must
  // instead descend cleanly and find the hidden program.
  ScopedTempDir Tmp;
  Tmp.write("good.afl", "1 + 2");
  Tmp.write("locked/hidden.afl", "2 + 2");
  ASSERT_EQ(::chmod((Tmp.Path / "locked").c_str(), 0000), 0);
  std::error_code Probe;
  fs::directory_iterator It(Tmp.Path / "locked", Probe);
  std::string Error;
  std::vector<driver::BatchItem> Work = collectSorted(Tmp.Path, Error);
  ASSERT_EQ(Work.size(), 2u);
  EXPECT_EQ(Work[0].Name, "good.afl");
  EXPECT_TRUE(Work[0].LoadError.empty());
  if (Probe) {
    EXPECT_EQ(Work[1].Name, "locked");
    EXPECT_NE(Work[1].LoadError.find("cannot read directory"),
              std::string::npos);
  } else {
    EXPECT_EQ(Work[1].Name, "locked/hidden.afl");
    EXPECT_TRUE(Work[1].LoadError.empty());
    EXPECT_EQ(Work[1].Source, "2 + 2");
  }
}

TEST(CollectBatchItems, FaultySiblingsSurviveFullBatchRun) {
  // The acceptance scenario end to end: a directory holding a
  // permission-denied subdirectory, a dangling symlink, and a 100k-deep
  // nested .afl program must produce a complete batch — failed rows for
  // the faults, results for the healthy items, no crash, no stack
  // overflow.
  ScopedTempDir Tmp;
  Tmp.write("ok.afl", "21 * 2");
  Tmp.write("locked/hidden.afl", "1");
  ::chmod((Tmp.Path / "locked").c_str(), 0000); // no-op as root; still walked
  std::error_code EC;
  fs::create_symlink(Tmp.Path / "gone.afl", Tmp.Path / "dangling.afl", EC);
  ASSERT_FALSE(EC) << EC.message();
  // An unreadable-by-construction fault that fires even as root.
  fs::create_directories(Tmp.Path / "not-a-file");
  fs::create_directory_symlink(Tmp.Path / "not-a-file",
                               Tmp.Path / "trap.afl", EC);
  ASSERT_FALSE(EC) << EC.message();
  const int Depth = 100000;
  std::string Deep(static_cast<size_t>(Depth), '(');
  Deep += "1";
  Deep.append(static_cast<size_t>(Depth), ')');
  Tmp.write("deep.afl", Deep);

  std::string Error;
  std::vector<driver::BatchItem> Work = collectSorted(Tmp.Path, Error);
  driver::BatchResult B =
      driver::runBatch(Work, driver::PipelineOptions(), 2);
  ASSERT_EQ(B.Items.size(), Work.size());
  // dangling symlink + depth-limited parse + directory-shaped .afl
  EXPECT_GE(B.NumFailed, 3u);
  bool SawOk = false, SawDeep = false, SawDangling = false, SawTrap = false;
  for (const driver::BatchItemResult &Item : B.Items) {
    if (Item.Name == "ok.afl") {
      SawOk = true;
      EXPECT_TRUE(Item.Ok);
      EXPECT_EQ(Item.ResultText, "42");
    } else if (Item.Name == "deep.afl") {
      SawDeep = true;
      EXPECT_FALSE(Item.Ok);
      EXPECT_NE(Item.Error.find("expression nesting too deep"),
                std::string::npos);
    } else if (Item.Name == "dangling.afl") {
      SawDangling = true;
      EXPECT_FALSE(Item.Ok);
      EXPECT_FALSE(Item.Error.empty());
    } else if (Item.Name == "trap.afl") {
      SawTrap = true;
      EXPECT_FALSE(Item.Ok);
      EXPECT_NE(Item.Error.find("not a regular file"), std::string::npos);
    }
  }
  EXPECT_TRUE(SawOk);
  EXPECT_TRUE(SawDeep);
  EXPECT_TRUE(SawDangling);
  EXPECT_TRUE(SawTrap);
}

TEST(CollectBatchItems, EmptyFileIsALegitimateItem) {
  // An empty .afl reads as an empty source (failbit on rdbuf insert is
  // not a read error); it then fails in the parser like any other bad
  // program, not in the loader.
  ScopedTempDir Tmp;
  Tmp.write("empty.afl", "");
  std::string Error;
  std::vector<driver::BatchItem> Work = collectSorted(Tmp.Path, Error);
  ASSERT_EQ(Work.size(), 1u);
  EXPECT_TRUE(Work[0].LoadError.empty());
  EXPECT_TRUE(Work[0].Source.empty());
  driver::BatchResult B =
      driver::runBatch(Work, driver::PipelineOptions(), 1);
  EXPECT_EQ(B.NumFailed, 1u);
}

std::vector<driver::BatchItem> corpusWork() {
  std::vector<driver::BatchItem> Work;
  for (const programs::BenchProgram &P : programs::smallCorpus())
    Work.push_back({P.Name, P.Source, ""});
  return Work;
}

TEST(BatchRunner, ParallelMatchesSequential) {
  std::vector<driver::BatchItem> Work = corpusWork();
  driver::BatchResult Seq =
      driver::runBatch(Work, driver::PipelineOptions(), 1);
  driver::BatchResult Par =
      driver::runBatch(Work, driver::PipelineOptions(), 4);

  ASSERT_EQ(Seq.Items.size(), Work.size());
  ASSERT_EQ(Par.Items.size(), Work.size());
  EXPECT_EQ(Seq.NumOk, Work.size());
  EXPECT_EQ(Par.NumOk, Work.size());

  for (size_t I = 0; I != Work.size(); ++I) {
    const driver::BatchItemResult &S = Seq.Items[I];
    const driver::BatchItemResult &P = Par.Items[I];
    // Results stay in input order whatever the schedule.
    EXPECT_EQ(S.Name, Work[I].Name);
    EXPECT_EQ(P.Name, Work[I].Name);
    // Identical per-file outcomes: value, memory metrics, solver work.
    EXPECT_EQ(S.ResultText, P.ResultText) << S.Name;
    EXPECT_EQ(S.AflStats.MaxValues, P.AflStats.MaxValues) << S.Name;
    EXPECT_EQ(S.AflStats.TotalRegionAllocs, P.AflStats.TotalRegionAllocs)
        << S.Name;
    EXPECT_EQ(S.ConservativeStats.MaxValues, P.ConservativeStats.MaxValues)
        << S.Name;
    EXPECT_EQ(S.Analysis.SolverPropagations, P.Analysis.SolverPropagations)
        << S.Name;
    EXPECT_EQ(S.Analysis.NumConstraints, P.Analysis.NumConstraints)
        << S.Name;
  }
}

TEST(BatchRunner, FailuresAreIsolated) {
  std::vector<driver::BatchItem> Work = {
      {"good1", "1 + 2", ""},
      {"bad-parse", "let x = in x end", ""},
      {"bad-type", "1 + true", ""},
      {"good2", "letrec f n = if n = 0 then 0 else f (n - 1) in f 3 end", ""},
  };
  driver::BatchResult B = driver::runBatch(Work, driver::PipelineOptions(), 2);
  ASSERT_EQ(B.Items.size(), 4u);
  EXPECT_EQ(B.NumOk, 2u);
  EXPECT_EQ(B.NumFailed, 2u);
  EXPECT_FALSE(B.allOk());
  EXPECT_TRUE(B.Items[0].Ok);
  EXPECT_FALSE(B.Items[1].Ok);
  EXPECT_FALSE(B.Items[1].Error.empty());
  EXPECT_FALSE(B.Items[2].Ok);
  EXPECT_TRUE(B.Items[3].Ok);
  EXPECT_EQ(B.Items[0].ResultText, "3");
  EXPECT_EQ(B.Items[3].ResultText, "0");
}

TEST(BatchRunner, IntegerEdgeCasesCompleteTheBatch) {
  // min div -1 and min mod -1 used to raise SIGFPE and take the whole
  // batch down: no rows for the other files and no metrics. They now
  // evaluate (docs/LANGUAGE.md), and every row is reported.
  std::vector<driver::BatchItem> Work = {
      {"min-div.afl", "(0 - 9223372036854775807 - 1) div (0 - 1)", ""},
      {"min-mod.afl", "(0 - 9223372036854775807 - 1) mod (0 - 1)", ""},
      {"good.afl", "2 * 21", ""},
  };
  driver::BatchResult B = driver::runBatch(Work, driver::PipelineOptions(), 2);
  ASSERT_EQ(B.Items.size(), 3u);
  EXPECT_EQ(B.NumOk, 3u);
  EXPECT_TRUE(B.allOk());
  EXPECT_EQ(B.Items[0].ResultText, "-9223372036854775808");
  EXPECT_EQ(B.Items[1].ResultText, "0");
  EXPECT_EQ(B.Items[2].ResultText, "42");
}

TEST(BatchRunner, AggregatesSumPerItemStats) {
  std::vector<driver::BatchItem> Work = corpusWork();
  driver::BatchResult B = driver::runBatch(Work, driver::PipelineOptions(), 3);

  uint64_t Props = 0, ValueAllocs = 0;
  double Cpu = 0;
  for (const driver::BatchItemResult &Item : B.Items) {
    Props += Item.Analysis.SolverPropagations;
    ValueAllocs += Item.AflStats.TotalValueAllocs;
    Cpu += Item.Stats.TotalSeconds;
  }
  MetricsRegistry Reg;
  B.recordMetrics(Reg);
  EXPECT_EQ(Reg.counter("aggregate/stages/solve/propagations"), Props);
  EXPECT_EQ(Reg.counter("aggregate/runs/afl/value_allocs"), ValueAllocs);
  EXPECT_DOUBLE_EQ(Reg.timer("aggregate/total_seconds"), Cpu);
  EXPECT_EQ(Reg.counter("aggregate/ok"), B.NumOk);
  EXPECT_GT(B.WallSeconds, 0.0);
  EXPECT_GE(B.Threads, 1u);
}

/// Flattens a parsed metrics scope into its leaves, keyed by
/// '/'-separated path.
void flattenLeaves(const json::Value &Scope, const std::string &Prefix,
                   std::map<std::string, const json::Value *> &Out) {
  for (const auto &[Key, V] : Scope.members()) {
    std::string Path = Prefix.empty() ? Key : Prefix + "/" + Key;
    if (V.isObject())
      flattenLeaves(V, Path, Out);
    else
      Out[Path] = &V;
  }
}

TEST(BatchRunner, AggregateIsTheMergeOfItsPrograms) {
  // Restart mode: `worklist` is 0 and each program takes several passes.
  // Walk every leaf instead of listing them: each aggregate counter and
  // timer is the sum over the programs, each per-program peak their
  // maximum, and no leaf a program reports is missing.
  driver::PipelineOptions Options;
  Options.ClosureOptions.UseWorklist = false;
  driver::BatchResult B = driver::runBatch(corpusWork(), Options, 2);
  ASSERT_TRUE(B.allOk());
  MetricsRegistry Reg;
  B.recordMetrics(Reg);
  json::Value Root;
  std::string Error;
  ASSERT_TRUE(json::parseJson(Reg.json(), Root, Error)) << Error;
  ASSERT_NE(Root.find("aggregate"), nullptr);
  ASSERT_NE(Root.find("programs"), nullptr);

  std::map<std::string, const json::Value *> Agg;
  flattenLeaves(*Root.find("aggregate"), "", Agg);
  std::vector<std::map<std::string, const json::Value *>> Programs;
  for (const auto &[Name, P] : Root.find("programs")->members())
    flattenLeaves(P, "", Programs.emplace_back());
  ASSERT_EQ(Programs.size(), B.Items.size());

  const std::set<std::string> Peaks = {"max_regions", "max_values",
                                       "largest_component",
                                       "largest_shard_constraints", "bound"};
  for (const auto &[Path, V] : Agg) {
    if (Path == "runs/peak_rss_kb")
      continue; // process-wide: the aggregate's own leaf
    ASSERT_TRUE(V->isNumber()) << Path;
    bool Peak = Peaks.count(Path.substr(Path.rfind('/') + 1)) != 0;
    int64_t Sum = 0, Max = 0;
    double Seconds = 0;
    for (const auto &P : Programs) {
      auto It = P.find(Path);
      if (It == P.end())
        continue;
      Sum += It->second->asInt();
      Max = std::max(Max, It->second->asInt());
      Seconds += It->second->asDouble();
    }
    if (V->isInt())
      EXPECT_EQ(V->asInt(), Peak ? Max : Sum) << Path;
    else // timers render with nine decimals
      EXPECT_NEAR(V->asDouble(), Seconds, 1e-9 * (Programs.size() + 1))
          << Path;
  }
  for (const auto &P : Programs)
    for (const auto &[Path, V] : P)
      EXPECT_TRUE(Agg.count(Path)) << Path;

  EXPECT_EQ(Reg.counter("aggregate/stages/closure_analysis/worklist"), 0u);
  EXPECT_GT(Reg.counter("aggregate/stages/closure_analysis/passes"), 0u);
  EXPECT_GT(Reg.counter("aggregate/sizes/closure_envs"), 0u);
}

TEST(BatchRunner, MetricsEmissionIsValidAndComplete) {
  std::vector<driver::BatchItem> Work = {
      {"a.afl", "1 + 2", ""},
      {"b.afl", "(let z = (2, 3) in fn y => (fst z, y) end) 5", ""},
  };
  driver::BatchResult B = driver::runBatch(Work, driver::PipelineOptions(), 2);
  MetricsRegistry Reg;
  B.recordMetrics(Reg);
  EXPECT_EQ(Reg.counter("files"), 2u);
  EXPECT_EQ(Reg.counter("ok"), 2u);
  EXPECT_TRUE(Reg.has("aggregate/stages/solve"));
  EXPECT_TRUE(Reg.has("programs/a.afl/stages/parse"));
  EXPECT_TRUE(Reg.has("programs/b.afl/runs/afl"));
  EXPECT_EQ(Reg.counter("programs/b.afl/ok"), 1u);
  EXPECT_GT(Reg.timer("aggregate/total_seconds"), 0.0);
}

TEST(BatchRunner, LoadErrorItemFailsWithoutAbortingBatch) {
  std::vector<driver::BatchItem> Work = {
      {"good", "1 + 2", ""},
      {"missing.afl", "", "cannot open 'missing.afl'"},
      {"also-good", "2 * 21", ""},
  };
  driver::BatchResult B = driver::runBatch(Work, driver::PipelineOptions(), 2);
  ASSERT_EQ(B.Items.size(), 3u);
  EXPECT_EQ(B.NumOk, 2u);
  EXPECT_EQ(B.NumFailed, 1u);
  EXPECT_FALSE(B.allOk());
  EXPECT_TRUE(B.Items[0].Ok);
  EXPECT_FALSE(B.Items[1].Ok);
  // The loader's message is the item's error, and the pipeline never ran
  // for it (no runs, zero stats).
  EXPECT_EQ(B.Items[1].Error, "cannot open 'missing.afl'");
  EXPECT_FALSE(B.Items[1].HasRuns);
  EXPECT_EQ(B.Items[1].Stats.AstNodes, 0u);
  EXPECT_TRUE(B.Items[2].Ok);
  EXPECT_EQ(B.Items[2].ResultText, "42");

  MetricsRegistry Reg;
  B.recordMetrics(Reg);
  EXPECT_EQ(Reg.counter("failed"), 1u);
  EXPECT_EQ(Reg.counter("programs/missing.afl/ok"), 0u);
  EXPECT_EQ(Reg.text("programs/missing.afl/error"),
            "cannot open 'missing.afl'");
  // The error text stays with its program: the aggregate has none.
  EXPECT_EQ(Reg.counter("aggregate/ok"), 2u);
  EXPECT_FALSE(Reg.has("aggregate/error"));
}

TEST(BatchRunner, AggregateRunsReportTrueMaximaAndSums) {
  // Two programs with different footprints: the aggregate max_* must be
  // the larger per-item peak, not the sum of both peaks.
  std::vector<driver::BatchItem> Work = {
      {"small", "1 + 2", ""},
      {"big", "letrec f n = if n = 0 then nil else n :: f (n - 1) "
              "in f 20 end",
       ""},
  };
  driver::BatchResult B = driver::runBatch(Work, driver::PipelineOptions(), 2);
  ASSERT_TRUE(B.allOk());

  uint64_t PeakAfl = 0, SumAfl = 0, PeakCons = 0, Allocs = 0;
  for (const driver::BatchItemResult &Item : B.Items) {
    PeakAfl = std::max(PeakAfl, Item.AflStats.MaxValues);
    SumAfl += Item.AflStats.MaxValues;
    PeakCons = std::max(PeakCons, Item.ConservativeStats.MaxValues);
    Allocs += Item.AflStats.TotalValueAllocs;
  }
  ASSERT_LT(PeakAfl, SumAfl); // both items contribute, so max != sum

  MetricsRegistry Reg;
  B.recordMetrics(Reg);
  EXPECT_EQ(Reg.counter("aggregate/runs/afl/max_values"), PeakAfl);
  EXPECT_EQ(Reg.counter("aggregate/runs/conservative/max_values"), PeakCons);
  EXPECT_EQ(Reg.counter("aggregate/runs/afl/value_allocs"), Allocs);
  EXPECT_FALSE(Reg.has("aggregate/runs/afl/total_max_values"));
}

TEST(BatchRunner, EmptyBatch) {
  driver::BatchResult B =
      driver::runBatch({}, driver::PipelineOptions(), 4);
  EXPECT_TRUE(B.Items.empty());
  EXPECT_EQ(B.NumOk, 0u);
  EXPECT_TRUE(B.allOk());
}

TEST(BatchRunner, RespectsSkipRuns) {
  driver::PipelineOptions Options;
  Options.SkipRuns = true;
  driver::BatchResult B = driver::runBatch(corpusWork(), Options, 2);
  EXPECT_EQ(B.NumOk, B.Items.size());
  for (const driver::BatchItemResult &Item : B.Items) {
    EXPECT_FALSE(Item.HasRuns);
    EXPECT_TRUE(Item.ResultText.empty());
  }
  MetricsRegistry Reg;
  B.recordMetrics(Reg);
  EXPECT_FALSE(Reg.has("aggregate/runs/afl"));
  EXPECT_FALSE(Reg.has("aggregate/runs/conservative"));
  EXPECT_TRUE(Reg.has("aggregate/runs/peak_rss_kb"));
}

} // namespace
