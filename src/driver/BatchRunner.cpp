#include "driver/BatchRunner.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace afl;
using namespace afl::driver;

bool driver::collectBatchItems(const std::string &Dir,
                               std::vector<BatchItem> &Work,
                               std::string &Error) {
  namespace fs = std::filesystem;
  const fs::path Root(Dir);

  // Names are derived lexically: fs::relative stats both paths and can
  // itself fail on the entries this walk is built to survive.
  auto relName = [&Root](const fs::path &P) {
    fs::path Rel = P.lexically_relative(Root);
    return (Rel.empty() || Rel == ".") ? P.string() : Rel.string();
  };
  auto failItem = [&](const fs::path &P, std::string Why) {
    BatchItem Item;
    Item.Name = relName(P);
    Item.LoadError = std::move(Why);
    Work.push_back(std::move(Item));
  };

  std::error_code EC;
  // Probe the root before walking so "the directory doesn't exist" is a
  // batch-level error, not an empty batch.
  if (fs::directory_iterator(Root, EC); EC) {
    Error = "cannot read directory '" + Dir + "': " + EC.message();
    return false;
  }

  // Manual stack-driven walk instead of recursive_directory_iterator:
  // its throwing operator++ aborts the whole batch on the first
  // unreadable subdirectory, and its error_code increment ends the
  // iteration — silently dropping every entry after the failure. Here a
  // bad directory becomes one failed item and its siblings still run.
  std::vector<fs::path> Pending;
  Pending.push_back(Root);
  while (!Pending.empty()) {
    fs::path D = std::move(Pending.back());
    Pending.pop_back();
    fs::directory_iterator It(D, EC);
    if (EC) {
      failItem(D, "cannot read directory '" + D.string() +
                      "': " + EC.message());
      EC.clear();
      continue;
    }
    for (; It != fs::directory_iterator(); It.increment(EC)) {
      if (EC)
        break;
      const fs::directory_entry &Entry = *It;
      // Classify without following the link target: symlink_status never
      // dereferences, so a dangling symlink is not an error here.
      fs::file_status LStat = Entry.symlink_status(EC);
      if (EC) {
        failItem(Entry.path(), "cannot stat '" + Entry.path().string() +
                                   "': " + EC.message());
        EC.clear();
        continue;
      }
      if (fs::is_directory(LStat)) {
        Pending.push_back(Entry.path());
        continue;
      }
      if (Entry.path().extension() != ".afl")
        continue;
      // Follow symlinks for the actual read; a dangling .afl symlink
      // surfaces here as a failed item.
      bool IsRegular = fs::is_regular_file(Entry.path(), EC);
      if (EC || !IsRegular) {
        failItem(Entry.path(),
                 EC ? "cannot stat '" + Entry.path().string() +
                          "': " + EC.message()
                    : "not a regular file: '" + Entry.path().string() + "'");
        EC.clear();
        continue;
      }
      std::ifstream In(Entry.path());
      if (!In) {
        failItem(Entry.path(), "cannot open '" + Entry.path().string() + "'");
        continue;
      }
      std::ostringstream SS;
      SS << In.rdbuf();
      // badbit is a real read or allocation failure. failbit alone just
      // means zero characters were inserted — an empty file, which is a
      // legitimate (if doomed) program.
      if (In.bad() || SS.bad()) {
        failItem(Entry.path(),
                 "read error on '" + Entry.path().string() + "'");
        continue;
      }
      Work.push_back({relName(Entry.path()), SS.str(), ""});
    }
    if (EC) {
      failItem(D, "walk of '" + D.string() + "' failed: " + EC.message());
      EC.clear();
    }
  }
  return true;
}

void BatchItemResult::recordMetrics(MetricsRegistry &Reg) const {
  recordPipelineMetrics(Reg, Stats, Analysis,
                        HasRuns ? &ConservativeStats : nullptr,
                        HasRuns ? &AflStats : nullptr, Ok);
}

void BatchResult::recordMetrics(MetricsRegistry &Reg) const {
  // Peak RSS is process-wide (the whole batch shares one address space),
  // so it only makes sense in the aggregate. Read it before the per-item
  // registries below exist.
  uint64_t PeakRssKb = readPeakRssKb();
  Reg.set("files", Items.size());
  Reg.set("ok", NumOk);
  Reg.set("failed", NumFailed);
  Reg.set("threads", Threads);
  Reg.addTime("wall_seconds", WallSeconds);
  // One item's registry at a time: merged into the aggregate (counters
  // and timers add, peaks keep the maximum), then copied under
  // "programs" with its error text, so the batch holds one copy of the
  // per-item metrics.
  for (const BatchItemResult &Item : Items) {
    MetricsRegistry One;
    Item.recordMetrics(One);
    {
      MetricScope Agg(Reg, "aggregate");
      Reg.merge(One);
    }
    MetricScope Programs(Reg, "programs");
    MetricScope S(Reg, Item.Name);
    Reg.merge(One);
    if (!Item.Ok && !Item.Error.empty())
      Reg.setText("error", Item.Error);
  }
  MetricScope Agg(Reg, "aggregate");
  MetricScope Runs(Reg, "runs");
  Reg.set("peak_rss_kb", PeakRssKb);
}

BatchResult driver::runBatch(const std::vector<BatchItem> &Work,
                             const PipelineOptions &Options,
                             unsigned Threads) {
  BatchResult Out;
  Out.Items.resize(Work.size());

  if (Threads == 0)
    Threads = ThreadPool::hardwareThreads();
  Threads = static_cast<unsigned>(
      std::min<size_t>(Threads, std::max<size_t>(Work.size(), 1)));
  Out.Threads = Threads;

  Stopwatch Wall;

  // Each call writes only its own slot of Out.Items, so no further
  // synchronization is needed.
  ThreadPool::global().parallelFor(Work.size(), Threads, [&](size_t I) {
    BatchItemResult &Item = Out.Items[I];
    Item.Name = Work[I].Name;
    if (!Work[I].LoadError.empty()) {
      // Item never loaded: record the loader's error as a failed
      // result; the rest of the batch is unaffected.
      Item.Error = Work[I].LoadError;
      return;
    }
    PipelineResult R = runPipeline(Work[I].Source, Options);
    Item.Ok = R.ok();
    Item.Stats = R.Stats;
    Item.Analysis = R.Analysis;
    if (!R.ok())
      Item.Error = R.Diags.str();
    if (R.Conservative.Ok && R.Afl.Ok) {
      Item.HasRuns = true;
      Item.ConservativeStats = R.Conservative.S;
      Item.AflStats = R.Afl.S;
      Item.ResultText = R.Afl.ResultText;
    }
  });

  Out.WallSeconds = Wall.seconds();
  for (const BatchItemResult &Item : Out.Items)
    ++(Item.Ok ? Out.NumOk : Out.NumFailed);
  return Out;
}
