//===----------------------------------------------------------------------===//
///
/// \file
/// Thread-pooled batch execution of the pipeline: run many independent
/// programs concurrently (each on its own ASTContext — no shared mutable
/// state between runs), keep a lightweight per-program summary, and
/// report the aggregate as the merge of the per-program metrics. Backs
/// `aflc --batch` and is the hot path a future service tier will sit on.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_DRIVER_BATCHRUNNER_H
#define AFL_DRIVER_BATCHRUNNER_H

#include "driver/Pipeline.h"

#include <string>
#include <vector>

namespace afl {
namespace driver {

/// One unit of batch work: a named source program. An item whose source
/// could not be loaded carries the loader's error in \c LoadError; the
/// batch records it as a failed result without running the pipeline —
/// per-item isolation covers I/O failures, not just pipeline failures.
struct BatchItem {
  std::string Name;
  std::string Source;
  std::string LoadError;
};

/// Summary of one pipeline run inside a batch. Deliberately does not
/// retain the PipelineResult itself (AST, region program, traces), so a
/// large corpus stays memory-bounded.
struct BatchItemResult {
  std::string Name;
  bool Ok = false;
  /// Rendered diagnostics when !Ok.
  std::string Error;
  /// A-F-L run result value (empty when runs were skipped).
  std::string ResultText;
  PipelineStats Stats;
  completion::AflStats Analysis;
  bool HasRuns = false;
  interp::Stats ConservativeStats;
  interp::Stats AflStats;

  /// Emits this item's pipeline metrics (same schema as
  /// PipelineResult::recordMetrics; the batch adds the error text).
  void recordMetrics(MetricsRegistry &Reg) const;
};

/// The whole batch: per-item summaries, in input order.
struct BatchResult {
  std::vector<BatchItemResult> Items;
  size_t NumOk = 0;
  size_t NumFailed = 0;
  /// Number of worker threads actually used.
  unsigned Threads = 0;
  /// End-to-end wall time of the batch (not the sum of per-item times).
  double WallSeconds = 0;

  /// True when every item succeeded.
  bool allOk() const { return NumFailed == 0; }

  /// Emits "files"/"ok"/"failed"/"threads"/"wall_seconds", an
  /// "aggregate" scope that is the merge of every item's metrics (plus
  /// the process's peak RSS), and one scope per item under "programs".
  void recordMetrics(MetricsRegistry &Reg) const;
};

/// Walks \p Dir recursively and appends every `.afl` file to \p Work as
/// a batch item. Fault-tolerant by construction: every filesystem
/// operation goes through the `error_code` overloads, so a
/// permission-denied subdirectory, a dangling symlink, or a file that
/// fails mid-read becomes a failed item (\c LoadError set) and the walk
/// continues with the remaining entries — one bad entry cannot abort
/// (or throw out of) the whole batch. Returns false only when \p Dir
/// itself cannot be opened, with \p Error holding a rendered message.
/// Item order follows directory iteration order, which is unspecified;
/// callers sort.
bool collectBatchItems(const std::string &Dir, std::vector<BatchItem> &Work,
                       std::string &Error);

/// Runs the pipeline over every item with \p Threads workers
/// (0 = hardware concurrency). Results are deterministic and ordered:
/// Items[i] always describes Work[i], whatever the schedule. Each run
/// gets its own ASTContext/arena, so workers share nothing.
BatchResult runBatch(const std::vector<BatchItem> &Work,
                     const PipelineOptions &Options = PipelineOptions(),
                     unsigned Threads = 0);

} // namespace driver
} // namespace afl

#endif // AFL_DRIVER_BATCHRUNNER_H
