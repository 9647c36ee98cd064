//===----------------------------------------------------------------------===//
///
/// \file
/// The public pipeline facade: source text → parse → ML types → T-T
/// region inference → {conservative, A-F-L} completions → instrumented
/// runs, whose values must match the reference interpreter's. This is the
/// API examples, tests and benchmarks use. Each stage time is written
/// once, by the code that times it.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_DRIVER_PIPELINE_H
#define AFL_DRIVER_PIPELINE_H

#include "ast/ASTContext.h"
#include "completion/AflCompletion.h"
#include "interp/Interp.h"
#include "interp/RefInterp.h"
#include "regions/Completion.h"
#include "regions/RegionProgram.h"
#include "support/Diagnostics.h"
#include "support/Metrics.h"
#include "types/TypeInference.h"

#include <memory>
#include <string>
#include <string_view>

namespace afl {
namespace driver {

struct PipelineOptions {
  /// Record memory-over-time traces in both runs (Figures 5-8).
  bool RecordTrace = false;
  /// Step limit for each instrumented run.
  uint64_t MaxSteps = 200'000'000;
  /// Skip the three runs (analysis only).
  bool SkipRuns = false;
  /// Choice-point generation switches (ablations).
  constraints::GenOptions GenOptions;
  /// Production solve or the raw oracle (`aflc --no-simplify`).
  solver::SolveOptions SolveOptions;
  /// Closure-analysis fixpoint mode and caps (`aflc --closure-restart`).
  closure::ClosureOptions ClosureOptions;
  /// Evaluator for the instrumented runs (`aflc --interp=vm|tree`).
  /// Both backends are semantics-exact; see docs/VM.md.
  interp::BackendKind Backend = interp::BackendKind::Vm;
};

/// Per-stage observability for one pipeline run: wall-clock time of the
/// stages outside the analysis half, plus the sizes of the intermediate
/// artifacts. Filled unconditionally by runPipeline (stages that did not
/// run stay at zero). The analysis half's times and work counters live in
/// PipelineResult::Analysis; the registry emission (recordMetrics)
/// combines both.
struct PipelineStats {
  /// Wall-clock seconds per stage, in pipeline order.
  double ParseSeconds = 0;
  double TypeInferSeconds = 0;
  double RegionInferSeconds = 0;
  double ConservativeSeconds = 0; ///< conservative (T-T) completion
  double RunConservativeSeconds = 0;
  double RunAflSeconds = 0;
  double RunReferenceSeconds = 0;
  /// VM-backend split of the two completed runs: bytecode compilation vs
  /// execution wall time, summed over both runs. These are sub-splits of
  /// RunConservativeSeconds + RunAflSeconds, not stages of their own;
  /// both stay zero under the tree walker.
  double VmCompileSeconds = 0;
  double VmExecuteSeconds = 0;
  /// Whole-pipeline wall time (≥ the sum of the stage times).
  double TotalSeconds = 0;

  /// Artifact sizes.
  size_t AstNodes = 0;
  size_t RegionNodes = 0;
  size_t RegionVars = 0;
};

/// Everything the pipeline produced. Check ok() before using the later
/// stages; Diags explains failures.
struct PipelineResult {
  DiagnosticEngine Diags;
  std::unique_ptr<ast::ASTContext> Ctx;
  const ast::Expr *Ast = nullptr;
  std::unique_ptr<regions::RegionProgram> Prog;
  regions::Completion ConservativeC;
  regions::Completion AflC;
  completion::AflStats Analysis;
  interp::RunResult Conservative; ///< the T-T baseline run
  interp::RunResult Afl;          ///< the A-F-L run
  interp::RefResult Reference;    ///< oracle value
  PipelineStats Stats;            ///< per-stage timings and sizes

  /// True if all requested stages succeeded.
  bool ok() const { return Ok; }
  bool Ok = false;

  /// Pretty-prints the region program with the conservative completion.
  std::string printConservative() const;
  /// Pretty-prints the region program with the A-F-L completion.
  std::string printAfl() const;

  /// Emits the stage timings, artifact sizes, solver counters and run
  /// metrics into \p Reg under the current scope (schema in
  /// docs/OBSERVABILITY.md).
  void recordMetrics(MetricsRegistry &Reg) const;

  /// Renders the stage timings as a human-readable table (aflc
  /// --timings): recordMetrics, read back by driver::formatTimings.
  std::string formatTimings() const;
};

/// The front half of the pipeline: parse → ML type inference → T-T region
/// inference. Produced by runFrontEnd for the analysis server, which
/// re-runs the front end per edit and then reuses the analysis or runs
/// completion::aflCompletion through its document's shard cache.
struct FrontEnd {
  std::unique_ptr<ast::ASTContext> Ctx;
  const ast::Expr *Ast = nullptr;
  std::unique_ptr<regions::RegionProgram> Prog;

  /// True if all three stages succeeded (diagnostics explain failures).
  bool ok() const { return Prog != nullptr; }
};

/// Runs parse + type inference + region inference on \p Source, reporting
/// failures to \p Diags and writing the three stage times into \p Stats
/// (a stage that did not run keeps its time). On failure the result's
/// later stages are null but earlier artifacts remain inspectable.
FrontEnd runFrontEnd(std::string_view Source, DiagnosticEngine &Diags,
                     PipelineStats &Stats);

/// Runs the full pipeline on \p Source.
PipelineResult runPipeline(std::string_view Source,
                           const PipelineOptions &Options = PipelineOptions());

/// The pipeline's check of its three runs: true when the conservative and
/// A-F-L runs rendered the reference run's value. Otherwise reports a
/// "result mismatch" error naming the three values to \p Diags and
/// returns false.
bool checkRunsAgree(const interp::RunResult &Conservative,
                    const interp::RunResult &Afl,
                    const interp::RefResult &Reference,
                    DiagnosticEngine &Diags);

/// Shared emission routine behind PipelineResult::recordMetrics and the
/// batch items: writes the "ok"/"sizes"/"stages"/"runs" subtree into
/// \p Reg under the current scope. Per-program maxima (the Table 2 peaks,
/// the largest component and shard, the widening bound) are peak leaves,
/// so a merge of several programs' subtrees keeps their maximum.
/// \p ConsRun / \p AflRun may be null when the instrumented runs were
/// skipped (or failed).
void recordPipelineMetrics(MetricsRegistry &Reg, const PipelineStats &Stats,
                           const completion::AflStats &Analysis,
                           const interp::Stats *ConsRun,
                           const interp::Stats *AflRun, bool Ok);

/// Renders the stage-timing table of aflc --timings from the subtree
/// recordPipelineMetrics wrote at \p Scope ('/'-separated path; "" is the
/// root): one program's, or the merge of a batch's ("batch/aggregate").
std::string formatTimings(const MetricsRegistry &Reg, std::string_view Scope);

/// Emits the process-wide arena-pool counters as a "memory" scope under
/// the current registry scope (schema in docs/OBSERVABILITY.md). Shared
/// by single-run, batch, and server metrics emission.
void recordMemoryMetrics(MetricsRegistry &Reg);

} // namespace driver
} // namespace afl

#endif // AFL_DRIVER_PIPELINE_H
