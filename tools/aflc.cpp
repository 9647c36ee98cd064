//===----------------------------------------------------------------------===//
///
/// \file
/// aflc — the command-line driver for the aflregion pipeline.
///
/// Usage:
///   aflc [options] '<program text>'
///   aflc [options] -f program.ml
///   aflc [options] @appel 25            (builtin corpus programs)
///
/// Options:
///   --emit=afl|tt|both   print the completed program(s) (default: afl)
///   --report             print the completion report (§7 feedback)
///   --stats              print the five Table 2 metrics for both systems
///   --trace=FILE         write the memory-over-time CSV traces to FILE
///   --validate           run the structural validators and report
///   --no-freeapp         ablation: disable free_app choice points
///   --lexical-alloc      ablation: allocation only at letregion entry
///   --lexical-free       ablation: deallocation only at letregion exit
///   --closure-restart    reference closure fixpoint: whole-program
///                        restart passes instead of the worklist
///   --no-simplify        oracle: solve the raw constraint system
///                        (no per-shard simplification)
///   --closure-widen[=K]  k-limit closure contexts: canonically merge
///                        abstract region environments that agree on
///                        the consumer-visible regions once a closure
///                        exceeds K invisible color classes (bare
///                        flag: K=8; 0 or absent: exact analysis)
///   --interp=vm|tree     evaluator for the instrumented runs: bytecode
///                        VM (default) or the Fig. 2 tree walker
///   --no-run             analysis only (skip the instrumented runs)
///   --timings            print the per-stage wall-time table
///   --metrics[=FILE]     emit per-stage metrics as JSON (stdout or FILE)
///   --batch DIR          run every .afl file under DIR (thread-pooled)
///   -j N                 worker threads for --batch (default: all cores)
///   --serve              incremental analysis server: newline-delimited
///                        JSON requests on stdin, responses on stdout
///                        (protocol in docs/SERVER.md); it always runs
///                        the default pipeline, so the ablation, oracle,
///                        widening and --interp flags are usage errors
///                        with --serve or --listen
///
/// aflc reads no environment variables: command-line flags are the only
/// configuration.
///
//===----------------------------------------------------------------------===//

#include "closure/ClosureAnalysis.h"
#include "completion/Report.h"
#include "constraints/ConstraintPrinter.h"
#include "driver/BatchRunner.h"
#include "driver/Pipeline.h"
#include "driver/Server.h"
#include "interp/Interp.h"
#include "programs/Corpus.h"
#include "regions/RegionPrinter.h"
#include "regions/Validator.h"
#include "support/CliParse.h"
#include "support/FileIO.h"

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace afl;

namespace {

/// Version of the `--metrics` JSON schema: bumped whenever a key is
/// removed or changes meaning, or a counter is added whose absence a
/// reader could take for 0 (docs/OBSERVABILITY.md).
constexpr unsigned MetricsSchemaVersion = 5;

void usage() {
  std::fprintf(
      stderr,
      "usage: aflc [options] '<program>' | -f FILE | @builtin [N]\n"
      "  --emit=afl|tt|both  print completed program(s)\n"
      "  --report            completion report\n"
      "  --stats             memory metrics for both systems\n"
      "  --trace=FILE        write CSV traces\n"
      "  --validate          run structural validators\n"
      "  --no-freeapp --lexical-alloc --lexical-free   ablations\n"
      "  --closure-restart   reference closure fixpoint (restart mode)\n"
      "  --no-simplify       solve the raw constraint system (oracle)\n"
      "  --closure-widen[=K] merge closure contexts past K invisible\n"
      "                      color classes (bare: K=8; default 0 = off)\n"
      "  --dump-constraints  print the generated constraint system\n"
      "  --interp=vm|tree    evaluator for the runs (default: vm)\n"
      "  --no-run            skip instrumented runs\n"
      "  --timings           per-stage wall-time table\n"
      "  --metrics[=FILE]    per-stage metrics as JSON\n"
      "  --batch DIR [-j N]  run every .afl file under DIR concurrently\n"
      "  --serve             incremental analysis server on stdin/stdout\n"
      "                      (default pipeline only: refuses the ablation,\n"
      "                      oracle, --closure-widen and --interp flags)\n"
      "  --listen PORT       serve on 127.0.0.1:PORT instead (0 = ephemeral;\n"
      "                      implies --serve; prints the bound port on stderr)\n"
      "  --max-connections N concurrent-connection cap in listen mode "
      "(default 8)\n"
      "  --idle-timeout SECS close idle connections after SECS (0 = never;\n"
      "                      default 300)\n");
}

/// Strictly parses the numeric argument \p Text of \p Flag. Anything
/// other than a plain base-10 unsigned integer ("bogus", "1x", "-3",
/// "") is a usage error: print a diagnostic + usage and exit 2.
unsigned parseJobsArg(const char *Flag, const char *Text) {
  unsigned Value = 0;
  if (!parseCliUnsigned(Text, Value)) {
    std::fprintf(stderr,
                 "aflc: invalid value '%s' for %s (expected a "
                 "non-negative integer)\n",
                 Text, Flag);
    usage();
    std::exit(2);
  }
  return Value;
}

/// Strictly parses the backend name of --interp=: a typo ("v", "treee")
/// is a usage error, not a silent fallback to the VM.
interp::BackendKind parseInterpArg(const char *Text) {
  interp::BackendKind B = interp::BackendKind::Vm;
  if (!interp::parseBackendName(Text, B)) {
    std::fprintf(stderr,
                 "aflc: invalid value '%s' for --interp (expected 'vm' or "
                 "'tree')\n",
                 Text);
    usage();
    std::exit(2);
  }
  return B;
}

std::string builtinSource(const std::string &Name, int N) {
  if (Name == "@appel")
    return programs::appelSource(N);
  if (Name == "@quicksort")
    return programs::quicksortSource(N);
  if (Name == "@fib")
    return programs::fibSource(N);
  if (Name == "@randlist")
    return programs::randlistSource(N);
  if (Name == "@fac")
    return programs::facSource(N);
  if (Name == "@example11")
    return programs::example11Source();
  if (Name == "@example21")
    return programs::example21Source();
  std::fprintf(stderr, "aflc: unknown builtin '%s'\n", Name.c_str());
  std::exit(1);
}

/// Writes \p Json to \p File ("" or "-" = stdout). Returns false on I/O
/// failure.
bool emitJson(const std::string &File, const std::string &Json) {
  if (File.empty() || File == "-") {
    std::fputs(Json.c_str(), stdout);
    return true;
  }
  std::string Err;
  if (!writeTextFile(File, Json, Err)) {
    std::fprintf(stderr, "aflc: %s\n", Err.c_str());
    return false;
  }
  std::fprintf(stderr, "aflc: wrote metrics to %s\n", File.c_str());
  return true;
}

/// Runs every .afl file under \p Dir through the thread-pooled batch
/// runner and prints a per-file summary plus the aggregate breakdown.
int runBatchMode(const std::string &Dir, const driver::PipelineOptions &Options,
                 unsigned Threads, bool Timings, bool Metrics,
                 const std::string &MetricsFile) {
  // The walk is fault-tolerant (driver::collectBatchItems): unreadable
  // subdirectories, dangling symlinks, and files that fail mid-read
  // become failed batch items — visible in the summary and the metrics
  // JSON — while the rest of the batch still runs. Only an unreadable
  // root directory aborts the batch.
  std::vector<driver::BatchItem> Work;
  std::string Error;
  if (!driver::collectBatchItems(Dir, Work, Error)) {
    std::fprintf(stderr, "aflc: %s\n", Error.c_str());
    return 1;
  }
  if (Work.empty()) {
    std::fprintf(stderr, "aflc: no .afl files under '%s'\n", Dir.c_str());
    return 1;
  }
  // Directory iteration order is unspecified; sort for stable output.
  std::sort(Work.begin(), Work.end(),
            [](const driver::BatchItem &A, const driver::BatchItem &B) {
              return A.Name < B.Name;
            });

  driver::BatchResult Batch = driver::runBatch(Work, Options, Threads);

  std::printf("%-32s %6s %12s %10s  %s\n", "program", "status", "max values",
              "time", "result");
  double CpuSeconds = 0;
  for (const driver::BatchItemResult &Item : Batch.Items) {
    CpuSeconds += Item.Stats.TotalSeconds;
    if (Item.Ok)
      std::printf("%-32s %6s %12llu %8.1fms  %s\n", Item.Name.c_str(), "ok",
                  (unsigned long long)Item.AflStats.MaxValues,
                  Item.Stats.TotalSeconds * 1e3, Item.ResultText.c_str());
    else {
      // Diagnostics arrive newline-terminated; trim so the row stays one line.
      std::string Err = Item.Error;
      while (!Err.empty() && (Err.back() == '\n' || Err.back() == '\r'))
        Err.pop_back();
      std::printf("%-32s %6s %12s %8.1fms  %s\n", Item.Name.c_str(), "FAIL",
                  "-", Item.Stats.TotalSeconds * 1e3, Err.c_str());
    }
  }
  std::printf("batch: %zu/%zu ok on %u thread(s), wall %.1fms "
              "(cpu %.1fms, speedup %.2fx)\n",
              Batch.NumOk, Batch.Items.size(), Batch.Threads,
              Batch.WallSeconds * 1e3, CpuSeconds * 1e3,
              Batch.WallSeconds > 0 ? CpuSeconds / Batch.WallSeconds : 0.0);
  if (!Timings && !Metrics)
    return Batch.allOk() ? 0 : 1;

  // --timings renders the same aggregate the JSON reports.
  MetricsRegistry Reg;
  Reg.set("aflc_metrics_version", MetricsSchemaVersion);
  {
    MetricScope S(Reg, "batch");
    Batch.recordMetrics(Reg);
  }
  if (Timings) {
    std::printf("\naggregate stage breakdown (cpu time over %zu file(s)):\n",
                Batch.Items.size());
    std::fputs(driver::formatTimings(Reg, "batch/aggregate").c_str(), stdout);
  }
  if (Metrics) {
    driver::recordMemoryMetrics(Reg);
    if (!emitJson(MetricsFile, Reg.json()))
      return 1;
  }
  return Batch.allOk() ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Emit = "afl";
  bool Report = false, Stats = false, Validate = false, NoRun = false;
  bool DumpConstraints = false, Timings = false, Metrics = false;
  bool Serve = false;
  bool Listen = false;
  driver::ServeOptions ServeOpts;
  std::string TraceFile, MetricsFile, BatchDir;
  unsigned Threads = 0;
  std::string Source;
  constraints::GenOptions Gen;
  solver::SolveOptions Solve;
  closure::ClosureOptions Closure;
  interp::BackendKind Backend = interp::BackendKind::Vm;
  // The first flag that configures the one-shot/batch pipeline; the
  // server does not take PipelineOptions, so with --serve it is refused.
  std::string PipelineFlag;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (PipelineFlag.empty() &&
        (Arg.rfind("--interp=", 0) == 0 || Arg == "--no-simplify" ||
         Arg.rfind("--closure-widen", 0) == 0 || Arg == "--closure-restart" ||
         Arg == "--no-freeapp" || Arg == "--lexical-alloc" ||
         Arg == "--lexical-free"))
      PipelineFlag = Arg;
    if (Arg.rfind("--emit=", 0) == 0) {
      Emit = Arg.substr(7);
      if (Emit != "afl" && Emit != "tt" && Emit != "both") {
        usage();
        return 2;
      }
    } else if (Arg == "--report") {
      Report = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--validate") {
      Validate = true;
    } else if (Arg.rfind("--interp=", 0) == 0) {
      Backend = parseInterpArg(Arg.c_str() + 9);
    } else if (Arg == "--no-run") {
      NoRun = true;
    } else if (Arg == "--serve") {
      Serve = true;
    } else if (Arg == "--listen") {
      if (++I >= Argc) {
        usage();
        return 2;
      }
      unsigned Port = parseJobsArg("--listen", Argv[I]);
      if (Port > 65535) {
        std::fprintf(stderr,
                     "aflc: invalid value '%s' for --listen (expected a "
                     "port in [0, 65535])\n",
                     Argv[I]);
        usage();
        return 2;
      }
      ServeOpts.Port = static_cast<uint16_t>(Port);
      Serve = Listen = true;
    } else if (Arg == "--max-connections") {
      if (++I >= Argc) {
        usage();
        return 2;
      }
      unsigned N = parseJobsArg("--max-connections", Argv[I]);
      if (N == 0) {
        std::fprintf(stderr, "aflc: --max-connections must be at least 1\n");
        usage();
        return 2;
      }
      ServeOpts.MaxConnections = N;
    } else if (Arg == "--idle-timeout") {
      if (++I >= Argc) {
        usage();
        return 2;
      }
      ServeOpts.IdleTimeoutMs =
          parseJobsArg("--idle-timeout", Argv[I]) * 1000u;
    } else if (Arg == "--dump-constraints") {
      DumpConstraints = true;
    } else if (Arg.rfind("--trace=", 0) == 0) {
      TraceFile = Arg.substr(8);
    } else if (Arg == "--timings") {
      Timings = true;
    } else if (Arg == "--metrics") {
      Metrics = true;
    } else if (Arg.rfind("--metrics=", 0) == 0) {
      Metrics = true;
      MetricsFile = Arg.substr(10);
    } else if (Arg == "--batch") {
      if (++I >= Argc) {
        usage();
        return 2;
      }
      BatchDir = Argv[I];
    } else if (Arg == "-j") {
      if (++I >= Argc) {
        usage();
        return 2;
      }
      Threads = parseJobsArg("-j", Argv[I]);
    } else if (Arg.rfind("-j", 0) == 0 && Arg.size() > 2) {
      Threads = parseJobsArg("-j", Arg.c_str() + 2);
    } else if (Arg == "--no-simplify") {
      Solve.Simplify = false;
    } else if (Arg == "--closure-widen") {
      Closure.Widening = 8;
    } else if (Arg.rfind("--closure-widen=", 0) == 0) {
      Closure.Widening = parseJobsArg("--closure-widen", Arg.c_str() + 16);
    } else if (Arg == "--closure-restart") {
      Closure.UseWorklist = false;
    } else if (Arg == "--no-freeapp") {
      Gen.FreeApp = false;
    } else if (Arg == "--lexical-alloc") {
      Gen.LateAlloc = false;
    } else if (Arg == "--lexical-free") {
      Gen.EarlyFree = false;
    } else if (Arg == "-f") {
      if (++I >= Argc) {
        usage();
        return 2;
      }
      std::ifstream In(Argv[I]);
      if (!In) {
        std::fprintf(stderr, "aflc: cannot open '%s'\n", Argv[I]);
        return 1;
      }
      std::ostringstream SS;
      SS << In.rdbuf();
      Source = SS.str();
    } else if (!Arg.empty() && Arg[0] == '@') {
      int N = 10;
      if (I + 1 < Argc &&
          isdigit(static_cast<unsigned char>(Argv[I + 1][0]))) {
        // Looks numeric, so it must parse cleanly ("2x" is an error,
        // not silently 2).
        N = static_cast<int>(parseJobsArg(Arg.c_str(), Argv[++I]));
      }
      Source = builtinSource(Arg, N);
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (Arg.rfind("--", 0) == 0) {
      // No program text starts with "--" (the lexer wants an integer
      // literal after unary minus), so this is a mistyped or retired
      // flag: refuse it rather than run with the default.
      std::fprintf(stderr, "aflc: unknown option '%s'\n", Arg.c_str());
      usage();
      return 2;
    } else {
      Source = Arg;
    }
  }
  if (Serve && !PipelineFlag.empty()) {
    std::fprintf(stderr,
                 "aflc: '%s' is not supported with --serve or --listen (the "
                 "server always runs the default pipeline)\n",
                 PipelineFlag.c_str());
    usage();
    return 2;
  }

  driver::PipelineOptions Options;
  Options.SkipRuns = NoRun;
  Options.RecordTrace = !TraceFile.empty();
  Options.GenOptions = Gen;
  Options.SolveOptions = Solve;
  Options.ClosureOptions = Closure;
  Options.Backend = Backend;

  if (Serve) {
    driver::Server S;
    if (!Listen) {
      // Unsynced with stdio, std::cin reads what the pipe holds in one
      // read(2) and reports it through in_avail, so Server::run takes
      // whole chunks rather than one byte per call.
      std::ios::sync_with_stdio(false);
      return S.run(std::cin, std::cout);
    }
    std::string Error;
    if (!S.listen(ServeOpts, Error)) {
      std::fprintf(stderr, "aflc: cannot listen on port %u: %s\n",
                   static_cast<unsigned>(ServeOpts.Port), Error.c_str());
      return 1;
    }
    // Machine-readable bind line (tools/serve_smoke.py parses it; also
    // how humans learn the ephemeral port --listen 0 picked).
    std::fprintf(stderr, "aflc: serving on 127.0.0.1:%u\n",
                 static_cast<unsigned>(S.port()));
    std::fflush(stderr);
    return S.serve();
  }

  if (!BatchDir.empty())
    return runBatchMode(BatchDir, Options, Threads, Timings, Metrics,
                        MetricsFile);

  if (Source.empty()) {
    usage();
    return 2;
  }

  driver::PipelineResult R = driver::runPipeline(Source, Options);
  if (!R.ok()) {
    std::fprintf(stderr, "aflc: pipeline failed:\n%s", R.Diags.str().c_str());
    return 1;
  }

  if (Emit == "tt" || Emit == "both")
    std::printf("=== Tofte/Talpin ===\n%s\n", R.printConservative().c_str());
  if (Emit == "afl" || Emit == "both")
    std::printf("=== A-F-L ===\n%s\n", R.printAfl().c_str());

  if (Validate) {
    std::vector<std::string> E1 = regions::validateRegionProgram(*R.Prog);
    std::vector<std::string> E2 = regions::validateCompletion(*R.Prog, R.AflC);
    std::vector<std::string> E3 =
        regions::validateCompletion(*R.Prog, R.ConservativeC);
    size_t Total = E1.size() + E2.size() + E3.size();
    std::printf("validation: %zu issue(s)\n", Total);
    for (const auto *Set : {&E1, &E2, &E3})
      for (const std::string &Message : *Set)
        std::printf("  %s\n", Message.c_str());
    if (Total)
      return 1;
  }

  if (Report)
    std::printf("%s", completion::reportCompletion(*R.Prog, R.AflC)
                          .str()
                          .c_str());

  if (DumpConstraints) {
    closure::ClosureAnalysis CA(*R.Prog, Closure);
    if (!CA.run()) {
      std::fprintf(stderr, "aflc: %s\n", CA.error().c_str());
      return 1;
    }
    constraints::GenResult DGen =
        constraints::generateConstraints(*R.Prog, CA, Gen);
    std::printf("%s", constraints::dumpSystem(DGen).c_str());
  }

  if (Stats && !NoRun) {
    std::printf("%-28s %12s %12s\n", "metric", "T-T", "A-F-L");
    auto Row = [](const char *Name, uint64_t T, uint64_t A) {
      std::printf("%-28s %12llu %12llu\n", Name, (unsigned long long)T,
                  (unsigned long long)A);
    };
    Row("max regions", R.Conservative.S.MaxRegions, R.Afl.S.MaxRegions);
    Row("region allocations", R.Conservative.S.TotalRegionAllocs,
        R.Afl.S.TotalRegionAllocs);
    Row("value allocations", R.Conservative.S.TotalValueAllocs,
        R.Afl.S.TotalValueAllocs);
    Row("max values held", R.Conservative.S.MaxValues, R.Afl.S.MaxValues);
    Row("final values", R.Conservative.S.FinalValues, R.Afl.S.FinalValues);
    std::printf("result: %s\n", R.Afl.ResultText.c_str());
  }

  if (Timings)
    std::fputs(R.formatTimings().c_str(), stdout);

  if (Metrics) {
    MetricsRegistry Reg;
    Reg.set("aflc_metrics_version", MetricsSchemaVersion);
    {
      MetricScope S(Reg, "pipeline");
      R.recordMetrics(Reg);
      // Single-run process, so the process-wide peak RSS is this
      // pipeline's memory profile (batch mode reports it per batch).
      MetricScope Runs(Reg, "runs");
      Reg.set("peak_rss_kb", readPeakRssKb());
    }
    driver::recordMemoryMetrics(Reg);
    if (!emitJson(MetricsFile, Reg.json()))
      return 1;
  }

  if (!TraceFile.empty() && !NoRun) {
    std::ofstream Out(TraceFile);
    if (!Out) {
      std::fprintf(stderr, "aflc: cannot write '%s'\n", TraceFile.c_str());
      return 1;
    }
    Out << "series,time,values\n";
    for (const interp::TracePoint &P : R.Conservative.Trace)
      Out << "Tofte/Talpin," << P.Time << ',' << P.ValuesHeld << '\n';
    for (const interp::TracePoint &P : R.Afl.Trace)
      Out << "A-F-L," << P.Time << ',' << P.ValuesHeld << '\n';
    std::fprintf(stderr, "aflc: wrote traces to %s\n", TraceFile.c_str());
  }
  return 0;
}
