//===----------------------------------------------------------------------===//
///
/// \file
/// region_explorer: an interactive-ish tool for inspecting what the
/// analyses do to a program. Give it source text (or the name of a
/// builtin benchmark) and it prints the T-T annotation, the A-F-L
/// completion, analysis telemetry, and the memory comparison.
///
/// Usage:
///   region_explorer 'letrec fac n = ... in fac 10 end'
///   region_explorer @appel 25          (builtin programs: @appel,
///   region_explorer @quicksort 30       @quicksort, @fib, @randlist,
///   region_explorer @fib 12             @fac, @example11, @example21)
///
//===----------------------------------------------------------------------===//

#include "completion/Report.h"
#include "driver/Pipeline.h"
#include "programs/Corpus.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace afl;

static std::string builtinSource(const std::string &Name, int N) {
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
  std::fprintf(stderr, "unknown builtin '%s'\n", Name.c_str());
  std::exit(1);
}

int main(int Argc, char **Argv) {
  std::string Source;
  if (Argc >= 2 && Argv[1][0] == '@') {
    int N = Argc >= 3 ? std::atoi(Argv[2]) : 10;
    Source = builtinSource(Argv[1], N);
  } else if (Argc >= 2) {
    Source = Argv[1];
  } else {
    Source = programs::example21Source();
    std::printf("(no argument given; using Example 2.1)\n\n");
  }

  driver::PipelineResult R = driver::runPipeline(Source);
  if (!R.ok()) {
    std::fprintf(stderr, "pipeline failed:\n%s\n", R.Diags.str().c_str());
    return 1;
  }

  std::printf("=== source ===\n%s\n\n", Source.c_str());
  std::printf("=== Tofte/Talpin annotation + conservative completion "
              "===\n%s\n",
              R.printConservative().c_str());
  std::printf("=== A-F-L completion ===\n%s\n", R.printAfl().c_str());

  std::printf("=== analysis ===\n");
  std::printf("closure-analysis passes:   %u\n", R.Analysis.Closure.Passes);
  std::printf("abstract closures:         %zu\n",
              R.Analysis.Closure.NumClosures);
  std::printf("(expr, region-env) pairs:  %zu\n", R.Analysis.NumContexts);
  std::printf("state variables:           %zu\n", R.Analysis.NumStateVars);
  std::printf("boolean variables:         %zu\n", R.Analysis.NumBoolVars);
  std::printf("constraints:               %zu\n", R.Analysis.NumConstraints);
  std::printf("solver choices/backtracks: %llu / %llu\n",
              (unsigned long long)R.Analysis.SolverChoices,
              (unsigned long long)R.Analysis.SolverBacktracks);

  std::printf("=== completion report (§7 programmer feedback) ===\n%s\n",
              completion::reportCompletion(*R.Prog, R.AflC).str().c_str());

  std::printf("\n=== memory (T-T vs A-F-L) ===\n");
  std::printf("max regions:  %llu vs %llu\n",
              (unsigned long long)R.Conservative.S.MaxRegions,
              (unsigned long long)R.Afl.S.MaxRegions);
  std::printf("max values:   %llu vs %llu\n",
              (unsigned long long)R.Conservative.S.MaxValues,
              (unsigned long long)R.Afl.S.MaxValues);
  std::printf("final values: %llu vs %llu\n",
              (unsigned long long)R.Conservative.S.FinalValues,
              (unsigned long long)R.Afl.S.FinalValues);
  std::printf("result:       %s\n", R.Afl.ResultText.c_str());
  return 0;
}
