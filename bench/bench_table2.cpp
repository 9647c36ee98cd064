//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces Table 2 of the paper: five memory metrics for each of
/// Appel(100), Quicksort(500), Fibonacci(6), Randlist(25) and Fac(10),
/// under the A-F-L completion and the Tofte/Talpin (conservative)
/// baseline.
///
/// Expected shape (paper Table 2): A-F-L ≤ T-T everywhere; asymptotic gap
/// on Appel ((1) and (4)); identical row (3) (value allocations are not
/// affected by completion placement); A-F-L row (5) is tiny (only the
/// observable result stays resident).
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "programs/Corpus.h"

#include <cstdio>
#include <cstdlib>

using namespace afl;

int main() {
  std::printf("Table 2 — summary of results (A-F-L vs Tofte/Talpin)\n");
  std::printf("(1) max regions allocated  (2) total region allocations\n");
  std::printf("(3) total value allocations  (4) max storable values held\n");
  std::printf("(5) values stored in final memory\n\n");
  std::printf("%-16s %22s %22s %22s %22s %22s\n", "", "(1)", "(2)", "(3)",
              "(4)", "(5)");
  std::printf("%-16s %10s %11s %10s %11s %10s %11s %10s %11s %10s %11s\n",
              "program", "A-F-L", "T-T", "A-F-L", "T-T", "A-F-L", "T-T",
              "A-F-L", "T-T", "A-F-L", "T-T");

  for (const programs::BenchProgram &P : programs::table2Corpus()) {
    driver::PipelineResult R = driver::runPipeline(P.Source);
    if (!R.ok()) {
      std::fprintf(stderr, "%s failed:\n%s\n", P.Name.c_str(),
                   R.Diags.str().c_str());
      return 1;
    }
    const interp::Stats &A = R.Afl.S;
    const interp::Stats &T = R.Conservative.S;
    std::printf(
        "%-16s %10llu %11llu %10llu %11llu %10llu %11llu %10llu %11llu "
        "%10llu %11llu\n",
        P.Name.c_str(), (unsigned long long)A.MaxRegions,
        (unsigned long long)T.MaxRegions,
        (unsigned long long)A.TotalRegionAllocs,
        (unsigned long long)T.TotalRegionAllocs,
        (unsigned long long)A.TotalValueAllocs,
        (unsigned long long)T.TotalValueAllocs,
        (unsigned long long)A.MaxValues, (unsigned long long)T.MaxValues,
        (unsigned long long)A.FinalValues,
        (unsigned long long)T.FinalValues);
  }
  return 0;
}
