//===----------------------------------------------------------------------===//
///
/// \file
/// Checks the paper's §6 guarantee — "the memory behavior of a program
/// annotated using our algorithm is never worse than that of the same
/// program annotated using the Tofte/Talpin algorithm" — over a sweep of
/// randomly generated well-typed programs, and reports aggregate
/// improvement factors.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "programs/RandomProgram.h"

#include <cstdio>
#include <cstdlib>

using namespace afl;

int main() {
  const unsigned NumPrograms = 500;
  unsigned Violations = 0;
  unsigned StrictWins = 0;
  double SumRatio = 0;
  unsigned Counted = 0;

  for (unsigned Seed = 0; Seed != NumPrograms; ++Seed) {
    std::string Source = programs::generateRandomProgram(Seed);
    driver::PipelineResult R = driver::runPipeline(Source);
    if (!R.ok()) {
      std::fprintf(stderr, "seed %u: pipeline failed\n%s\n", Seed,
                   R.Diags.str().c_str());
      return 1;
    }
    const interp::Stats &A = R.Afl.S;
    const interp::Stats &T = R.Conservative.S;
    if (A.MaxValues > T.MaxValues || A.MaxRegions > T.MaxRegions ||
        A.FinalValues > T.FinalValues) {
      ++Violations;
      std::fprintf(stderr, "seed %u: A-F-L WORSE than T-T (%llu vs %llu)\n",
                   Seed, (unsigned long long)A.MaxValues,
                   (unsigned long long)T.MaxValues);
    }
    if (A.MaxValues < T.MaxValues)
      ++StrictWins;
    if (T.MaxValues != 0) {
      SumRatio += double(A.MaxValues) / double(T.MaxValues);
      ++Counted;
    }
  }

  std::printf("never-worse sweep over %u random programs\n", NumPrograms);
  std::printf("violations:            %u\n", Violations);
  std::printf("strict improvements:   %u (%.1f%%)\n", StrictWins,
              100.0 * StrictWins / NumPrograms);
  std::printf("mean A-F-L/T-T max-residency ratio: %.3f\n",
              Counted ? SumRatio / Counted : 0.0);
  return Violations == 0 ? 0 : 1;
}
