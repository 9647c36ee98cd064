// Golden identity test for region inference. Every user-visible artifact
// derived from the inferred region program — the printed program under
// the conservative and the A-F-L completion, the completion report, the
// generated constraint system (where overall effects and free-region sets
// surface), and the node / region-variable counts — is folded into one
// 64-bit digest per program and compared against the digests recorded in
// RegionGoldenDigests.inc. A change to the region layer's data structures
// must leave every digest unchanged.
//
// A second table, RegionGoldenAblationDigests.inc, pins the generated
// constraint system under the §4.2 ablations (no free_app, lexical
// allocation, lexical deallocation, and all three at once) for the
// corpus and the first 100 random seeds: the ablations decide which
// chain positions get a choice point, which the default table never
// exercises.
//
// To re-record after an intended output change, run
//   afl_tests --gtest_also_run_disabled_tests
//             --gtest_filter=RegionGolden.DISABLED_Print*
// and replace RegionGoldenDigests.inc (PrintDigests) and
// RegionGoldenAblationDigests.inc (PrintAblationDigests) with the
// printed tables.

#include "closure/ClosureAnalysis.h"
#include "completion/Report.h"
#include "constraints/ConstraintGen.h"
#include "constraints/ConstraintPrinter.h"
#include "driver/Pipeline.h"
#include "programs/Corpus.h"
#include "programs/RandomProgram.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

using namespace afl;

namespace {

struct GoldenDigest {
  const char *Label;
  uint64_t Digest;
};

const GoldenDigest Recorded[] = {
#include "RegionGoldenDigests.inc"
};

/// Number of ablated generator configurations in the second table.
constexpr size_t NumAblations = 4;

struct AblationDigest {
  const char *Label;
  /// dumpSystem digests under ablationOptions(0..3).
  uint64_t Digests[NumAblations];
};

const AblationDigest RecordedAblations[] = {
#include "RegionGoldenAblationDigests.inc"
};

/// The ablated configurations: each `aflc` ablation flag alone
/// (--no-freeapp, --lexical-alloc, --lexical-free), then all three.
constraints::GenOptions ablationOptions(size_t I) {
  constraints::GenOptions O;
  O.FreeApp = I != 0 && I != 3;
  O.LateAlloc = I != 1 && I != 3;
  O.EarlyFree = I != 2 && I != 3;
  return O;
}

struct GoldenProgram {
  std::string Label;
  std::string Source;
};

/// The Table 2 and small corpora.
void addCorpus(std::vector<GoldenProgram> &Out) {
  for (const programs::BenchProgram &P : programs::table2Corpus())
    Out.push_back({"table2 " + P.Name, P.Source});
  for (const programs::BenchProgram &P : programs::smallCorpus())
    Out.push_back({"small " + P.Name, P.Source});
}

/// Seeded random programs 0..\p N-1, split evenly over first-order,
/// higher-order and nested-HOF shapes.
void addSeeds(std::vector<GoldenProgram> &Out, unsigned N) {
  for (unsigned Seed = 0; Seed != N; ++Seed) {
    programs::RandomProgramOptions Options;
    Options.MaxDepth = 5 + Seed % 4;
    Options.HigherOrder = Seed % 3 != 0;
    Options.NestedHof = Seed % 3 == 2;
    Out.push_back({"seed " + std::to_string(Seed),
                   programs::generateRandomProgram(Seed, Options)});
  }
}

/// The corpus, the scaled builtins, and 500 seeded random programs.
std::vector<GoldenProgram> goldenPrograms() {
  std::vector<GoldenProgram> Out;
  addCorpus(Out);
  Out.push_back({"@appel 20", programs::appelSource(20)});
  Out.push_back({"@quicksort 12", programs::quicksortSource(12)});
  Out.push_back({"@quicksort 300", programs::quicksortSource(300)});
  Out.push_back({"@fib 10", programs::fibSource(10)});
  Out.push_back({"@randlist 12", programs::randlistSource(12)});
  Out.push_back({"@fac 8", programs::facSource(8)});
  Out.push_back({"@example11", programs::example11Source()});
  Out.push_back({"@example21", programs::example21Source()});
  Out.push_back({"perm 3 3", programs::permSource(3, 3)});
  addSeeds(Out, 500);
  return Out;
}

/// The ablation table's programs: the corpus and seeds 0..99.
std::vector<GoldenProgram> ablationPrograms() {
  std::vector<GoldenProgram> Out;
  addCorpus(Out);
  addSeeds(Out, 100);
  return Out;
}

uint64_t fnv1a(uint64_t H, const std::string &S) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  // Field separator, so that moving text between fields changes the hash.
  H ^= 0x1f;
  H *= 0x100000001b3ull;
  return H;
}

/// Digest of everything the region layer makes visible for \p Source.
uint64_t digestOf(const std::string &Source, const std::string &Label) {
  driver::PipelineOptions Options;
  Options.SkipRuns = true;
  driver::PipelineResult R = driver::runPipeline(Source, Options);
  EXPECT_TRUE(R.ok()) << Label;
  if (!R.Prog)
    return 0;
  closure::ClosureAnalysis CA(*R.Prog);
  EXPECT_TRUE(CA.run()) << Label << ": " << CA.error();
  constraints::GenResult Gen = constraints::generateConstraints(*R.Prog, CA);

  uint64_t H = 0xcbf29ce484222325ull;
  H = fnv1a(H, std::to_string(R.Prog->numNodes()) + "/" +
                   std::to_string(R.Prog->Types.numRegionVars()) + "/" +
                   std::to_string(R.Prog->Types.numEffectVars()));
  H = fnv1a(H, R.printConservative());
  H = fnv1a(H, R.printAfl());
  H = fnv1a(H, completion::reportCompletion(*R.Prog, R.AflC).str());
  H = fnv1a(H, constraints::dumpSystem(Gen));
  return H;
}

/// dumpSystem digests of \p Source under each ablated configuration.
std::vector<uint64_t> ablationDigestsOf(const std::string &Source,
                                        const std::string &Label) {
  driver::PipelineOptions Options;
  Options.SkipRuns = true;
  driver::PipelineResult R = driver::runPipeline(Source, Options);
  EXPECT_TRUE(R.ok()) << Label;
  if (!R.Prog)
    return std::vector<uint64_t>(NumAblations, 0);
  closure::ClosureAnalysis CA(*R.Prog);
  EXPECT_TRUE(CA.run()) << Label << ": " << CA.error();
  std::vector<uint64_t> Out;
  for (size_t I = 0; I != NumAblations; ++I) {
    constraints::GenResult Gen =
        constraints::generateConstraints(*R.Prog, CA, ablationOptions(I));
    Out.push_back(fnv1a(0xcbf29ce484222325ull, constraints::dumpSystem(Gen)));
  }
  return Out;
}

TEST(RegionGolden, DigestsMatchRecorded) {
  std::vector<GoldenProgram> Programs = goldenPrograms();
  ASSERT_EQ(Programs.size(), std::size(Recorded));
  for (size_t I = 0; I != Programs.size(); ++I) {
    ASSERT_EQ(Programs[I].Label, Recorded[I].Label);
    uint64_t D = digestOf(Programs[I].Source, Programs[I].Label);
    EXPECT_EQ(D, Recorded[I].Digest)
        << Programs[I].Label << ": region-layer output changed";
  }
}

TEST(RegionGolden, AblationDigestsMatchRecorded) {
  std::vector<GoldenProgram> Programs = ablationPrograms();
  ASSERT_EQ(Programs.size(), std::size(RecordedAblations));
  for (size_t I = 0; I != Programs.size(); ++I) {
    ASSERT_EQ(Programs[I].Label, RecordedAblations[I].Label);
    std::vector<uint64_t> D =
        ablationDigestsOf(Programs[I].Source, Programs[I].Label);
    for (size_t A = 0; A != NumAblations; ++A)
      EXPECT_EQ(D[A], RecordedAblations[I].Digests[A])
          << Programs[I].Label << ", ablation " << A
          << ": generated system changed";
  }
}

TEST(RegionGolden, DISABLED_PrintDigests) {
  for (const GoldenProgram &P : goldenPrograms())
    std::printf("{\"%s\", 0x%016" PRIx64 "ull},\n", P.Label.c_str(),
                digestOf(P.Source, P.Label));
}

TEST(RegionGolden, DISABLED_PrintAblationDigests) {
  for (const GoldenProgram &P : ablationPrograms()) {
    std::vector<uint64_t> D = ablationDigestsOf(P.Source, P.Label);
    std::printf("{\"%s\", {0x%016" PRIx64 "ull, 0x%016" PRIx64
                "ull, 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull}},\n",
                P.Label.c_str(), D[0], D[1], D[2], D[3]);
  }
}

} // namespace
