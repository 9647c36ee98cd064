// Golden identity test for region inference. Every user-visible artifact
// derived from the inferred region program — the printed program under
// the conservative and the A-F-L completion, the completion report, the
// generated constraint system (where overall effects and free-region sets
// surface), and the node / region-variable counts — is folded into one
// 64-bit digest per program and compared against the digests recorded in
// RegionGoldenDigests.inc. A change to the region layer's data structures
// must leave every digest unchanged.
//
// To re-record after an intended output change, run
//   afl_tests --gtest_also_run_disabled_tests
//             --gtest_filter=RegionGolden.DISABLED_PrintDigests
// and replace RegionGoldenDigests.inc with the printed table.

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

struct GoldenProgram {
  std::string Label;
  std::string Source;
};

/// The corpus, the scaled builtins, and 500 seeded random programs split
/// evenly over first-order, higher-order and nested-HOF shapes.
std::vector<GoldenProgram> goldenPrograms() {
  std::vector<GoldenProgram> Out;
  for (const programs::BenchProgram &P : programs::table2Corpus())
    Out.push_back({"table2 " + P.Name, P.Source});
  for (const programs::BenchProgram &P : programs::smallCorpus())
    Out.push_back({"small " + P.Name, P.Source});
  Out.push_back({"@appel 20", programs::appelSource(20)});
  Out.push_back({"@quicksort 12", programs::quicksortSource(12)});
  Out.push_back({"@quicksort 300", programs::quicksortSource(300)});
  Out.push_back({"@fib 10", programs::fibSource(10)});
  Out.push_back({"@randlist 12", programs::randlistSource(12)});
  Out.push_back({"@fac 8", programs::facSource(8)});
  Out.push_back({"@example11", programs::example11Source()});
  Out.push_back({"@example21", programs::example21Source()});
  Out.push_back({"perm 3 3", programs::permSource(3, 3)});
  for (unsigned Seed = 0; Seed != 500; ++Seed) {
    programs::RandomProgramOptions Options;
    Options.MaxDepth = 5 + Seed % 4;
    Options.HigherOrder = Seed % 3 != 0;
    Options.NestedHof = Seed % 3 == 2;
    Out.push_back({"seed " + std::to_string(Seed),
                   programs::generateRandomProgram(Seed, Options)});
  }
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

TEST(RegionGolden, DISABLED_PrintDigests) {
  for (const GoldenProgram &P : goldenPrograms())
    std::printf("{\"%s\", 0x%016" PRIx64 "ull},\n", P.Label.c_str(),
                digestOf(P.Source, P.Label));
}

} // namespace
