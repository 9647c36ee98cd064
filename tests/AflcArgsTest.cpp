// Tests for the strict CLI parsers behind aflc's arguments: a count
// (-j / --closure-widen= / --max-connections / @builtin N) either
// parses as a plain base-10 unsigned integer or it is a usage error —
// never atoi's silent 0 / prefix salvage — and a backend name
// (--interp=) is exactly "vm" or "tree", never a silent fallback. Also covers writeTextFile, the helper behind --metrics=FILE:
// an unopenable or unwritable target must be a reported failure, not a
// success message over a file that was never written.

#include "interp/Interp.h"
#include "support/CliParse.h"
#include "support/FileIO.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

using namespace afl;

namespace {

TEST(CliParse, AcceptsPlainUnsignedIntegers) {
  unsigned V = 99;
  EXPECT_TRUE(parseCliUnsigned("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseCliUnsigned("1", V));
  EXPECT_EQ(V, 1u);
  EXPECT_TRUE(parseCliUnsigned("48", V));
  EXPECT_EQ(V, 48u);
  EXPECT_TRUE(parseCliUnsigned("4294967295", V));
  EXPECT_EQ(V, 4294967295u);
}

TEST(CliParse, RejectsNonNumeric) {
  unsigned V = 7;
  EXPECT_FALSE(parseCliUnsigned("bogus", V));
  EXPECT_FALSE(parseCliUnsigned("", V));
  EXPECT_FALSE(parseCliUnsigned(" ", V));
  EXPECT_FALSE(parseCliUnsigned("x4", V));
  EXPECT_EQ(V, 7u) << "output must be untouched on failure";
}

TEST(CliParse, RejectsTrailingGarbage) {
  unsigned V = 7;
  EXPECT_FALSE(parseCliUnsigned("1x", V));
  EXPECT_FALSE(parseCliUnsigned("2 ", V));
  EXPECT_FALSE(parseCliUnsigned("3.0", V));
  EXPECT_FALSE(parseCliUnsigned("4,", V));
  EXPECT_EQ(V, 7u);
}

TEST(CliParse, RejectsSigns) {
  unsigned V = 7;
  EXPECT_FALSE(parseCliUnsigned("-3", V));
  EXPECT_FALSE(parseCliUnsigned("+3", V));
  EXPECT_FALSE(parseCliUnsigned("-0", V));
  EXPECT_EQ(V, 7u);
}

TEST(CliParse, RejectsOverflow) {
  unsigned V = 7;
  EXPECT_FALSE(parseCliUnsigned("4294967296", V)); // UINT_MAX + 1
  EXPECT_FALSE(parseCliUnsigned("99999999999999999999", V));
  EXPECT_EQ(V, 7u);
}

TEST(CliParse, RejectsWhitespaceAndBasePrefixes) {
  unsigned V = 7;
  EXPECT_FALSE(parseCliUnsigned(" 1", V));
  EXPECT_FALSE(parseCliUnsigned("0x10", V));
  EXPECT_FALSE(parseCliUnsigned("1e3", V));
  EXPECT_EQ(V, 7u);
}

TEST(CliParse, BackendNamesParseExactly) {
  interp::BackendKind B = interp::BackendKind::Tree;
  EXPECT_TRUE(interp::parseBackendName("vm", B));
  EXPECT_EQ(B, interp::BackendKind::Vm);
  EXPECT_TRUE(interp::parseBackendName("tree", B));
  EXPECT_EQ(B, interp::BackendKind::Tree);
}

TEST(FileIO, WriteTextFileRoundTrips) {
  namespace fs = std::filesystem;
  fs::path Path = fs::temp_directory_path() / "aflc_fileio_test.json";
  std::string Err;
  EXPECT_TRUE(writeTextFile(Path.string(), "{\"ok\":1}\n", Err));
  EXPECT_TRUE(Err.empty());
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  EXPECT_EQ(SS.str(), "{\"ok\":1}\n");
  std::remove(Path.string().c_str());
}

TEST(FileIO, WriteTextFileReportsUnopenablePath) {
  // A path whose parent does not exist cannot be opened.
  std::string Err;
  EXPECT_FALSE(writeTextFile("/nonexistent-dir-aflc/metrics.json", "{}", Err));
  EXPECT_NE(Err.find("cannot open"), std::string::npos) << Err;
  EXPECT_NE(Err.find("/nonexistent-dir-aflc/metrics.json"), std::string::npos)
      << "diagnostic must name the file";
}

TEST(FileIO, WriteTextFileReportsDirectoryTarget) {
  // Naming a directory is the classic --metrics=DIR mistake. Depending
  // on the libc this fails at open or only once the buffer flushes —
  // either way it must come back as a failure with the path named.
  namespace fs = std::filesystem;
  std::string Dir = fs::temp_directory_path().string();
  std::string Err;
  EXPECT_FALSE(writeTextFile(Dir, "{}", Err));
  EXPECT_NE(Err.find(Dir), std::string::npos) << Err;
}

TEST(FileIO, WriteTextFileReportsDeferredWriteError) {
  // /dev/full opens fine but every flush fails with ENOSPC — exactly
  // the deferred-error shape the old unchecked `Out << Json` dropped.
  // Only meaningful where the device exists (Linux).
  if (!std::filesystem::exists("/dev/full"))
    GTEST_SKIP() << "/dev/full not available";
  std::string Err;
  EXPECT_FALSE(writeTextFile("/dev/full", "{\"doomed\":true}", Err));
  EXPECT_NE(Err.find("write error"), std::string::npos) << Err;
}

TEST(CliParse, BackendNamesRejectEverythingElse) {
  interp::BackendKind B = interp::BackendKind::Vm;
  EXPECT_FALSE(interp::parseBackendName("", B));
  EXPECT_FALSE(interp::parseBackendName("v", B));
  EXPECT_FALSE(interp::parseBackendName("VM", B));
  EXPECT_FALSE(interp::parseBackendName("treee", B));
  EXPECT_FALSE(interp::parseBackendName("vm ", B));
  EXPECT_FALSE(interp::parseBackendName(" tree", B));
  EXPECT_FALSE(interp::parseBackendName("interpreter", B));
  EXPECT_EQ(B, interp::BackendKind::Vm)
      << "output must be untouched on failure";
}

} // namespace
