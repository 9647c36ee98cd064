// Tests for the big-stack executor (support/BigStack.h): a recursion far
// deeper than a default thread stack fits on the helper, concurrent
// callers each reuse one helper and get the sequential results,
// exceptions reach the caller, and a caller's helper is joined when the
// caller exits.

#include "support/BigStack.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

namespace {

/// Recurses \p Depth levels, each frame holding a 4 KB buffer the
/// compiler cannot elide, and returns a checksum over every frame.
/// \p Deepest receives the address of the innermost buffer.
uint64_t deepSum(unsigned Depth, uintptr_t &Deepest) {
  volatile unsigned char Buf[4096];
  Buf[0] = static_cast<unsigned char>(Depth);
  Buf[sizeof(Buf) - 1] = static_cast<unsigned char>(Depth >> 8);
  if (Depth == 0) {
    Deepest = reinterpret_cast<uintptr_t>(&Buf[0]);
    return Buf[0];
  }
  uint64_t Below = deepSum(Depth - 1, Deepest);
  return Below + Buf[0] + Buf[sizeof(Buf) - 1];
}

/// deepSum's checksum, computed without recursing.
uint64_t expectedSum(unsigned Depth) {
  uint64_t Sum = 0;
  for (unsigned D = 1; D <= Depth; ++D)
    Sum += (D & 0xFF) + ((D >> 8) & 0xFF);
  return Sum;
}

TEST(BigStack, RecursionFarBeyondEightMegabytesSucceeds) {
  // 8192 frames of over 4 KB: about 32 MB of stack, four times a
  // default 8 MB thread stack (and well inside the helper's 256 MB even
  // with a sanitizer's larger frames).
  constexpr unsigned Depth = 8192;
  uint64_t Sum = 0;
  uintptr_t Top = 0, Deepest = 0;
  afl::runOnBigStack([&] {
    volatile char Marker = 0;
    Top = reinterpret_cast<uintptr_t>(&Marker);
    Sum = deepSum(Depth, Deepest);
  });
  EXPECT_EQ(Sum, expectedSum(Depth));
  const uintptr_t Used = Top > Deepest ? Top - Deepest : Deepest - Top;
  EXPECT_GT(Used, uintptr_t(16) << 20);
}

TEST(BigStack, ExceptionReachesTheCallerAndTheHelperSurvives) {
  std::thread::id First, Second;
  EXPECT_THROW(afl::runOnBigStack([&] {
                 First = std::this_thread::get_id();
                 throw std::runtime_error("evaluator failure");
               }),
               std::runtime_error);
  afl::runOnBigStack([&] { Second = std::this_thread::get_id(); });
  EXPECT_NE(First, std::this_thread::get_id());
  EXPECT_EQ(Second, First);
}

TEST(BigStack, PoolWorkersReuseOneHelperEach) {
  // Four pool workers plus the calling thread make hundreds of calls:
  // every call returns the sequential result, and no more than one
  // helper per executor ever exists. The workers exit with the pool,
  // joining their helpers.
  constexpr size_t Calls = 400;
  std::vector<uint64_t> Seq(Calls), Par(Calls);
  for (size_t I = 0; I != Calls; ++I)
    Seq[I] = expectedSum(static_cast<unsigned>(I % 300));
  const size_t Before = afl::bigStackHelpers();
  std::atomic<size_t> Peak{0};
  {
    afl::ThreadPool Pool(4);
    Pool.parallelFor(Calls, 5, [&](size_t I) {
      afl::runOnBigStack([&] {
        uintptr_t Deepest = 0;
        Par[I] = deepSum(static_cast<unsigned>(I % 300), Deepest);
      });
      size_t Now = afl::bigStackHelpers(), Seen = Peak.load();
      while (Now > Seen && !Peak.compare_exchange_weak(Seen, Now)) {
      }
    });
  }
  EXPECT_EQ(Par, Seq);
  EXPECT_LE(Peak.load(), Before + 5);
  // Only the calling thread's helper (if it claimed an item) remains.
  EXPECT_LE(afl::bigStackHelpers(), Before + 1);
}

TEST(BigStack, CallerExitJoinsItsHelper) {
  const size_t Before = afl::bigStackHelpers();
  size_t During = 0;
  int Ran = 0;
  std::thread Caller([&] {
    afl::runOnBigStack([&] { Ran = 1; });
    afl::runOnBigStack([&] { Ran += 1; });
    During = afl::bigStackHelpers();
  });
  Caller.join();
  EXPECT_EQ(Ran, 2);
  EXPECT_EQ(During, Before + 1);
  EXPECT_EQ(afl::bigStackHelpers(), Before);
}

} // namespace
