// Unit tests for the support module: arena, arena pool, interner,
// diagnostics, JSON number ranges.

#include "support/Arena.h"
#include "support/ArenaPool.h"
#include "support/Diagnostics.h"
#include "support/Json.h"
#include "support/SourceLoc.h"
#include "support/FlatSet.h"
#include "support/SetInterner.h"
#include "support/StringInterner.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace afl;

namespace {

TEST(Arena, AllocatesAligned) {
  Arena A;
  void *P1 = A.allocate(1, 1);
  void *P8 = A.allocate(8, 8);
  void *P16 = A.allocate(16, 16);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P8) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P16) % 16, 0u);
  EXPECT_NE(P1, P8);
  EXPECT_EQ(A.numAllocations(), 3u);
}

TEST(Arena, GrowsBeyondOneSlab) {
  Arena A;
  // Allocate more than the default slab size in chunks.
  for (int I = 0; I != 300; ++I) {
    void *P = A.allocate(1024, 8);
    ASSERT_NE(P, nullptr);
    // Touch the memory to catch bad slabs under sanitizers.
    static_cast<char *>(P)[0] = static_cast<char>(I);
    static_cast<char *>(P)[1023] = static_cast<char>(I);
  }
  EXPECT_GE(A.bytesReserved(), 300u * 1024u);
}

TEST(Arena, CreateConstructsObjects) {
  struct Point {
    int X, Y;
    Point(int X, int Y) : X(X), Y(Y) {}
  };
  Arena A;
  Point *P = A.create<Point>(3, 4);
  EXPECT_EQ(P->X, 3);
  EXPECT_EQ(P->Y, 4);
}

TEST(Arena, BytesAllocatedCountsRequests) {
  Arena A;
  A.allocate(10, 1);
  A.allocate(100, 8);
  EXPECT_EQ(A.bytesAllocated(), 110u);
  EXPECT_EQ(A.numAllocations(), 2u);
}

TEST(Arena, ResetRetainsLargestSlab) {
  Arena A;
  A.allocate(16, 8); // first slab: the 64 KiB default
  void *Big = A.allocate(1 << 20, 8);
  ASSERT_NE(Big, nullptr);
  EXPECT_GE(A.numSlabs(), 2u);
  size_t Largest = 1u << 20;

  A.reset();
  EXPECT_EQ(A.numSlabs(), 1u);
  EXPECT_GE(A.bytesReserved(), Largest);
  EXPECT_LT(A.bytesReserved(), 2 * Largest);
  EXPECT_EQ(A.numAllocations(), 0u);
  EXPECT_EQ(A.bytesAllocated(), 0u);

  // The retained slab serves the next tenant without growing.
  size_t Reserved = A.bytesReserved();
  void *P = A.allocate(Largest / 2, 8);
  static_cast<char *>(P)[0] = 1; // touch under sanitizers
  EXPECT_EQ(A.bytesReserved(), Reserved);
  EXPECT_EQ(A.numSlabs(), 1u);
}

TEST(Arena, ResetOfEmptyArenaIsHarmless) {
  Arena A;
  A.reset();
  EXPECT_EQ(A.numSlabs(), 0u);
  EXPECT_EQ(A.bytesReserved(), 0u);
  void *P = A.allocate(8, 8);
  EXPECT_NE(P, nullptr);
}

TEST(Arena, MoveTransfersStorage) {
  Arena A;
  void *P = A.allocate(64, 8);
  std::memset(P, 0x5a, 64);
  Arena B = std::move(A);
  EXPECT_EQ(A.numSlabs(), 0u);
  EXPECT_EQ(A.bytesReserved(), 0u);
  EXPECT_EQ(B.numAllocations(), 1u);
  EXPECT_EQ(static_cast<unsigned char *>(P)[63], 0x5au);
  // The moved-from arena is reusable.
  EXPECT_NE(A.allocate(8, 8), nullptr);

  Arena C;
  C.allocate(8, 8);
  C = std::move(B);
  EXPECT_EQ(C.numAllocations(), 1u);
}

TEST(ArenaPool, MissThenHitRoundtrip) {
  ArenaPool P;
  Arena A = P.acquire();
  A.allocate(1 << 18, 8);
  size_t Reserved = A.bytesReserved();
  P.release(std::move(A));

  ArenaPool::Stats S = P.stats();
  EXPECT_EQ(S.Checkouts, 1u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Returns, 1u);
  EXPECT_EQ(S.Pooled, 1u);
  EXPECT_GT(S.RetainedBytes, 0u);

  Arena B = P.acquire();
  EXPECT_EQ(P.stats().Hits, 1u);
  // release() reset the arena but kept its largest slab for reuse.
  EXPECT_EQ(B.numAllocations(), 0u);
  EXPECT_GE(B.bytesReserved(), Reserved);
}

TEST(ArenaPool, AcquirePrefersLargestClass) {
  ArenaPool P;
  Arena Small = P.acquire();
  Small.allocate(16, 8); // one default 64 KiB slab
  Arena Big = P.acquire();
  Big.allocate(1 << 20, 8);
  P.release(std::move(Small));
  P.release(std::move(Big));

  Arena First = P.acquire();
  EXPECT_GE(First.bytesReserved(), 1u << 20)
      << "the pool must hand out its largest arena first";
  Arena Second = P.acquire();
  EXPECT_LT(Second.bytesReserved(), 1u << 20);
}

TEST(ArenaPool, CapDiscardsExcessReturns) {
  ArenaPool P(1);
  Arena A = P.acquire(), B = P.acquire();
  A.allocate(16, 8);
  B.allocate(16, 8);
  P.release(std::move(A));
  P.release(std::move(B));
  ArenaPool::Stats S = P.stats();
  EXPECT_EQ(S.Returns, 2u);
  EXPECT_EQ(S.Discarded, 1u);
  EXPECT_EQ(S.Pooled, 1u);
}

TEST(ArenaPool, ClearDropsRetainedArenas) {
  ArenaPool P;
  Arena A = P.acquire();
  A.allocate(16, 8);
  P.release(std::move(A));
  EXPECT_EQ(P.stats().Pooled, 1u);
  P.clear();
  EXPECT_EQ(P.stats().Pooled, 0u);
  EXPECT_EQ(P.stats().RetainedBytes, 0u);
}

TEST(ArenaPool, ConcurrentCheckoutUnderThreadPool) {
  ArenaPool P;
  ThreadPool Workers(4);
  Workers.parallelFor(64, 0, [&P](size_t I) {
    Arena A = P.acquire();
    char *Bytes = static_cast<char *>(A.allocate(4096, 8));
    std::memset(Bytes, static_cast<int>(I), 4096);
    P.release(std::move(A));
  });
  ArenaPool::Stats S = P.stats();
  EXPECT_EQ(S.Checkouts, 64u);
  EXPECT_EQ(S.Hits + S.Misses, 64u);
  EXPECT_EQ(S.Returns, 64u);
  EXPECT_EQ(S.Pooled + S.Discarded, 64u - S.Hits);
}

TEST(PooledArena, ReturnsToGlobalPoolOnDestruction) {
  ArenaPool::Stats Before = ArenaPool::global().stats();
  {
    PooledArena A;
    A.allocate(128, 8);
    EXPECT_EQ(ArenaPool::global().stats().Checkouts, Before.Checkouts + 1);
  }
  EXPECT_EQ(ArenaPool::global().stats().Returns, Before.Returns + 1);
}

TEST(PooledArena, MoveDoesNotDoubleReturn) {
  ArenaPool::Stats Before = ArenaPool::global().stats();
  {
    PooledArena A;
    A.allocate(16, 8);
    PooledArena B = std::move(A);
    PooledArena C;
    C = std::move(B);
  } // exactly one lease is live; exactly one return
  EXPECT_EQ(ArenaPool::global().stats().Returns, Before.Returns + 2)
      << "one return for the moved lease, one for C's displaced lease";
}

TEST(StringInterner, InternsAndDeduplicates) {
  StringInterner SI;
  Symbol A = SI.intern("foo");
  Symbol B = SI.intern("bar");
  Symbol C = SI.intern("foo");
  EXPECT_TRUE(A.isValid());
  EXPECT_EQ(A, C);
  EXPECT_NE(A, B);
  EXPECT_EQ(SI.text(A), "foo");
  EXPECT_EQ(SI.text(B), "bar");
  EXPECT_EQ(SI.size(), 2u);
}

TEST(StringInterner, DefaultSymbolIsInvalid) {
  Symbol S;
  EXPECT_FALSE(S.isValid());
}

TEST(StringInterner, ManyStringsKeepStableText) {
  // Regression guard for the index-into-storage dangling-view bug: views
  // must survive container growth.
  StringInterner SI;
  std::vector<Symbol> Syms;
  for (int I = 0; I != 2000; ++I)
    Syms.push_back(SI.intern("sym" + std::to_string(I)));
  for (int I = 0; I != 2000; ++I) {
    EXPECT_EQ(SI.text(Syms[I]), "sym" + std::to_string(I));
    EXPECT_EQ(SI.intern("sym" + std::to_string(I)), Syms[I]);
  }
}

TEST(StringInterner, SharedArenaStoresBytes) {
  Arena A;
  size_t Before = A.bytesAllocated();
  StringInterner SI(A);
  Symbol Foo = SI.intern("foo");
  Symbol Again = SI.intern("foo");
  EXPECT_EQ(Foo, Again);
  EXPECT_EQ(SI.text(Foo), "foo");
  EXPECT_EQ(A.bytesAllocated(), Before + 3)
      << "interned bytes land in the shared arena, deduplicated";
}

TEST(Diagnostics, CollectsAndCounts) {
  DiagnosticEngine D;
  EXPECT_FALSE(D.hasErrors());
  D.warning(SourceLoc(1, 2), "watch out");
  EXPECT_FALSE(D.hasErrors());
  D.error(SourceLoc(3, 4), "boom");
  D.note(SourceLoc(), "context");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.numErrors(), 1u);
  EXPECT_EQ(D.diagnostics().size(), 3u);
  EXPECT_NE(D.str().find("3:4: error: boom"), std::string::npos);
  EXPECT_NE(D.str().find("1:2: warning: watch out"), std::string::npos);
  EXPECT_NE(D.str().find("<unknown>: note: context"), std::string::npos);
}

TEST(SourceLoc, Rendering) {
  EXPECT_EQ(SourceLoc(7, 12).str(), "7:12");
  EXPECT_EQ(SourceLoc().str(), "<unknown>");
  EXPECT_TRUE(SourceLoc(1, 1).isValid());
  EXPECT_FALSE(SourceLoc().isValid());
}

TEST(FlatSet, InsertKeepsSortedUnique) {
  FlatSet<uint32_t> S;
  EXPECT_TRUE(S.insert(5));
  EXPECT_TRUE(S.insert(1));
  EXPECT_TRUE(S.insert(9));
  EXPECT_FALSE(S.insert(5)); // duplicate
  ASSERT_EQ(S.size(), 3u);
  EXPECT_EQ(S[0], 1u);
  EXPECT_EQ(S[1], 5u);
  EXPECT_EQ(S[2], 9u);
  EXPECT_TRUE(S.contains(9));
  EXPECT_FALSE(S.contains(2));
  EXPECT_EQ(S.indexOf(5), 1u);
  EXPECT_EQ(S.indexOf(2), FlatSet<uint32_t>::npos);
}

TEST(FlatSet, InsertPosTracksParallelArrays) {
  FlatSet<uint32_t> S;
  auto [P1, I1] = S.insertPos(10);
  EXPECT_TRUE(I1);
  EXPECT_EQ(P1, 0u);
  auto [P2, I2] = S.insertPos(5);
  EXPECT_TRUE(I2);
  EXPECT_EQ(P2, 0u); // displaces 10
  auto [P3, I3] = S.insertPos(10);
  EXPECT_FALSE(I3);
  EXPECT_EQ(P3, 1u);
}

TEST(FlatSet, UnionWithReportsGrowth) {
  FlatSet<uint32_t> A, B;
  for (uint32_t X : {1u, 3u, 5u})
    A.insert(X);
  for (uint32_t X : {3u, 4u})
    B.insert(X);
  EXPECT_TRUE(A.unionWith(B));
  ASSERT_EQ(A.size(), 4u);
  EXPECT_FALSE(A.unionWith(B)); // B now a subset
  FlatSet<uint32_t> Tail;
  Tail.insert(100); // beyond A's max: the append fast path
  EXPECT_TRUE(A.unionWith(Tail));
  EXPECT_EQ(A[4], 100u);
}

TEST(FlatSet, FromSortedWraps) {
  FlatSet<uint32_t> S = FlatSet<uint32_t>::fromSorted({2, 4, 6});
  EXPECT_EQ(S.size(), 3u);
  EXPECT_TRUE(S.contains(4));
}

TEST(FlatSet, BuildsFromUnsortedAndErases) {
  FlatSet<uint32_t> S{9, 1, 5, 1};
  ASSERT_EQ(S.size(), 3u);
  EXPECT_EQ(S[0], 1u);
  EXPECT_EQ(S[2], 9u);
  EXPECT_EQ(FlatSet<uint32_t>::fromUnsorted({5, 9, 1, 9}), S);
  EXPECT_TRUE(S.erase(5));
  EXPECT_FALSE(S.erase(5));
  EXPECT_EQ(S, (FlatSet<uint32_t>{1, 9}));
}

TEST(SetInterner, EmptyIsIdZero) {
  SetInterner<uint32_t> I;
  EXPECT_EQ(I.intern(FlatSet<uint32_t>()), SetInterner<uint32_t>::Empty);
  EXPECT_TRUE(I.get(SetInterner<uint32_t>::Empty).empty());
  EXPECT_EQ(I.size(), 1u);
}

TEST(SetInterner, InternDeduplicates) {
  SetInterner<uint32_t> I;
  auto A = I.single(7);
  auto B = I.single(7);
  EXPECT_EQ(A, B);
  auto C = I.single(8);
  EXPECT_NE(A, C);
  EXPECT_EQ(I.size(), 3u); // empty, {7}, {8}
}

TEST(SetInterner, UnionIsMemoizedAndCorrect) {
  SetInterner<uint32_t> I;
  auto A = I.single(1);
  auto B = I.single(2);
  auto U1 = I.unionSets(A, B);
  auto U2 = I.unionSets(B, A); // commutative, cached
  EXPECT_EQ(U1, U2);
  EXPECT_EQ(I.get(U1).size(), 2u);
  EXPECT_EQ(I.unionSets(U1, A), U1);      // A subset of U1
  EXPECT_EQ(I.unionSets(A, A), A);        // idempotent
  EXPECT_EQ(I.unionSets(A, SetInterner<uint32_t>::Empty), A);
}

TEST(SetInterner, InsertById) {
  SetInterner<uint32_t> I;
  auto A = I.single(1);
  auto B = I.insert(A, 2);
  EXPECT_NE(A, B);
  EXPECT_EQ(I.get(B).size(), 2u);
  EXPECT_EQ(I.insert(B, 1), B); // already present
  EXPECT_EQ(I.insert(B, 2), B);
  // The memo returns the same id for the same (set, element) pair.
  EXPECT_EQ(I.insert(A, 2), B);
}

//===----------------------------------------------------------------------===//
// JSON number ranges: out-of-range integer literals are parse errors,
// never silent saturation (the strtoll/ERANGE regression).
//===----------------------------------------------------------------------===//

TEST(JsonNumbers, Int64BoundsParseExactly) {
  json::Value V;
  std::string E;
  ASSERT_TRUE(json::parseJson("9223372036854775807", V, E)) << E;
  ASSERT_TRUE(V.isInt());
  EXPECT_EQ(V.asInt(), INT64_MAX);
  ASSERT_TRUE(json::parseJson("-9223372036854775808", V, E)) << E;
  ASSERT_TRUE(V.isInt());
  EXPECT_EQ(V.asInt(), INT64_MIN);
}

TEST(JsonNumbers, OutOfRangeIntegersAreParseErrors) {
  // One past each bound, and far past: all must fail cleanly rather than
  // saturate to INT64_MAX/MIN or lose precision as a double.
  const char *Bad[] = {
      "9223372036854775808",
      "-9223372036854775809",
      "123456789012345678901234567890",
      "-123456789012345678901234567890",
      "{\"id\":99999999999999999999}",
  };
  for (const char *Text : Bad) {
    json::Value V;
    std::string E;
    EXPECT_FALSE(json::parseJson(Text, V, E)) << Text;
    EXPECT_NE(E.find("out of range"), std::string::npos) << Text << ": " << E;
  }
}

TEST(JsonNumbers, DoublesStillCoverTheWideRange) {
  // Non-integral syntax keeps its double semantics, range errors and all.
  json::Value V;
  std::string E;
  ASSERT_TRUE(json::parseJson("9.223372036854776e18", V, E)) << E;
  EXPECT_FALSE(V.isInt());
  EXPECT_GT(V.asDouble(), 9.2e18);
  ASSERT_TRUE(json::parseJson("1e400", V, E)) << E; // strtod: +inf
  EXPECT_FALSE(V.isInt());
}

//===----------------------------------------------------------------------===//
// JSON writer: the one renderer behind --metrics and every server response.
//===----------------------------------------------------------------------===//

TEST(JsonWriter, NestedObjectsEscapingAndRaw) {
  auto Render = [](bool Pretty) {
    std::string O;
    json::Writer W(O, Pretty);
    W.beginObject();
    W.key("empty").beginObject().endObject();
    W.key("n").integer(INT64_MAX);
    W.key("id").integer(int64_t{-7});
    W.key("k\"ey").string("a\"b\\c\n\x01");
    W.key("t").seconds(0.25);
    W.key("inner").beginObject();
    W.key("ok").boolean(true);
    W.key("no").boolean(false);
    W.key("raw").raw(R"({"x":[1,2]})");
    W.endObject();
    W.endObject();
    return O;
  };
  EXPECT_EQ(Render(false),
            R"({"empty":{},"n":9223372036854775807,"id":-7,)"
            R"("k\"ey":"a\"b\\c\n\u0001","t":0.250000000,)"
            R"("inner":{"ok":true,"no":false,"raw":{"x":[1,2]}}})");
  EXPECT_EQ(Render(true), "{\n"
                          "  \"empty\": {},\n"
                          "  \"n\": 9223372036854775807,\n"
                          "  \"id\": -7,\n"
                          "  \"k\\\"ey\": \"a\\\"b\\\\c\\n\\u0001\",\n"
                          "  \"t\": 0.250000000,\n"
                          "  \"inner\": {\n"
                          "    \"ok\": true,\n"
                          "    \"no\": false,\n"
                          "    \"raw\": {\"x\":[1,2]}\n"
                          "  }\n"
                          "}");

  // The compact rendering reads back through the parser, escapes and all.
  json::Value V;
  std::string E;
  ASSERT_TRUE(json::parseJson(Render(false), V, E)) << E;
  ASSERT_NE(V.find("k\"ey"), nullptr);
  EXPECT_EQ(V.find("k\"ey")->asString(), "a\"b\\c\n\x01");

  // An empty top-level object is "{}" in both modes.
  for (bool Pretty : {false, true}) {
    std::string O;
    json::Writer(O, Pretty).beginObject().endObject();
    EXPECT_EQ(O, "{}");
  }
}

} // namespace
