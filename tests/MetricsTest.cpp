// Unit tests for the observability primitives (support/Metrics.h):
// stopwatch monotonicity, counter/timer aggregation, scope nesting,
// merging, and the JSON rendering (stable order, escaping).

#include "support/Metrics.h"

#include "support/Json.h"

#include <gtest/gtest.h>

using namespace afl;

namespace {

TEST(Stopwatch, Monotonic) {
  Stopwatch W;
  double Last = W.seconds();
  EXPECT_GE(Last, 0.0);
  for (int I = 0; I != 100; ++I) {
    double Now = W.seconds();
    EXPECT_GE(Now, Last);
    Last = Now;
  }
  uint64_t Ns1 = W.nanoseconds();
  uint64_t Ns2 = W.nanoseconds();
  EXPECT_GE(Ns2, Ns1);
}

TEST(Stopwatch, ResetRestarts) {
  Stopwatch W;
  // Burn a little time so the pre-reset reading is strictly positive.
  volatile unsigned Sink = 0;
  for (unsigned I = 0; I != 100000; ++I)
    Sink = Sink + I;
  double Before = W.seconds();
  EXPECT_GT(Before, 0.0);
  W.reset();
  EXPECT_LT(W.seconds(), Before);
}

TEST(PeakRss, ReadableAndPlausibleOnLinux) {
  // On Linux /proc/self/status always has a VmHWM line; a gtest binary
  // holds at least a megabyte resident. Elsewhere the helper's 0
  // fallback applies (vacuously fine here).
  uint64_t Kb = readPeakRssKb();
#ifdef __linux__
  EXPECT_GT(Kb, 1024u);
  // Monotone non-decreasing: it is a high-water mark.
  std::vector<char> Ballast(8 * 1024 * 1024, 1);
  EXPECT_GE(readPeakRssKb(), Kb) << (unsigned)Ballast[42];
#else
  (void)Kb;
#endif
}

TEST(Metrics, CountersAccumulate) {
  MetricsRegistry Reg;
  Reg.add("widgets", 2);
  Reg.add("widgets", 3);
  Reg.set("gadgets", 7);
  Reg.set("gadgets", 4); // set overwrites
  EXPECT_EQ(Reg.counter("widgets"), 5u);
  EXPECT_EQ(Reg.counter("gadgets"), 4u);
  EXPECT_EQ(Reg.counter("absent"), 0u);
}

TEST(Metrics, TimersAccumulate) {
  MetricsRegistry Reg;
  Reg.addTime("solve_seconds", 0.25);
  Reg.addTime("solve_seconds", 0.50);
  EXPECT_DOUBLE_EQ(Reg.timer("solve_seconds"), 0.75);
  EXPECT_DOUBLE_EQ(Reg.timer("absent"), 0.0);
}

TEST(Metrics, ScopesNest) {
  MetricsRegistry Reg;
  Reg.push("pipeline");
  Reg.add("runs", 1);
  Reg.push("solve");
  Reg.add("propagations", 42);
  Reg.pop();
  Reg.pop();
  EXPECT_EQ(Reg.counter("pipeline/runs"), 1u);
  EXPECT_EQ(Reg.counter("pipeline/solve/propagations"), 42u);
  EXPECT_TRUE(Reg.has("pipeline/solve"));
  EXPECT_FALSE(Reg.has("pipeline/parse"));
  // Re-entering an existing scope appends to it.
  Reg.push("pipeline");
  Reg.add("runs", 1);
  Reg.pop();
  EXPECT_EQ(Reg.counter("pipeline/runs"), 2u);
}

TEST(Metrics, PopAtRootIsNoop) {
  MetricsRegistry Reg;
  Reg.pop();
  Reg.pop();
  Reg.add("x", 1);
  EXPECT_EQ(Reg.counter("x"), 1u);
}

TEST(Metrics, ScopedHelpers) {
  MetricsRegistry Reg;
  {
    MetricScope S(Reg, "outer");
    ScopedTimer T(Reg, "wall_seconds");
    Reg.add("count", 1);
  }
  EXPECT_EQ(Reg.counter("outer/count"), 1u);
  EXPECT_GT(Reg.timer("outer/wall_seconds"), 0.0);
}

TEST(Metrics, MergeSumsPointwise) {
  MetricsRegistry A;
  A.push("stage");
  A.add("items", 3);
  A.addTime("wall_seconds", 1.0);
  A.pop();
  A.add("files", 1);

  MetricsRegistry B;
  B.push("stage");
  B.add("items", 4);
  B.addTime("wall_seconds", 0.5);
  B.pop();
  B.add("files", 1);
  B.add("only_in_b", 9);

  A.merge(B);
  EXPECT_EQ(A.counter("stage/items"), 7u);
  EXPECT_DOUBLE_EQ(A.timer("stage/wall_seconds"), 1.5);
  EXPECT_EQ(A.counter("files"), 2u);
  EXPECT_EQ(A.counter("only_in_b"), 9u);
}

TEST(Metrics, PeaksMergeByMaximum) {
  MetricsRegistry A;
  A.setMax("max_values", 7);
  A.setMax("max_values", 3); // a peak only rises
  A.add("steps", 10);
  MetricsRegistry B;
  B.setMax("max_values", 5);
  B.add("steps", 4);
  B.setMax("only_in_b", 2);
  A.merge(B);
  EXPECT_EQ(A.counter("max_values"), 7u);
  EXPECT_EQ(A.counter("steps"), 14u);
  EXPECT_EQ(A.counter("only_in_b"), 2u);
  // A peak renders like a counter.
  EXPECT_EQ(A.json(/*Pretty=*/false),
            "{\"max_values\":7,\"steps\":14,\"only_in_b\":2}");
}

TEST(Metrics, MergeLandsInTheCurrentScope) {
  MetricsRegistry Item;
  Item.add("ok", 1);
  Item.push("stage");
  Item.addTime("wall_seconds", 0.25);
  Item.pop();
  Item.setMax("peak", 4);

  MetricsRegistry Batch;
  {
    MetricScope S(Batch, "aggregate");
    Batch.merge(Item);
    Batch.merge(Item);
  }
  {
    // Into an empty scope, a merge is a copy in the same key order.
    MetricScope S(Batch, "copy");
    Batch.merge(Item);
  }
  EXPECT_EQ(Batch.counter("aggregate/ok"), 2u);
  EXPECT_DOUBLE_EQ(Batch.timer("aggregate/stage/wall_seconds"), 0.5);
  EXPECT_EQ(Batch.counter("aggregate/peak"), 4u);
  EXPECT_FALSE(Batch.has("ok"));
  EXPECT_EQ(Batch.json(/*Pretty=*/false),
            "{\"aggregate\":{\"ok\":2,\"stage\":{\"wall_seconds\":"
            "0.500000000},\"peak\":4},\"copy\":" +
                Item.json(/*Pretty=*/false) + "}");
}

TEST(Metrics, JsonShapeAndOrder) {
  MetricsRegistry Reg;
  Reg.set("version", 1);
  Reg.push("stages");
  Reg.push("parse");
  Reg.addTime("wall_seconds", 0.5);
  Reg.pop();
  Reg.push("solve");
  Reg.set("propagations", 12);
  Reg.pop();
  Reg.pop();
  // Compact rendering is fully deterministic: insertion order, integers
  // for counters, a fractional part for timers.
  EXPECT_EQ(Reg.json(/*Pretty=*/false),
            "{\"version\":1,\"stages\":{\"parse\":{\"wall_seconds\":"
            "0.500000000},\"solve\":{\"propagations\":12}}}");
  // Pretty rendering holds the same tokens.
  std::string Pretty = Reg.json();
  EXPECT_NE(Pretty.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(Pretty.find("\"wall_seconds\": 0.500000000"),
            std::string::npos);
}

TEST(Metrics, TextLeaves) {
  MetricsRegistry Reg;
  Reg.push("programs");
  Reg.push("bad.afl");
  Reg.setText("error", "cannot open 'bad.afl'\nline \"two\"");
  Reg.pop();
  Reg.pop();
  EXPECT_EQ(Reg.text("programs/bad.afl/error"),
            "cannot open 'bad.afl'\nline \"two\"");
  EXPECT_EQ(Reg.text("programs/bad.afl/missing"), "");
  // JSON renders the value as an escaped string.
  EXPECT_EQ(Reg.json(/*Pretty=*/false),
            "{\"programs\":{\"bad.afl\":{\"error\":\"cannot open "
            "'bad.afl'\\nline \\\"two\\\"\"}}}");
  // setText overwrites (no accumulation semantics).
  Reg.push("programs");
  Reg.push("bad.afl");
  Reg.setText("error", "later");
  Reg.pop();
  Reg.pop();
  EXPECT_EQ(Reg.text("programs/bad.afl/error"), "later");
}

TEST(Metrics, MergeKeepsFirstNonEmptyText) {
  MetricsRegistry A;
  A.setText("note", "");
  MetricsRegistry B;
  B.setText("note", "from b");
  B.setText("only_b", "kept");
  A.merge(B);
  EXPECT_EQ(A.text("note"), "from b");
  EXPECT_EQ(A.text("only_b"), "kept");

  MetricsRegistry C;
  C.setText("note", "from c");
  A.merge(C);
  EXPECT_EQ(A.text("note"), "from b") << "first non-empty value wins";
}

TEST(Metrics, JsonEmptyRegistry) {
  MetricsRegistry Reg;
  EXPECT_EQ(Reg.json(/*Pretty=*/false), "{}");
}

TEST(Metrics, JsonEscaping) {
  auto Quoted = [](std::string_view S) {
    std::string O;
    json::appendString(O, S);
    return O;
  };
  EXPECT_EQ(Quoted("plain"), "\"plain\"");
  EXPECT_EQ(Quoted("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(Quoted("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(Quoted("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(Quoted(std::string("\x01", 1)), "\"\\u0001\"");

  // Names needing escapes survive the serializer (e.g. batch files with
  // odd characters).
  MetricsRegistry Reg;
  Reg.set("weird \"name\"\n", 3);
  EXPECT_EQ(Reg.json(/*Pretty=*/false),
            "{\"weird \\\"name\\\"\\n\":3}");
}

/// Minimal structural JSON check: quotes balanced outside strings,
/// braces balanced, no trailing commas. Guards the serializer against
/// regressions without a JSON parser dependency.
bool looksLikeValidJson(const std::string &S) {
  int Depth = 0;
  bool InString = false, Escaped = false, PrevComma = false;
  for (char C : S) {
    if (InString) {
      if (Escaped)
        Escaped = false;
      else if (C == '\\')
        Escaped = true;
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == '"')
      InString = true;
    else if (C == '{')
      ++Depth;
    else if (C == '}') {
      if (PrevComma || --Depth < 0)
        return false;
    }
    if (!isspace(static_cast<unsigned char>(C)))
      PrevComma = C == ',';
  }
  return Depth == 0 && !InString;
}

TEST(Metrics, JsonStructurallyValid) {
  MetricsRegistry Reg;
  for (int I = 0; I != 5; ++I) {
    Reg.push("scope" + std::to_string(I));
    Reg.add("n", static_cast<uint64_t>(I));
    Reg.addTime("t", 0.1 * I);
  }
  for (int I = 0; I != 5; ++I)
    Reg.pop();
  EXPECT_TRUE(looksLikeValidJson(Reg.json()));
  EXPECT_TRUE(looksLikeValidJson(Reg.json(/*Pretty=*/false)));
}

} // namespace
