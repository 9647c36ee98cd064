//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the incremental analysis server (docs/SERVER.md): protocol
/// round-trips, malformed-request robustness, and the differential
/// harness — random edit scripts over the corpus asserting that both
/// tiers produce byte-identical completion reports, solver domains and
/// runs to a from-scratch analysis of the same text.
///
//===----------------------------------------------------------------------===//

#include "closure/ClosureAnalysis.h"
#include "completion/AflCompletion.h"
#include "completion/Conservative.h"
#include "completion/Report.h"
#include "constraints/ConstraintGen.h"
#include "driver/Pipeline.h"
#include "driver/Server.h"
#include "driver/Session.h"
#include "interp/Interp.h"
#include "programs/Corpus.h"
#include "solver/Solver.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Socket.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace afl;

namespace {

/// Parses a server response line; fails the test on malformed output (the
/// server must always answer with well-formed JSON).
json::Value call(driver::Session &S, const std::string &Request) {
  std::string Response = S.handleLine(Request);
  json::Value V;
  std::string Error;
  EXPECT_TRUE(json::parseJson(Response, V, Error))
      << Error << " in: " << Response;
  EXPECT_TRUE(V.isObject()) << Response;
  EXPECT_NE(V.find("timings"), nullptr) << Response;
  return V;
}

bool okOf(const json::Value &Resp) {
  const json::Value *Ok = Resp.find("ok");
  return Ok && Ok->isBool() && Ok->asBool();
}

/// result.<Path0>.<Path1>... lookup; nullptr when any hop is missing.
const json::Value *dig(const json::Value &Resp,
                       std::initializer_list<const char *> Path) {
  const json::Value *V = &Resp;
  for (const char *Key : Path) {
    if (!V->isObject())
      return nullptr;
    V = V->find(Key);
    if (!V)
      return nullptr;
  }
  return V;
}

std::string jquote(const std::string &S) {
  std::string O;
  json::appendString(O, S);
  return O;
}

json::Value openDoc(driver::Session &S, const std::string &Source,
                    int64_t *DocId) {
  json::Value R = call(
      S, "{\"method\":\"open\",\"params\":{\"source\":" + jquote(Source) +
             "}}");
  *DocId = -1;
  if (okOf(R)) {
    const json::Value *Doc = dig(R, {"result", "doc"});
    EXPECT_NE(Doc, nullptr) << "open response has no doc id";
    if (Doc)
      *DocId = Doc->asInt(-1);
  }
  return R;
}

std::string domainString(const std::vector<uint8_t> &Dom) {
  std::string O;
  O.reserve(Dom.size());
  for (uint8_t D : Dom)
    O.push_back(static_cast<char>('0' + (D & 7)));
  return O;
}

/// The from-scratch oracle: front end + closure + constraints + plain
/// (uncached) solve + extraction, with completion::aflCompletion's
/// fallbacks written out by hand (the server calls aflCompletion itself,
/// through its shard cache), plus the A-F-L run `query run` answers with.
struct Oracle {
  bool FrontOk = false;
  std::string Report;
  bool Sat = false;
  std::string States;
  std::string Bools;
  interp::RunResult Run;
};

Oracle oracleFor(const std::string &Source) {
  Oracle O;
  DiagnosticEngine Diags;
  driver::PipelineStats Times;
  driver::FrontEnd F = driver::runFrontEnd(Source, Diags, Times);
  if (!F.ok())
    return O;
  O.FrontOk = true;

  closure::ClosureAnalysis CA(*F.Prog);
  regions::Completion AflC;
  solver::SolveResult Sol;
  if (CA.run()) {
    constraints::GenResult Gen = constraints::generateConstraints(*F.Prog, CA);
    Sol = solver::solve(Gen.Sys);
    AflC = Sol.Sat ? completion::extractCompletion(Gen, Sol)
                   : completion::conservativeCompletion(*F.Prog);
  } else {
    AflC = completion::conservativeCompletion(*F.Prog);
  }
  O.Report = completion::reportCompletion(*F.Prog, AflC).str();
  O.Sat = Sol.Sat;
  O.States = domainString(Sol.StateDom);
  O.Bools = domainString(Sol.BoolDom);
  O.Run = interp::run(*F.Prog, AflC);
  return O;
}

/// Compares the server's view of \p DocId against the oracle for \p Text.
void expectMatchesOracle(driver::Session &S, int64_t DocId,
                         const std::string &Text, const std::string &Where) {
  Oracle O = oracleFor(Text);
  ASSERT_TRUE(O.FrontOk) << Where << ": oracle front end failed";

  json::Value Rep = call(S, "{\"method\":\"query\",\"params\":{\"doc\":" +
                                std::to_string(DocId) +
                                ",\"what\":\"report\"}}");
  ASSERT_TRUE(okOf(Rep)) << Where;
  const json::Value *Txt = dig(Rep, {"result", "report", "text"});
  ASSERT_NE(Txt, nullptr) << Where;
  EXPECT_EQ(Txt->asString(), O.Report) << Where;

  json::Value Dom = call(S, "{\"method\":\"query\",\"params\":{\"doc\":" +
                                std::to_string(DocId) +
                                ",\"what\":\"domains\"}}");
  ASSERT_TRUE(okOf(Dom)) << Where;
  const json::Value *Sat = dig(Dom, {"result", "domains", "sat"});
  const json::Value *St = dig(Dom, {"result", "domains", "states"});
  const json::Value *Bo = dig(Dom, {"result", "domains", "bools"});
  ASSERT_TRUE(Sat && St && Bo) << Where;
  EXPECT_EQ(Sat->asBool(), O.Sat) << Where;
  EXPECT_EQ(St->asString(), O.States) << Where;
  EXPECT_EQ(Bo->asString(), O.Bools) << Where;

  json::Value Run = call(S, "{\"method\":\"query\",\"params\":{\"doc\":" +
                                std::to_string(DocId) + ",\"what\":\"run\"}}");
  ASSERT_TRUE(okOf(Run)) << Where;
  const json::Value *Ok = dig(Run, {"result", "run", "ok"});
  ASSERT_NE(Ok, nullptr) << Where;
  ASSERT_EQ(Ok->asBool(), O.Run.Ok) << Where;
  const json::Value *Out =
      dig(Run, {"result", "run", O.Run.Ok ? "result" : "error"});
  ASSERT_NE(Out, nullptr) << Where;
  EXPECT_EQ(Out->asString(), O.Run.Ok ? O.Run.ResultText : O.Run.Error)
      << Where;
  // Table 2's five counters.
  const std::pair<const char *, uint64_t> Counters[] = {
      {"max_regions", O.Run.S.MaxRegions},
      {"region_allocs", O.Run.S.TotalRegionAllocs},
      {"value_allocs", O.Run.S.TotalValueAllocs},
      {"max_values", O.Run.S.MaxValues},
      {"final_values", O.Run.S.FinalValues},
  };
  for (const auto &[Key, Want] : Counters) {
    const json::Value *Got = dig(Run, {"result", "run", "stats", Key});
    ASSERT_NE(Got, nullptr) << Where << ": " << Key;
    EXPECT_EQ(static_cast<uint64_t>(Got->asInt()), Want) << Where << ": " << Key;
  }
}

//===----------------------------------------------------------------------===//
// Protocol round-trips
//===----------------------------------------------------------------------===//

TEST(ServerProtocol, OpenQueryCloseShutdown) {
  driver::Session S;
  int64_t Doc = -1;
  json::Value R = openDoc(S, "let x = 1 in x + 2 end", &Doc);
  ASSERT_TRUE(okOf(R));
  ASSERT_GE(Doc, 1);
  EXPECT_EQ(dig(R, {"result", "tier"})->asString(), "full");
  EXPECT_TRUE(dig(R, {"result", "analysis", "converged"})->asBool());
  EXPECT_TRUE(dig(R, {"result", "analysis", "sat"})->asBool());
  EXPECT_NE(dig(R, {"result", "report", "text"}), nullptr);

  json::Value Q = call(S, "{\"id\":7,\"method\":\"query\",\"params\":{\"doc\":" +
                              std::to_string(Doc) +
                              ",\"what\":\"report\"}}");
  EXPECT_TRUE(okOf(Q));
  EXPECT_EQ(Q.find("id")->asInt(), 7);

  json::Value M =
      call(S, "{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}");
  ASSERT_TRUE(okOf(M));
  EXPECT_EQ(dig(M, {"result", "metrics", "opens"})->asInt(), 1);
  EXPECT_EQ(dig(M, {"result", "metrics", "open_docs"})->asInt(), 1);

  json::Value C = call(S, "{\"method\":\"close\",\"params\":{\"doc\":" +
                              std::to_string(Doc) + "}}");
  EXPECT_TRUE(okOf(C));
  EXPECT_FALSE(S.shutdownRequested());
  json::Value Down = call(S, "{\"method\":\"shutdown\"}");
  EXPECT_TRUE(okOf(Down));
  EXPECT_TRUE(S.shutdownRequested());
}

TEST(ServerProtocol, RunQueryExecutesDocument) {
  driver::Session S;
  int64_t Doc = -1;
  json::Value R = openDoc(S, "let x = (1, 2) in fst x + snd x end", &Doc);
  ASSERT_TRUE(okOf(R));

  json::Value Q = call(S, "{\"method\":\"query\",\"params\":{\"doc\":" +
                              std::to_string(Doc) + ",\"what\":\"run\"}}");
  ASSERT_TRUE(okOf(Q));
  EXPECT_TRUE(dig(Q, {"result", "run", "ok"})->asBool());
  EXPECT_EQ(dig(Q, {"result", "run", "result"})->asString(), "3");
  // Served runs always use the bytecode VM.
  EXPECT_EQ(dig(Q, {"result", "run", "backend"})->asString(), "vm");
  EXPECT_GT(dig(Q, {"result", "run", "stats", "value_allocs"})->asInt(), 0);
  EXPECT_GT(dig(Q, {"result", "run", "stats", "memory_ops"})->asInt(), 0);
  ASSERT_NE(dig(Q, {"result", "run", "micros", "total_us"}), nullptr);
  ASSERT_NE(dig(Q, {"result", "run", "micros", "compile_us"}), nullptr);

  // A run on an unknown document is an error, and the unknown-query
  // message advertises the new verb.
  json::Value Bad = call(
      S, "{\"method\":\"query\",\"params\":{\"doc\":999,\"what\":\"run\"}}");
  EXPECT_FALSE(okOf(Bad));
  json::Value Unknown =
      call(S, "{\"method\":\"query\",\"params\":{\"doc\":" +
                  std::to_string(Doc) + ",\"what\":\"bogus\"}}");
  EXPECT_FALSE(okOf(Unknown));
  EXPECT_NE(Unknown.find("error")->asString().find("run"), std::string::npos);
}

TEST(ServerProtocol, RunQuerySurvivesIntegerEdgeCases) {
  // `query run` on min mod -1 used to raise SIGFPE and kill the server
  // (under --listen, every connection with it). It now answers, and the
  // session keeps serving.
  driver::Session S;
  int64_t Doc = -1;
  ASSERT_TRUE(okOf(
      openDoc(S, "(0 - 9223372036854775807 - 1) mod (0 - 1)", &Doc)));
  json::Value Q = call(S, "{\"method\":\"query\",\"params\":{\"doc\":" +
                              std::to_string(Doc) + ",\"what\":\"run\"}}");
  ASSERT_TRUE(okOf(Q));
  EXPECT_TRUE(dig(Q, {"result", "run", "ok"})->asBool());
  EXPECT_EQ(dig(Q, {"result", "run", "result"})->asString(), "0");

  int64_t Div = -1;
  ASSERT_TRUE(okOf(
      openDoc(S, "(0 - 9223372036854775807 - 1) div (0 - 1)", &Div)));
  json::Value Next = call(S, "{\"method\":\"query\",\"params\":{\"doc\":" +
                                 std::to_string(Div) + ",\"what\":\"run\"}}");
  ASSERT_TRUE(okOf(Next));
  EXPECT_EQ(dig(Next, {"result", "run", "result"})->asString(),
            "-9223372036854775808");
}

TEST(ServerProtocol, RunAfterLiteralEditRunsNewRevision) {
  // A literal-only edit takes the reuse tier, but `query run` must execute
  // the edited text, exactly as a fresh open of it would.
  driver::Session S;
  int64_t Doc = -1;
  ASSERT_TRUE(okOf(openDoc(S, "1 + 2", &Doc)));
  json::Value E = call(S, "{\"method\":\"edit\",\"params\":{\"doc\":" +
                              std::to_string(Doc) +
                              ",\"start\":4,\"length\":1,\"text\":\"5\"}}");
  ASSERT_TRUE(okOf(E));
  EXPECT_EQ(dig(E, {"result", "tier"})->asString(), "reuse");
  json::Value Q = call(S, "{\"method\":\"query\",\"params\":{\"doc\":" +
                              std::to_string(Doc) + ",\"what\":\"run\"}}");
  ASSERT_TRUE(okOf(Q));
  EXPECT_EQ(dig(Q, {"result", "run", "result"})->asString(), "6");
  expectMatchesOracle(S, Doc, "1 + 5", "after literal edit");
}

TEST(ServerProtocol, TimingsPresentOnEveryResponse) {
  driver::Session S;
  for (const char *Req :
       {"{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}",
        "garbage", "{\"method\":\"nope\"}"}) {
    json::Value R = call(S, Req);
    const json::Value *Total = dig(R, {"timings", "total_us"});
    ASSERT_NE(Total, nullptr) << Req;
    EXPECT_TRUE(Total->isInt()) << Req;
  }
}

TEST(ServerProtocol, TimingsShapePerRequestKind) {
  // `timings` is the last member of every response: perfbench and the
  // byte comparisons here cut it off with rfind. A request that ran the
  // front end carries the five stage keys before total_us, and the four
  // analysis keys read 0 when no analysis ran (reuse tier, front-end
  // failure). Queries and closes carry total_us alone.
  const std::vector<std::string> Staged = {"frontend_us", "closure_us",
                                           "congen_us",   "solve_us",
                                           "extract_us",  "total_us"};
  const std::vector<std::string> TotalOnly = {"total_us"};
  driver::Session S;
  auto Check = [&](const std::string &Request,
                   const std::vector<std::string> &Keys, bool Analyzed) {
    SCOPED_TRACE(Request);
    std::string Response = S.handleLine(Request);
    json::Value R;
    std::string Error;
    EXPECT_TRUE(json::parseJson(Response, R, Error)) << Error;
    EXPECT_NE(Response.rfind(",\"timings\":{"), std::string::npos);
    if (R.members().empty() || R.members().back().first != "timings") {
      ADD_FAILURE() << "timings is not the last member: " << Response;
      return R;
    }
    const json::Value &T = R.members().back().second;
    std::vector<std::string> Got;
    for (const auto &[Key, V] : T.members())
      Got.push_back(Key);
    EXPECT_EQ(Got, Keys) << Response;
    if (Keys == Staged && !Analyzed) {
      for (const char *Key :
           {"closure_us", "congen_us", "solve_us", "extract_us"}) {
        EXPECT_EQ(T.find(Key)->asInt(-1), 0) << Key << " in " << Response;
      }
    }
    return R;
  };

  // "let x = 1 in x + 2 end": the literal 1 is at byte 8, the + at 15.
  json::Value Open = Check(
      "{\"method\":\"open\",\"params\":{\"source\":\"let x = 1 in x + 2 "
      "end\"}}",
      Staged, true);
  ASSERT_TRUE(okOf(Open));
  const std::string Doc =
      std::to_string(dig(Open, {"result", "doc"})->asInt());
  auto Edit = [&](int Start, const char *Text) {
    return "{\"method\":\"edit\",\"params\":{\"doc\":" + Doc +
           ",\"start\":" + std::to_string(Start) +
           ",\"length\":1,\"text\":\"" + Text + "\"}}";
  };
  json::Value Full = Check(Edit(15, "*"), Staged, true);
  EXPECT_EQ(dig(Full, {"result", "tier"})->asString(), "full");
  json::Value Reuse = Check(Edit(8, "5"), Staged, false);
  EXPECT_EQ(dig(Reuse, {"result", "tier"})->asString(), "reuse");
  EXPECT_FALSE(okOf(Check(Edit(15, "* *"), Staged, false)));
  EXPECT_FALSE(okOf(Check(
      "{\"method\":\"open\",\"params\":{\"source\":\"1 + true\"}}", Staged,
      false)));

  // No front end ran: total_us alone, errors included.
  for (const char *What : {"report", "domains", "run"})
    EXPECT_TRUE(okOf(Check("{\"method\":\"query\",\"params\":{\"doc\":" +
                               Doc + ",\"what\":\"" + What + "\"}}",
                           TotalOnly, false)));
  EXPECT_TRUE(okOf(Check(
      "{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}", TotalOnly,
      false)));
  EXPECT_FALSE(okOf(Check("{\"method\":\"open\",\"params\":{}}", TotalOnly,
                          false)));
  EXPECT_FALSE(okOf(Check("garbage", TotalOnly, false)));
  EXPECT_TRUE(okOf(Check("{\"method\":\"close\",\"params\":{\"doc\":" + Doc +
                             "}}",
                         TotalOnly, false)));
}

TEST(ServerProtocol, MetricsArenaPoolKeysMatchAflcMetrics) {
  // `query metrics` and `aflc --metrics` report the arena pool through
  // one emitter (driver::recordMemoryMetrics), so the server's
  // memory.arena_pool object has exactly the CLI scope's keys, in order.
  MetricsRegistry Cli;
  driver::recordMemoryMetrics(Cli);
  json::Value CliJson;
  std::string Error;
  ASSERT_TRUE(json::parseJson(Cli.json(), CliJson, Error)) << Error;
  const json::Value *CliPool = dig(CliJson, {"memory", "arena_pool"});
  ASSERT_NE(CliPool, nullptr);
  std::vector<std::string> CliKeys;
  for (const auto &[Key, V] : CliPool->members())
    CliKeys.push_back(Key);

  driver::Session S;
  json::Value M =
      call(S, "{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}");
  ASSERT_TRUE(okOf(M));
  const json::Value *Pool =
      dig(M, {"result", "metrics", "memory", "arena_pool"});
  ASSERT_NE(Pool, nullptr);
  std::vector<std::string> Keys;
  for (const auto &[Key, V] : Pool->members()) {
    Keys.push_back(Key);
    EXPECT_TRUE(V.isInt()) << Key;
  }
  EXPECT_EQ(Keys, CliKeys);
  // The drop count and the cap are part of the shared scope.
  EXPECT_NE(Pool->find("discarded"), nullptr);
  EXPECT_NE(Pool->find("max_pooled"), nullptr);
}

//===----------------------------------------------------------------------===//
// Robustness: malformed requests must produce errors, never crashes.
//===----------------------------------------------------------------------===//

TEST(ServerRobustness, MalformedRequests) {
  driver::Session S;
  const char *Bad[] = {
      "",                                       // empty (not even JSON)
      "{",                                      // truncated object
      "{\"method\":\"open\"",                   // truncated mid-object
      "[1,2,3]",                                // not an object
      "42",                                     // not an object
      "{\"params\":{}}",                        // missing method
      "{\"method\":42}",                        // non-string method
      "{\"method\":\"frobnicate\"}",            // unknown method
      "{\"method\":\"open\"}",                  // open without params
      "{\"method\":\"open\",\"params\":{}}",    // open without source
      "{\"method\":\"open\",\"params\":{\"source\":7}}", // non-string source
      "{\"method\":\"open\",\"params\":\"x\"}", // params not an object
      "{\"method\":\"edit\",\"params\":{\"doc\":99}}",   // unknown doc
      "{\"method\":\"query\",\"params\":{\"doc\":1,\"what\":\"report\"}}",
      "{\"method\":\"close\",\"params\":{\"doc\":1}}",
      "{\"method\":\"query\",\"params\":{\"doc\":true,\"what\":\"report\"}}",
  };
  for (const char *Req : Bad) {
    json::Value R = call(S, Req);
    EXPECT_FALSE(okOf(R)) << Req;
    const json::Value *E = R.find("error");
    ASSERT_NE(E, nullptr) << Req;
    EXPECT_TRUE(E->isString()) << Req;
    EXPECT_FALSE(E->asString().empty()) << Req;
  }
  EXPECT_FALSE(S.shutdownRequested());
}

TEST(ServerRobustness, OpenRejectsBrokenSource) {
  driver::Session S;
  int64_t Doc = -1;
  // Parse error, then a type error: both fail without opening a document.
  json::Value R1 = openDoc(S, "let x = in", &Doc);
  EXPECT_FALSE(okOf(R1));
  json::Value R2 = openDoc(S, "1 + true", &Doc);
  EXPECT_FALSE(okOf(R2));
  json::Value M =
      call(S, "{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}");
  EXPECT_EQ(dig(M, {"result", "metrics", "open_docs"})->asInt(), 0);
}

TEST(ServerRobustness, EditValidationAndRevert) {
  driver::Session S;
  const std::string Text = "let x = 1 in x + 2 end";
  int64_t Doc = -1;
  ASSERT_TRUE(okOf(openDoc(S, Text, &Doc)));
  const std::string DocStr = std::to_string(Doc);

  // Span outside the document.
  json::Value R1 =
      call(S, "{\"method\":\"edit\",\"params\":{\"doc\":" + DocStr +
                  ",\"start\":9999,\"length\":1,\"text\":\"2\"}}");
  EXPECT_FALSE(okOf(R1));
  // Negative length.
  json::Value R2 =
      call(S, "{\"method\":\"edit\",\"params\":{\"doc\":" + DocStr +
                  ",\"start\":0,\"length\":-4,\"text\":\"2\"}}");
  EXPECT_FALSE(okOf(R2));
  // A length whose end offset overflows int64: an error naming the
  // requested span, never a wrapped-around sum.
  json::Value RBig =
      call(S, "{\"method\":\"edit\",\"params\":{\"doc\":" + DocStr +
                  ",\"start\":1,\"length\":9223372036854775807,"
                  "\"text\":\"2\"}}");
  ASSERT_FALSE(okOf(RBig));
  const std::string BigError = RBig.find("error")->asString();
  EXPECT_NE(BigError.find("9223372036854775807"), std::string::npos)
      << BigError;
  EXPECT_EQ(BigError.find('-'), std::string::npos) << BigError;
  // Missing text.
  json::Value R3 =
      call(S, "{\"method\":\"edit\",\"params\":{\"doc\":" + DocStr +
                  ",\"start\":0,\"length\":0}}");
  EXPECT_FALSE(okOf(R3));
  // An edit that breaks the program: rejected, document unchanged.
  json::Value R4 =
      call(S, "{\"method\":\"edit\",\"params\":{\"doc\":" + DocStr +
                  ",\"start\":8,\"length\":1,\"text\":\"(((\"}}");
  EXPECT_FALSE(okOf(R4));
  expectMatchesOracle(S, Doc, Text, "after rejected edits");

  // Edits to a closed document fail.
  call(S, "{\"method\":\"close\",\"params\":{\"doc\":" + DocStr + "}}");
  json::Value R5 =
      call(S, "{\"method\":\"edit\",\"params\":{\"doc\":" + DocStr +
                  ",\"start\":0,\"length\":0,\"text\":\"\"}}");
  EXPECT_FALSE(okOf(R5));
}

//===----------------------------------------------------------------------===//
// Differential harness: random edit scripts vs. the from-scratch oracle.
//===----------------------------------------------------------------------===//

/// Maximal digit runs that form standalone integer literals (not adjacent
/// to identifier characters), the edit targets of the random scripts.
std::vector<std::pair<size_t, size_t>> literalTokens(const std::string &S) {
  std::vector<std::pair<size_t, size_t>> Out;
  auto IsWord = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
  };
  size_t I = 0;
  while (I < S.size()) {
    if (!std::isdigit(static_cast<unsigned char>(S[I]))) {
      ++I;
      continue;
    }
    size_t Begin = I;
    while (I < S.size() && std::isdigit(static_cast<unsigned char>(S[I])))
      ++I;
    bool LeftOk = Begin == 0 || !IsWord(S[Begin - 1]);
    bool RightOk = I == S.size() || !IsWord(S[I]);
    if (LeftOk && RightOk)
      Out.push_back({Begin, I - Begin});
  }
  return Out;
}

/// Deterministic 64-bit LCG (results must not depend on libc rand).
struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 33;
  }
};

struct TierCounts {
  int Reuse = 0;
  int Full = 0;
};

/// Opens \p Source and applies \p NumEdits random literal edits, checking
/// the server against the oracle after each one. Accumulates the tiers
/// taken into \p Tiers.
void runEditScript(const std::string &Name, const std::string &Source,
                   int NumEdits, uint64_t Seed, TierCounts &Tiers) {
  driver::Session S;
  int64_t Doc = -1;
  json::Value R = openDoc(S, Source, &Doc);
  ASSERT_TRUE(okOf(R)) << Name;
  std::string Text = Source;
  expectMatchesOracle(S, Doc, Text, Name + " after open");

  Lcg Rng(Seed);
  for (int E = 0; E != NumEdits; ++E) {
    std::vector<std::pair<size_t, size_t>> Tokens = literalTokens(Text);
    ASSERT_FALSE(Tokens.empty()) << Name << ": no literals left to edit";
    auto [Pos, Len] = Tokens[Rng.next() % Tokens.size()];
    std::string Old = Text.substr(Pos, Len);
    std::string Replacement;
    switch (Rng.next() % 5) {
    case 0: // literal-only: another number
      Replacement = std::to_string(Rng.next() % 95 + 1);
      break;
    case 1: // arrow-free subtree growth around the literal
      Replacement = "(" + Old + " + " + std::to_string(Rng.next() % 9 + 1) +
                    ")";
      break;
    case 2: // arrow-free subtree with a conditional
      Replacement = "(if true then " + Old + " else " +
                    std::to_string(Rng.next() % 9 + 1) + ")";
      break;
    case 3: // lambda in the replaced subtree
      Replacement = "((fn q => q + " + std::to_string(Rng.next() % 9 + 1) +
                    ") " + Old + ")";
      break;
    default: // shrink back to a bare literal (often a multi-node break)
      Replacement = std::to_string(Rng.next() % 9 + 1);
      break;
    }
    std::string Where = Name + " edit " + std::to_string(E) + " @" +
                        std::to_string(Pos) + " '" + Old + "' -> '" +
                        Replacement + "'";
    json::Value ER =
        call(S, "{\"method\":\"edit\",\"params\":{\"doc\":" +
                    std::to_string(Doc) + ",\"start\":" + std::to_string(Pos) +
                    ",\"length\":" + std::to_string(Len) +
                    ",\"text\":" + jquote(Replacement) + "}}");
    ASSERT_TRUE(okOf(ER)) << Where;
    Text.replace(Pos, Len, Replacement);

    const json::Value *Tier = dig(ER, {"result", "tier"});
    ASSERT_NE(Tier, nullptr) << Where;
    if (Tier->asString() == "reuse") {
      ++Tiers.Reuse;
      // A reuse-tier edit processes no context.
      EXPECT_EQ(
          dig(ER, {"result", "analysis", "processed_contexts"})->asInt(), 0)
          << Where;
    } else if (Tier->asString() == "full") {
      ++Tiers.Full;
    } else {
      ADD_FAILURE() << Where << ": unknown tier " << Tier->asString();
    }

    expectMatchesOracle(S, Doc, Text, Where);
  }
}

TEST(ServerDifferential, CorpusEditScripts) {
  struct Program {
    const char *Name;
    std::string Source;
    int Edits;
  };
  const Program Corpus[] = {
      {"appel", programs::appelSource(6), 40},
      {"quicksort", programs::quicksortSource(8), 40},
      {"fib", programs::fibSource(7), 30},
      {"randlist", programs::randlistSource(6), 30},
      {"fac", programs::facSource(5), 30},
      {"example21", programs::example21Source(), 20},
      {"escape",
       "let mk = fn a => fn x => x + a in let f = (mk 3, mk 4) in "
       "(fst f) 10 + (snd f) 20 end end",
       20},
  };
  TierCounts Total;
  uint64_t Seed = 0x5eed;
  int TotalEdits = 0;
  for (const Program &P : Corpus) {
    runEditScript(P.Name, P.Source, P.Edits, Seed++, Total);
    TotalEdits += P.Edits;
    if (::testing::Test::HasFatalFailure())
      return;
  }
  // The scripts must actually exercise both tiers, and meet the
  // acceptance floor of 200+ verified random edits.
  EXPECT_GE(TotalEdits, 200);
  EXPECT_GT(Total.Reuse, 0);
  EXPECT_GT(Total.Full, 0);
}

//===----------------------------------------------------------------------===//
// Incrementality: on a warm document a literal edit reuses the analysis
// outright, and a structural edit re-analyzes from scratch but replays the
// constraint shards it did not touch.
//===----------------------------------------------------------------------===//

TEST(ServerIncrementality, WarmEditsReuseAnalysisOrShards) {
  driver::Session S;
  std::string Text = programs::appelSource(16);
  int64_t Doc = -1;
  json::Value R = openDoc(S, Text, &Doc);
  ASSERT_TRUE(okOf(R));
  ASSERT_GT(dig(R, {"result", "analysis", "processed_contexts"})->asInt(), 0);

  // A literal-only edit reuses the whole analysis: no context processed,
  // every shard reused.
  std::vector<std::pair<size_t, size_t>> Tokens = literalTokens(Text);
  ASSERT_FALSE(Tokens.empty());
  auto [Pos, Len] = Tokens.back();
  json::Value E1 =
      call(S, "{\"method\":\"edit\",\"params\":{\"doc\":" +
                  std::to_string(Doc) + ",\"start\":" + std::to_string(Pos) +
                  ",\"length\":" + std::to_string(Len) +
                  ",\"text\":\"77\"}}");
  ASSERT_TRUE(okOf(E1));
  EXPECT_EQ(dig(E1, {"result", "tier"})->asString(), "reuse");
  EXPECT_EQ(dig(E1, {"result", "analysis", "processed_contexts"})->asInt(), 0);
  EXPECT_EQ(dig(E1, {"result", "analysis", "shards_reused"})->asInt(),
            dig(E1, {"result", "analysis", "shards"})->asInt());
  Text.replace(Pos, Len, "77");

  // A structural (arrow-free subtree) edit takes the full tier ...
  Tokens = literalTokens(Text);
  ASSERT_FALSE(Tokens.empty());
  auto [Pos2, Len2] = Tokens.back();
  std::string Sub = "(" + Text.substr(Pos2, Len2) + " + 1)";
  json::Value E2 =
      call(S, "{\"method\":\"edit\",\"params\":{\"doc\":" +
                  std::to_string(Doc) + ",\"start\":" + std::to_string(Pos2) +
                  ",\"length\":" + std::to_string(Len2) +
                  ",\"text\":" + jquote(Sub) + "}}");
  ASSERT_TRUE(okOf(E2));
  EXPECT_EQ(dig(E2, {"result", "tier"})->asString(), "full");
  Text.replace(Pos2, Len2, Sub);
  expectMatchesOracle(S, Doc, Text, "warm structural edit");

  // ... and still re-solves only the shards its constraints changed; the
  // rest replay from the per-document cache.
  EXPECT_GT(dig(E2, {"result", "analysis", "shards_reused"})->asInt(), 0);
}

TEST(ServerProtocol, ShardCacheHoldsTheLiveRevision) {
  // A document's shard cache keeps only the shards its latest solve used,
  // so across structural edits it never holds more entries than the live
  // revision has shards, and closing the document frees it.
  driver::Session S;
  std::string Text = programs::quicksortSource(8);
  int64_t Doc = -1;
  ASSERT_TRUE(okOf(openDoc(S, Text, &Doc)));
  auto CacheMetric = [&](const char *Leaf) {
    json::Value M =
        call(S, "{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}");
    const json::Value *V =
        dig(M, {"result", "metrics", "memory", "shard_cache", Leaf});
    EXPECT_NE(V, nullptr) << Leaf;
    return V ? V->asInt(-1) : -1;
  };
  EXPECT_EQ(CacheMetric("documents"), 1);

  int FullEdits = 0;
  for (int E = 0; E != 10; ++E) {
    std::vector<std::pair<size_t, size_t>> Tokens = literalTokens(Text);
    ASSERT_FALSE(Tokens.empty());
    auto [Pos, Len] = Tokens[(E * 7) % Tokens.size()];
    std::string Sub = "(";
    Sub.append(Text, Pos, Len).append(" + ").append(std::to_string(E + 1));
    Sub += ')';
    json::Value R =
        call(S, "{\"method\":\"edit\",\"params\":{\"doc\":" +
                    std::to_string(Doc) + ",\"start\":" + std::to_string(Pos) +
                    ",\"length\":" + std::to_string(Len) +
                    ",\"text\":" + jquote(Sub) + "}}");
    ASSERT_TRUE(okOf(R)) << "edit " << E;
    Text.replace(Pos, Len, Sub);
    if (dig(R, {"result", "tier"})->asString() != "full")
      continue;
    ++FullEdits;
    const int64_t Entries = CacheMetric("entries");
    EXPECT_GT(Entries, 0) << "edit " << E;
    EXPECT_LE(Entries, dig(R, {"result", "analysis", "shards"})->asInt())
        << "edit " << E;
    EXPECT_GT(CacheMetric("bytes"), 0) << "edit " << E;
  }
  EXPECT_EQ(FullEdits, 10);

  call(S, "{\"method\":\"close\",\"params\":{\"doc\":" + std::to_string(Doc) +
              "}}");
  EXPECT_EQ(CacheMetric("documents"), 0);
  EXPECT_EQ(CacheMetric("entries"), 0);
  EXPECT_EQ(CacheMetric("bytes"), 0);
}

//===----------------------------------------------------------------------===//
// Function-body edits: replacing the body of a lambda or letrec takes the
// full tier and answers with a fresh open's report and domains.
//===----------------------------------------------------------------------===//

/// The raw `result` object of a `query` response, byte for byte.
std::string queryResult(driver::Session &S, int64_t DocId,
                        const std::string &What) {
  std::string Response = S.handleLine(
      "{\"method\":\"query\",\"params\":{\"doc\":" + std::to_string(DocId) +
      ",\"what\":\"" + What + "\"}}");
  size_t Begin = Response.find("\"result\":");
  size_t End = Response.rfind(",\"timings\":{");
  EXPECT_NE(Begin, std::string::npos) << Response;
  EXPECT_NE(End, std::string::npos) << Response;
  if (Begin == std::string::npos || End == std::string::npos || End < Begin)
    return "";
  return Response.substr(Begin, End - Begin);
}

/// Opens \p Source, replaces its function-body literal `45` by `(45 + 3)`,
/// and checks that the edit answers ok on the full tier with the same
/// report and domains as a fresh open of the edited text.
void expectFunctionBodyEditIsFull(const std::string &Source) {
  driver::Session S;
  int64_t Doc = -1;
  ASSERT_TRUE(okOf(openDoc(S, Source, &Doc))) << Source;
  size_t Pos = Source.find("45");
  ASSERT_NE(Pos, std::string::npos);
  const std::string Replacement = "(45 + 3)";
  json::Value E =
      call(S, "{\"method\":\"edit\",\"params\":{\"doc\":" +
                  std::to_string(Doc) + ",\"start\":" + std::to_string(Pos) +
                  ",\"length\":2,\"text\":" + jquote(Replacement) + "}}");
  ASSERT_TRUE(okOf(E)) << Source;
  const json::Value *Tier = dig(E, {"result", "tier"});
  ASSERT_NE(Tier, nullptr) << Source;
  EXPECT_EQ(Tier->asString(), "full") << Source;

  std::string Text = Source;
  Text.replace(Pos, 2, Replacement);
  int64_t Fresh = -1;
  ASSERT_TRUE(okOf(openDoc(S, Text, &Fresh))) << Text;
  for (const char *What : {"report", "domains"})
    EXPECT_EQ(queryResult(S, Doc, What), queryResult(S, Fresh, What))
        << Text << ": " << What;
  expectMatchesOracle(S, Doc, Text, Text);
}

TEST(ServerIncrementality, LambdaBodyEditTakesFullTier) {
  expectFunctionBodyEditIsFull("(fn x => 45) 3");
}

TEST(ServerIncrementality, LetrecBodyEditTakesFullTier) {
  expectFunctionBodyEditIsFull("letrec f n = 45 in f 1 end");
}

//===----------------------------------------------------------------------===//
// The JSON reader itself.
//===----------------------------------------------------------------------===//

TEST(JsonReader, ParsesScalarsAndNesting) {
  json::Value V;
  std::string E;
  ASSERT_TRUE(json::parseJson(
      " {\"a\": [1, -2.5, true, null, \"x\\n\\u0041\"], \"b\": {}} ", V, E))
      << E;
  ASSERT_TRUE(V.isObject());
  const json::Value *A = V.find("a");
  ASSERT_NE(A, nullptr);
  ASSERT_TRUE(A->isArray());
  ASSERT_EQ(A->items().size(), 5u);
  EXPECT_EQ(A->items()[0].asInt(), 1);
  EXPECT_FALSE(A->items()[1].isInt());
  EXPECT_DOUBLE_EQ(A->items()[1].asDouble(), -2.5);
  EXPECT_TRUE(A->items()[2].asBool());
  EXPECT_TRUE(A->items()[3].isNull());
  EXPECT_EQ(A->items()[4].asString(), "x\nA");
  EXPECT_NE(V.find("b"), nullptr);
}

TEST(JsonReader, RejectsMalformedInput) {
  const char *Bad[] = {
      "",       "{",        "}",           "[1,]",        "{\"a\":}",
      "01",     "1.",       "+1",          "tru",         "\"unterminated",
      "[1] []", "nullx",    "{\"a\" 1}",   "{1: 2}",      "\"\\q\"",
      "--1",    "[1,2,,3]", "{\"a\":1,}",  "\x01",        "[\"\\u12\"]",
  };
  for (const char *Text : Bad) {
    json::Value V;
    std::string E;
    EXPECT_FALSE(json::parseJson(Text, V, E)) << Text;
    EXPECT_FALSE(E.empty()) << Text;
  }
}

TEST(JsonReader, DepthCapStopsAdversarialNesting) {
  std::string Deep(100000, '[');
  json::Value V;
  std::string E;
  EXPECT_FALSE(json::parseJson(Deep, V, E));
}

//===----------------------------------------------------------------------===//
// Framing: the LineSplitter shared by the stdio and socket transports.
//===----------------------------------------------------------------------===//

TEST(LineSplitter, SplitsAcrossChunksAndStripsCr) {
  driver::LineSplitter Split(64);
  std::string L;
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::None);
  Split.feed("ab", 2);
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::None);
  Split.feed("c\r\nsecond\nthi", 13);
  ASSERT_EQ(Split.next(L), driver::LineSplitter::Item::Line);
  EXPECT_EQ(L, "abc"); // CR stripped
  ASSERT_EQ(Split.next(L), driver::LineSplitter::Item::Line);
  EXPECT_EQ(L, "second");
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::None);
  Split.feed("rd\n\r\n", 5);
  ASSERT_EQ(Split.next(L), driver::LineSplitter::Item::Line);
  EXPECT_EQ(L, "third");
  // A bare CRLF is an empty line after stripping, not a CR line.
  ASSERT_EQ(Split.next(L), driver::LineSplitter::Item::Line);
  EXPECT_EQ(L, "");
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::None);
}

TEST(LineSplitter, FinalUnterminatedLineAtEof) {
  driver::LineSplitter Split(64);
  std::string L;
  Split.feed("one\ntail", 8);
  ASSERT_EQ(Split.next(L), driver::LineSplitter::Item::Line);
  EXPECT_EQ(L, "one");
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::None);
  Split.finish();
  ASSERT_EQ(Split.next(L), driver::LineSplitter::Item::Line);
  EXPECT_EQ(L, "tail");
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::None);
}

TEST(LineSplitter, OversizeReportedOnceAndDiscarded) {
  driver::LineSplitter Split(8);
  std::string L;
  // The cap fires mid-line, before the newline even arrives...
  Split.feed("0123456789", 10);
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::Oversize);
  // ...and the rest of the long line is discarded without a second report.
  Split.feed("morelongbytes", 13);
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::None);
  Split.feed("stilllong\nok\n", 13);
  ASSERT_EQ(Split.next(L), driver::LineSplitter::Item::Line);
  EXPECT_EQ(L, "ok");
  // A complete-but-too-long line arriving in one chunk reports once too.
  Split.feed("0123456789\nfine\n", 16);
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::Oversize);
  ASSERT_EQ(Split.next(L), driver::LineSplitter::Item::Line);
  EXPECT_EQ(L, "fine");
  // Exactly at the cap is not oversize.
  Split.feed("01234567\n", 9);
  ASSERT_EQ(Split.next(L), driver::LineSplitter::Item::Line);
  EXPECT_EQ(L, "01234567");
  // An unterminated oversize line at EOF stays discarded.
  Split.feed("waytoolongtail", 14);
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::Oversize);
  Split.finish();
  EXPECT_EQ(Split.next(L), driver::LineSplitter::Item::None);
}

//===----------------------------------------------------------------------===//
// The stdio transport: CRLF, request caps, and EOF handling (the PR-9
// protocol bugfixes).
//===----------------------------------------------------------------------===//

/// Runs the stdio server over \p Input and returns the parsed response
/// lines.
std::vector<json::Value> runStdio(const std::string &Input,
                                  size_t MaxRequestBytes = 1u << 20) {
  driver::Server S;
  std::istringstream In(Input);
  std::ostringstream Out;
  EXPECT_EQ(S.run(In, Out, MaxRequestBytes), 0);
  std::vector<json::Value> Responses;
  std::istringstream Lines(Out.str());
  std::string Line;
  while (std::getline(Lines, Line)) {
    json::Value V;
    std::string Error;
    EXPECT_TRUE(json::parseJson(Line, V, Error)) << Error << " in: " << Line;
    Responses.push_back(std::move(V));
  }
  return Responses;
}

TEST(ServerStdio, CrlfRequestsAreServed) {
  // CRLF line endings must not leak the '\r' into the JSON reader, and a
  // bare CRLF is a blank line to skip, not a parse error.
  std::vector<json::Value> R =
      runStdio("{\"id\":1,\"method\":\"query\",\"params\":{\"what\":"
               "\"metrics\"}}\r\n"
               "\r\n"
               "{\"id\":2,\"method\":\"shutdown\"}\r\n");
  ASSERT_EQ(R.size(), 2u);
  EXPECT_TRUE(okOf(R[0]));
  EXPECT_EQ(R[0].find("id")->asInt(), 1);
  EXPECT_TRUE(okOf(R[1]));
  EXPECT_EQ(R[1].find("id")->asInt(), 2);
}

TEST(ServerStdio, FinalUnterminatedLineIsAnswered) {
  std::vector<json::Value> R = runStdio(
      "{\"id\":1,\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}");
  ASSERT_EQ(R.size(), 1u);
  EXPECT_TRUE(okOf(R[0]));
  EXPECT_EQ(R[0].find("id")->asInt(), 1);
}

TEST(ServerStdio, OversizedRequestGetsProtocolError) {
  std::string Long = "{\"method\":\"open\",\"params\":{\"source\":\"" +
                     std::string(300, 'x') + "\"}}";
  std::vector<json::Value> R = runStdio(
      Long + "\n{\"id\":2,\"method\":\"query\",\"params\":{\"what\":"
             "\"metrics\"}}\n",
      128);
  ASSERT_EQ(R.size(), 2u);
  EXPECT_FALSE(okOf(R[0]));
  EXPECT_NE(R[0].find("error")->asString().find("limit"), std::string::npos);
  // The session survives: the next request is served normally, and the
  // failed request is visible in its error counters.
  EXPECT_TRUE(okOf(R[1]));
  EXPECT_EQ(dig(R[1], {"result", "metrics", "errors"})->asInt(), 1);
  EXPECT_EQ(dig(R[1], {"result", "metrics", "requests"})->asInt(), 2);
}

/// An input streambuf over a file descriptor whose underflow returns what
/// one read(2) delivers, the way a pipe feeds `aflc --serve`.
class FdInBuf : public std::streambuf {
public:
  explicit FdInBuf(int Fd) : Fd(Fd) {}

protected:
  int_type underflow() override {
    ssize_t N;
    do
      N = ::read(Fd, Buf, sizeof(Buf));
    while (N < 0 && errno == EINTR);
    if (N <= 0)
      return traits_type::eof();
    setg(Buf, Buf, Buf + N);
    return traits_type::to_int_type(Buf[0]);
  }

private:
  int Fd;
  char Buf[256];
};

/// An output streambuf that publishes its text at every flush, for a
/// reader on another thread.
class FlushedText : public std::stringbuf {
public:
  /// Waits up to \p Timeout for \p N complete lines; returns the text
  /// flushed so far either way.
  std::string waitForLines(size_t N, std::chrono::milliseconds Timeout) {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait_for(Lock, Timeout, [&] {
      return static_cast<size_t>(
                 std::count(Text.begin(), Text.end(), '\n')) >= N;
    });
    return Text;
  }

protected:
  int sync() override {
    std::lock_guard<std::mutex> Lock(M);
    Text = str();
    CV.notify_all();
    return 0;
  }

private:
  std::mutex M;
  std::condition_variable CV;
  std::string Text;
};

TEST(ServerStdio, AnswersEachRequestBeforeEof) {
  // A client that writes one request to the pipe and waits for its reply
  // must get it while the pipe stays open; the final unterminated line is
  // still answered once the pipe closes.
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  FdInBuf InBuf(Fds[0]);
  std::istream In(&InBuf);
  FlushedText OutBuf;
  std::ostream Out(&OutBuf);
  std::thread Serving([&] { driver::Server().run(In, Out); });

  auto Send = [&](const std::string &Bytes) {
    EXPECT_EQ(::write(Fds[1], Bytes.data(), Bytes.size()),
              static_cast<ssize_t>(Bytes.size()));
  };
  const auto Timeout = std::chrono::seconds(10);
  Send("{\"id\":1,\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}\n");
  EXPECT_NE(OutBuf.waitForLines(1, Timeout).find("\"id\":1"),
            std::string::npos)
      << "no response to a request while the pipe is open";
  Send("{\"id\":2,\"method\":\"open\",\"params\":{\"source\":\"1 + 2\"}}\n");
  EXPECT_NE(OutBuf.waitForLines(2, Timeout).find("\"id\":2"),
            std::string::npos)
      << "no response to the second request while the pipe is open";
  Send("{\"id\":3,\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}");
  ::close(Fds[1]);
  Serving.join();
  ::close(Fds[0]);

  std::istringstream Lines(OutBuf.waitForLines(3, Timeout));
  std::string Line;
  int64_t Id = 0;
  while (std::getline(Lines, Line)) {
    json::Value V;
    std::string Error;
    ASSERT_TRUE(json::parseJson(Line, V, Error)) << Error << " in: " << Line;
    EXPECT_TRUE(okOf(V)) << Line;
    EXPECT_EQ(V.find("id")->asInt(), ++Id);
  }
  EXPECT_EQ(Id, 3);
}

TEST(ServerStdio, MetricsHaveNoConnectionsObject) {
  // The "connections" scope belongs to the socket transport only.
  std::vector<json::Value> R = runStdio(
      "{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}\n");
  ASSERT_EQ(R.size(), 1u);
  ASSERT_TRUE(okOf(R[0]));
  EXPECT_EQ(dig(R[0], {"result", "metrics", "connections"}), nullptr);
}

//===----------------------------------------------------------------------===//
// The socket transport: concurrency, overload, timeouts, shutdown.
//===----------------------------------------------------------------------===//

/// A listening server on an ephemeral loopback port, with serve() running
/// on its own thread.
struct TestServer {
  driver::Server S;
  std::thread T;
  bool Ok = false;

  explicit TestServer(unsigned MaxConnections = 8, unsigned IdleTimeoutMs = 0,
                      size_t MaxRequestBytes = 1u << 20) {
    driver::ServeOptions O;
    O.Port = 0;
    O.MaxConnections = MaxConnections;
    O.IdleTimeoutMs = IdleTimeoutMs;
    O.MaxRequestBytes = MaxRequestBytes;
    O.InstallSignalHandlers = false; // keep the test harness's handlers
    std::string Error;
    Ok = S.listen(O, Error);
    EXPECT_TRUE(Ok) << Error;
    if (Ok)
      T = std::thread([this] { S.serve(); });
  }

  uint16_t port() const { return S.port(); }

  /// Blocks until serve() returned (after an in-band shutdown request).
  void join() {
    if (T.joinable())
      T.join();
  }

  ~TestServer() {
    S.requestStop();
    join();
  }
};

/// A blocking line-oriented protocol client.
struct TestClient {
  support::Socket Sock;
  std::string Buf;

  bool connect(uint16_t Port) {
    std::string Error;
    Sock = support::Socket::connectTo(Port, Error);
    return Sock.valid();
  }

  bool send(const std::string &Bytes) { return Sock.sendAll(Bytes); }
  bool sendLine(const std::string &L) { return send(L + "\n"); }

  /// Reads one '\n'-terminated response line (terminator stripped).
  bool readLine(std::string &Out, int TimeoutMs = 60000) {
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        Out = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return true;
      }
      if (Sock.waitReadable(TimeoutMs) != support::Socket::Wait::Ready)
        return false;
      char Tmp[4096];
      long N = Sock.recvSome(Tmp, sizeof(Tmp));
      if (N <= 0)
        return false;
      Buf.append(Tmp, static_cast<size_t>(N));
    }
  }

  /// One request/response round trip; fails the test on transport errors.
  json::Value call(const std::string &Request) {
    EXPECT_TRUE(sendLine(Request));
    std::string Line;
    EXPECT_TRUE(readLine(Line)) << "no response to: " << Request;
    json::Value V;
    std::string Error;
    EXPECT_TRUE(json::parseJson(Line, V, Error)) << Error << " in: " << Line;
    return V;
  }
};

/// Strips the non-reproducible wall-clock objects (the trailing request
/// "timings" and any embedded run "micros") so two responses to the same
/// request can be compared byte-for-byte.
std::string stripTimings(const std::string &Resp) {
  std::string Out = Resp;
  size_t P = Out.rfind(",\"timings\":{");
  if (P != std::string::npos)
    Out = Out.substr(0, P) + "}";
  for (size_t M = Out.find("\"micros\":{"); M != std::string::npos;
       M = Out.find("\"micros\":{", M + 1)) {
    size_t Open = M + 9; // at '{'; micros objects are flat
    size_t Close = Out.find('}', Open);
    if (Close == std::string::npos)
      break;
    Out.erase(Open + 1, Close - Open - 1);
  }
  return Out;
}

TEST(ServerSocket, MultiClientDifferential) {
  // Four concurrent clients, each driving its own interleaved
  // open/edit/query transcript in lockstep with the others. Every
  // client's responses must be byte-identical (modulo wall-clock
  // timings) to a fresh single-session replay of its transcript — the
  // tentpole proof that sessions do not bleed into each other.
  const std::string Progs[4] = {
      "let x = 1 in x + 2 end",
      "let f = fn a => a + 3 in f 4 end",
      "let p = (5, 6) in fst p + snd p end",
      "let g = fn h => h 7 in g (fn z => z + 8) end",
  };
  std::vector<std::vector<std::string>> Transcripts;
  for (int C = 0; C != 4; ++C) {
    std::vector<std::string> T;
    T.push_back("{\"id\":1,\"method\":\"open\",\"params\":{\"source\":" +
                jquote(Progs[C]) + "}}");
    T.push_back("{\"id\":2,\"method\":\"query\",\"params\":{\"doc\":1,"
                "\"what\":\"report\"}}");
    // A literal-only edit (reuse tier) then a structural one.
    T.push_back("{\"id\":3,\"method\":\"edit\",\"params\":{\"doc\":1,"
                "\"start\":0,\"length\":0,\"text\":\"\"}}");
    T.push_back("{\"id\":4,\"method\":\"query\",\"params\":{\"doc\":1,"
                "\"what\":\"domains\"}}");
    T.push_back("{\"id\":5,\"method\":\"query\",\"params\":{\"doc\":1,"
                "\"what\":\"run\"}}");
    T.push_back("{\"id\":6,\"method\":\"close\",\"params\":{\"doc\":1}}");
    T.push_back("{\"id\":7,\"method\":\"query\",\"params\":{\"doc\":1,"
                "\"what\":\"report\"}}"); // now an error: doc closed
    Transcripts.push_back(std::move(T));
  }

  TestServer Srv(/*MaxConnections=*/8);
  ASSERT_TRUE(Srv.Ok);

  std::vector<std::vector<std::string>> Got(4);
  std::vector<std::thread> Clients;
  std::atomic<int> Failures{0};
  for (int C = 0; C != 4; ++C) {
    Clients.emplace_back([&, C] {
      TestClient Cl;
      if (!Cl.connect(Srv.port())) {
        ++Failures;
        return;
      }
      for (const std::string &Req : Transcripts[C]) {
        if (!Cl.sendLine(Req)) {
          ++Failures;
          return;
        }
        std::string Line;
        if (!Cl.readLine(Line)) {
          ++Failures;
          return;
        }
        Got[C].push_back(Line);
      }
    });
  }
  for (std::thread &T : Clients)
    T.join();
  ASSERT_EQ(Failures.load(), 0);

  for (int C = 0; C != 4; ++C) {
    driver::Session Replay;
    ASSERT_EQ(Got[C].size(), Transcripts[C].size()) << "client " << C;
    for (size_t I = 0; I != Transcripts[C].size(); ++I) {
      std::string Expect = Replay.handleLine(Transcripts[C][I]);
      EXPECT_EQ(stripTimings(Got[C][I]), stripTimings(Expect))
          << "client " << C << " request " << I;
    }
  }

  const driver::ConnectionCounters &Conn = Srv.S.connections();
  EXPECT_GE(Conn.Accepted.load(), 4u);
  EXPECT_EQ(Conn.Rejected.load(), 0u);
}

TEST(ServerSocket, CrlfAndBlankLinesOverSocket) {
  TestServer Srv;
  ASSERT_TRUE(Srv.Ok);
  TestClient Cl;
  ASSERT_TRUE(Cl.connect(Srv.port()));
  // A blank CRLF line produces no response; the CRLF-terminated request
  // after it is answered normally.
  ASSERT_TRUE(Cl.send("\r\n{\"id\":9,\"method\":\"query\",\"params\":{"
                      "\"what\":\"metrics\"}}\r\n"));
  std::string Line;
  ASSERT_TRUE(Cl.readLine(Line));
  json::Value R;
  std::string Error;
  ASSERT_TRUE(json::parseJson(Line, R, Error)) << Error;
  EXPECT_TRUE(okOf(R));
  EXPECT_EQ(R.find("id")->asInt(), 9);
}

TEST(ServerSocket, ConnectionMetricsExposed) {
  TestServer Srv;
  ASSERT_TRUE(Srv.Ok);
  TestClient Cl;
  ASSERT_TRUE(Cl.connect(Srv.port()));
  json::Value M =
      Cl.call("{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}");
  ASSERT_TRUE(okOf(M));
  const json::Value *Acc =
      dig(M, {"result", "metrics", "connections", "accepted"});
  const json::Value *Act =
      dig(M, {"result", "metrics", "connections", "active"});
  ASSERT_TRUE(Acc && Act);
  EXPECT_GE(Acc->asInt(), 1);
  EXPECT_GE(Act->asInt(), 1);
  EXPECT_NE(dig(M, {"result", "metrics", "connections", "rejected"}), nullptr);
  EXPECT_NE(dig(M, {"result", "metrics", "connections", "timed_out"}),
            nullptr);
}

TEST(ServerSocket, OverloadRepliesAndRecovers) {
  TestServer Srv(/*MaxConnections=*/1);
  ASSERT_TRUE(Srv.Ok);

  TestClient A;
  ASSERT_TRUE(A.connect(Srv.port()));
  // A full round trip guarantees the acceptor has registered A.
  EXPECT_TRUE(okOf(
      A.call("{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}")));

  // The connection over the cap gets a one-line overload error, then EOF.
  TestClient B;
  ASSERT_TRUE(B.connect(Srv.port()));
  std::string Line;
  ASSERT_TRUE(B.readLine(Line));
  json::Value R;
  std::string Error;
  ASSERT_TRUE(json::parseJson(Line, R, Error)) << Error << " in: " << Line;
  EXPECT_FALSE(okOf(R));
  EXPECT_NE(R.find("error")->asString().find("capacity"), std::string::npos);
  EXPECT_FALSE(B.readLine(Line, 5000));
  EXPECT_GE(Srv.S.connections().Rejected.load(), 1u);

  // Once A leaves, a retrying client gets a slot again.
  A.Sock.close();
  bool Recovered = false;
  for (int Try = 0; Try != 100 && !Recovered; ++Try) {
    TestClient C;
    if (!C.connect(Srv.port()))
      break;
    C.sendLine("{\"id\":1,\"method\":\"query\",\"params\":{\"what\":"
               "\"metrics\"}}");
    std::string L;
    if (C.readLine(L) && L.find("\"ok\":true") != std::string::npos) {
      Recovered = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_TRUE(Recovered);
}

TEST(ServerSocket, IdleConnectionTimesOut) {
  TestServer Srv(/*MaxConnections=*/4, /*IdleTimeoutMs=*/400);
  ASSERT_TRUE(Srv.Ok);
  TestClient Cl;
  ASSERT_TRUE(Cl.connect(Srv.port()));
  EXPECT_TRUE(okOf(
      Cl.call("{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}")));

  // Go idle: the server sends a final error line and closes.
  std::string Line;
  ASSERT_TRUE(Cl.readLine(Line, 30000));
  json::Value R;
  std::string Error;
  ASSERT_TRUE(json::parseJson(Line, R, Error)) << Error << " in: " << Line;
  EXPECT_FALSE(okOf(R));
  EXPECT_NE(R.find("error")->asString().find("idle"), std::string::npos);
  EXPECT_FALSE(Cl.readLine(Line, 5000)); // EOF after the timeout reply
  EXPECT_GE(Srv.S.connections().TimedOut.load(), 1u);
}

TEST(ServerSocket, MidRequestDisconnectLeavesServerServing) {
  TestServer Srv;
  ASSERT_TRUE(Srv.Ok);
  {
    TestClient Cl;
    ASSERT_TRUE(Cl.connect(Srv.port()));
    // Half a request, then the client vanishes without a newline.
    ASSERT_TRUE(Cl.send("{\"id\":1,\"method\":\"que"));
    Cl.Sock.close();
  }
  // The server must shrug it off and keep serving new connections.
  TestClient Next;
  ASSERT_TRUE(Next.connect(Srv.port()));
  EXPECT_TRUE(okOf(
      Next.call("{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}")));
}

TEST(ServerSocket, HalfCloseStillAnswersFinalLine) {
  TestServer Srv;
  ASSERT_TRUE(Srv.Ok);
  TestClient Cl;
  ASSERT_TRUE(Cl.connect(Srv.port()));
  // An unterminated request followed by a write-side shutdown: the EOF
  // flushes the final line, which still gets a response.
  ASSERT_TRUE(Cl.send(
      "{\"id\":5,\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}"));
  ::shutdown(Cl.Sock.fd(), SHUT_WR);
  std::string Line;
  ASSERT_TRUE(Cl.readLine(Line));
  json::Value R;
  std::string Error;
  ASSERT_TRUE(json::parseJson(Line, R, Error)) << Error << " in: " << Line;
  EXPECT_TRUE(okOf(R));
  EXPECT_EQ(R.find("id")->asInt(), 5);
}

TEST(ServerSocket, OversizedRequestOverSocket) {
  TestServer Srv(/*MaxConnections=*/4, /*IdleTimeoutMs=*/0,
                 /*MaxRequestBytes=*/256);
  ASSERT_TRUE(Srv.Ok);
  TestClient Cl;
  ASSERT_TRUE(Cl.connect(Srv.port()));
  json::Value R = Cl.call("{\"method\":\"open\",\"params\":{\"source\":\"" +
                          std::string(1000, 'x') + "\"}}");
  EXPECT_FALSE(okOf(R));
  EXPECT_NE(R.find("error")->asString().find("limit"), std::string::npos);
  // The connection survives the oversized request.
  EXPECT_TRUE(okOf(
      Cl.call("{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}")));
}

TEST(ServerSocket, ShutdownRequestStopsServerAndDrains) {
  TestServer Srv;
  ASSERT_TRUE(Srv.Ok);
  TestClient A, B;
  ASSERT_TRUE(A.connect(Srv.port()));
  ASSERT_TRUE(B.connect(Srv.port()));
  EXPECT_TRUE(okOf(
      A.call("{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}")));
  EXPECT_TRUE(okOf(
      B.call("{\"method\":\"query\",\"params\":{\"what\":\"metrics\"}}")));

  json::Value Down = A.call("{\"id\":99,\"method\":\"shutdown\"}");
  EXPECT_TRUE(okOf(Down));
  Srv.join(); // serve() must return and drain every connection

  // Both connections are closed and the listener is gone.
  std::string Line;
  EXPECT_FALSE(A.readLine(Line, 2000));
  EXPECT_FALSE(B.readLine(Line, 2000));
  TestClient After;
  EXPECT_FALSE(After.connect(Srv.port()));
  EXPECT_EQ(Srv.S.connections().Active.load(), 0u);
}

} // namespace
