#include "driver/Session.h"

#include "interp/Interp.h"
#include "support/Metrics.h"

#include <cmath>
#include <exception>

using namespace afl;
using namespace afl::driver;

namespace {

uint64_t micros(double Seconds) {
  return Seconds > 0 ? static_cast<uint64_t>(std::llround(Seconds * 1e6)) : 0;
}

/// The completion report as a JSON object: classification counts plus the
/// full human-readable rendering (the byte string the differential tests
/// compare).
void writeReport(json::Writer &W, const completion::CompletionReport &R) {
  W.beginObject();
  W.key("regions").integer(R.Regions.size());
  W.key("lexical").integer(R.NumLexical);
  W.key("late_alloc").integer(R.NumLateAlloc);
  W.key("early_free").integer(R.NumEarlyFree);
  W.key("non_lexical").integer(R.NumNonLexical);
  W.key("unused").integer(R.NumUnused);
  W.key("text").string(R.str());
  W.endObject();
}

/// A one-member result object, {"<Key>":true}.
std::string trueFlag(std::string_view Key) {
  std::string O;
  json::Writer(O).beginObject().key(Key).boolean(true).endObject();
  return O;
}

/// A solver domain vector as a compact digit string ('1'..'7' per state
/// var, '1'..'3' per bool var).
std::string domainString(const std::vector<uint8_t> &Dom) {
  std::string O;
  O.reserve(Dom.size());
  for (uint8_t D : Dom)
    O.push_back(static_cast<char>('0' + (D & 7)));
  return O;
}

/// Renders one response line; `timings` is its last member. \p FrontEnd
/// and \p Analysis are where the request's stage times live (\p Analysis
/// is null when the request ran no analysis).
std::string responseLine(const json::Value *Id, bool Ok, std::string_view Body,
                         const PipelineStats &FrontEnd,
                         const completion::AflStats *Analysis,
                         double TotalSeconds) {
  std::string O;
  json::Writer W(O);
  W.beginObject().key("id");
  // Numbers and strings echo; anything else, a missing id included, is
  // null.
  if (Id && Id->isInt())
    W.integer(Id->asInt());
  else if (Id && Id->isString())
    W.string(Id->asString());
  else
    W.raw("null");
  W.key("ok").boolean(Ok);
  if (Ok)
    W.key("result").raw(Body);
  else
    W.key("error").string(Body);

  W.key("timings").beginObject();
  // The stage keys appear whenever the front end ran; the analysis keys
  // read 0 when no analysis ran (reuse tier, front-end failure).
  double FrontEndSeconds = FrontEnd.ParseSeconds + FrontEnd.TypeInferSeconds +
                           FrontEnd.RegionInferSeconds;
  if (Analysis || FrontEndSeconds > 0) {
    static const completion::AflStats NoAnalysis;
    const completion::AflStats &A = Analysis ? *Analysis : NoAnalysis;
    W.key("frontend_us").integer(micros(FrontEndSeconds));
    W.key("closure_us").integer(micros(A.ClosureSeconds));
    W.key("congen_us").integer(micros(A.ConstraintGenSeconds));
    W.key("solve_us").integer(micros(A.SolveSeconds));
    W.key("extract_us").integer(micros(A.ExtractSeconds));
  }
  W.key("total_us").integer(micros(TotalSeconds));
  W.endObject().endObject();
  return O;
}

using regions::cast;
using regions::RExpr;

/// Child edges of a region node, in a fixed order.
void appendChildren(const RExpr *N, std::vector<const RExpr *> &Out) {
  switch (N->kind()) {
  case RExpr::Kind::Lambda:
    Out.push_back(cast<regions::RLambdaExpr>(N)->body());
    break;
  case RExpr::Kind::App: {
    const auto *A = cast<regions::RAppExpr>(N);
    Out.push_back(A->fn());
    Out.push_back(A->arg());
    break;
  }
  case RExpr::Kind::Let: {
    const auto *L = cast<regions::RLetExpr>(N);
    Out.push_back(L->init());
    Out.push_back(L->body());
    break;
  }
  case RExpr::Kind::Letrec: {
    const auto *L = cast<regions::RLetrecExpr>(N);
    Out.push_back(L->fnBody());
    Out.push_back(L->body());
    break;
  }
  case RExpr::Kind::If: {
    const auto *I = cast<regions::RIfExpr>(N);
    Out.push_back(I->cond());
    Out.push_back(I->thenExpr());
    Out.push_back(I->elseExpr());
    break;
  }
  case RExpr::Kind::Pair: {
    const auto *P = cast<regions::RPairExpr>(N);
    Out.push_back(P->first());
    Out.push_back(P->second());
    break;
  }
  case RExpr::Kind::Cons: {
    const auto *C = cast<regions::RConsExpr>(N);
    Out.push_back(C->head());
    Out.push_back(C->tail());
    break;
  }
  case RExpr::Kind::UnOp:
    Out.push_back(cast<regions::RUnOpExpr>(N)->operand());
    break;
  case RExpr::Kind::BinOp: {
    const auto *B = cast<regions::RBinOpExpr>(N);
    Out.push_back(B->lhs());
    Out.push_back(B->rhs());
    break;
  }
  default: // Int, Bool, Unit, Var, RegApp, Nil: leaves.
    break;
  }
}

/// True iff two nodes agree on everything but an Int/Bool payload: kind,
/// operator, id, type, region annotations, binders and variable uses.
bool sameNode(const RExpr *O, const RExpr *N) {
  if (O->kind() != N->kind() || O->id() != N->id() ||
      O->type() != N->type() || O->writeRegion() != N->writeRegion() ||
      O->readRegions() != N->readRegions() ||
      O->boundRegions() != N->boundRegions() || O->effect() != N->effect() ||
      O->overallEffect() != N->overallEffect())
    return false;
  switch (O->kind()) {
  case RExpr::Kind::UnOp:
    return cast<regions::RUnOpExpr>(O)->op() ==
           cast<regions::RUnOpExpr>(N)->op();
  case RExpr::Kind::BinOp:
    return cast<regions::RBinOpExpr>(O)->op() ==
           cast<regions::RBinOpExpr>(N)->op();
  case RExpr::Kind::Var:
    return cast<regions::RVarExpr>(O)->var() ==
           cast<regions::RVarExpr>(N)->var();
  case RExpr::Kind::Lambda: {
    const auto *OL = cast<regions::RLambdaExpr>(O);
    const auto *NL = cast<regions::RLambdaExpr>(N);
    return OL->param() == NL->param() &&
           OL->freeRegions() == NL->freeRegions();
  }
  case RExpr::Kind::Let:
    return cast<regions::RLetExpr>(O)->var() ==
           cast<regions::RLetExpr>(N)->var();
  case RExpr::Kind::Letrec: {
    const auto *OL = cast<regions::RLetrecExpr>(O);
    const auto *NL = cast<regions::RLetrecExpr>(N);
    return OL->fn() == NL->fn() && OL->param() == NL->param() &&
           OL->formals() == NL->formals() &&
           OL->freeRegions() == NL->freeRegions();
  }
  case RExpr::Kind::RegApp: {
    const auto *OR = cast<regions::RRegAppExpr>(O);
    const auto *NR = cast<regions::RRegAppExpr>(N);
    return OR->fn() == NR->fn() && OR->actuals() == NR->actuals();
  }
  default: // Int and Bool payloads may differ; no analysis reads them.
    return true;
  }
}

/// True iff \p New equals \p Old up to Int/Bool literal payloads: one
/// lockstep walk over node-for-node equal trees (sameNode) with equal
/// node, variable and global-region tables. Every analysis artifact of
/// \p Old is then exactly the analysis of \p New.
bool sameUpToLiterals(const regions::RegionProgram &Old,
                      const regions::RegionProgram &New) {
  if (!Old.Root || !New.Root || Old.numNodes() != New.numNodes() ||
      Old.numVars() != New.numVars() || Old.GlobalRegions != New.GlobalRegions)
    return false;
  std::vector<const RExpr *> OStack{Old.Root}, NStack{New.Root};
  while (!OStack.empty()) {
    const RExpr *O = OStack.back();
    const RExpr *N = NStack.back();
    OStack.pop_back();
    NStack.pop_back();
    if (!sameNode(O, N))
      return false;
    // Same kind, so the same number of children on both stacks.
    appendChildren(O, OStack);
    appendChildren(N, NStack);
  }
  return true;
}

} // namespace

Session::AnalysisInfo Session::analyze(Document &Doc) {
  ++Stats.FullAnalyses;
  uint64_t Hits0 = Doc.Cache.Hits;
  uint64_t Misses0 = Doc.Cache.Misses;
  Doc.AflC = completion::aflCompletion(
      *Doc.Prog, &Doc.Analysis, constraints::GenOptions(),
      solver::SolveOptions(), closure::ClosureOptions(), &Doc.Cache, &Doc.Sol);
  Doc.Report = completion::reportCompletion(*Doc.Prog, Doc.AflC);

  AnalysisInfo Info;
  Info.ProcessedContexts = Doc.Analysis.Closure.ProcessedContexts;
  Info.ShardsSolved = Doc.Cache.Misses - Misses0;
  Info.ShardsReused = Doc.Cache.Hits - Hits0;
  Stats.ShardsSolved += Info.ShardsSolved;
  Stats.ShardsReused += Info.ShardsReused;
  return Info;
}

Session::Document *Session::findDoc(const json::Value &Params,
                                    std::string &Error) {
  const json::Value *Doc = Params.find("doc");
  if (!Doc || !Doc->isInt()) {
    Error = "missing integer \"doc\" parameter";
    return nullptr;
  }
  auto It = Docs.find(Doc->asInt());
  if (It == Docs.end()) {
    Error = "unknown document " + std::to_string(Doc->asInt());
    return nullptr;
  }
  return &It->second;
}

std::string Session::documentBody(int64_t Id, const Document &Doc,
                                  const AnalysisInfo &Info) {
  const completion::AflStats &A = Doc.Analysis;
  std::string O;
  json::Writer W(O);
  W.beginObject();
  W.key("doc").integer(Id);
  W.key("tier").string(Info.Tier);
  W.key("report");
  writeReport(W, Doc.Report);
  W.key("analysis").beginObject();
  W.key("converged").boolean(A.Closure.Converged);
  W.key("sat").boolean(Doc.Sol.Sat);
  W.key("contexts").integer(A.Closure.NumContexts);
  W.key("closures").integer(A.Closure.NumClosures);
  W.key("state_vars").integer(A.NumStateVars);
  W.key("bool_vars").integer(A.NumBoolVars);
  W.key("constraints").integer(A.NumConstraints);
  W.key("shards").integer(A.Sharding.Shards);
  W.key("processed_contexts").integer(Info.ProcessedContexts);
  W.key("shards_solved").integer(Info.ShardsSolved);
  W.key("shards_reused").integer(Info.ShardsReused);
  W.endObject();
  W.endObject();
  return O;
}

std::string Session::handleOpen(const json::Value &Params, StageTimings &T,
                                std::string &Error) {
  const json::Value *Source = Params.find("source");
  if (!Source || !Source->isString()) {
    Error = "missing string \"source\" parameter";
    return "";
  }
  ++Stats.Opens;

  DiagnosticEngine Diags;
  FrontEnd F = runFrontEnd(Source->asString(), Diags, T.FrontEnd);
  if (!F.ok()) {
    Error = "analysis failed: " + Diags.str();
    return "";
  }

  Document Doc;
  Doc.Text = Source->asString();
  Doc.Prog = std::move(F.Prog);
  AnalysisInfo Info = analyze(Doc);

  int64_t Id = NextDocId++;
  Document &Stored = Docs[Id] = std::move(Doc);
  T.Analysis = &Stored.Analysis;
  return documentBody(Id, Stored, Info);
}

std::string Session::handleEdit(const json::Value &Params, StageTimings &T,
                                std::string &Error) {
  Document *Doc = findDoc(Params, Error);
  if (!Doc)
    return "";
  const json::Value *Start = Params.find("start");
  const json::Value *Length = Params.find("length");
  const json::Value *Text = Params.find("text");
  if (!Start || !Start->isInt() || !Length || !Length->isInt() || !Text ||
      !Text->isString()) {
    Error = "edit needs integer \"start\"/\"length\" and string \"text\"";
    return "";
  }
  int64_t S = Start->asInt();
  int64_t L = Length->asInt();
  // Compare the length against the room left after the start: S + L
  // could overflow.
  const uint64_t Size = Doc->Text.size();
  if (S < 0 || L < 0 || static_cast<uint64_t>(S) > Size ||
      static_cast<uint64_t>(L) > Size - static_cast<uint64_t>(S)) {
    Error = "edit span (start " + std::to_string(S) + ", length " +
            std::to_string(L) + ") out of range for document of " +
            std::to_string(Size) + " bytes";
    return "";
  }
  ++Stats.Edits;

  std::string NewText = Doc->Text;
  NewText.replace(static_cast<size_t>(S), static_cast<size_t>(L),
                  Text->asString());

  // The front end always re-runs from scratch; a failure leaves the
  // document at its previous revision (revert semantics, docs/SERVER.md).
  DiagnosticEngine Diags;
  FrontEnd F = runFrontEnd(NewText, Diags, T.FrontEnd);
  if (!F.ok()) {
    Error = "analysis failed (document unchanged): " + Diags.str();
    return "";
  }

  // A program equal to the open one up to literal payloads has the open
  // one's analysis, and everything the document keeps of that analysis is
  // keyed by ids the two share: adopt the new program (so `query run`
  // sees the new literals) and keep the rest.
  bool Reuse = sameUpToLiterals(*Doc->Prog, *F.Prog);
  Doc->Text = std::move(NewText);
  Doc->Prog = std::move(F.Prog);
  AnalysisInfo Info;
  if (Reuse) {
    Info.Tier = "reuse";
    Info.ShardsReused = Doc->Analysis.Sharding.Shards;
    ++Stats.ReusedAnalyses;
    Stats.ShardsReused += Info.ShardsReused;
  } else {
    Info = analyze(*Doc);
    T.Analysis = &Doc->Analysis;
  }
  return documentBody(Params.find("doc")->asInt(), *Doc, Info);
}

std::string Session::handleQuery(const json::Value &Params,
                                 std::string &Error) {
  const json::Value *What = Params.find("what");
  if (!What || !What->isString()) {
    Error = "missing string \"what\" parameter";
    return "";
  }
  ++Stats.Queries;
  const std::string &Q = What->asString();
  // Every query answers {"<what>": ...}.
  std::string O;
  json::Writer W(O);
  W.beginObject().key(Q);

  if (Q == "metrics") {
    MetricsRegistry Reg;
    Reg.set("requests", Stats.Requests);
    Reg.set("errors", Stats.Errors);
    Reg.set("opens", Stats.Opens);
    Reg.set("edits", Stats.Edits);
    Reg.set("queries", Stats.Queries);
    Reg.set("closes", Stats.Closes);
    Reg.set("open_docs", Docs.size());
    Reg.set("full_analyses", Stats.FullAnalyses);
    Reg.set("reused_analyses", Stats.ReusedAnalyses);
    Reg.set("shards_solved", Stats.ShardsSolved);
    Reg.set("shards_reused", Stats.ShardsReused);
    if (Conn) {
      // Socket-transport sessions also report the server-wide connection
      // counters (docs/OBSERVABILITY.md, "server/connections" scope).
      MetricScope Connections(Reg, "connections");
      Reg.set("accepted", Conn->Accepted.load(std::memory_order_relaxed));
      Reg.set("active", Conn->Active.load(std::memory_order_relaxed));
      Reg.set("rejected", Conn->Rejected.load(std::memory_order_relaxed));
      Reg.set("timed_out", Conn->TimedOut.load(std::memory_order_relaxed));
    }
    // Process-wide arena-pool counters: every open/edit leases its AST
    // and region-IR arenas from the pool (docs/OBSERVABILITY.md).
    recordMemoryMetrics(Reg);
    {
      // This session's shard caches: each holds the shards its
      // document's latest solve used.
      MetricScope Mem(Reg, "memory");
      MetricScope Cache(Reg, "shard_cache");
      uint64_t Entries = 0, Bytes = 0;
      for (const auto &[Id, Doc] : Docs) {
        Entries += Doc.Cache.Entries.size();
        Bytes += Doc.Cache.bytes();
      }
      Reg.set("documents", Docs.size());
      Reg.set("entries", Entries);
      Reg.set("bytes", Bytes);
    }
    W.raw(Reg.json(false)).endObject();
    return O;
  }

  Document *Doc = findDoc(Params, Error);
  if (!Doc)
    return "";
  if (Q == "report") {
    writeReport(W, Doc->Report);
  } else if (Q == "domains") {
    W.beginObject();
    W.key("sat").boolean(Doc->Sol.Sat);
    W.key("states").string(domainString(Doc->Sol.StateDom));
    W.key("bools").string(domainString(Doc->Sol.BoolDom));
    W.endObject();
  } else if (Q == "run") {
    // Instrumented execution of the document under its current A-F-L
    // completion, always on the bytecode VM (docs/VM.md).
    Stopwatch Watch;
    interp::RunResult R = interp::run(*Doc->Prog, Doc->AflC);
    double TotalSeconds = Watch.seconds();
    W.beginObject();
    W.key("ok").boolean(R.Ok);
    if (R.Ok)
      W.key("result").string(R.ResultText);
    else
      W.key("error").string(R.Error);
    W.key("backend").string("vm");
    W.key("stats").beginObject();
    W.key("max_regions").integer(R.S.MaxRegions);
    W.key("region_allocs").integer(R.S.TotalRegionAllocs);
    W.key("value_allocs").integer(R.S.TotalValueAllocs);
    W.key("max_values").integer(R.S.MaxValues);
    W.key("final_values").integer(R.S.FinalValues);
    W.key("memory_ops").integer(R.S.Time);
    W.endObject();
    W.key("micros").beginObject();
    W.key("compile_us").integer(micros(R.VmCompileSeconds));
    W.key("execute_us").integer(micros(R.VmExecuteSeconds));
    W.key("total_us").integer(micros(TotalSeconds));
    W.endObject().endObject();
  } else {
    Error = "unknown query \"" + Q +
            "\" (expected report, metrics, domains or run)";
    return "";
  }
  W.endObject();
  return O;
}

std::string Session::handleClose(const json::Value &Params,
                                 std::string &Error) {
  const json::Value *DocId = Params.find("doc");
  Document *Doc = findDoc(Params, Error);
  if (!Doc)
    return "";
  ++Stats.Closes;
  Docs.erase(DocId->asInt());
  return trueFlag("closed");
}

std::string Session::errorLine(const std::string &Msg) {
  return responseLine(nullptr, false, Msg, PipelineStats(), nullptr, 0);
}

std::string Session::transportError(const std::string &Msg) {
  ++Stats.Requests;
  ++Stats.Errors;
  return errorLine(Msg);
}

std::string Session::handleLine(const std::string &Line) {
  Stopwatch Total;
  ++Stats.Requests;

  const json::Value *Id = nullptr;
  StageTimings T;
  auto Respond = [&](bool Ok, std::string_view Body) {
    return responseLine(Id, Ok, Body, T.FrontEnd, T.Analysis, Total.seconds());
  };
  auto Fail = [&](const std::string &Msg) {
    ++Stats.Errors;
    return Respond(false, Msg);
  };

  json::Value Req;
  std::string ParseError;
  if (!json::parseJson(Line, Req, ParseError))
    return Fail("parse error: " + ParseError);
  if (!Req.isObject())
    return Fail("request must be a JSON object");
  Id = Req.find("id");
  const json::Value *Method = Req.find("method");
  if (!Method || !Method->isString())
    return Fail("missing string \"method\"");
  static const json::Value EmptyParams = json::Value::object();
  const json::Value *Params = Req.find("params");
  if (!Params)
    Params = &EmptyParams;
  else if (!Params->isObject())
    return Fail("\"params\" must be an object");

  const std::string &M = Method->asString();
  try {
    std::string Error;
    std::string Result;
    if (M == "open")
      Result = handleOpen(*Params, T, Error);
    else if (M == "edit")
      Result = handleEdit(*Params, T, Error);
    else if (M == "query")
      Result = handleQuery(*Params, Error);
    else if (M == "close")
      Result = handleClose(*Params, Error);
    else if (M == "shutdown") {
      Shutdown = true;
      Result = trueFlag("stopping");
    } else
      Error = "unknown method \"" + M + "\"";
    if (!Error.empty())
      return Fail(Error);
    return Respond(true, Result);
  } catch (const std::exception &E) {
    return Fail(std::string("internal error: ") + E.what());
  } catch (...) {
    return Fail("internal error");
  }
}
