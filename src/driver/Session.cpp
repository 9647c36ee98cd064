#include "driver/Session.h"

#include "closure/ClosureAnalysis.h"
#include "completion/AflCompletion.h"
#include "completion/Conservative.h"
#include "constraints/ConstraintGen.h"
#include "interp/Interp.h"
#include "support/Metrics.h"

#include <cmath>
#include <exception>

using namespace afl;
using namespace afl::driver;

namespace {

std::string jsonString(std::string_view S) {
  std::string O = "\"";
  O += MetricsRegistry::escapeJson(S);
  O += '"';
  return O;
}

uint64_t micros(double Seconds) {
  return Seconds > 0 ? static_cast<uint64_t>(std::llround(Seconds * 1e6)) : 0;
}

/// Re-serializes a request "id" for echoing (numbers and strings pass
/// through; anything else, including a missing id, becomes null).
std::string echoId(const json::Value *Id) {
  if (!Id)
    return "null";
  if (Id->isInt())
    return std::to_string(Id->asInt());
  if (Id->isString())
    return jsonString(Id->asString());
  return "null";
}

/// The completion report as a JSON object: classification counts plus the
/// full human-readable rendering (the byte string the differential tests
/// compare).
std::string reportJson(const completion::CompletionReport &R) {
  std::string O = "{";
  O += "\"regions\":" + std::to_string(R.Regions.size());
  O += ",\"lexical\":" + std::to_string(R.NumLexical);
  O += ",\"late_alloc\":" + std::to_string(R.NumLateAlloc);
  O += ",\"early_free\":" + std::to_string(R.NumEarlyFree);
  O += ",\"non_lexical\":" + std::to_string(R.NumNonLexical);
  O += ",\"unused\":" + std::to_string(R.NumUnused);
  O += ",\"text\":" + jsonString(R.str());
  O += "}";
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

Session::AnalysisInfo Session::analyze(Document &Doc, StageTimings &T) {
  AnalysisInfo Info;
  T.AnalysisRan = true;
  ++Stats.FullAnalyses;
  Stopwatch Watch;

  closure::ClosureAnalysis CA(*Doc.Prog);
  bool Converged = CA.run();
  T.Closure = Watch.seconds();
  Info.ProcessedContexts = CA.stats().ProcessedContexts;
  Doc.Summary = AnalysisSummary();
  Doc.Summary.Converged = Converged;
  Doc.Summary.Contexts = CA.numContexts();
  Doc.Summary.Closures = CA.numClosures();

  uint64_t Hits0 = Doc.Cache.Hits;
  uint64_t Misses0 = Doc.Cache.Misses;
  if (!Converged) {
    // Mirror aflCompletion: unconverged tables are unsound, fall back to
    // the conservative completion (should not happen in practice).
    Doc.Sol = solver::SolveResult();
    Doc.AflC = completion::conservativeCompletion(*Doc.Prog);
  } else {
    Watch.reset();
    constraints::GenResult Gen =
        constraints::generateConstraints(*Doc.Prog, CA);
    T.ConstraintGen = Watch.seconds();
    Doc.Summary.StateVars = Gen.Sys.numStateVars();
    Doc.Summary.BoolVars = Gen.Sys.numBoolVars();
    Doc.Summary.Constraints = Gen.Sys.numConstraints();
    Doc.Summary.Shards = Gen.Sys.numShards();
    Doc.Sol = solver::solveCached(Gen.Sys, solver::SolveOptions(), Doc.Cache);
    T.Solve = Doc.Sol.Seconds;
    Watch.reset();
    Doc.AflC = Doc.Sol.Sat ? completion::extractCompletion(Gen, Doc.Sol)
                           : completion::conservativeCompletion(*Doc.Prog);
    T.Extract = Watch.seconds();
  }
  Doc.Report = completion::reportCompletion(*Doc.Prog, Doc.AflC);

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

std::string Session::handleOpen(const json::Value &Params, StageTimings &T,
                                std::string &Error) {
  const json::Value *Source = Params.find("source");
  if (!Source || !Source->isString()) {
    Error = "missing string \"source\" parameter";
    return "";
  }
  ++Stats.Opens;

  DiagnosticEngine Diags;
  FrontEnd F = runFrontEnd(Source->asString(), Diags);
  T.FrontEnd = F.ParseSeconds + F.TypeInferSeconds + F.RegionInferSeconds;
  if (!F.ok()) {
    Error = "analysis failed: " + Diags.str();
    return "";
  }

  Document Doc;
  Doc.Text = Source->asString();
  Doc.Prog = std::move(F.Prog);
  AnalysisInfo Info = analyze(Doc, T);

  int64_t Id = NextDocId++;
  Document &Stored = Docs[Id];
  Stored = std::move(Doc);

  std::string O = "{\"doc\":" + std::to_string(Id);
  O += ",\"tier\":" + jsonString(Info.Tier);
  O += ",\"report\":" + reportJson(Stored.Report);
  O += ",\"analysis\":" + analysisBody(Stored, Info);
  O += "}";
  return O;
}

std::string Session::analysisBody(const Document &Doc,
                                  const AnalysisInfo &Info) const {
  const AnalysisSummary &A = Doc.Summary;
  std::string O = "{";
  O += "\"converged\":" + std::string(A.Converged ? "true" : "false");
  O += ",\"sat\":" + std::string(Doc.Sol.Sat ? "true" : "false");
  O += ",\"contexts\":" + std::to_string(A.Contexts);
  O += ",\"closures\":" + std::to_string(A.Closures);
  O += ",\"state_vars\":" + std::to_string(A.StateVars);
  O += ",\"bool_vars\":" + std::to_string(A.BoolVars);
  O += ",\"constraints\":" + std::to_string(A.Constraints);
  O += ",\"shards\":" + std::to_string(A.Shards);
  O += ",\"processed_contexts\":" + std::to_string(Info.ProcessedContexts);
  O += ",\"shards_solved\":" + std::to_string(Info.ShardsSolved);
  O += ",\"shards_reused\":" + std::to_string(Info.ShardsReused);
  O += "}";
  return O;
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
  FrontEnd F = runFrontEnd(NewText, Diags);
  T.FrontEnd = F.ParseSeconds + F.TypeInferSeconds + F.RegionInferSeconds;
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
    Info.ShardsReused = Doc->Summary.Shards;
    ++Stats.ReusedAnalyses;
    Stats.ShardsReused += Info.ShardsReused;
  } else {
    Info = analyze(*Doc, T);
  }

  const json::Value *DocId = Params.find("doc");
  std::string O = "{\"doc\":" + std::to_string(DocId->asInt());
  O += ",\"tier\":" + jsonString(Info.Tier);
  O += ",\"report\":" + reportJson(Doc->Report);
  O += ",\"analysis\":" + analysisBody(*Doc, Info);
  O += "}";
  return O;
}

std::string Session::handleQuery(const json::Value &Params,
                                 std::string &Error) {
  const json::Value *What = Params.find("what");
  if (!What || !What->isString()) {
    Error = "missing string \"what\" parameter";
    return "";
  }
  ++Stats.Queries;
  const std::string &W = What->asString();

  if (W == "metrics") {
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
    return "{\"metrics\":" + Reg.json(false) + "}";
  }

  Document *Doc = findDoc(Params, Error);
  if (!Doc)
    return "";
  if (W == "report")
    return "{\"report\":" + reportJson(Doc->Report) + "}";
  if (W == "domains") {
    std::string O = "{\"domains\":{";
    O += "\"sat\":" + std::string(Doc->Sol.Sat ? "true" : "false");
    O += ",\"states\":" + jsonString(domainString(Doc->Sol.StateDom));
    O += ",\"bools\":" + jsonString(domainString(Doc->Sol.BoolDom));
    O += "}}";
    return O;
  }
  if (W == "run") {
    // Instrumented execution of the document under its current A-F-L
    // completion, always on the bytecode VM (docs/VM.md).
    Stopwatch Watch;
    interp::RunResult R = interp::run(*Doc->Prog, Doc->AflC);
    double TotalSeconds = Watch.seconds();
    std::string O = "{\"run\":{";
    O += "\"ok\":" + std::string(R.Ok ? "true" : "false");
    if (R.Ok)
      O += ",\"result\":" + jsonString(R.ResultText);
    else
      O += ",\"error\":" + jsonString(R.Error);
    O += ",\"backend\":\"vm\"";
    O += ",\"stats\":{";
    O += "\"max_regions\":" + std::to_string(R.S.MaxRegions);
    O += ",\"region_allocs\":" + std::to_string(R.S.TotalRegionAllocs);
    O += ",\"value_allocs\":" + std::to_string(R.S.TotalValueAllocs);
    O += ",\"max_values\":" + std::to_string(R.S.MaxValues);
    O += ",\"final_values\":" + std::to_string(R.S.FinalValues);
    O += ",\"memory_ops\":" + std::to_string(R.S.Time);
    O += "},\"micros\":{";
    O += "\"compile_us\":" + std::to_string(micros(R.VmCompileSeconds));
    O += ",\"execute_us\":" + std::to_string(micros(R.VmExecuteSeconds));
    O += ",\"total_us\":" + std::to_string(micros(TotalSeconds));
    O += "}}}";
    return O;
  }
  Error =
      "unknown query \"" + W + "\" (expected report, metrics, domains or run)";
  return "";
}

std::string Session::handleClose(const json::Value &Params,
                                 std::string &Error) {
  const json::Value *DocId = Params.find("doc");
  Document *Doc = findDoc(Params, Error);
  if (!Doc)
    return "";
  ++Stats.Closes;
  Docs.erase(DocId->asInt());
  return "{\"closed\":true}";
}

std::string Session::errorLine(const std::string &Msg) {
  return "{\"id\":null,\"ok\":false,\"error\":" + jsonString(Msg) +
         ",\"timings\":{\"total_us\":0}}";
}

std::string Session::transportError(const std::string &Msg) {
  ++Stats.Requests;
  ++Stats.Errors;
  return errorLine(Msg);
}

std::string Session::handleLine(const std::string &Line) {
  Stopwatch Total;
  ++Stats.Requests;

  std::string IdJson = "null";
  StageTimings T;
  auto Respond = [&](bool Ok, const std::string &Body) {
    std::string O = "{\"id\":" + IdJson;
    O += Ok ? ",\"ok\":true,\"result\":" + Body
            : ",\"ok\":false,\"error\":" + jsonString(Body);
    O += ",\"timings\":{";
    if (T.AnalysisRan || T.FrontEnd > 0) {
      O += "\"frontend_us\":" + std::to_string(micros(T.FrontEnd));
      O += ",\"closure_us\":" + std::to_string(micros(T.Closure));
      O += ",\"congen_us\":" + std::to_string(micros(T.ConstraintGen));
      O += ",\"solve_us\":" + std::to_string(micros(T.Solve));
      O += ",\"extract_us\":" + std::to_string(micros(T.Extract));
      O += ",";
    }
    O += "\"total_us\":" + std::to_string(micros(Total.seconds())) + "}}";
    return O;
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
  IdJson = echoId(Req.find("id"));
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
      Result = "{\"stopping\":true}";
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
