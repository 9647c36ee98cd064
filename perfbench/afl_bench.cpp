//===----------------------------------------------------------------------===//
///
/// \file
/// afl_bench — the end-to-end benchmark's in-process helper. run.py drives
/// the shipped `aflc` binary as child processes for every end-to-end
/// figure; this program supplies what a child process cannot:
///
///   afl_bench gen --seed S --count N --depth D --out DIR
///       write N seeded generator programs (even index: first-order,
///       odd index: higher-order with the nested-HOF shape; equal numbers
///       per source-size stratum) as DIR/gNNNN.afl and print the oracle
///       line of each
///   afl_bench quicksort N
///       print the corpus quicksort program over N elements
///   afl_bench oracle FILE...
///       run the one-shot pipeline on each file and print one JSON line per
///       file: the three evaluators' results and both Table 2 counter sets
///   afl_bench trace-pipeline [--threads T] --spans OUT FILE...
///       per-layer traced run of the pipeline over FILEs (see below)
///   afl_bench trace-session --spans OUT SCRIPT...
///       per-layer traced replay of request scripts, one Session (and one
///       thread) per script, as `aflc --serve --listen` runs them
///
/// The traced runs call each layer's public entry point directly —
/// parseExpr, inferTypes, inferRegions, conservativeCompletion,
/// ClosureAnalysis::run, generateConstraints, solver::solve,
/// extractCompletion, interp::run, interp::runRef, Session::handleLine —
/// with a span around every call. After one warm-up pass, each input set
/// is processed TracePairs times untraced and TracePairs times traced, in
/// pairs whose order alternates; the median walls give the tracing
/// overhead, and every pass must agree on every deterministic count.
/// Finally the inputs go through driver::runPipeline, which must agree with
/// the traced pipeline's completions and results, so the traced pipeline
/// cannot drift from the program it measures. Spans are kept in memory and
/// written to OUT at the end.
///
/// Session::handleLine is one span: the back-end stages inside it are read
/// from the session's own per-request `timings` (closure_us, congen_us,
/// solve_us, extract_us), and the front end, which a session re-runs from
/// scratch on every open and edit, is traced by re-running the same three
/// calls over every text the session analyzed.
///
//===----------------------------------------------------------------------===//

#include "closure/ClosureAnalysis.h"
#include "completion/AflCompletion.h"
#include "completion/Conservative.h"
#include "constraints/ConstraintGen.h"
#include "driver/Pipeline.h"
#include "driver/Session.h"
#include "interp/Interp.h"
#include "interp/RefInterp.h"
#include "parser/Parser.h"
#include "programs/Corpus.h"
#include "programs/RandomProgram.h"
#include "regions/RegionInference.h"
#include "regions/RegionPrinter.h"
#include "solver/Solver.h"
#include "support/ArenaPool.h"
#include "support/Json.h"
#include "support/ThreadPool.h"
#include "types/TypeInference.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace afl;

namespace {

using Clock = std::chrono::steady_clock;

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

struct Span {
  const char *Name = "";
  double Start = 0; ///< seconds since the tracer's epoch
  double End = 0;
  int Parent = -1; ///< index into the owning thread's span list
  long Item = -1;  ///< input item or request index
  unsigned Thread = 0;
};

/// In-memory span store. Each thread appends to its own list (registered
/// once under the mutex), so recording a span takes no lock.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled), Epoch(Clock::now()) {}

  struct ThreadSpans {
    unsigned Id = 0;
    int Open = -1;
    std::vector<Span> Spans;
  };

  /// RAII span around one call into a layer. A no-op when tracing is off.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name, long Item = -1) : T(T) {
      if (!T.Enabled)
        return;
      Local = &T.local();
      Index = static_cast<int>(Local->Spans.size());
      Span S;
      S.Name = Name;
      S.Parent = Local->Open;
      S.Item = Item >= 0 || S.Parent < 0 ? Item : Local->Spans[S.Parent].Item;
      S.Thread = Local->Id;
      S.Start = T.now();
      Local->Spans.push_back(S);
      Local->Open = Index;
    }
    ~Scope() {
      if (!Local)
        return;
      Local->Spans[Index].End = T.now();
      Local->Open = Local->Spans[Index].Parent;
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    ThreadSpans *Local = nullptr;
    int Index = -1;
  };

  /// Per-name call count, total and self time (span minus child spans).
  struct Row {
    size_t Calls = 0;
    double Total = 0;
    double Self = 0;
  };
  std::map<std::string, Row> selfTimes() const {
    std::map<std::string, Row> Out;
    for (const auto &TS : Threads) {
      std::vector<double> Child(TS->Spans.size(), 0.0);
      for (const Span &S : TS->Spans)
        if (S.Parent >= 0)
          Child[S.Parent] += S.End - S.Start;
      for (size_t I = 0; I != TS->Spans.size(); ++I) {
        const Span &S = TS->Spans[I];
        Row &R = Out[S.Name];
        ++R.Calls;
        R.Total += S.End - S.Start;
        R.Self += S.End - S.Start - Child[I];
      }
    }
    return Out;
  }

  /// Writes every span as one JSON object per line.
  bool write(const std::string &Path) const {
    std::ofstream Out(Path);
    for (const auto &TS : Threads)
      for (const Span &S : TS->Spans)
        Out << "{\"name\":\"" << S.Name << "\",\"start_us\":" << S.Start * 1e6
            << ",\"end_us\":" << S.End * 1e6 << ",\"parent\":" << S.Parent
            << ",\"item\":" << S.Item << ",\"thread\":" << S.Thread << "}\n";
    return static_cast<bool>(Out);
  }

private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - Epoch).count();
  }

  ThreadSpans &local() {
    thread_local std::map<const Tracer *, ThreadSpans *> Mine;
    ThreadSpans *&Slot = Mine[this];
    if (!Slot) {
      std::lock_guard<std::mutex> Lock(M);
      Threads.push_back(std::make_unique<ThreadSpans>());
      Slot = Threads.back().get();
      Slot->Id = static_cast<unsigned>(Threads.size() - 1);
    }
    return *Slot;
  }

  bool Enabled;
  Clock::time_point Epoch;
  std::mutex M; ///< guards Threads
  std::vector<std::unique_ptr<ThreadSpans>> Threads;
};

//===----------------------------------------------------------------------===//
// The traced pipeline: driver::runPipeline, one layer call at a time.
//===----------------------------------------------------------------------===//

/// Everything one pipeline run produced that the benchmark compares or
/// reports. Counts are deterministic; seconds are not.
struct ItemOutcome {
  bool Ok = false;
  std::string Error;
  std::string AflProgram, ConsProgram; ///< printed completed programs
  std::string AflResult, ConsResult, RefResult;
  interp::Stats Afl, Cons;
  uint64_t AstNodes = 0, RegionVars = 0;
  uint64_t Contexts = 0, Processed = 0, Enqueued = 0;
  uint64_t Constraints = 0, Shards = 0;
  uint64_t Propagations = 0, Choices = 0, Backtracks = 0;
  double VmCompile = 0, VmExecute = 0;
  double Seconds = 0;
};

/// driver::runFrontEnd, one layer call at a time (the stage seconds are
/// left 0: the spans carry the times).
driver::FrontEnd tracedFrontEnd(const std::string &Source,
                                DiagnosticEngine &Diags, Tracer &T) {
  driver::FrontEnd F;
  F.Ctx = std::make_unique<ast::ASTContext>();
  {
    Tracer::Scope S(T, "parseExpr");
    F.Ast = parseExpr(Source, *F.Ctx, Diags);
  }
  if (!F.Ast)
    return F;
  types::TypedProgram Typed;
  {
    Tracer::Scope S(T, "inferTypes");
    Typed = types::inferTypes(F.Ast, *F.Ctx, Diags);
  }
  if (!Typed.Success)
    return F;
  Tracer::Scope S(T, "inferRegions");
  F.Prog = regions::inferRegions(F.Ast, *F.Ctx, Typed, Diags);
  return F;
}

ItemOutcome tracedPipeline(const std::string &Source, Tracer &T, long Item) {
  ItemOutcome O;
  auto Start = Clock::now();
  Tracer::Scope Whole(T, "pipeline", Item);
  DiagnosticEngine Diags;
  driver::FrontEnd F = tracedFrontEnd(Source, Diags, T);
  O.AstNodes = F.Ctx->numNodes();
  auto Fail = [&](const std::string &Why) {
    O.Error = Why + Diags.str();
    O.Seconds = std::chrono::duration<double>(Clock::now() - Start).count();
    return O;
  };
  if (!F.ok())
    return Fail("front end failed: ");
  const ast::Expr *Ast = F.Ast;
  ast::ASTContext &Ctx = *F.Ctx;
  std::unique_ptr<regions::RegionProgram> Prog = std::move(F.Prog);
  O.RegionVars = Prog->Types.numRegionVars();

  regions::Completion ConsC, AflC;
  {
    Tracer::Scope S(T, "conservativeCompletion");
    ConsC = completion::conservativeCompletion(*Prog);
  }
  // completion::aflCompletion, stage by stage (same options runPipeline
  // passes by default, same fallbacks).
  closure::ClosureAnalysis CA(*Prog, closure::ClosureOptions());
  bool Converged;
  {
    Tracer::Scope S(T, "ClosureAnalysis::run");
    Converged = CA.run();
  }
  O.Processed = CA.stats().ProcessedContexts;
  O.Enqueued = CA.stats().Enqueued;
  bool Fallback = !Converged;
  if (Converged) {
    constraints::GenResult Gen;
    {
      Tracer::Scope S(T, "generateConstraints");
      Gen = constraints::generateConstraints(*Prog, CA,
                                             constraints::GenOptions());
    }
    O.Contexts = Gen.NumContexts;
    O.Constraints = Gen.Sys.numConstraints();
    O.Shards = Gen.Sharding.Shards;
    solver::SolveResult Sol;
    {
      Tracer::Scope S(T, "solver::solve");
      Sol = solver::solve(Gen.Sys, solver::SolveOptions());
    }
    O.Propagations = Sol.Propagations;
    O.Choices = Sol.Choices;
    O.Backtracks = Sol.Backtracks;
    if (Sol.Sat) {
      Tracer::Scope S(T, "extractCompletion");
      AflC = completion::extractCompletion(Gen, Sol);
    } else {
      Fallback = true;
    }
  }
  if (Fallback) {
    Tracer::Scope S(T, "conservativeCompletion");
    AflC = completion::conservativeCompletion(*Prog);
  }
  O.AflProgram = regions::printRegionProgram(*Prog, &AflC);
  O.ConsProgram = regions::printRegionProgram(*Prog, &ConsC);

  interp::RunOptions RO;
  RO.Backend = interp::BackendKind::Vm;
  interp::RunResult Cons, Afl;
  {
    Tracer::Scope S(T, "interp::run");
    Cons = interp::run(*Prog, ConsC, RO);
  }
  if (!Cons.Ok)
    return Fail("conservative run failed: " + Cons.Error);
  {
    Tracer::Scope S(T, "interp::run");
    Afl = interp::run(*Prog, AflC, RO);
  }
  if (!Afl.Ok)
    return Fail("A-F-L run failed: " + Afl.Error);
  interp::RefResult Ref;
  {
    Tracer::Scope S(T, "interp::runRef");
    Ref = interp::runRef(Ast, Ctx, RO.MaxSteps);
  }
  if (!Ref.Ok)
    return Fail("reference run failed: " + Ref.Error);
  O.Cons = Cons.S;
  O.Afl = Afl.S;
  O.ConsResult = Cons.ResultText;
  O.AflResult = Afl.ResultText;
  O.RefResult = Ref.ResultText;
  O.VmCompile = Cons.VmCompileSeconds + Afl.VmCompileSeconds;
  O.VmExecute = Cons.VmExecuteSeconds + Afl.VmExecuteSeconds;
  O.Ok = true;
  O.Seconds = std::chrono::duration<double>(Clock::now() - Start).count();
  return O;
}

/// The deterministic part of an outcome, for the run-to-run and
/// traced-vs-untraced comparisons.
std::string countsKey(const ItemOutcome &O) {
  std::ostringstream S;
  S << O.Ok << ' ' << O.AstNodes << ' ' << O.RegionVars << ' ' << O.Contexts
    << ' ' << O.Processed << ' ' << O.Enqueued << ' ' << O.Constraints << ' '
    << O.Shards << ' ' << O.Propagations << ' ' << O.Choices << ' '
    << O.Backtracks << ' ' << O.Afl.Steps << ' ' << O.Afl.Time << ' '
    << O.Cons.Steps << ' ' << O.Cons.Time << ' ' << O.Afl.MaxValues << ' '
    << O.Cons.MaxValues << ' ' << O.AflResult;
  return S.str();
}

/// Compares the traced pipeline's outcome against driver::runPipeline's.
std::string driftFrom(const ItemOutcome &O, const std::string &Source) {
  driver::PipelineOptions Opts;
  Opts.Backend = interp::BackendKind::Vm;
  driver::PipelineResult R = driver::runPipeline(Source, Opts);
  if (R.ok() != O.Ok)
    return "runPipeline ok=" + std::to_string(R.ok()) + " but traced ok=" +
           std::to_string(O.Ok);
  if (!O.Ok)
    return "";
  if (R.printAfl() != O.AflProgram)
    return "A-F-L completion differs from runPipeline";
  if (R.printConservative() != O.ConsProgram)
    return "conservative completion differs from runPipeline";
  if (R.Afl.ResultText != O.AflResult ||
      R.Conservative.ResultText != O.ConsResult ||
      R.Reference.ResultText != O.RefResult ||
      R.Afl.S.MaxValues != O.Afl.MaxValues ||
      R.Conservative.S.MaxValues != O.Cons.MaxValues ||
      R.Afl.S.Time != O.Afl.Time)
    return "run results differ from runPipeline";
  return "";
}

//===----------------------------------------------------------------------===//
// Small JSON output helpers
//===----------------------------------------------------------------------===//

std::string quote(const std::string &S) {
  std::string O = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      O += '\\';
      O += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      O += Buf;
    } else {
      O += C;
    }
  }
  return O + "\"";
}

/// Accumulates "name": number members of one flat JSON object.
struct JsonObject {
  std::string Body;
  void num(const std::string &Key, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    add(Key, Buf);
  }
  void str(const std::string &Key, const std::string &V) { add(Key, quote(V)); }
  void add(const std::string &Key, const std::string &Raw) {
    Body += (Body.empty() ? "" : ",") + quote(Key) + ":" + Raw;
  }
  std::string text() const { return "{" + Body + "}"; }
};

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

double median(std::vector<double> Xs) {
  std::sort(Xs.begin(), Xs.end());
  size_t H = Xs.size() / 2;
  return Xs.size() % 2 ? Xs[H] : (Xs[H - 1] + Xs[H]) / 2;
}

/// Pairs of an untraced and a traced pass in every traced run.
constexpr unsigned TracePairs = 4;

/// One warm-up pass, then TracePairs pairs of an untraced and a traced pass
/// whose order alternates between pairs, so drift cancels. \p Pass(Traced)
/// runs one pass and returns its wall seconds; \p Compare runs after each
/// pair. Returns the median untraced and traced walls.
template <typename PassFn, typename CompareFn>
std::pair<double, double> alternatePasses(PassFn Pass, CompareFn Compare) {
  Pass(false);
  std::vector<double> Walls[2];
  for (unsigned R = 0; R != 2 * TracePairs; ++R) {
    bool Traced = (R % 2 == 0) != (R / 2 % 2 == 0);
    Walls[Traced].push_back(Pass(Traced));
    if (R % 2 == 1)
      Compare();
  }
  return {median(Walls[0]), median(Walls[1])};
}

double arenaHitRatio() {
  ArenaPool::Stats S = ArenaPool::global().stats();
  return ratio(static_cast<double>(S.Hits), static_cast<double>(S.Checkouts));
}

/// Prints the self-time table to stderr; shares are of the summed self
/// time of all spans (threads add up).
void printSelfTimes(const Tracer &T) {
  auto Rows = T.selfTimes();
  double Sum = 0;
  for (const auto &[Name, R] : Rows)
    Sum += R.Self;
  std::fprintf(stderr, "%-26s %8s %12s %12s %7s\n", "span", "calls",
               "total ms", "self ms", "self%");
  for (const auto &[Name, R] : Rows)
    std::fprintf(stderr, "%-26s %8zu %12.3f %12.3f %6.1f%%\n", Name.c_str(),
                 R.Calls, R.Total * 1e3, R.Self * 1e3,
                 ratio(R.Self, Sum) * 100);
}

//===----------------------------------------------------------------------===//
// Subcommands
//===----------------------------------------------------------------------===//

uint32_t mixSeed(uint64_t Seed, uint64_t I) {
  uint64_t X = Seed * 0x9E3779B97F4A7C15ULL + I * 0xBF58476D1CE4E5B9ULL + 1;
  X ^= X >> 31;
  X *= 0x94D049BB133111EBULL;
  X ^= X >> 29;
  return static_cast<uint32_t>(X);
}

std::string statsArray(const interp::Stats &S) {
  return "[" + std::to_string(S.MaxRegions) + "," +
         std::to_string(S.TotalRegionAllocs) + "," +
         std::to_string(S.TotalValueAllocs) + "," +
         std::to_string(S.MaxValues) + "," + std::to_string(S.FinalValues) +
         "]";
}

/// One oracle line: the one-shot pipeline's verdict on \p Source, with the
/// results of all three evaluators and both Table 2 counter sets.
std::string oracleLine(const std::string &File,
                       const driver::PipelineResult &R) {
  JsonObject J;
  J.str("file", File);
  J.num("ok", R.ok() ? 1 : 0);
  if (!R.ok()) {
    J.str("error", R.Diags.str());
    return J.text();
  }
  J.str("afl_result", R.Afl.ResultText);
  J.str("tt_result", R.Conservative.ResultText);
  J.str("ref_result", R.Reference.ResultText);
  J.add("afl", statsArray(R.Afl.S));
  J.add("tt", statsArray(R.Conservative.S));
  return J.text();
}

driver::PipelineResult oneShot(const std::string &Source) {
  driver::PipelineOptions Opts;
  Opts.Backend = interp::BackendKind::Vm;
  return driver::runPipeline(Source, Opts);
}

/// Generator options of slot \p Slot: even slots first-order, odd slots
/// higher-order with the nested-HOF shape.
programs::RandomProgramOptions slotOptions(unsigned Slot, unsigned Depth) {
  programs::RandomProgramOptions Opts;
  Opts.MaxDepth = Depth;
  Opts.HigherOrder = Slot % 2 == 1;
  Opts.NestedHof = Slot % 2 == 1;
  return Opts;
}

constexpr unsigned SizeStrata = 16;
constexpr unsigned CalibrationDraws = 1024;

/// Source-length bounds of the size strata of one generator shape: the
/// generator's own length distribution (CalibrationDraws draws from a
/// fixed seed) cut into SizeStrata equally likely classes, with the top
/// 5% left out. Analysis cost tracks source length closely, so sampling
/// every stratum equally keeps the total work of two seeds' input sets
/// close while each set stays a fair draw from the generator.
std::vector<size_t> strataBounds(unsigned Shape, unsigned Depth) {
  std::vector<size_t> Sizes;
  for (unsigned I = 0; I != CalibrationDraws; ++I)
    Sizes.push_back(programs::generateRandomProgram(
                        mixSeed(0xCA11B0A7, I), slotOptions(Shape, Depth))
                        .size());
  std::sort(Sizes.begin(), Sizes.end());
  std::vector<size_t> Bounds;
  for (unsigned K = 0; K <= SizeStrata; ++K)
    Bounds.push_back(Sizes[K * (CalibrationDraws * 95 / 100) / SizeStrata]);
  return Bounds;
}

/// The generator's aliased-pair recursion
///   (let w = E in letrec k q = if fst q <= 0 then snd q
///                              else k (fst q - 1, snd q) in k (w, w) end end)
/// recurses E times, and E is any integer expression: about 1 program in
/// 700 at depth 9 recurses past the evaluators' depth limit that way, and
/// no other generator shape comes near the limit. This rewrites every such
/// E to (E) mod 97, which bounds the recursion and keeps the shape (both
/// pair components still share w's region). It reads only the text, so an
/// input set depends on nothing but the seed and the generator.
std::string boundAliasedCounts(std::string Source) {
  static const std::regex Call(
      " in letrec (k[0-9]+) (q[0-9]+) = if fst \\2 <= 0 then snd \\2 else "
      "\\1 \\(fst \\2 - 1, snd \\2\\) in \\1 \\((w[0-9]+), \\3\\)");
  std::vector<std::pair<size_t, const char *>> Inserts;
  for (std::sregex_iterator It(Source.begin(), Source.end(), Call), End;
       It != End; ++It) {
    std::string Open = "(let " + (*It)[3].str() + " = ";
    size_t Init = Source.find(Open);
    if (Init == std::string::npos)
      continue;
    Inserts.push_back({Init + Open.size(), "("});
    Inserts.push_back({static_cast<size_t>(It->position(0)), ") mod 97"});
  }
  // Back to front, so earlier positions stay valid.
  std::sort(Inserts.begin(), Inserts.end(),
            [](const auto &A, const auto &B) { return A.first > B.first; });
  for (const auto &[Pos, Text] : Inserts)
    Source.insert(Pos, Text);
  return Source;
}

/// Writes --count generator programs and prints their oracle lines, in
/// slot order. Slot I has shape I % 2 and size stratum (I / 2) % SizeStrata;
/// it takes the first candidate seed whose program falls in its stratum,
/// with its aliased-pair counts bounded. Every candidate taken is kept,
/// and any failure of it shows in its oracle line and counts. Slots are
/// filled in parallel.
int cmdGen(const std::map<std::string, std::string> &Flags) {
  uint64_t Seed = std::stoull(Flags.at("--seed"));
  unsigned Count = std::stoul(Flags.at("--count"));
  unsigned Depth = std::stoul(Flags.at("--depth"));
  const std::string &Dir = Flags.at("--out");
  const std::vector<size_t> Bounds[2] = {strataBounds(0, Depth),
                                         strataBounds(1, Depth)};
  std::vector<std::string> Sources(Count), Oracle(Count);
  std::atomic<bool> GaveUp{false};
  ThreadPool::global().parallelFor(Count, 0, [&](size_t Slot) {
    unsigned Shape = Slot % 2, Stratum = (Slot / 2) % SizeStrata;
    size_t Lo = Bounds[Shape][Stratum], Hi = Bounds[Shape][Stratum + 1];
    for (uint64_t Attempt = 0; Attempt != 100000; ++Attempt) {
      std::string Source = programs::generateRandomProgram(
          mixSeed(Seed, Slot * 100000 + Attempt),
          slotOptions(static_cast<unsigned>(Slot), Depth));
      if (Source.size() < Lo || Source.size() > Hi)
        continue;
      char Name[32];
      std::snprintf(Name, sizeof(Name), "g%04zu.afl", Slot);
      Sources[Slot] = boundAliasedCounts(std::move(Source));
      Oracle[Slot] = oracleLine(Name, oneShot(Sources[Slot]));
      return;
    }
    GaveUp = true;
  });
  if (GaveUp) {
    std::fprintf(stderr, "afl_bench: a slot found no acceptable program\n");
    return 1;
  }
  for (unsigned I = 0; I != Count; ++I) {
    char Name[32];
    std::snprintf(Name, sizeof(Name), "/g%04u.afl", I);
    std::ofstream Out(Dir + Name);
    Out << Sources[I] << '\n';
    if (!Out) {
      std::fprintf(stderr, "afl_bench: cannot write %s%s\n", Dir.c_str(),
                   Name);
      return 1;
    }
    std::printf("%s\n", Oracle[I].c_str());
  }
  return 0;
}

int cmdOracle(const std::vector<std::string> &Files) {
  for (const std::string &F : Files) {
    std::string Source;
    if (!readFile(F, Source)) {
      std::fprintf(stderr, "afl_bench: cannot read %s\n", F.c_str());
      return 1;
    }
    std::printf("%s\n", oracleLine(F, oneShot(Source)).c_str());
  }
  return 0;
}

/// One pass of the pipeline over every input, on up to \p Threads pool
/// workers. Returns the pass's wall time.
double pipelinePass(const std::vector<std::string> &Sources, unsigned Threads,
                    Tracer &T, std::vector<ItemOutcome> &Out) {
  Out.assign(Sources.size(), ItemOutcome());
  auto Start = Clock::now();
  ThreadPool::global().parallelFor(Sources.size(), Threads, [&](size_t I) {
    Out[I] = tracedPipeline(Sources[I], T, static_cast<long>(I));
  });
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

int cmdTracePipeline(const std::map<std::string, std::string> &Flags,
                     const std::vector<std::string> &Files) {
  unsigned Threads =
      Flags.count("--threads") ? std::stoul(Flags.at("--threads")) : 1;
  std::vector<std::string> Sources(Files.size());
  for (size_t I = 0; I != Files.size(); ++I)
    if (!readFile(Files[I], Sources[I])) {
      std::fprintf(stderr, "afl_bench: cannot read %s\n", Files[I].c_str());
      return 1;
    }

  Tracer Off(false), On(true);
  std::vector<ItemOutcome> Plain, Traced;
  double LastTracedWall = 0;
  std::vector<std::string> Errors;
  auto [PlainWall, TracedWall] = alternatePasses(
      [&](bool T) {
        double Wall =
            pipelinePass(Sources, Threads, T ? On : Off, T ? Traced : Plain);
        if (T)
          LastTracedWall = Wall;
        return Wall;
      },
      [&] {
        for (size_t I = 0; I != Sources.size(); ++I)
          if (countsKey(Plain[I]) != countsKey(Traced[I]))
            Errors.push_back(Files[I] + ": counts differ between passes");
      });
  for (size_t I = 0; I != Sources.size(); ++I) {
    if (!Traced[I].Ok)
      Errors.push_back(Files[I] + ": " + Traced[I].Error);
    else if (std::string D = driftFrom(Traced[I], Sources[I]); !D.empty())
      Errors.push_back(Files[I] + ": " + D);
  }

  auto Rows = On.selfTimes();
  double N = static_cast<double>(Sources.size() * TracePairs);
  auto SelfMs = [&](const char *Name) {
    auto It = Rows.find(Name);
    return It == Rows.end() ? 0.0 : It->second.Self * 1e3 / N;
  };
  double ItemSeconds = 0, Nodes = 0, RVars = 0, Ctxs = 0, Proc = 0, Enq = 0,
         Cons = 0, Shards = 0, Props = 0, Choices = 0, Backtracks = 0,
         VmC = 0, VmE = 0, Steps = 0, MemOps = 0;
  double PerPass = static_cast<double>(Sources.size());
  for (const ItemOutcome &O : Traced) {
    ItemSeconds += O.Seconds;
    Nodes += O.AstNodes;
    RVars += O.RegionVars;
    Ctxs += O.Contexts;
    Proc += O.Processed;
    Enq += O.Enqueued;
    Cons += O.Constraints;
    Shards += O.Shards;
    Props += O.Propagations;
    Choices += O.Choices;
    Backtracks += O.Backtracks;
    VmC += O.VmCompile;
    VmE += O.VmExecute;
    Steps += O.Afl.Steps + O.Cons.Steps;
    MemOps += O.Afl.Time + O.Cons.Time;
  }
  printSelfTimes(On);
  if (Flags.count("--spans"))
    On.write(Flags.at("--spans"));

  JsonObject M;
  M.num("parser.ms", SelfMs("parseExpr"));
  M.num("parser.ast_nodes", Nodes / PerPass);
  M.num("types.ms", SelfMs("inferTypes"));
  M.num("regions.ms", SelfMs("inferRegions"));
  M.num("regions.region_vars", RVars / PerPass);
  M.num("closure.ms", SelfMs("ClosureAnalysis::run"));
  M.num("closure.contexts", Ctxs / PerPass);
  M.num("closure.processed_per_enqueued", ratio(Proc, Enq));
  M.num("constraints.ms", SelfMs("generateConstraints"));
  M.num("constraints.count", Cons / PerPass);
  M.num("constraints.shards", Shards / PerPass);
  M.num("solver.ms", SelfMs("solver::solve"));
  M.num("solver.propagations", Props / PerPass);
  M.num("solver.backtracks_per_choice", ratio(Backtracks, Choices));
  M.num("completion.conservative_ms", SelfMs("conservativeCompletion"));
  M.num("completion.extract_ms", SelfMs("extractCompletion"));
  M.num("vm.compile_ms", VmC * 1e3 / PerPass);
  M.num("vm.execute_ms", VmE * 1e3 / PerPass);
  M.num("vm.steps", Steps / PerPass);
  M.num("vm.mem_ops", MemOps / PerPass);
  M.num("interp.reference_ms", SelfMs("interp::runRef"));
  M.num("batch.parallel_efficiency",
        ratio(ItemSeconds, LastTracedWall * std::max(1u, Threads)));
  M.num("arena_pool.hit_ratio", arenaHitRatio());
  M.num("trace.untraced_s", PlainWall);
  M.num("trace.traced_s", TracedWall);

  JsonObject Det;
  Det.num("contexts", Ctxs);
  Det.num("constraints", Cons);
  Det.num("propagations", Props);
  Det.num("steps", Steps);
  Det.num("mem_ops", MemOps);

  std::string ErrList = "[";
  for (size_t I = 0; I != Errors.size(); ++I)
    ErrList += (I ? "," : "") + quote(Errors[I]);
  ErrList += "]";
  std::printf("{\"items\":%zu,\"errors\":%s,\"metrics\":%s,"
              "\"determinism\":%s}\n",
              Sources.size(), ErrList.c_str(), M.text().c_str(),
              Det.text().c_str());
  return 0;
}

/// The "result" member of a response line, verbatim ("" if absent).
std::string resultBytes(const std::string &Response) {
  size_t B = Response.find(",\"result\":");
  size_t E = Response.rfind(",\"timings\":");
  if (B == std::string::npos || E == std::string::npos || E < B)
    return "";
  return Response.substr(B + 10, E - B - 10);
}

struct SessionOutcome {
  std::vector<std::string> Tiers; ///< per request, "" for non-analysis
  std::vector<std::string> Errors;
  std::vector<std::string> Texts; ///< every text the front end analyzed
  uint64_t Edits = 0, Reuse = 0, Incremental = 0, Full = 0;
  uint64_t Analyzed = 0, ShardsSolved = 0, ShardsReused = 0;
  uint64_t Contexts = 0, Constraints = 0, Shards = 0;
  double FrontEndUs = 0, ClosureUs = 0, CongenUs = 0, SolveUs = 0,
         ExtractUs = 0, HandleSeconds = 0;
};

int64_t member(const json::Value *Obj, const char *Key) {
  const json::Value *V = Obj ? Obj->find(Key) : nullptr;
  return V && V->isInt() ? V->asInt() : 0;
}

/// Replays one client's script through its own Session. Request ids of
/// the form "...:chk:<what>:old|new" come in pairs whose results must be
/// byte-equal (the edited document vs a fresh open of its final text).
void replayScript(const std::vector<std::string> &Lines, Tracer &T,
                  long FirstItem, SessionOutcome &O) {
  driver::Session S;
  std::map<std::string, std::string> Pending;
  std::map<int64_t, std::string> DocTexts;
  for (size_t I = 0; I != Lines.size(); ++I) {
    std::string Response;
    auto Start = Clock::now();
    {
      Tracer::Scope Span(T, "Session::handleLine",
                         FirstItem + static_cast<long>(I));
      Response = S.handleLine(Lines[I]);
    }
    O.HandleSeconds +=
        std::chrono::duration<double>(Clock::now() - Start).count();
    json::Value Req, Resp;
    std::string Err;
    if (!json::parseJson(Lines[I], Req, Err) ||
        !json::parseJson(Response, Resp, Err)) {
      O.Errors.push_back("unparsable request or response: " + Err);
      O.Tiers.push_back("");
      continue;
    }
    const json::Value *Ok = Resp.find("ok");
    if (!Ok || !Ok->asBool()) {
      O.Errors.push_back("request failed: " + Response.substr(0, 200));
      O.Tiers.push_back("");
      continue;
    }
    const json::Value *Method = Req.find("method");
    const json::Value *Params = Req.find("params");
    const json::Value *Result = Resp.find("result");
    const json::Value *Tier = Result ? Result->find("tier") : nullptr;
    std::string M = Method ? Method->asString() : "";
    O.Tiers.push_back(Tier ? Tier->asString() : "");
    // The text the session's front end just analyzed.
    if (M == "open" && Params) {
      O.Texts.push_back(Params->find("source")->asString());
      DocTexts[member(Result, "doc")] = O.Texts.back();
    } else if (M == "edit" && Params) {
      std::string &Text = DocTexts[member(Params, "doc")];
      Text.replace(static_cast<size_t>(member(Params, "start")),
                   static_cast<size_t>(member(Params, "length")),
                   Params->find("text")->asString());
      O.Texts.push_back(Text);
    }
    if (M == "edit" && Tier) {
      ++O.Edits;
      O.Reuse += Tier->asString() == "reuse";
      O.Incremental += Tier->asString() == "incremental";
      O.Full += Tier->asString() == "full";
    }
    if (const json::Value *A = Result ? Result->find("analysis") : nullptr) {
      O.ShardsSolved += member(A, "shards_solved");
      O.ShardsReused += member(A, "shards_reused");
      O.Contexts += member(A, "contexts");
      O.Constraints += member(A, "constraints");
      O.Shards += member(A, "shards");
    }
    if (const json::Value *Tm = Resp.find("timings");
        Tm && Tm->find("frontend_us")) {
      ++O.Analyzed;
      O.FrontEndUs += member(Tm, "frontend_us");
      O.ClosureUs += member(Tm, "closure_us");
      O.CongenUs += member(Tm, "congen_us");
      O.SolveUs += member(Tm, "solve_us");
      O.ExtractUs += member(Tm, "extract_us");
    }
    const json::Value *Id = Resp.find("id");
    std::string IdStr = Id && Id->isString() ? Id->asString() : "";
    size_t Chk = IdStr.find(":chk:");
    if (Chk != std::string::npos) {
      size_t Side = IdStr.rfind(':');
      std::string Key = IdStr.substr(0, Side);
      auto It = Pending.find(Key);
      if (It == Pending.end()) {
        Pending[Key] = resultBytes(Response);
      } else {
        if (It->second != resultBytes(Response))
          O.Errors.push_back(Key + ": edited document differs from a fresh "
                                   "open of its text");
        Pending.erase(It);
      }
    }
  }
}

double sessionPass(const std::vector<std::vector<std::string>> &Scripts,
                   Tracer &T, std::vector<SessionOutcome> &Out) {
  Out.assign(Scripts.size(), SessionOutcome());
  auto Start = Clock::now();
  std::vector<std::thread> Workers;
  long First = 0;
  for (size_t C = 0; C != Scripts.size(); ++C) {
    Workers.emplace_back([&, C, First] {
      replayScript(Scripts[C], T, First, Out[C]);
    });
    First += static_cast<long>(Scripts[C].size());
  }
  for (std::thread &W : Workers)
    W.join();
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

int cmdTraceSession(const std::map<std::string, std::string> &Flags,
                    const std::vector<std::string> &Files) {
  std::vector<std::vector<std::string>> Scripts;
  for (const std::string &F : Files) {
    std::ifstream In(F);
    if (!In) {
      std::fprintf(stderr, "afl_bench: cannot read %s\n", F.c_str());
      return 1;
    }
    Scripts.emplace_back();
    for (std::string L; std::getline(In, L);)
      if (!L.empty())
        Scripts.back().push_back(L);
  }
  Tracer Off(false), On(true);
  std::vector<SessionOutcome> Plain, Traced;
  double LastTracedWall = 0;
  std::vector<std::string> Errors;
  auto [PlainWall, TracedWall] = alternatePasses(
      [&](bool T) {
        double Wall = sessionPass(Scripts, T ? On : Off, T ? Traced : Plain);
        if (T)
          LastTracedWall = Wall;
        return Wall;
      },
      [&] {
        for (size_t C = 0; C != Scripts.size(); ++C)
          if (Traced[C].Tiers != Plain[C].Tiers)
            Errors.push_back(Files[C] + ": tier mix differs between passes");
      });

  SessionOutcome Sum;
  for (size_t C = 0; C != Scripts.size(); ++C) {
    const SessionOutcome &O = Traced[C];
    for (const std::string &E : O.Errors)
      Errors.push_back(Files[C] + ": " + E);
    Sum.Texts.insert(Sum.Texts.end(), O.Texts.begin(), O.Texts.end());
    Sum.Edits += O.Edits;
    Sum.Reuse += O.Reuse;
    Sum.Incremental += O.Incremental;
    Sum.Full += O.Full;
    Sum.Analyzed += O.Analyzed;
    Sum.ShardsSolved += O.ShardsSolved;
    Sum.ShardsReused += O.ShardsReused;
    Sum.Contexts += O.Contexts;
    Sum.Constraints += O.Constraints;
    Sum.Shards += O.Shards;
    Sum.FrontEndUs += O.FrontEndUs;
    Sum.ClosureUs += O.ClosureUs;
    Sum.CongenUs += O.CongenUs;
    Sum.SolveUs += O.SolveUs;
    Sum.ExtractUs += O.ExtractUs;
    Sum.HandleSeconds += O.HandleSeconds;
  }

  // The session's front end, layer by layer, over the texts it analyzed
  // (item = index of the text).
  std::vector<uint64_t> Nodes(Sum.Texts.size()), RVars(Sum.Texts.size());
  ThreadPool::global().parallelFor(
      Sum.Texts.size(), static_cast<unsigned>(Scripts.size()), [&](size_t I) {
        Tracer::Scope S(On, "runFrontEnd", static_cast<long>(I));
        DiagnosticEngine Diags;
        driver::FrontEnd F = tracedFrontEnd(Sum.Texts[I], Diags, On);
        Nodes[I] = F.Ctx->numNodes();
        RVars[I] = F.ok() ? F.Prog->Types.numRegionVars() : 0;
      });
  printSelfTimes(On);
  if (Flags.count("--spans"))
    On.write(Flags.at("--spans"));

  auto Rows = On.selfTimes();
  double Texts = static_cast<double>(Sum.Texts.size());
  auto FrontMs = [&](const char *Name) {
    auto It = Rows.find(Name);
    return It == Rows.end() ? 0.0 : ratio(It->second.Self * 1e3, Texts);
  };
  double Edits = static_cast<double>(Sum.Edits);
  double Analyzed = static_cast<double>(Sum.Analyzed);
  JsonObject M;
  M.num("parser.ms", FrontMs("parseExpr"));
  M.num("parser.ast_nodes",
        ratio(std::accumulate(Nodes.begin(), Nodes.end(), 0.0), Texts));
  M.num("types.ms", FrontMs("inferTypes"));
  M.num("regions.ms", FrontMs("inferRegions"));
  M.num("regions.region_vars",
        ratio(std::accumulate(RVars.begin(), RVars.end(), 0.0), Texts));
  M.num("closure.ms", ratio(Sum.ClosureUs / 1e3, Analyzed));
  M.num("closure.contexts", ratio(Sum.Contexts, Analyzed));
  M.num("constraints.ms", ratio(Sum.CongenUs / 1e3, Analyzed));
  M.num("constraints.count", ratio(Sum.Constraints, Analyzed));
  M.num("constraints.shards", ratio(Sum.Shards, Analyzed));
  M.num("solver.ms", ratio(Sum.SolveUs / 1e3, Analyzed));
  M.num("solver.shard_reuse_ratio",
        ratio(Sum.ShardsReused, Sum.ShardsReused + Sum.ShardsSolved));
  M.num("completion.extract_ms", ratio(Sum.ExtractUs / 1e3, Analyzed));
  M.num("session.reuse_share", ratio(Sum.Reuse, Edits));
  M.num("session.incremental_share", ratio(Sum.Incremental, Edits));
  M.num("session.full_share", ratio(Sum.Full, Edits));
  M.num("session.frontend_ms", ratio(Sum.FrontEndUs / 1e3, Analyzed));
  M.num("session.backend_ms",
        ratio((Sum.ClosureUs + Sum.CongenUs + Sum.SolveUs + Sum.ExtractUs) /
                  1e3,
              Analyzed));
  M.num("batch.parallel_efficiency",
        ratio(Sum.HandleSeconds, LastTracedWall * Scripts.size()));
  M.num("arena_pool.hit_ratio", arenaHitRatio());
  M.num("trace.untraced_s", PlainWall);
  M.num("trace.traced_s", TracedWall);

  JsonObject Det;
  Det.num("edits", Edits);
  Det.num("reuse", Sum.Reuse);
  Det.num("incremental", Sum.Incremental);
  Det.num("full", Sum.Full);
  Det.num("contexts", Sum.Contexts);
  Det.num("constraints", Sum.Constraints);

  std::string ErrList = "[";
  for (size_t I = 0; I != Errors.size(); ++I)
    ErrList += (I ? "," : "") + quote(Errors[I]);
  ErrList += "]";
  size_t Requests = 0;
  for (const auto &S : Scripts)
    Requests += S.size();
  std::printf("{\"items\":%zu,\"errors\":%s,\"metrics\":%s,"
              "\"determinism\":%s}\n",
              Requests, ErrList.c_str(), M.text().c_str(), Det.text().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: afl_bench gen --seed S --count N --depth D --out DIR\n"
               "       afl_bench quicksort N\n"
               "       afl_bench oracle FILE...\n"
               "       afl_bench trace-pipeline [--threads T] [--spans OUT] "
               "FILE...\n"
               "       afl_bench trace-session [--spans OUT] SCRIPT...\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];
  std::map<std::string, std::string> Flags;
  std::vector<std::string> Args;
  for (int I = 2; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.rfind("--", 0) == 0 && I + 1 < Argc)
      Flags[A] = Argv[++I];
    else
      Args.push_back(A);
  }
  try {
    if (Cmd == "gen")
      return cmdGen(Flags);
    if (Cmd == "quicksort" && Args.size() == 1) {
      std::printf("%s\n",
                  programs::quicksortSource(std::stoi(Args[0])).c_str());
      return 0;
    }
    if (Cmd == "oracle")
      return cmdOracle(Args);
    if (Cmd == "trace-pipeline")
      return cmdTracePipeline(Flags, Args);
    if (Cmd == "trace-session")
      return cmdTraceSession(Flags, Args);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "afl_bench: %s\n", E.what());
    return 2;
  }
  return usage();
}
