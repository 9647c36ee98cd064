//===----------------------------------------------------------------------===//
///
/// \file
/// One analysis-server session: the transport-agnostic core behind
/// `aflc --serve`. A Session owns a document store (text, region program
/// and what requests read of the analysis, kept hot across edits) and
/// answers one newline-delimited JSON request at a time via handleLine().
/// It knows nothing about where the request bytes came from —
/// driver::Server pumps it from stdin/stdout or from a TCP connection
/// (docs/SERVER.md documents every method, the invalidation model, and
/// the failure semantics).
///
/// Per edit the session re-runs the front end (parse → types → regions;
/// always from scratch — it is the cheap half), then compares the new
/// region program with the open one:
///
///   * a program equal to the open one up to Int/Bool literal payloads
///     keeps the previous analysis outright and adopts the new program
///     ("reuse" tier — no context processed, no shard solved);
///   * everything else runs completion::aflCompletion, the pipeline's
///     own analysis driver, from scratch ("full" tier).
///
/// The full tier passes aflCompletion the document's shard solution
/// cache (solver::ShardSolutionCache), so constraint shards untouched by
/// an edit replay their solved domains without re-entering the solver.
/// Both tiers produce byte-identical reports, solver domains and runs to a
/// from-scratch run — tests/ServerTest.cpp proves it differentially, and
/// the socket transport's multi-client harness proves each connection's
/// responses are byte-identical to a fresh single-session replay.
///
/// Thread-safety: a Session is confined to one connection (or stdin) and
/// is not itself thread-safe; concurrency comes from running many
/// sessions at once. The process-wide structures sessions share are each
/// thread-safe on their own: ArenaPool::global() (mutexed checkout/
/// return) and ThreadPool::global() (mutexed queue). Interners
/// (StringInterner, SetInterner, StateVecInterner) are per-request — they
/// live inside the ASTContext and analysis objects one request builds —
/// so no cross-session locking is needed for them.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_DRIVER_SESSION_H
#define AFL_DRIVER_SESSION_H

#include "completion/AflCompletion.h"
#include "completion/Report.h"
#include "driver/Pipeline.h"
#include "solver/Solver.h"
#include "support/Json.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace afl {
namespace driver {

/// Shared lifetime counters of the socket transport, rendered into every
/// session's `query {"what": "metrics"}` response as the "connections"
/// object (docs/OBSERVABILITY.md). Owned by driver::Server; sessions hold
/// a const pointer (stdio sessions hold none and omit the object).
struct ConnectionCounters {
  std::atomic<uint64_t> Accepted{0}; ///< Connections handed a session.
  std::atomic<uint64_t> Active{0};   ///< Sessions currently live.
  std::atomic<uint64_t> Rejected{0}; ///< Overload-refused connections.
  std::atomic<uint64_t> TimedOut{0}; ///< Connections closed for idleness.
};

/// Splits a byte stream into protocol lines with uniform framing rules
/// for every transport: lines end at '\n', a trailing '\r' is stripped
/// (CRLF clients), a line longer than the cap is reported once as
/// Oversize and its bytes discarded through the terminating newline, and
/// finish() turns a final unterminated line at EOF into a regular line.
class LineSplitter {
public:
  enum class Item { None, Line, Oversize };

  explicit LineSplitter(size_t MaxLineBytes) : MaxLine(MaxLineBytes) {}

  /// Appends raw transport bytes.
  void feed(const char *Data, size_t Len) {
    if (Overflow) {
      // Mid-discard: only the position of the next '\n' matters.
      size_t Nl = std::string_view(Data, Len).find('\n');
      if (Nl == std::string_view::npos)
        return;
      Data += Nl;
      Len -= Nl;
    }
    Buf.append(Data, Len);
  }

  /// Marks end of stream: pending bytes become one final line.
  void finish() { Finished = true; }

  /// Pulls the next complete line (CR stripped) into \p Line. Oversize is
  /// returned exactly once per too-long line; None means "feed me more"
  /// (or, after finish(), "drained").
  Item next(std::string &Line) {
    for (;;) {
      size_t Nl = Buf.find('\n', Scan);
      if (Nl == std::string::npos) {
        Scan = Buf.size();
        if (!Overflow && Buf.size() > MaxLine) {
          Overflow = true;
          Buf.clear();
          Scan = 0;
          return Item::Oversize;
        }
        if (Finished && !Overflow && !Buf.empty()) {
          Line = std::move(Buf);
          Buf.clear();
          Scan = 0;
          stripCr(Line);
          return Item::Line;
        }
        return Item::None;
      }
      std::string L = Buf.substr(0, Nl);
      Buf.erase(0, Nl + 1);
      Scan = 0;
      if (Overflow) {
        // This newline terminates the line already reported as Oversize.
        Overflow = false;
        continue;
      }
      if (L.size() > MaxLine)
        return Item::Oversize;
      stripCr(L);
      Line = std::move(L);
      return Item::Line;
    }
  }

private:
  static void stripCr(std::string &L) {
    if (!L.empty() && L.back() == '\r')
      L.pop_back();
  }

  std::string Buf;
  size_t Scan = 0;
  size_t MaxLine;
  bool Overflow = false;
  bool Finished = false;
};

/// One `aflc --serve` session. Not thread-safe: requests are handled
/// strictly in order, matching the one-line-in/one-line-out protocol;
/// the socket transport runs one Session per connection.
class Session {
public:
  /// Request-size cap every transport applies before the JSON layer.
  static constexpr size_t DefaultMaxRequestBytes = 1u << 20; // 1 MiB

  Session() = default;
  /// A session attached to the socket transport: `query metrics`
  /// responses additionally render \p Conn as the "connections" object.
  explicit Session(const ConnectionCounters *Conn) : Conn(Conn) {}

  /// Handles one request line and returns the response line (no trailing
  /// newline). Never throws and never terminates the process: malformed
  /// input, unknown methods and bad arguments all produce `"ok": false`
  /// error responses.
  std::string handleLine(const std::string &Line);

  /// A transport-level failure (oversized request, idle timeout) rendered
  /// as a standard error response line; counted as a failed request. The
  /// bytes never reached the JSON layer, so the echoed id is null.
  std::string transportError(const std::string &Msg);

  /// Renders an error response line outside any session (e.g. the
  /// overload reply sent to a connection that never got a session).
  static std::string errorLine(const std::string &Msg);

  /// True once a `shutdown` request has been handled.
  bool shutdownRequested() const { return Shutdown; }

private:
  /// An open document: its text, its region program, and what requests
  /// read of its last analysis. The closure tables and the constraint
  /// system are dropped once the completion is extracted; the analysis
  /// statistics keep every number the "analysis" body reports. Everything
  /// kept is keyed by node and region ids, so the reuse tier can adopt a
  /// new program with the same ids and keep the rest.
  struct Document {
    std::string Text;
    std::unique_ptr<regions::RegionProgram> Prog;
    completion::AflStats Analysis;
    solver::SolveResult Sol;
    regions::Completion AflC;
    completion::CompletionReport Report;
    solver::ShardSolutionCache Cache;
  };

  /// Where one request's stage times live: the front end's record, and
  /// the statistics of the analysis the request ran (null if none ran).
  struct StageTimings {
    PipelineStats FrontEnd;
    const completion::AflStats *Analysis = nullptr;
  };

  /// The per-request half of the response body: the tier taken and the
  /// work it did.
  struct AnalysisInfo {
    const char *Tier = "full";
    size_t ProcessedContexts = 0;
    uint64_t ShardsSolved = 0;
    uint64_t ShardsReused = 0;
  };

  /// Runs completion::aflCompletion over Doc.Prog through Doc's shard
  /// cache, replacing Doc's statistics, domains, completion and report.
  AnalysisInfo analyze(Document &Doc);

  /// Renders the open/edit result object: the document id, the tier, the
  /// report and the "analysis" body.
  static std::string documentBody(int64_t Id, const Document &Doc,
                                  const AnalysisInfo &Info);

  std::string handleOpen(const json::Value &Params, StageTimings &T,
                         std::string &Error);
  std::string handleEdit(const json::Value &Params, StageTimings &T,
                         std::string &Error);
  std::string handleQuery(const json::Value &Params, std::string &Error);
  std::string handleClose(const json::Value &Params, std::string &Error);

  Document *findDoc(const json::Value &Params, std::string &Error);

  std::map<int64_t, Document> Docs;
  int64_t NextDocId = 1;
  bool Shutdown = false;
  const ConnectionCounters *Conn = nullptr;

  /// Lifetime counters, exposed by `query {"what": "metrics"}` and
  /// documented under `server/*` in docs/OBSERVABILITY.md.
  struct Counters {
    uint64_t Requests = 0;
    uint64_t Errors = 0;
    uint64_t Opens = 0;
    uint64_t Edits = 0;
    uint64_t Queries = 0;
    uint64_t Closes = 0;
    uint64_t FullAnalyses = 0;
    uint64_t ReusedAnalyses = 0;
    uint64_t ShardsSolved = 0;
    uint64_t ShardsReused = 0;
  } Stats;
};

} // namespace driver
} // namespace afl

#endif // AFL_DRIVER_SESSION_H
