//===----------------------------------------------------------------------===//
///
/// \file
/// The transports behind `aflc --serve`: a stdio pump and a concurrent
/// loopback socket listener, both driving transport-agnostic
/// driver::Session instances (driver/Session.h) with identical framing
/// (LineSplitter: CRLF tolerated, oversized requests rejected with a
/// protocol error, a final unterminated line at EOF still answered).
///
/// Socket mode (`--listen PORT`) accepts up to MaxConnections concurrent
/// connections; each gets its own Session (own document store, own ids)
/// running as one detached task on the shared ThreadPool, so connections
/// never block each other while sharing the process-wide ArenaPool and
/// compute workers. Past the cap, new connections receive a one-line
/// overload error and are closed (bounded backlog — no unbounded
/// queueing). Idle connections are closed after IdleTimeoutMs with a
/// final error line. A `shutdown` request on any connection — or
/// SIGINT/SIGTERM — stops the acceptor and drains: every live connection
/// finishes the requests it has already buffered, then closes.
/// docs/SERVER.md documents the protocol; docs/OBSERVABILITY.md the
/// connection counters.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_DRIVER_SERVER_H
#define AFL_DRIVER_SERVER_H

#include "driver/Session.h"
#include "support/Socket.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>

namespace afl {
namespace driver {

/// Configuration of the socket transport (`aflc --serve --listen PORT`).
struct ServeOptions {
  /// Port to bind on 127.0.0.1; 0 picks an ephemeral port (see
  /// Server::port() after listen()).
  uint16_t Port = 0;
  /// Concurrent-connection cap; extra connections get an overload reply.
  /// Also used as the kernel listen backlog.
  unsigned MaxConnections = 8;
  /// Idle-connection timeout in milliseconds; 0 disables.
  unsigned IdleTimeoutMs = 5 * 60 * 1000;
  /// Per-request size cap applied by the framing layer.
  size_t MaxRequestBytes = Session::DefaultMaxRequestBytes;
  /// Install SIGINT/SIGTERM handlers that trigger requestStop(). Tests
  /// disable this to keep the harness's handlers.
  bool InstallSignalHandlers = true;
};

/// The `aflc --serve` transport layer. One instance runs either the
/// stdio pump (run()) or the socket listener (listen() + serve()).
class Server {
public:
  /// Serves newline-delimited requests from \p In to \p Out until EOF or
  /// a `shutdown` request, through one Session, answering each request as
  /// soon as its line has arrived. Returns the process exit code (0).
  /// Framing matches the socket transport: CRLF stripped, requests over
  /// \p MaxRequestBytes answered with a protocol error, a final
  /// unterminated line at EOF still processed.
  int run(std::istream &In, std::ostream &Out,
          size_t MaxRequestBytes = Session::DefaultMaxRequestBytes);

  /// Binds the listen socket (loopback only). Returns false and sets
  /// \p Error on failure. Must be called once before serve().
  bool listen(const ServeOptions &Opts, std::string &Error);

  /// The bound port (meaningful after a successful listen(); resolves
  /// ephemeral port requests).
  uint16_t port() const { return Listener.port(); }

  /// Runs the accept loop until requestStop() (a `shutdown` request on
  /// any connection, a signal, or an explicit call), then drains live
  /// connections and returns 0.
  int serve();

  /// Asks the accept loop to stop. Thread-safe and signal-safe.
  void requestStop() { Stopping.store(true, std::memory_order_relaxed); }

  /// The transport's lifetime connection counters.
  const ConnectionCounters &connections() const { return Conn; }

private:
  /// One connection's pump: feeds a LineSplitter from the socket, answers
  /// each request line through the connection's Session, and exits on
  /// peer EOF, send failure, idle timeout, `shutdown`, or server stop.
  void handleConnection(support::Socket Client);

  support::ListenSocket Listener;
  ServeOptions Opts;
  ConnectionCounters Conn;
  std::atomic<bool> Stopping{false};
  /// Signals Conn.Active reaching zero during the serve() drain.
  std::mutex DrainMutex;
  std::condition_variable DrainCV;
};

} // namespace driver
} // namespace afl

#endif // AFL_DRIVER_SERVER_H
