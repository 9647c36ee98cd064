#include "driver/Server.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <csignal>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>

using namespace afl;
using namespace afl::driver;
using support::ListenSocket;
using support::Socket;

namespace {

/// Written once before the handlers are installed, read from the handler.
std::atomic<bool> *SignalStopFlag = nullptr;

void onStopSignal(int) {
  if (SignalStopFlag)
    SignalStopFlag->store(true, std::memory_order_relaxed);
}

std::string oversizeMessage(size_t Cap) {
  return "request exceeds the " + std::to_string(Cap) + "-byte line limit";
}

} // namespace

int Server::run(std::istream &In, std::ostream &Out, size_t MaxRequestBytes) {
  Session S;
  LineSplitter Split(MaxRequestBytes);
  std::streambuf &Src = *In.rdbuf();
  char Buf[4096];
  bool Eof = false;
  while (!S.shutdownRequested()) {
    std::string Line;
    LineSplitter::Item It = Split.next(Line);
    if (It == LineSplitter::Item::None) {
      if (Eof)
        break;
      // Block for one byte only, then take what the stream already
      // buffers: a request is answered once its newline arrives, not
      // when a buffer fills or the stream ends.
      int C = Src.sbumpc();
      if (C == std::char_traits<char>::eof()) {
        Split.finish();
        Eof = true;
        continue;
      }
      Buf[0] = static_cast<char>(C);
      std::streamsize N = 1;
      std::streamsize Avail = Src.in_avail();
      if (Avail > 0)
        N += Src.sgetn(Buf + 1, std::min<std::streamsize>(
                                    Avail, sizeof(Buf) - 1));
      Split.feed(Buf, static_cast<size_t>(N));
      continue;
    }
    if (It == LineSplitter::Item::Oversize) {
      Out << S.transportError(oversizeMessage(MaxRequestBytes)) << "\n";
      Out.flush();
      continue;
    }
    if (Line.empty())
      continue;
    Out << S.handleLine(Line) << "\n";
    Out.flush();
  }
  return 0;
}

bool Server::listen(const ServeOptions &O, std::string &Error) {
  Opts = O;
  if (Opts.MaxConnections == 0)
    Opts.MaxConnections = 1;
  // The connection cap doubles as the kernel backlog: connections we
  // would reject anyway have no business queueing behind the acceptor.
  Listener = ListenSocket::listenOn(Opts.Port,
                                    static_cast<int>(Opts.MaxConnections),
                                    Error);
  if (!Listener.valid())
    return false;
  if (Opts.InstallSignalHandlers) {
    SignalStopFlag = &Stopping;
    struct sigaction SA;
    std::memset(&SA, 0, sizeof(SA));
    SA.sa_handler = onStopSignal;
    sigemptyset(&SA.sa_mask);
    ::sigaction(SIGINT, &SA, nullptr);
    ::sigaction(SIGTERM, &SA, nullptr);
  }
  return true;
}

int Server::serve() {
  ThreadPool &Pool = ThreadPool::global();
  // Reserve one pool worker per connection on top of the compute
  // workers: submitted handlers block on their sockets for their whole
  // lifetime, so without the reserve they would starve parallelFor — and
  // on a single-core host (a zero-worker global pool) never run at all.
  Pool.ensureWorkers(ThreadPool::hardwareThreads() - 1 + Opts.MaxConnections);

  while (!Stopping.load(std::memory_order_relaxed)) {
    // Short accept slices so stop requests (shutdown, signals) are
    // noticed promptly even with no traffic.
    Socket Client = Listener.accept(200);
    if (!Client.valid())
      continue;
    if (Conn.Active.load(std::memory_order_relaxed) >= Opts.MaxConnections) {
      Conn.Rejected.fetch_add(1, std::memory_order_relaxed);
      Client.sendAll(Session::errorLine(
                         "server at capacity (" +
                         std::to_string(Opts.MaxConnections) +
                         " connections); retry later") +
                     "\n");
      continue; // destructor closes the rejected connection
    }
    Conn.Accepted.fetch_add(1, std::memory_order_relaxed);
    Conn.Active.fetch_add(1, std::memory_order_relaxed);
    auto Shared = std::make_shared<Socket>(std::move(Client));
    Pool.submit([this, Shared] { handleConnection(std::move(*Shared)); });
  }
  Listener.close();

  // Drain: every live handler notices Stopping within one poll slice,
  // finishes the lines it already buffered, and signals DrainCV.
  std::unique_lock<std::mutex> Lock(DrainMutex);
  DrainCV.wait(Lock, [this] {
    return Conn.Active.load(std::memory_order_acquire) == 0;
  });
  return 0;
}

void Server::handleConnection(Socket Client) {
  {
    Session S(&Conn);
    LineSplitter Split(Opts.MaxRequestBytes);
    char Buf[4096];
    unsigned IdleMs = 0;

    // Answers every complete line currently buffered; false means the
    // connection should close (peer gone or shutdown requested).
    auto Pump = [&]() -> bool {
      std::string Line;
      for (;;) {
        LineSplitter::Item It = Split.next(Line);
        if (It == LineSplitter::Item::None)
          return true;
        std::string Reply;
        if (It == LineSplitter::Item::Oversize)
          Reply = S.transportError(oversizeMessage(Opts.MaxRequestBytes));
        else if (Line.empty())
          continue;
        else
          Reply = S.handleLine(Line);
        if (!Client.sendAll(Reply + "\n"))
          return false;
        if (S.shutdownRequested()) {
          requestStop();
          return false;
        }
      }
    };

    for (;;) {
      Socket::Wait W = Client.waitReadable(200);
      if (Stopping.load(std::memory_order_relaxed))
        break; // server draining; buffered requests were already answered
      if (W == Socket::Wait::Timeout) {
        IdleMs += 200;
        if (Opts.IdleTimeoutMs && IdleMs >= Opts.IdleTimeoutMs) {
          Conn.TimedOut.fetch_add(1, std::memory_order_relaxed);
          Client.sendAll(S.transportError("closing connection idle for " +
                                          std::to_string(IdleMs) + " ms") +
                         "\n");
          break;
        }
        continue;
      }
      if (W == Socket::Wait::Error)
        break;
      IdleMs = 0;
      long N = Client.recvSome(Buf, sizeof(Buf));
      if (N < 0)
        break;
      if (N == 0) {
        // Peer EOF: a final unterminated line still gets a response
        // (the peer may shutdown(SHUT_WR) and read on).
        Split.finish();
        Pump();
        break;
      }
      Split.feed(Buf, static_cast<size_t>(N));
      if (!Pump())
        break;
    }
  } // ~Session: the connection's documents die with it
  Client.close();
  // Notify under the mutex: serve()'s drain wait cannot re-acquire it
  // (and let the Server be destroyed) until the notify has finished
  // touching the condition variable.
  std::lock_guard<std::mutex> Lock(DrainMutex);
  Conn.Active.fetch_sub(1, std::memory_order_acq_rel);
  DrainCV.notify_all();
}
