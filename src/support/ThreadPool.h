//===----------------------------------------------------------------------===//
///
/// \file
/// A shared worker-thread pool with a deadlock-free fork/join primitive.
/// One pool (ThreadPool::global(), sized to the hardware) backs every
/// thread in the process: batch items (driver/BatchRunner) run on it
/// through parallelFor, and the socket transport (driver/Server) runs
/// one detached connection handler per client on it through submit().
/// The only other threads are the big-stack helpers of
/// support/BigStack.h, one per thread that runs a recursive evaluator.
///
/// The only primitive is parallelFor(Items, MaxWorkers, Fn): run
/// Fn(0..Items-1) with at most MaxWorkers concurrent executors and block
/// until every item finished. The *calling* thread always participates:
/// it claims items from the same atomic cursor the pool workers steal
/// from. That is what makes nesting safe — a pool worker that issues an
/// inner parallelFor drains the inner batch itself even when every other
/// worker is busy, so the pool can never deadlock on its own capacity,
/// and a pool of size zero (or a fully loaded pool) degrades to inline
/// sequential execution rather than blocking.
///
/// Determinism contract: parallelFor guarantees only that every item runs
/// exactly once and has completed when the call returns (a full
/// happens-before barrier). Callers that need deterministic *results*
/// must make item slots independent (write only slot I from item I) or
/// merge in item order afterwards, as the batch runner does.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_SUPPORT_THREADPOOL_H
#define AFL_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace afl {

class ThreadPool {
public:
  /// Creates \p Threads worker threads (0 = none; parallelFor then runs
  /// everything inline on the caller).
  explicit ThreadPool(unsigned Threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const {
    return NumWorkers.load(std::memory_order_relaxed);
  }

  /// Runs \p Fn(I) for every I in [0, Items) with at most \p MaxWorkers
  /// concurrent executors (the caller plus up to MaxWorkers - 1 pool
  /// workers; MaxWorkers == 0 means "pool size + 1"). Blocks until all
  /// items completed. \p Fn must not throw. Reentrant: \p Fn may itself
  /// call parallelFor on the same pool.
  void parallelFor(size_t Items, unsigned MaxWorkers,
                   const std::function<void(size_t)> &Fn);

  /// Enqueues one detached task. Unlike parallelFor, nobody waits on it
  /// and the submitting thread never runs it inline — a task that blocks
  /// (a connection handler polling its socket) occupies one worker and
  /// nothing else. Callers owning long-lived tasks must ensureWorkers()
  /// first: the global pool has hardware_concurrency() - 1 workers, which
  /// is zero on a single-core host, and submit() never runs tasks itself.
  void submit(std::function<void()> Task);

  /// Grows the pool to at least \p Target workers (never shrinks).
  /// Thread-safe; used by the socket transport to reserve one worker per
  /// concurrent connection on top of the compute workers.
  void ensureWorkers(unsigned Target);

  /// The process-wide shared pool, lazily created with
  /// hardware_concurrency() - 1 workers (the calling thread is the
  /// remaining executor). Never destroyed before program exit.
  static ThreadPool &global();

  /// hardware_concurrency() with the zero-means-unknown case mapped to 1.
  static unsigned hardwareThreads();

private:
  struct Batch;
  static void drain(Batch &B);
  void workerLoop();

  std::vector<std::thread> Workers; ///< Guarded by QueueMutex.
  std::atomic<unsigned> NumWorkers{0};
  std::mutex QueueMutex;
  std::condition_variable QueueCV;
  std::deque<std::function<void()>> Queue;
  bool Shutdown = false;
};

} // namespace afl

#endif // AFL_SUPPORT_THREADPOOL_H
