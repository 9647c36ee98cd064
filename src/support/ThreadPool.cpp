#include "support/ThreadPool.h"

#include <atomic>

namespace afl {

/// One fork/join region, shared (via shared_ptr) between the caller and
/// any helper tasks still sitting in the queue. The caller waits for
/// *item completions*, not for helper tasks: a helper that only gets
/// scheduled after the items are exhausted claims nothing, touches
/// neither Fn nor the caller's stack, and simply drops its reference.
/// This is what makes nested parallelFor deadlock-free — an inner call
/// never depends on its queued helpers actually running.
struct ThreadPool::Batch {
  size_t Items = 0;
  std::function<void(size_t)> const *Fn = nullptr;
  std::atomic<size_t> Next{0};
  std::atomic<size_t> Completed{0};
  std::mutex DoneMutex;
  std::condition_variable DoneCV;
};

void ThreadPool::drain(Batch &B) {
  for (;;) {
    size_t I = B.Next.fetch_add(1, std::memory_order_relaxed);
    if (I >= B.Items)
      break;
    (*B.Fn)(I);
    // The acq_rel increment publishes the item's effects before the
    // caller can observe Completed == Items and return.
    if (B.Completed.fetch_add(1, std::memory_order_acq_rel) + 1 == B.Items) {
      std::lock_guard<std::mutex> Lock(B.DoneMutex);
      B.DoneCV.notify_all();
    }
  }
}

ThreadPool::ThreadPool(unsigned Threads) {
  Workers.reserve(Threads);
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
  NumWorkers.store(Threads, std::memory_order_relaxed);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Shutdown = true;
  }
  QueueCV.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueCV.wait(Lock, [this] { return Shutdown || !Queue.empty(); });
      if (Queue.empty())
        return; // Shutdown with a drained queue.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task();
  }
}

void ThreadPool::parallelFor(size_t Items, unsigned MaxWorkers,
                             const std::function<void(size_t)> &Fn) {
  if (Items == 0)
    return;

  auto B = std::make_shared<Batch>();
  B->Items = Items;
  B->Fn = &Fn;

  // Helpers beyond the caller: bounded by the request, the pool size,
  // and the number of items (a helper with nothing to claim is waste).
  unsigned Executors = MaxWorkers == 0 ? numThreads() + 1 : MaxWorkers;
  size_t Helpers = Executors > 1 ? Executors - 1 : 0;
  Helpers = std::min(Helpers, static_cast<size_t>(numThreads()));
  Helpers = std::min(Helpers, Items > 1 ? Items - 1 : 0);

  if (Helpers) {
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      for (size_t I = 0; I < Helpers; ++I)
        Queue.emplace_back([B] { drain(*B); });
    }
    if (Helpers == 1)
      QueueCV.notify_one();
    else
      QueueCV.notify_all();
  }

  drain(*B);

  if (B->Completed.load(std::memory_order_acquire) < Items) {
    std::unique_lock<std::mutex> Lock(B->DoneMutex);
    B->DoneCV.wait(Lock, [&] {
      return B->Completed.load(std::memory_order_acquire) >= Items;
    });
  }
}

void ThreadPool::submit(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    Queue.emplace_back(std::move(Task));
  }
  QueueCV.notify_one();
}

void ThreadPool::ensureWorkers(unsigned Target) {
  std::lock_guard<std::mutex> Lock(QueueMutex);
  while (Workers.size() < Target) {
    Workers.emplace_back([this] { workerLoop(); });
    NumWorkers.store(static_cast<unsigned>(Workers.size()),
                     std::memory_order_relaxed);
  }
}

unsigned ThreadPool::hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

ThreadPool &ThreadPool::global() {
  // Leaked intentionally: joining workers during static destruction
  // races with other static teardown; the OS reclaims the threads.
  static ThreadPool *Pool = new ThreadPool(hardwareThreads() - 1);
  return *Pool;
}

} // namespace afl
