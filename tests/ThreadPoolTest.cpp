// Tests for the shared worker pool: every item runs exactly once, the
// caller always participates, zero-worker pools degrade to inline
// execution, nesting cannot deadlock, and a call never runs on more
// executors than the caller plus the pool's workers.

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

using namespace afl;

namespace {

TEST(ThreadPool, RunsEveryItemExactlyOnce) {
  ThreadPool Pool(3);
  constexpr size_t N = 1000;
  std::vector<std::atomic<unsigned>> Hits(N);
  Pool.parallelFor(
      N, 0, [&](size_t I) { Hits[I].fetch_add(1, std::memory_order_relaxed); });
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Hits[I].load(), 1u) << I;
}

TEST(ThreadPool, ZeroItemsIsANoop) {
  ThreadPool Pool(2);
  bool Ran = false;
  Pool.parallelFor(0, 0, [&](size_t) { Ran = true; });
  EXPECT_FALSE(Ran);
}

TEST(ThreadPool, ZeroWorkerPoolRunsInlineOnCaller) {
  ThreadPool Pool(0);
  constexpr size_t N = 64;
  std::atomic<size_t> Count{0};
  std::thread::id Caller = std::this_thread::get_id();
  bool AllOnCaller = true;
  Pool.parallelFor(N, 0, [&](size_t) {
    Count.fetch_add(1, std::memory_order_relaxed);
    if (std::this_thread::get_id() != Caller)
      AllOnCaller = false;
  });
  EXPECT_EQ(Count.load(), N);
  EXPECT_TRUE(AllOnCaller);
}

TEST(ThreadPool, MaxWorkersOneIsSequential) {
  ThreadPool Pool(4);
  constexpr size_t N = 32;
  // With one executor the caller runs everything in index order.
  std::thread::id Caller = std::this_thread::get_id();
  std::vector<size_t> Order;
  std::vector<std::thread::id> Ran;
  Pool.parallelFor(N, 1, [&](size_t I) {
    Order.push_back(I);
    Ran.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(Order.size(), N);
  for (size_t I = 0; I != N; ++I) {
    EXPECT_EQ(Order[I], I);
    EXPECT_EQ(Ran[I], Caller) << I;
  }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Every outer item issues an inner parallelFor on the same pool. With
  // a tiny pool this saturates the workers; the caller-participates
  // design must still drain everything.
  ThreadPool Pool(2);
  constexpr size_t Outer = 8, Inner = 50;
  std::atomic<size_t> Total{0};
  Pool.parallelFor(Outer, 0, [&](size_t) {
    Pool.parallelFor(Inner, 0, [&](size_t) {
      Total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(Total.load(), Outer * Inner);
}

TEST(ThreadPool, DeeplyNestedOnGlobalPool) {
  std::atomic<size_t> Total{0};
  ThreadPool::global().parallelFor(4, 0, [&](size_t) {
    ThreadPool::global().parallelFor(4, 0, [&](size_t) {
      ThreadPool::global().parallelFor(4, 0, [&](size_t) {
        Total.fetch_add(1, std::memory_order_relaxed);
      });
    });
  });
  EXPECT_EQ(Total.load(), 64u);
}

TEST(ThreadPool, GlobalPoolIsASingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
  // Starts at hardware size; the socket transport may have grown it
  // (ensureWorkers never shrinks), so this is a floor, not an equality.
  EXPECT_GE(ThreadPool::global().numThreads(),
            ThreadPool::hardwareThreads() - 1);
}

TEST(ThreadPool, ExecutorsAreBoundedUnderRepetition) {
  ThreadPool Pool(2);
  for (int Round = 0; Round != 50; ++Round) {
    std::atomic<size_t> Count{0};
    std::mutex M;
    std::set<std::thread::id> Executors;
    Pool.parallelFor(17, 0, [&](size_t) {
      Count.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> Lock(M);
      Executors.insert(std::this_thread::get_id());
    });
    ASSERT_EQ(Count.load(), 17u);
    ASSERT_GE(Executors.size(), 1u);
    ASSERT_LE(Executors.size(), 3u); // caller + 2 workers
  }
}

TEST(ThreadPool, SubmitRunsDetachedTasks) {
  // The pool is declared after what its tasks use, so it joins its
  // workers before those are destroyed: the last task may still be
  // unlocking M when the wait below returns.
  std::atomic<unsigned> Ran{0};
  std::mutex M;
  std::condition_variable CV;
  ThreadPool Pool(2);
  for (unsigned I = 0; I != 8; ++I)
    Pool.submit([&] {
      if (Ran.fetch_add(1, std::memory_order_acq_rel) + 1 == 8) {
        std::lock_guard<std::mutex> Lock(M);
        CV.notify_all();
      }
    });
  std::unique_lock<std::mutex> Lock(M);
  ASSERT_TRUE(CV.wait_for(Lock, std::chrono::seconds(30), [&] {
    return Ran.load(std::memory_order_acquire) == 8;
  }));
}

TEST(ThreadPool, EnsureWorkersGrowsButNeverShrinks) {
  // Declared before the pool, which joins its workers (still leaving
  // their waits on CV) before these are destroyed.
  std::atomic<unsigned> Arrived{0};
  std::mutex M;
  std::condition_variable CV;
  std::atomic<bool> Done{false};
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.numThreads(), 1u);
  Pool.ensureWorkers(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  Pool.ensureWorkers(2); // never shrinks
  EXPECT_EQ(Pool.numThreads(), 4u);

  // The grown workers actually serve the queue: four tasks that must be
  // concurrently live to finish would deadlock on a one-worker pool.
  for (unsigned I = 0; I != 4; ++I)
    Pool.submit([&] {
      Arrived.fetch_add(1, std::memory_order_acq_rel);
      std::unique_lock<std::mutex> Lock(M);
      CV.notify_all();
      CV.wait_for(Lock, std::chrono::seconds(30),
                  [&] { return Done.load(std::memory_order_acquire); });
    });
  {
    std::unique_lock<std::mutex> Lock(M);
    ASSERT_TRUE(CV.wait_for(Lock, std::chrono::seconds(30), [&] {
      return Arrived.load(std::memory_order_acquire) == 4;
    }));
    Done.store(true, std::memory_order_release);
    CV.notify_all();
  }
}

TEST(ThreadPool, SubmitAndParallelForShareTheQueue) {
  // A submitted (blocking-style) task must not wedge parallelFor: the
  // caller always participates, so the batch completes even if every
  // worker is pinned by submitted tasks.
  ThreadPool Pool(1);
  std::atomic<bool> Release{false};
  std::atomic<bool> TaskRan{false};
  Pool.submit([&] {
    while (!Release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    TaskRan.store(true, std::memory_order_release);
  });
  std::atomic<size_t> Count{0};
  Pool.parallelFor(16, 0,
                   [&](size_t) { Count.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(Count.load(), 16u);
  Release.store(true, std::memory_order_release);
  // Pool destructor joins the worker, which needs the task to finish.
}

} // namespace
