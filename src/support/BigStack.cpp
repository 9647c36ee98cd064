#include "support/BigStack.h"

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <pthread.h>
#include <utility>

namespace afl {
namespace {

/// Stack size of every helper thread.
constexpr size_t BigStackBytes = size_t(256) << 20;

std::atomic<size_t> LiveHelpers{0};

/// One calling thread's helper, owned by that thread's thread_local
/// storage: destroying it (at thread exit) stops and joins the helper.
class Helper {
public:
  Helper() = default;
  Helper(const Helper &) = delete;
  Helper &operator=(const Helper &) = delete;

  ~Helper() {
    if (!Started)
      return;
    {
      std::lock_guard<std::mutex> Lock(M);
      Stop = true;
    }
    WorkCV.notify_one();
    pthread_join(Thread, nullptr);
    LiveHelpers.fetch_sub(1);
  }

  /// Runs Fn(Arg) on the helper and waits for it, rethrowing whatever
  /// it threw; false when the helper cannot be started.
  bool run(void (*Fn)(void *), void *Arg) {
    if (!Started && !start())
      return false;
    std::unique_lock<std::mutex> Lock(M);
    TaskFn = Fn;
    TaskArg = Arg;
    WorkCV.notify_one();
    DoneCV.wait(Lock, [this] { return TaskFn == nullptr; });
    if (TaskError)
      std::rethrow_exception(std::exchange(TaskError, nullptr));
    return true;
  }

private:
  bool start() {
    pthread_attr_t Attr;
    if (pthread_attr_init(&Attr) != 0)
      return false;
    Started = pthread_attr_setstacksize(&Attr, BigStackBytes) == 0 &&
              pthread_create(&Thread, &Attr, &Helper::loop, this) == 0;
    pthread_attr_destroy(&Attr);
    if (Started)
      LiveHelpers.fetch_add(1);
    return Started;
  }

  static void *loop(void *Self) {
    Helper &H = *static_cast<Helper *>(Self);
    std::unique_lock<std::mutex> Lock(H.M);
    for (;;) {
      H.WorkCV.wait(Lock, [&H] { return H.Stop || H.TaskFn; });
      if (!H.TaskFn)
        break;
      Lock.unlock();
      // An exception must not leave the thread's entry function: it goes
      // to the caller, as if the work had run on the caller's stack.
      std::exception_ptr Error;
      try {
        H.TaskFn(H.TaskArg);
      } catch (...) {
        Error = std::current_exception();
      }
      Lock.lock();
      H.TaskError = Error;
      H.TaskFn = nullptr;
      H.DoneCV.notify_one();
    }
    return nullptr;
  }

  std::mutex M;
  std::condition_variable WorkCV, DoneCV;
  void (*TaskFn)(void *) = nullptr; ///< Pending or running work; guarded by M.
  void *TaskArg = nullptr;
  std::exception_ptr TaskError; ///< What the last work threw.
  bool Stop = false;
  bool Started = false; ///< Touched by the owning thread only.
  pthread_t Thread{};
};

} // namespace

size_t bigStackHelpers() { return LiveHelpers.load(); }

void runOnBigStack(void (*Fn)(void *), void *Arg) {
  thread_local Helper Mine;
  if (!Mine.run(Fn, Arg))
    Fn(Arg);
}

} // namespace afl
