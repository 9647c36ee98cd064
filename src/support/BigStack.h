//===----------------------------------------------------------------------===//
///
/// \file
/// The big-stack executor. The Fig. 2 tree walker (interp::run on the
/// tree backend) and the reference interpreter (interp::runRef) recurse
/// on the host stack, one or more C++ frames per nested expression, and
/// the reference interpreter's shared_ptr lists and environments are
/// destroyed recursively as well. Their depth guards are the only
/// depth limit; this executor supplies a stack big enough to reach
/// them (256 MB, which fits a guard-deep recursion even in unoptimized
/// and sanitized builds).
///
/// Each calling thread gets one helper thread with such a stack. It is
/// started on the thread's first call and joined when the thread exits.
/// A call hands its work to the helper and waits for it to finish, so
/// the work runs as if on the caller, one call at a time. Reusing the
/// helper replaces a fresh 256 MB thread per call, whose mmap, clone
/// and munmap (with TLB shootdowns reaching every other thread of the
/// process) cost an order of magnitude more than evaluating a typical
/// program.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_SUPPORT_BIGSTACK_H
#define AFL_SUPPORT_BIGSTACK_H

#include <cstddef>
#include <type_traits>

namespace afl {

/// Runs \p Fn(\p Arg) to completion on the calling thread's helper,
/// starting the helper first if needed, and rethrows on the caller
/// whatever it threw. Runs it on the caller's own stack instead when the
/// helper cannot be started.
void runOnBigStack(void (*Fn)(void *), void *Arg);

/// Runs the callable \p Fn as runOnBigStack(Fn, Arg) does.
template <typename F> void runOnBigStack(F &&Fn) {
  using Callable = std::remove_reference_t<F>;
  runOnBigStack([](void *P) { (*static_cast<Callable *>(P))(); },
                const_cast<void *>(static_cast<const void *>(&Fn)));
}

/// Helper threads started and not yet joined, process-wide. A helper is
/// counted before any work runs on it and uncounted before its owner
/// thread finishes exiting.
size_t bigStackHelpers();

} // namespace afl

#endif // AFL_SUPPORT_BIGSTACK_H
