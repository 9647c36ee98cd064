#include "support/ArenaPool.h"

using namespace afl;

size_t ArenaPool::sizeClass(size_t Bytes) {
  size_t Class = 0;
  while (Class + 1 < NumClasses &&
         Bytes >= (size_t(1) << (MinClassLog2 + Class + 1)))
    ++Class;
  return Class;
}

Arena ArenaPool::acquire() {
  std::lock_guard<std::mutex> Lock(M);
  ++S.Checkouts;
  // Walk classes from largest to smallest: a big recycled arena serves any
  // workload, and keeping big slabs in circulation is the whole point.
  for (size_t C = NumClasses; C-- != 0;) {
    if (Classes[C].empty())
      continue;
    Arena A = std::move(Classes[C].back());
    Classes[C].pop_back();
    --NumPooled;
    ++S.Hits;
    return A;
  }
  ++S.Misses;
  return Arena();
}

void ArenaPool::release(Arena &&A) {
  A.reset();
  std::lock_guard<std::mutex> Lock(M);
  ++S.Returns;
  if (NumPooled >= MaxPooled) {
    ++S.Discarded;
    return; // A is destroyed here; its slab goes back to the OS.
  }
  Classes[sizeClass(A.bytesReserved())].push_back(std::move(A));
  ++NumPooled;
}

void ArenaPool::clear() {
  std::lock_guard<std::mutex> Lock(M);
  for (auto &Class : Classes)
    Class.clear();
  NumPooled = 0;
}

ArenaPool::Stats ArenaPool::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  Stats Out = S;
  Out.Pooled = NumPooled;
  Out.RetainedBytes = 0;
  for (const auto &Class : Classes)
    for (const Arena &A : Class)
      Out.RetainedBytes += A.bytesReserved();
  return Out;
}

ArenaPool &ArenaPool::global() {
  // Leaked singleton: arenas may be returned from static destructors, so
  // the pool must outlive every tenant.
  static ArenaPool *P = new ArenaPool();
  return *P;
}
