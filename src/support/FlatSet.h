//===----------------------------------------------------------------------===//
///
/// \file
/// FlatSet<T>: a sorted, vector-backed set of trivially comparable values.
/// The analysis core keeps every set of dense ids (abstract closures,
/// region environments, context indices) in this representation: lookups
/// are a branch-light binary search, unions are linear merges over
/// contiguous memory, and iteration is always in ascending order — which
/// is what makes the emitted constraint systems deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_SUPPORT_FLATSET_H
#define AFL_SUPPORT_FLATSET_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <vector>

namespace afl {

template <typename T> class FlatSet {
public:
  using const_iterator = typename std::vector<T>::const_iterator;
  using value_type = T;

  static constexpr size_t npos = static_cast<size_t>(-1);

  FlatSet() = default;

  /// The set of \p Init's elements, given in any order.
  FlatSet(std::initializer_list<T> Init) : V(Init) { sortUnique(); }

  /// Wraps an already-sorted, duplicate-free vector without re-checking
  /// in release builds.
  static FlatSet fromSorted(std::vector<T> Sorted) {
    assert(std::is_sorted(Sorted.begin(), Sorted.end()) &&
           std::adjacent_find(Sorted.begin(), Sorted.end()) == Sorted.end() &&
           "fromSorted requires a strictly ascending vector");
    FlatSet S;
    S.V = std::move(Sorted);
    return S;
  }

  /// Sorts and deduplicates \p Values: the cheap way to build a set from
  /// many out-of-order inserts.
  static FlatSet fromUnsorted(std::vector<T> Values) {
    FlatSet S;
    S.V = std::move(Values);
    S.sortUnique();
    return S;
  }

  const_iterator begin() const { return V.begin(); }
  const_iterator end() const { return V.end(); }
  size_t size() const { return V.size(); }
  bool empty() const { return V.empty(); }
  void clear() { V.clear(); }
  void reserve(size_t N) { V.reserve(N); }
  const T &operator[](size_t I) const { return V[I]; }
  const std::vector<T> &raw() const { return V; }

  /// Inserts \p X; returns (position, inserted). The position stays valid
  /// for parallel-array bookkeeping until the next mutation.
  std::pair<size_t, bool> insertPos(const T &X) {
    auto It = std::lower_bound(V.begin(), V.end(), X);
    size_t Pos = static_cast<size_t>(It - V.begin());
    if (It != V.end() && *It == X)
      return {Pos, false};
    V.insert(It, X);
    return {Pos, true};
  }

  /// Inserts \p X; true if it was not present.
  bool insert(const T &X) { return insertPos(X).second; }

  /// Removes \p X; true if it was present.
  bool erase(const T &X) {
    size_t Pos = indexOf(X);
    if (Pos == npos)
      return false;
    V.erase(V.begin() + static_cast<std::ptrdiff_t>(Pos));
    return true;
  }

  bool contains(const T &X) const { return indexOf(X) != npos; }
  size_t count(const T &X) const { return contains(X) ? 1 : 0; }

  /// Index of \p X, or npos.
  size_t indexOf(const T &X) const {
    auto It = std::lower_bound(V.begin(), V.end(), X);
    if (It != V.end() && *It == X)
      return static_cast<size_t>(It - V.begin());
    return npos;
  }

  /// Set union in place; true if this set grew. Linear two-pointer merge.
  bool unionWith(const FlatSet &O) {
    if (O.V.empty())
      return false;
    if (V.empty()) {
      V = O.V;
      return true;
    }
    // Fast path: all new elements beyond our current maximum.
    if (O.V.front() > V.back()) {
      V.insert(V.end(), O.V.begin(), O.V.end());
      return true;
    }
    std::vector<T> Merged;
    Merged.reserve(V.size() + O.V.size());
    std::set_union(V.begin(), V.end(), O.V.begin(), O.V.end(),
                   std::back_inserter(Merged));
    if (Merged.size() == V.size())
      return false; // O ⊆ this
    V = std::move(Merged);
    return true;
  }

  bool operator==(const FlatSet &O) const { return V == O.V; }
  bool operator!=(const FlatSet &O) const { return V != O.V; }
  bool operator<(const FlatSet &O) const { return V < O.V; }

private:
  void sortUnique() {
    std::sort(V.begin(), V.end());
    V.erase(std::unique(V.begin(), V.end()), V.end());
  }

  std::vector<T> V;
};

} // namespace afl

#endif // AFL_SUPPORT_FLATSET_H
