//===----------------------------------------------------------------------===//
///
/// \file
/// StateVecInterner: hash-consing for the *shapes* of constraint
/// generation's per-context state vectors. A state vector maps region
/// colors to state variables in ascending color order; across contexts
/// the variable halves differ but the color halves repeat massively
/// (every context of one expression family sees the same effect color
/// set). Interning the color half — the shape — the way closure value
/// sets are interned (support/SetInterner.h) buys two things:
///
///   * a state vector becomes {ShapeId, span of variable ids}, so
///     same-shape operations (the common case: a node's In/Out vectors,
///     its chain updates, its children's projections onto it) are direct
///     index loops with no searching at all;
///   * cross-shape operations (projection onto a subset, equating the
///     common colors of caller and callee vectors) are memoized per shape
///     pair: the first encounter computes an index map, every repeat is
///     one hash lookup followed by a gather loop.
///
/// Iteration order over a shape is ascending color order, so constraint
/// emission through interned shapes is byte-identical to emission through
/// the per-vector binary searches it replaces. Unlike SetInterner, the
/// canonical shapes live in a deque: `colors()` references stay valid
/// across later interning (the generator holds one while recursing into
/// children, which intern their own shapes).
///
//===----------------------------------------------------------------------===//

#ifndef AFL_CONSTRAINTS_STATEVECINTERNER_H
#define AFL_CONSTRAINTS_STATEVECINTERNER_H

#include "closure/AbstractEnv.h"
#include "support/FlatSet.h"

#include <cassert>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

namespace afl {
namespace constraints {

class StateVecInterner {
public:
  using ShapeId = uint32_t;
  /// Shape id 0 is always the empty shape (contexts with no effect).
  static constexpr ShapeId Empty = 0;

  StateVecInterner() {
    Shapes.emplace_back();
    Buckets.emplace(hashColors(Shapes[0].raw()), std::vector<ShapeId>{Empty});
  }

  /// Interns the strictly ascending color list \p Colors (a caller's
  /// scratch buffer: only a new shape is copied), returning the dense id
  /// of the canonical copy.
  ShapeId intern(const std::vector<closure::Color> &Colors) {
    uint64_t H = hashColors(Colors);
    std::vector<ShapeId> &Bucket = Buckets[H];
    for (ShapeId Id : Bucket)
      if (Shapes[Id].raw() == Colors)
        return Id;
    ShapeId Id = static_cast<ShapeId>(Shapes.size());
    Shapes.push_back(FlatSet<closure::Color>::fromSorted(Colors));
    Bucket.push_back(Id);
    return Id;
  }

  /// The canonical color set of \p Id. The reference is stable across
  /// later interning.
  const FlatSet<closure::Color> &colors(ShapeId Id) const {
    return Shapes[Id];
  }

  size_t size(ShapeId Id) const { return Shapes[Id].size(); }

  /// Number of distinct shapes interned (including the empty shape).
  size_t numShapes() const { return Shapes.size(); }

  /// Index of \p C within shape \p Id, or FlatSet<Color>::npos.
  size_t indexOf(ShapeId Id, closure::Color C) const {
    return Shapes[Id].indexOf(C);
  }

  /// Index map for projecting a \p From-shaped vector onto shape \p To:
  /// entry i is the position in \p From of \p To's i-th color. Every
  /// color of \p To must be present in \p From. Memoized per (From, To).
  const std::vector<uint32_t> &projection(ShapeId From, ShapeId To) {
    auto [It, Inserted] = ProjCache.try_emplace(key(From, To));
    if (Inserted) {
      const FlatSet<closure::Color> &F = Shapes[From];
      const FlatSet<closure::Color> &T = Shapes[To];
      std::vector<uint32_t> &Map = It->second;
      Map.reserve(T.size());
      // Both shapes ascend, so one linear sweep finds every position.
      size_t IF = 0;
      for (closure::Color C : T) {
        while (IF != F.size() && F[IF] < C)
          ++IF;
        assert(IF != F.size() && F[IF] == C &&
               "projection target color missing from source shape");
        Map.push_back(static_cast<uint32_t>(IF));
      }
    }
    return It->second;
  }

  /// Positions of the common colors of shapes \p A and \p B, in ascending
  /// color order: (index in A, index in B) pairs. Memoized per (A, B).
  const std::vector<std::pair<uint32_t, uint32_t>> &common(ShapeId A,
                                                           ShapeId B) {
    auto [It, Inserted] = CommonCache.try_emplace(key(A, B));
    if (Inserted) {
      const FlatSet<closure::Color> &SA = Shapes[A];
      const FlatSet<closure::Color> &SB = Shapes[B];
      std::vector<std::pair<uint32_t, uint32_t>> &Pairs = It->second;
      size_t IA = 0, IB = 0;
      while (IA != SA.size() && IB != SB.size()) {
        if (SA[IA] < SB[IB])
          ++IA;
        else if (SB[IB] < SA[IA])
          ++IB;
        else {
          Pairs.push_back(
              {static_cast<uint32_t>(IA), static_cast<uint32_t>(IB)});
          ++IA;
          ++IB;
        }
      }
    }
    return It->second;
  }

private:
  static uint64_t key(ShapeId A, ShapeId B) {
    return (static_cast<uint64_t>(A) << 32) | B;
  }

  static uint64_t hashColors(const std::vector<closure::Color> &S) {
    uint64_t H = 0xcbf29ce484222325ull;
    for (closure::Color X : S) {
      H ^= static_cast<uint64_t>(X) + 0x9e3779b97f4a7c15ull;
      H *= 0x100000001b3ull;
    }
    return H;
  }

  std::deque<FlatSet<closure::Color>> Shapes;
  std::unordered_map<uint64_t, std::vector<ShapeId>> Buckets;
  std::unordered_map<uint64_t, std::vector<uint32_t>> ProjCache;
  std::unordered_map<uint64_t, std::vector<std::pair<uint32_t, uint32_t>>>
      CommonCache;
};

} // namespace constraints
} // namespace afl

#endif // AFL_CONSTRAINTS_STATEVECINTERNER_H
