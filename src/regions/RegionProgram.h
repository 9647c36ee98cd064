//===----------------------------------------------------------------------===//
///
/// \file
/// Container for a region-explicit program: the IR tree, the region type
/// table, the value-variable table, and program-level region information.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_REGIONS_REGIONPROGRAM_H
#define AFL_REGIONS_REGIONPROGRAM_H

#include "regions/RegionExpr.h"
#include "support/ArenaPool.h"

#include <deque>
#include <string>
#include <vector>

namespace afl {
namespace regions {

/// Metadata for a value variable binding (alpha-renamed: unique VarId per
/// binder occurrence).
struct VarInfo {
  std::string Name;
  RTypeId Type = 0;
  /// Set iff this variable is a letrec-bound region-polymorphic function.
  const RLetrecExpr *Letrec = nullptr;
};

/// A complete region-annotated program: output of T-T region inference and
/// the object all later phases (closure analysis, constraints, completion,
/// interpretation) operate on.
class RegionProgram {
public:
  RegionProgram() = default;
  RegionProgram(const RegionProgram &) = delete;
  RegionProgram &operator=(const RegionProgram &) = delete;
  RegionProgram(RegionProgram &&) = default;
  RegionProgram &operator=(RegionProgram &&) = default;

  /// Nodes are arena-allocated but hold non-trivially-destructible
  /// members (effect sets, region lists); run their destructors here.
  ~RegionProgram();

  RTypeTable Types;

  /// The root expression. Top-level regions (the regions of the program's
  /// result, observed at program end) are listed in GlobalRegions rather
  /// than bound by any node.
  const RExpr *Root = nullptr;

  /// Regions free in the result type: implicitly letregion-bound around
  /// the whole program, read once at program end (the result is observed),
  /// and reclaimed by program exit rather than by an explicit free.
  std::vector<RegionVarId> GlobalRegions;

  //===------------------------------------------------------------------===//
  // Variables
  //===------------------------------------------------------------------===//

  VarId addVar(std::string Name, RTypeId Type) {
    Vars.push_back({std::move(Name), Type, nullptr});
    return static_cast<VarId>(Vars.size() - 1);
  }
  VarInfo &varInfo(VarId V) { return Vars[V]; }
  const VarInfo &varInfo(VarId V) const { return Vars[V]; }
  uint32_t numVars() const { return static_cast<uint32_t>(Vars.size()); }

  //===------------------------------------------------------------------===//
  // Nodes
  //===------------------------------------------------------------------===//

  uint32_t numNodes() const { return static_cast<uint32_t>(Nodes.size()); }
  const RExpr *node(RNodeId Id) const { return Nodes[Id]; }
  const std::vector<RExpr *> &nodes() const { return Nodes; }

  template <typename T, typename... Args> T *create(Args &&...ArgValues) {
    T *Node = Mem.create<T>(static_cast<RNodeId>(Nodes.size()),
                            std::forward<Args>(ArgValues)...);
    Nodes.push_back(Node);
    return Node;
  }

  /// Mutable access for finalization passes.
  RExpr *nodeMut(RNodeId Id) { return Nodes[Id]; }

  /// Keeps \p S for the program's lifetime and returns its stable address,
  /// for annotations many nodes share (overall effects).
  const RegionSet *keepSet(RegionSet S) {
    SharedSets.push_back(std::move(S));
    return &SharedSets.back();
  }

private:
  PooledArena Mem;
  std::vector<RExpr *> Nodes;
  std::vector<VarInfo> Vars;
  std::deque<RegionSet> SharedSets;
};

} // namespace regions
} // namespace afl

#endif // AFL_REGIONS_REGIONPROGRAM_H
