//===----------------------------------------------------------------------===//
///
/// \file
/// Instrumented interpreter for completed region programs, implementing
/// the operational semantics of paper Fig. 2:
///   * a store of regions, each unallocated, allocated (holding boxed
///     values), or deallocated;
///   * reads/writes trap unless the region is allocated — running a
///     completion therefore *checks* its soundness dynamically;
///   * every region progresses U → A → D (at most one allocation and one
///     deallocation).
///
/// Instrumentation mirrors the paper's methodology (§6): only heap memory
/// is counted (never the evaluation stack), time is the index in the
/// sequence of memory operations (Fig. 1c), and the five Table 2 metrics
/// are reported.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_INTERP_INTERP_H
#define AFL_INTERP_INTERP_H

#include "completion/StorageModes.h"
#include "regions/Completion.h"
#include "regions/RegionProgram.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace afl {
namespace interp {

/// Counters matching Table 2 of the paper.
struct Stats {
  /// (1) Maximum number of regions simultaneously allocated.
  uint64_t MaxRegions = 0;
  /// (2) Total number of region allocations.
  uint64_t TotalRegionAllocs = 0;
  /// (3) Total number of value allocations (boxed values written).
  uint64_t TotalValueAllocs = 0;
  /// (4) Maximum number of storable values simultaneously held.
  uint64_t MaxValues = 0;
  /// (5) Number of values stored in the final memory (still held in
  /// allocated regions when the program ends).
  uint64_t FinalValues = 0;

  uint64_t CurRegions = 0;
  uint64_t CurValues = 0;
  uint64_t Reads = 0;
  uint64_t Writes = 0;
  uint64_t Steps = 0;
  /// Number of atbot writes that reset a region (storage modes [Tof94]).
  uint64_t Resets = 0;
  /// Total values destroyed by atbot resets.
  uint64_t ResetValues = 0;
  /// Total memory operations (reads + writes + region allocs + frees);
  /// this is the "time" axis of the paper's figures.
  uint64_t Time = 0;
};

/// One sample of the memory-over-time trace: after memory operation
/// \c Time, \c ValuesHeld values were held in allocated regions.
struct TracePoint {
  uint64_t Time = 0;
  uint64_t ValuesHeld = 0;
};

/// Lifetime of one runtime region (Figure 1c): when it was allocated and
/// freed on the memory-operation time axis. FreeTime == 0 means the
/// region was reclaimed by program exit (or never allocated when
/// AllocTime == 0 as well).
struct RegionLifetime {
  uint64_t AllocTime = 0;
  uint64_t FreeTime = 0;
  /// Number of values the region held when freed (or at program end).
  uint64_t ValuesAtFree = 0;
};

/// Which evaluator executes the program. Both are semantics-exact (the
/// VM is proven bit-identical to the tree walker by
/// tests/VmDifferentialTest.cpp); the VM is the default, the tree walker
/// remains the differential oracle.
enum class BackendKind : uint8_t {
  /// Bytecode VM with bump-pointer region arenas (src/vm/, docs/VM.md).
  Vm,
  /// The Fig. 2 tree walker in this module.
  Tree,
};

/// Strictly parses a backend name, CliParse.h-style: exactly "vm" or
/// "tree"; anything else returns false and leaves \p Out untouched.
/// Used by `aflc --interp=...`.
bool parseBackendName(std::string_view Text, BackendKind &Out);

struct RunOptions {
  /// Evaluation step limit (guards runaway programs in property tests).
  uint64_t MaxSteps = 200'000'000;
  /// Recursion depth limit. The tree walker recurses on the host stack
  /// (each level costs a few hundred bytes of C++ stack); the VM holds
  /// explicit frames, so this bounds VM frame count instead.
  uint32_t MaxDepth = 15'000;
  /// Record the full memory-over-time trace (Figures 5-8).
  bool RecordTrace = false;
  /// Record per-region lifetimes (Figure 1c).
  bool RecordLifetimes = false;
  /// Optional storage modes: writes listed atbot reset their region
  /// first (destroying its current contents). Not owned; may be null.
  const completion::StorageModes *Modes = nullptr;
  /// Evaluator selection (`aflc --interp=vm|tree`).
  BackendKind Backend = BackendKind::Vm;
};

struct RunResult {
  bool Ok = false;
  std::string Error;
  /// Rendered result value, e.g. "42", "(1, true)", "[1, 2, 3]", "<fn>".
  std::string ResultText;
  Stats S;
  std::vector<TracePoint> Trace;
  /// Indexed by runtime region id (creation order); only filled when
  /// RunOptions::RecordLifetimes is set.
  std::vector<RegionLifetime> Lifetimes;
  /// VM backend only: wall-clock split between bytecode compilation and
  /// execution (both zero under the tree walker). Surfaced through
  /// PipelineStats as the `vm:` timings row / `stages/runs/vm` metrics.
  double VmCompileSeconds = 0;
  double VmExecuteSeconds = 0;
};

/// Evaluates \p Prog under completion \p C.
RunResult run(const regions::RegionProgram &Prog, const regions::Completion &C,
              const RunOptions &Options = RunOptions());

} // namespace interp
} // namespace afl

#endif // AFL_INTERP_INTERP_H
