//===----------------------------------------------------------------------===//
///
/// \file
/// The region bytecode VM: executes a vm::VmProgram with an explicit
/// value/call stack (no host recursion — RunOptions::MaxDepth bounds VM
/// frames, not C++ stack) and a real region allocator: one bump-pointer
/// cell arena per runtime region, a flat region table carrying the
/// U→A→D state tags, and O(1) region free that returns whole arenas to a
/// size-classed buffer pool.
///
/// Instrumentation (the five Table 2 counters, Time, traces, lifetimes,
/// ResultText and every RunResult::Error string) is bit-identical to the
/// interp tree walker; tests/VmDifferentialTest.cpp enforces this over
/// the corpus + 500 random programs.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_VM_VM_H
#define AFL_VM_VM_H

#include "interp/Interp.h"
#include "vm/Bytecode.h"

namespace afl {
namespace vm {

/// Executes \p P. Honors MaxSteps / MaxDepth / RecordTrace /
/// RecordLifetimes from \p Options.
interp::RunResult execute(const VmProgram &P,
                          const interp::RunOptions &Options);

} // namespace vm
} // namespace afl

#endif // AFL_VM_VM_H
