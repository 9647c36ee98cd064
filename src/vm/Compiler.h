//===----------------------------------------------------------------------===//
///
/// \file
/// Bytecode compiler: regions::RegionProgram + regions::Completion
/// → vm::VmProgram. One pass over the IR performing flat-closure
/// conversion (capture descriptors resolved on demand through the
/// lexical chain of enclosing functions) and baking the completion's
/// alloc/free operations, the letregion begin/end protocol and each
/// node's static depth directly into the instruction stream.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_VM_COMPILER_H
#define AFL_VM_COMPILER_H

#include "regions/Completion.h"
#include "regions/RegionProgram.h"
#include "vm/Bytecode.h"

namespace afl {
namespace vm {

/// Compiles \p Prog under completion \p C. Compilation never fails:
/// references the analysis left unresolvable become poisoned operands /
/// Trap instructions that fail at runtime with the tree walker's exact
/// lazy-lookup messages.
VmProgram compile(const regions::RegionProgram &Prog,
                  const regions::Completion &C);

} // namespace vm
} // namespace afl

#endif // AFL_VM_COMPILER_H
