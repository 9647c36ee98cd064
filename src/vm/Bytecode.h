//===----------------------------------------------------------------------===//
///
/// \file
/// The region bytecode: a compact, flat encoding of a completed region
/// program (regions::RegionProgram + regions::Completion) that
/// vm::execute runs without host recursion.
///
/// Layout. One contiguous `uint32_t` code array holds every function's
/// body back to back; `FuncInfo::Entry` indexes into it. Each instruction
/// is an opcode word followed by a fixed number of operand words
/// (`RegApp` alone is variable-length — its actual count is an operand).
/// 64-bit integer literals live in a constant pool; runtime-trap messages
/// (for references the compiler could not resolve, mirroring the tree
/// walker's lazy unbound-variable errors) live in a string pool.
///
/// References. Value bindings and region bindings are resolved at compile
/// time to either *frame slots* (locals of the current activation:
/// parameters, `let` binders, `letregion` regions) or *capture indices*
/// (positions in the closure's capture record, built at closure-creation
/// time from `FuncInfo::ValCaps` / `RegCaps` descriptors — the classic
/// flat-closure conversion). A reference operand packs:
///
///   bit 31  RefCapture — capture index, else frame slot
///   bit 29  RefPoison  — the binding could not be resolved at compile
///                        time (an analysis bug the tree walker reports
///                        lazily); the low bits index TrapMsgs and the
///                        instruction fails exactly where the walker's
///                        environment lookup would have
///   bits 0-28           the slot / index / trap-message index
///
/// Region records of a region-polymorphic function are laid out
/// `[formals..., captures...]`: the `RegClos` value stores only the
/// capture part (built at `letrec`), and each region application
/// prepends the resolved actuals (Op::RegApp).
///
/// Exactness. The bytecode preserves the Fig. 2 tree walker's observable
/// behavior bit for bit: every node compiles to an `Enter` carrying its
/// static depth within the enclosing function, so the step counter and
/// the recursion-depth guard fire at exactly the same evaluation points,
/// and all store instructions replicate the walker's instrumentation
/// order (docs/VM.md).
///
//===----------------------------------------------------------------------===//

#ifndef AFL_VM_BYTECODE_H
#define AFL_VM_BYTECODE_H

#include <cstdint>
#include <string>
#include <vector>

namespace afl {
namespace vm {

/// Reference-operand encoding (see file comment).
constexpr uint32_t RefCapture = 0x80000000u;
constexpr uint32_t RefPoison = 0x20000000u;
constexpr uint32_t RefIndexMask = 0x1fffffffu;

enum class Op : uint32_t {
  /// [staticDepth] — node entry: counts one evaluation step (trapping on
  /// RunOptions::MaxSteps) and checks frame.D0 + staticDepth against
  /// RunOptions::MaxDepth. Compiled at the head of every IR node.
  Enter,
  /// [regSlot] — create a fresh unallocated region, store its id in the
  /// frame region slot (letregion entry; uncounted, like the walker).
  NewRegion,
  /// [regRef] — completion op: U → A transition (counts + ticks).
  AllocReg,
  /// [regRef] — completion op: A → D transition, O(1) arena release.
  FreeReg,
  /// [regSlot][regionVar] — letregion exit: trap if still allocated
  /// ("region r<regionVar> still allocated at letregion exit").
  CheckEnd,
  /// [poolIdx][dstRef] — write the boxed int IntPool[poolIdx]; push addr.
  WriteInt,
  /// [tag][dstRef] — write a boxed false/true/unit/nil; push its addr.
  WriteTag,
  /// [slot] — push the address bound to a frame local.
  LoadLocal,
  /// [idx] — push the address at capture-record index idx.
  LoadCap,
  /// [slot] — pop an address into a frame local (let binding).
  StoreLocal,
  /// [funcIdx][dstRef] — build Funcs[funcIdx]'s capture records in the
  /// current frame, write an ordinary closure; push its address.
  MakeClos,
  /// [funcIdx][dstRef] — same for a region-polymorphic closure: the
  /// region record holds captures only; Self capture entries are patched
  /// with the written address (letrec knot).
  MakeRegClos,
  /// [] — application, step 1: read the closure at stack[-2] (the
  /// evaluated function), trap unless it is an ordinary closure, and
  /// latch it; free_app completion ops follow before Call.
  ReadClos,
  /// [depthDelta] — application, step 2: pop argument + closure address,
  /// push an activation of the latched closure (callee D0 = caller D0 +
  /// depthDelta, i.e. the body evaluates one level below the App node).
  Call,
  /// [] — return: pop the activation; the result address stays on the
  /// operand stack.
  Ret,
  /// [srcRef] — region application f[ρ⃗]@ρ, step 1: read the RegClos
  /// bound at srcRef, trap unless it is a region closure, latch it.
  ReadRegClos,
  /// [dstRef][n][actual0..n-1] — region application, step 2: compose the
  /// latched closure's region record with the n resolved actuals
  /// ([actuals..., base captures...]), write the instantiated ordinary
  /// closure; push its address.
  RegAppWrite,
  /// [elseTarget] — pop + read the condition, trap unless boolean, jump
  /// when false.
  Branch,
  /// [target] — unconditional jump (end of a then-branch).
  Jump,
  /// [dstRef] — pop two component addresses, write a pair cell.
  WritePair,
  /// [dstRef] — pop head + tail addresses, write a cons cell.
  WriteCons,
  /// [which] — pop + read a value, push its component: 0 fst, 1 snd,
  /// 2 hd, 3 tl (kind-checked with the walker's exact messages).
  Proj,
  /// [dstRef] — pop + read a list value, write its null? boolean.
  NullTest,
  /// [op][dstRef] — pop two operands, read lhs then rhs, compute
  /// (ast::BinOpKind order), write the boxed result.
  BinOp,
  /// [msgIdx] — fail with TrapMsgs[msgIdx] (compile-time-unresolvable
  /// reference reached at runtime; mirrors the walker's lazy errors).
  Trap,
  /// [] — end of the root body: the program result is on the stack.
  Halt,
};

/// WriteTag operands.
enum : uint32_t { TagFalse = 0, TagTrue = 1, TagUnit = 2, TagNil = 3 };

/// Where a capture-record entry is read from when the closure is created
/// (always evaluated in the *creating* activation).
struct CaptureSource {
  enum Kind : uint8_t {
    Local,   ///< creating frame's local slot (value) / region slot
    Capture, ///< creating frame's own capture record
    Self,    ///< the address of the RegClos being created (letrec knot)
  };
  Kind K = Local;
  uint32_t Idx = 0;
};

/// One compiled function: the root program, a lambda body, or a letrec
/// function body.
struct FuncInfo {
  /// Code offset of the body's first instruction.
  uint32_t Entry = 0;
  /// Frame sizes: value slots (parameter + let binders) and region slots
  /// (letregion binders; for the root, the global regions come first).
  uint32_t NumValSlots = 0;
  uint32_t NumRegSlots = 0;
  /// Region formals of a letrec function (0 otherwise). The runtime
  /// region record is [formals..., captures...].
  uint32_t NumFormals = 0;
  /// Capture descriptors, evaluated at closure creation.
  std::vector<CaptureSource> ValCaps;
  std::vector<CaptureSource> RegCaps;
};

/// A compiled program: everything vm::execute needs.
struct VmProgram {
  std::vector<uint32_t> Code;
  std::vector<int64_t> IntPool;
  std::vector<std::string> TrapMsgs;
  std::vector<FuncInfo> Funcs;
  /// Index of the root function (its frame is created at startup; its
  /// first NumGlobalRegions region slots are the program's global
  /// regions, created before the root node evaluates).
  uint32_t RootFunc = 0;
  uint32_t NumGlobalRegions = 0;

  size_t codeWords() const { return Code.size(); }
};

} // namespace vm
} // namespace afl

#endif // AFL_VM_BYTECODE_H
