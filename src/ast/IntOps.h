//===----------------------------------------------------------------------===//
///
/// \file
/// The language's integer semantics (docs/LANGUAGE.md), shared by every
/// evaluator: the bytecode VM, the Fig. 2 tree walker and the reference
/// interpreter. Integers are 64-bit two's complement. `+`, `-` and `*`
/// wrap (computed through uint64_t, so no overflow is undefined);
/// `div` and `mod` truncate toward zero, with `min div -1 = min` and
/// `min mod -1 = 0` (the quotient wraps like `0 - min`). A zero divisor
/// is a runtime error.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_AST_INTOPS_H
#define AFL_AST_INTOPS_H

#include "ast/Expr.h"

#include <cstdint>

namespace afl {
namespace ast {

/// True for the operators whose result is a boolean (`<`, `<=`, `=`).
inline bool isComparison(BinOpKind Op) {
  return Op == BinOpKind::Lt || Op == BinOpKind::Le || Op == BinOpKind::Eq;
}

/// Applies \p Op to \p L and \p R, writing the result to \p Out (0 or 1
/// for a comparison). Returns the runtime error message of a zero
/// divisor, or nullptr on success.
inline const char *applyBinOp(BinOpKind Op, int64_t L, int64_t R,
                              int64_t &Out) {
  const uint64_t UL = static_cast<uint64_t>(L), UR = static_cast<uint64_t>(R);
  switch (Op) {
  case BinOpKind::Add:
    Out = static_cast<int64_t>(UL + UR);
    return nullptr;
  case BinOpKind::Sub:
    Out = static_cast<int64_t>(UL - UR);
    return nullptr;
  case BinOpKind::Mul:
    Out = static_cast<int64_t>(UL * UR);
    return nullptr;
  case BinOpKind::Div:
    if (R == 0)
      return "division by zero";
    Out = R == -1 ? static_cast<int64_t>(0 - UL) : L / R;
    return nullptr;
  case BinOpKind::Mod:
    if (R == 0)
      return "mod by zero";
    Out = R == -1 ? 0 : L % R;
    return nullptr;
  case BinOpKind::Lt:
    Out = L < R;
    return nullptr;
  case BinOpKind::Le:
    Out = L <= R;
    return nullptr;
  case BinOpKind::Eq:
    Out = L == R;
    return nullptr;
  }
  return "unknown binary operator";
}

} // namespace ast
} // namespace afl

#endif // AFL_AST_INTOPS_H
