// The value semantics of the VM's pure opcodes, written once.
//
// The direct-threaded loop (vm/machine_threaded.cpp) builds every generic,
// per-form and fused handler from these functions, and the hang prover
// (vm/hang_proof.cpp) folds constant operands with them, so the two
// cannot disagree. The reference loop in vm/machine.cpp keeps its own
// switch: it is the oracle both are held to.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "ir/type.hpp"

namespace onebit::vm {

namespace detail {

/// FPToSI semantics: NaN converts to 0, out-of-range values saturate to the
/// int64 extremes.
inline std::int64_t saturatingFpToSi(double d) noexcept {
  if (std::isnan(d)) return 0;
  if (d >= 9.2233720368547758e18) return std::numeric_limits<std::int64_t>::max();
  if (d <= -9.2233720368547758e18) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(d);
}

}  // namespace detail

namespace sem {

// The binary ops (x, y: the values of operands 0 and 1).
using W = std::uint64_t;
inline W Add(W x, W y) { return x + y; }
inline W Sub(W x, W y) { return x - y; }
inline W Mul(W x, W y) { return x * y; }
inline W And(W x, W y) { return x & y; }
inline W Or(W x, W y) { return x | y; }
inline W Xor(W x, W y) { return x ^ y; }
inline W Shl(W x, W y) { return x << (y & 63U); }
inline W LShr(W x, W y) { return x >> (y & 63U); }
inline W AShr(W x, W y) { return ir::fromI64(ir::asI64(x) >> (y & 63U)); }
inline W FAdd(W x, W y) { return ir::fromF64(ir::asF64(x) + ir::asF64(y)); }
inline W FSub(W x, W y) { return ir::fromF64(ir::asF64(x) - ir::asF64(y)); }
inline W FMul(W x, W y) { return ir::fromF64(ir::asF64(x) * ir::asF64(y)); }
inline W FDiv(W x, W y) { return ir::fromF64(ir::asF64(x) / ir::asF64(y)); }
inline W ICmpEq(W x, W y) { return x == y ? 1 : 0; }
inline W ICmpNe(W x, W y) { return x != y ? 1 : 0; }
inline W ICmpLt(W x, W y) { return ir::asI64(x) < ir::asI64(y) ? 1 : 0; }
inline W ICmpLe(W x, W y) { return ir::asI64(x) <= ir::asI64(y) ? 1 : 0; }
inline W ICmpGt(W x, W y) { return ir::asI64(x) > ir::asI64(y) ? 1 : 0; }
inline W ICmpGe(W x, W y) { return ir::asI64(x) >= ir::asI64(y) ? 1 : 0; }
inline W FCmpEq(W x, W y) { return ir::asF64(x) == ir::asF64(y) ? 1 : 0; }
inline W FCmpNe(W x, W y) { return ir::asF64(x) != ir::asF64(y) ? 1 : 0; }
inline W FCmpLt(W x, W y) { return ir::asF64(x) < ir::asF64(y) ? 1 : 0; }
inline W FCmpLe(W x, W y) { return ir::asF64(x) <= ir::asF64(y) ? 1 : 0; }
inline W FCmpGt(W x, W y) { return ir::asF64(x) > ir::asF64(y) ? 1 : 0; }
inline W FCmpGe(W x, W y) { return ir::asF64(x) >= ir::asF64(y) ? 1 : 0; }

// The divisions, for a nonzero divisor y (a zero one traps before these
// run). INT64_MIN / -1 wraps, like x86 would fault; define it.
inline W SDiv(W x, W y) {
  const std::int64_t num = ir::asI64(x);
  const std::int64_t den = ir::asI64(y);
  return den == -1 && num == std::numeric_limits<std::int64_t>::min()
             ? x
             : ir::fromI64(num / den);
}
inline W SRem(W x, W y) {
  const std::int64_t den = ir::asI64(y);
  return den == -1 ? 0 : ir::fromI64(ir::asI64(x) % den);
}

// The conversions (x: the value of operand 0).
inline W SIToFP(W x) { return ir::fromF64(static_cast<double>(ir::asI64(x))); }
inline W FPToSI(W x) {
  return ir::fromI64(detail::saturatingFpToSi(ir::asF64(x)));
}

}  // namespace sem

}  // namespace onebit::vm
