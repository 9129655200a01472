// The iteration bounds behind vm::Machine::provesHang (vm/hang_proof.cpp).
//
// The proof models each value of a loop iteration as affine in the
// iteration count i — a + i·b (mod 2^64) — and shows that iterations
// 0..K all take one path. Each helper here returns the largest K for which
// one fact of that path holds at every i in [0, K]; the proof keeps the
// least of them. They compute exactly, in 128-bit arithmetic, and return
// kUnbounded when the fact holds for every i.
#pragma once

#include <cstdint>

#include "ir/instr.hpp"

namespace onebit::vm::hang {

/// "Holds for every i": no iteration count reaches it, since (kUnbounded +
/// 1) iterations of at least one instruction exceed every 64-bit budget.
inline constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};

/// The value a + i·b (mod 2^64) at iteration i.
struct Affine {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Largest K such that x, read as a signed 64-bit value, does not wrap:
/// asI64(a) + i·asI64(b) stays within [INT64_MIN, INT64_MAX] for i <= K.
std::uint64_t noWrapBound(Affine x) noexcept;

/// Largest K such that the integer compare `cmp` (ICmpEq ... ICmpGe) of x
/// and y gives its i = 0 result at every i <= K, and neither operand wraps
/// (noWrapBound) on the way.
std::uint64_t compareBound(ir::Opcode cmp, Affine x, Affine y) noexcept;

/// Largest K such that the `width`-byte access at address `addr` stays
/// inside the segment [base, base + size) — and 8-aligned at width 8 — at
/// every i <= K. Precondition: the access at i = 0 is inside and aligned.
std::uint64_t segmentBound(Affine addr, std::uint64_t base, std::uint64_t size,
                           unsigned width) noexcept;

}  // namespace onebit::vm::hang
