// Bit-manipulation and integer helpers used by the fault-injection engine.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace onebit::util {

/// ceil(n / d) for d > 0, also where (n + d - 1) / d would wrap 2^64.
constexpr std::uint64_t ceilDiv(std::uint64_t n, std::uint64_t d) noexcept {
  return n / d + (n % d != 0 ? 1 : 0);
}

/// Flip a single bit of a 64-bit raw value. bit must be < 64.
constexpr std::uint64_t flipBit(std::uint64_t value, unsigned bit) noexcept {
  return value ^ (1ULL << bit);
}

/// Flip a set of bits encoded as a mask.
constexpr std::uint64_t flipMask(std::uint64_t value,
                                 std::uint64_t mask) noexcept {
  return value ^ mask;
}

/// Choose `count` distinct bit positions in [0, width) uniformly at random.
/// count is clamped to width.
std::vector<unsigned> pickDistinctBits(Rng& rng, unsigned width,
                                       unsigned count);

/// Build a flip mask from distinct bit positions.
std::uint64_t maskFromBits(const std::vector<unsigned>& bits) noexcept;

}  // namespace onebit::util
