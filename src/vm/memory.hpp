// Segmented, bounds- and alignment-checked memory for the onebit VM.
//
// Three disjoint segments (globals, stack, heap) live at the fixed virtual
// bases declared in ir/module.hpp with large unmapped gaps between them, so
// that a bit flip in an address register usually lands outside any segment
// and raises a segmentation fault — the dominant detection mechanism in the
// paper's inject-on-read results (§IV-A).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "ir/module.hpp"
#include "vm/trap.hpp"

namespace onebit::vm {

class Memory {
 public:
  Memory(const std::vector<std::uint8_t>& globalImage, std::size_t stackBytes,
         std::size_t maxHeapBytes);
  ~Memory();

  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;

  /// Load `width` (1 or 8) bytes, zero-extended into a 64-bit word.
  /// On failure sets `trap` and returns 0. Aligned and byte-wide stack and
  /// global accesses take the inline fast path; heap accesses and every
  /// trap go through loadSlow().
  std::uint64_t load(std::uint64_t addr, unsigned width,
                     TrapKind& trap) noexcept {
    if (const std::uint8_t* p = fastPtr(addr, width)) {
      if (width == 8) {
        std::uint64_t v;
        std::memcpy(&v, p, 8);
        return v;
      }
      return *p;
    }
    return loadSlow(addr, width, trap);
  }

  /// Store the low `width` bytes of value. On failure sets `trap`. Inline
  /// for the same accesses as load().
  void store(std::uint64_t addr, unsigned width, std::uint64_t value,
             TrapKind& trap) noexcept {
    if (std::uint8_t* p = fastPtr(addr, width)) {
      if (width == 8) {
        std::memcpy(p, &value, 8);
      } else {
        *p = static_cast<std::uint8_t>(value);
      }
      const std::uint64_t stackOff = addr - ir::kStackBase;  // may wrap
      if (stackOff < stackSize_) {
        storeHighWater_ = std::max(
            storeHighWater_, static_cast<std::size_t>(stackOff) + width);
      }
      return;
    }
    storeSlow(addr, width, value, trap);
  }

  /// XOR the low `width` bytes of `mask` into the bytes at addr — the fault
  /// injectors' poke interface for flipping bits of stored data in place
  /// (the MemoryData fault domain). Same addressing rules as store(); on an
  /// unmapped or misaligned target sets `trap` and changes nothing. Updates
  /// the stack store high-water mark exactly like store(), so VM snapshots
  /// always capture poked bytes.
  void poke(std::uint64_t addr, unsigned width, std::uint64_t mask,
            TrapKind& trap) noexcept;

  /// Bump-allocate a zeroed heap block (8-byte aligned). Returns its
  /// address, or 0 with `trap` set when the block and its alignment padding
  /// do not fit the heap budget.
  std::uint64_t alloc(std::int64_t bytes, TrapKind& trap);

  [[nodiscard]] std::size_t stackBytes() const noexcept { return stackSize_; }

  /// The globals segment's bytes. Its size is the module's global image
  /// size and never changes, so the threaded loop indexes it directly at
  /// the offsets its decoder resolved (vm/threaded.hpp).
  [[nodiscard]] std::uint8_t* globalsData() noexcept { return globals_.data(); }
  [[nodiscard]] std::size_t globalBytes() const noexcept {
    return globals_.size();
  }
  [[nodiscard]] std::size_t heapUsed() const noexcept { return heap_.size(); }

  /// One past the highest stack byte ever written through store(). Stack
  /// content only changes via store(), so every byte at or beyond this
  /// offset is still zero — the exact bound VM snapshots copy up to. (A
  /// frame-pointer high-water mark would not do: stores anywhere inside the
  /// stack segment are legal, including above the current frames.)
  [[nodiscard]] std::size_t stackStoreHighWater() const noexcept {
    return storeHighWater_;
  }

  /// Copy the three segments into a VM snapshot. Only the first `stackUsed`
  /// bytes of the stack are copied — the caller (vm::Machine) tracks the
  /// stack high-water mark, and bytes beyond it are untouched zeros.
  void captureSegments(std::size_t stackUsed,
                       std::vector<std::uint8_t>& globals,
                       std::vector<std::uint8_t>& stack,
                       std::vector<std::uint8_t>& heap) const;

  /// Restore segments captured by captureSegments: globals are replaced,
  /// the stack becomes `stackPrefix` followed by zeros, the heap becomes
  /// `heap`. Throws std::invalid_argument when an image does not fit this
  /// Memory's geometry (globals size mismatch, stack prefix longer than the
  /// stack, heap beyond the heap budget).
  void restoreSegments(const std::vector<std::uint8_t>& globals,
                       const std::vector<std::uint8_t>& stackPrefix,
                       const std::vector<std::uint8_t>& heap);

  /// True when the segments hold exactly what restoreSegments would put
  /// there: the same globals, the stack equal to `stackPrefix` followed by
  /// zeros, and the same heap, its size included (the next alloc() places
  /// its block at the end of the heap).
  [[nodiscard]] bool holds(const std::vector<std::uint8_t>& globals,
                           const std::vector<std::uint8_t>& stackPrefix,
                           const std::vector<std::uint8_t>& heap) const;

 private:
  /// Host pointer for an access that lies wholly inside the stack or the
  /// globals and is 8-byte aligned when `width` is 8; nullptr otherwise
  /// (heap, unmapped, misaligned), leaving resolve() to find the segment
  /// or the trap. An offset below a segment base wraps to a huge value and
  /// fails the bound, like one past the end.
  [[nodiscard]] std::uint8_t* fastPtr(std::uint64_t addr,
                                      unsigned width) noexcept {
    if (width == 8 && (addr & 7U) != 0) return nullptr;
    const std::uint64_t stackOff = addr - ir::kStackBase;
    if (stackOff < stackSize_ && width <= stackSize_ - stackOff) {
      return stack_ + stackOff;
    }
    const std::uint64_t globalOff = addr - ir::kGlobalBase;
    if (globalOff < globals_.size() && width <= globals_.size() - globalOff) {
      return globals_.data() + globalOff;
    }
    return nullptr;
  }

  std::uint64_t loadSlow(std::uint64_t addr, unsigned width,
                         TrapKind& trap) noexcept;
  void storeSlow(std::uint64_t addr, unsigned width, std::uint64_t value,
                 TrapKind& trap) noexcept;

  /// Resolve addr/width to a host pointer, or nullptr with trap set.
  std::uint8_t* resolve(std::uint64_t addr, unsigned width,
                        TrapKind& trap) noexcept;

  std::vector<std::uint8_t> globals_;
  /// The stack segment is a zeroed buffer from a per-thread pool keyed by
  /// size (memory.cpp), not a fresh allocation: campaigns construct a Memory
  /// per experiment, and once the process is warm glibc serves a 1 MiB
  /// calloc from recycled heap and memsets all of it: about 30 us per
  /// calloc+free pair on a 4-core Xeon, a fifth of a fig1 experiment. The
  /// destructor re-zeroes only [0, storeHighWater_) before pooling the
  /// buffer, since every byte above it is still zero. The contents contract
  /// is unchanged: every byte reads as zero until written.
  std::uint8_t* stack_ = nullptr;
  std::size_t stackSize_ = 0;
  std::vector<std::uint8_t> heap_;
  std::size_t maxHeapBytes_;
  std::size_t storeHighWater_ = 0;
};

}  // namespace onebit::vm
