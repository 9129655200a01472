#include "vm/memory.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

namespace onebit::vm {

using ir::kGlobalBase;
using ir::kHeapBase;
using ir::kStackBase;

namespace {

/// All-zero stack buffers this thread released, at most one per size, so a
/// campaign thread keeps exactly one. Only the owning thread touches its
/// pool, so it takes no lock; a Memory destroyed on another thread lands in
/// that thread's pool. While pooled, a buffer is poisoned for
/// AddressSanitizer, so a stale pointer into a released stack still reports.
struct StackPool {
  struct Slot {
    std::uint8_t* buf = nullptr;
    std::size_t bytes = 0;
  };
  std::array<Slot, 4> slots{};

  StackPool() = default;
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;
  ~StackPool();
};

/// Set once this thread's pool is destroyed. A Memory released after that
/// (later in the same thread's exit, or a static one after main's
/// thread-locals) frees its buffer instead of touching the dead pool.
thread_local bool tPoolGone = false;

StackPool* threadPool() noexcept {
  if (tPoolGone) return nullptr;
  thread_local StackPool pool;
  return &pool;
}

StackPool::~StackPool() {
  for (Slot& s : slots) {
    if (s.buf == nullptr) continue;
    ASAN_UNPOISON_MEMORY_REGION(s.buf, s.bytes);
    std::free(s.buf);
  }
  tPoolGone = true;
}

/// An all-zero buffer for a `bytes`-byte stack: this thread's pooled one
/// when it has one, else a fresh calloc.
std::uint8_t* acquireStack(std::size_t bytes) {
  if (StackPool* pool = threadPool()) {
    for (StackPool::Slot& s : pool->slots) {
      if (s.buf != nullptr && s.bytes == bytes) {
        ASAN_UNPOISON_MEMORY_REGION(s.buf, bytes);
        return std::exchange(s.buf, nullptr);
      }
    }
  }
  auto* buf = static_cast<std::uint8_t*>(
      std::calloc(bytes != 0 ? bytes : 1, 1));
  if (buf == nullptr) throw std::bad_alloc();
  return buf;
}

/// Give back a stack buffer whose bytes at or beyond `dirty` are all zero:
/// zero the rest and pool it, or free it when the pool is gone or already
/// holds a buffer of this size or has no free slot.
void releaseStack(std::uint8_t* buf, std::size_t bytes,
                  std::size_t dirty) noexcept {
  StackPool::Slot* slot = nullptr;
  if (StackPool* pool = threadPool()) {
    for (StackPool::Slot& s : pool->slots) {
      if (s.buf == nullptr) {
        if (slot == nullptr) slot = &s;
      } else if (s.bytes == bytes) {
        slot = nullptr;
        break;
      }
    }
  }
  if (slot == nullptr) {
    std::free(buf);
    return;
  }
  std::memset(buf, 0, dirty);
  ASAN_POISON_MEMORY_REGION(buf, bytes);
  *slot = {buf, bytes};
}

}  // namespace

Memory::Memory(const std::vector<std::uint8_t>& globalImage,
               std::size_t stackBytes, std::size_t maxHeapBytes)
    : globals_(globalImage),
      stackSize_(stackBytes),
      maxHeapBytes_(maxHeapBytes) {
  heap_.reserve(4096);
  stack_ = acquireStack(stackSize_);  // last: nothing after it may throw
}

Memory::~Memory() { releaseStack(stack_, stackSize_, storeHighWater_); }

std::uint8_t* Memory::resolve(std::uint64_t addr, unsigned width,
                              TrapKind& trap) noexcept {
  if (width == 8 && (addr & 7U) != 0) {
    trap = TrapKind::Misaligned;
    return nullptr;
  }
  auto inSegment = [&](std::uint64_t base, std::uint8_t* data,
                       std::size_t size) -> std::uint8_t* {
    if (addr >= base && addr - base + width <= size) {
      return data + (addr - base);
    }
    return nullptr;
  };
  // Order by expected access frequency: stack, globals, heap.
  if (auto* p = inSegment(kStackBase, stack_, stackSize_)) return p;
  if (auto* p = inSegment(kGlobalBase, globals_.data(), globals_.size())) {
    return p;
  }
  if (auto* p = inSegment(kHeapBase, heap_.data(), heap_.size())) return p;
  trap = TrapKind::SegFault;
  return nullptr;
}

std::uint64_t Memory::loadSlow(std::uint64_t addr, unsigned width,
                               TrapKind& trap) noexcept {
  const std::uint8_t* p = resolve(addr, width, trap);
  if (p == nullptr) return 0;
  if (width == 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
  }
  return *p;
}

void Memory::storeSlow(std::uint64_t addr, unsigned width,
                       std::uint64_t value, TrapKind& trap) noexcept {
  std::uint8_t* p = resolve(addr, width, trap);
  if (p == nullptr) return;
  const std::uint64_t stackOff = addr - kStackBase;  // wraps below kStackBase
  if (stackOff < stackSize_) {
    storeHighWater_ =
        std::max(storeHighWater_, static_cast<std::size_t>(stackOff) + width);
  }
  if (width == 8) {
    std::memcpy(p, &value, 8);
  } else {
    *p = static_cast<std::uint8_t>(value);
  }
}

void Memory::poke(std::uint64_t addr, unsigned width, std::uint64_t mask,
                  TrapKind& trap) noexcept {
  std::uint8_t* p = resolve(addr, width, trap);
  if (p == nullptr) return;
  const std::uint64_t stackOff = addr - kStackBase;  // wraps below kStackBase
  if (stackOff < stackSize_) {
    storeHighWater_ =
        std::max(storeHighWater_, static_cast<std::size_t>(stackOff) + width);
  }
  if (width == 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    v ^= mask;
    std::memcpy(p, &v, 8);
  } else {
    *p ^= static_cast<std::uint8_t>(mask);
  }
}

void Memory::captureSegments(std::size_t stackUsed,
                             std::vector<std::uint8_t>& globals,
                             std::vector<std::uint8_t>& stack,
                             std::vector<std::uint8_t>& heap) const {
  globals = globals_;
  stackUsed = std::min(stackUsed, stackSize_);
  stack.assign(stack_, stack_ + stackUsed);
  heap = heap_;
}

void Memory::restoreSegments(const std::vector<std::uint8_t>& globals,
                             const std::vector<std::uint8_t>& stackPrefix,
                             const std::vector<std::uint8_t>& heap) {
  if (globals.size() != globals_.size() || stackPrefix.size() > stackSize_ ||
      heap.size() > maxHeapBytes_) {
    throw std::invalid_argument(
        "vm::Memory: snapshot segments do not fit this memory geometry");
  }
  globals_ = globals;
  std::copy(stackPrefix.begin(), stackPrefix.end(), stack_);
  // Every byte at or beyond storeHighWater_ is still zero (the class
  // invariant), so only the slice the old content could have dirtied needs
  // re-zeroing — not the whole stack. Campaigns resume thousands of
  // snapshots per second; a full-stack fill here would dominate their
  // backend-independent cost.
  if (storeHighWater_ > stackPrefix.size()) {
    std::fill(stack_ + stackPrefix.size(), stack_ + storeHighWater_, 0);
  }
  storeHighWater_ = stackPrefix.size();
  heap_ = heap;
}

bool Memory::holds(const std::vector<std::uint8_t>& globals,
                   const std::vector<std::uint8_t>& stackPrefix,
                   const std::vector<std::uint8_t>& heap) const {
  // Every stack byte at or beyond either high-water mark is zero, so the
  // prefix compares against the stack as is, and any written bytes of ours
  // past the prefix must be zero.
  const std::size_t n = stackPrefix.size();
  return heap.size() == heap_.size() && n <= stackSize_ &&
         globals == globals_ &&
         std::equal(stackPrefix.begin(), stackPrefix.end(), stack_) &&
         std::all_of(stack_ + std::min(n, storeHighWater_),
                     stack_ + storeHighWater_,
                     [](std::uint8_t b) { return b == 0; }) &&
         heap == heap_;
}

std::uint64_t Memory::alloc(std::int64_t bytes, TrapKind& trap) {
  // The budget covers the alignment padding too: a heap grown past
  // maxHeapBytes_ would fail to restore from its own snapshot.
  const std::size_t start = (heap_.size() + 7) & ~std::size_t{7};
  if (bytes < 0 || start + static_cast<std::uint64_t>(bytes) > maxHeapBytes_) {
    trap = TrapKind::SegFault;
    return 0;
  }
  heap_.resize(start + static_cast<std::size_t>(bytes), 0);
  return kHeapBase + start;
}

}  // namespace onebit::vm
