// VM snapshots: between-instructions checkpoints of a Machine execution.
//
// A Snapshot captures everything a resumed run needs to continue
// bit-identically: the call-frame stack, the shared virtual register file,
// all three memory segments (globals, used stack prefix, heap), the stack
// pointer, the partial program output, and the dynamic instruction /
// candidate-stream counters. Because the interpreter is deterministic, a run
// resumed from a snapshot is indistinguishable from a from-scratch run that
// reached the same point — same ExecResult, same hook callback stream, same
// trap behavior — for ANY hook and ANY limits (see tests/snapshot_test.cpp).
//
// The fault-injection layer uses this as a golden-prefix fast-forward:
// every faulty run's prefix before the first injection is identical to the
// golden run, so fi::Workload captures snapshots once during its golden run
// and fi::runExperiment resumes each experiment from the densest snapshot
// at-or-before the fault plan's first injection index instead of
// re-interpreting the whole prefix (see fi/experiment.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/module.hpp"
#include "vm/interpreter.hpp"

namespace onebit::vm {

/// A checkpoint of a Machine between two dynamic instructions. Pure data;
/// only meaningful together with the ir::Module it was captured from.
struct Snapshot {
  /// One call frame. `pendingCall` pointers are not stored: for frame i > 0
  /// the pending call is always the caller's previously fetched instruction,
  /// i.e. frames[i-1].fn's block `block` at index `ip - 1`.
  struct Frame {
    std::uint32_t fn = 0;     ///< index into Module::functions
    std::uint32_t block = 0;  ///< current basic block
    std::uint32_t ip = 0;     ///< next instruction index within the block
    std::uint64_t regBase = 0;
    std::uint64_t frameBase = 0;

    bool operator==(const Frame&) const = default;
  };

  std::vector<Frame> frames;
  std::vector<std::uint64_t> regs;  ///< shared register stack (all frames)
  std::vector<std::uint8_t> globals;
  /// Written stack prefix ([0, stackHighWater)). The bound is the highest
  /// byte ever STORED (Memory::stackStoreHighWater) — not a frame-pointer
  /// mark, since stores anywhere inside the stack segment are legal — so
  /// every byte beyond it is still zero in any reachable state.
  std::vector<std::uint8_t> stack;
  std::vector<std::uint8_t> heap;
  std::uint64_t sp = 0;
  std::uint64_t stackHighWater = 0;  ///< == stack.size()
  std::uint64_t instructions = 0;
  std::uint64_t readCandidates = 0;   ///< inject-on-read stream position
  std::uint64_t writeCandidates = 0;  ///< inject-on-write stream position
  std::uint64_t storeCandidates = 0;  ///< store-event stream position
  bool outputTruncated = false;
  std::string output;  ///< program output produced so far

  /// Approximate heap footprint (for snapshot-cache byte budgets).
  [[nodiscard]] std::size_t byteSize() const noexcept;

  bool operator==(const Snapshot&) const = default;
};

/// Capture cadence and retention bounds for executeWithSnapshots.
struct SnapshotCapturePolicy {
  /// Initial spacing, in dynamic instructions, between captures (0 is read
  /// as 1). Captures land on multiples of the spacing. When a retention
  /// bound below is exceeded the collector drops every other kept snapshot
  /// and doubles the spacing, so coverage stays uniform over the run at
  /// whatever density fits.
  std::uint64_t interval = 1024;
  std::size_t maxSnapshots = 64;       ///< 0 = unbounded
  std::size_t budgetBytes = 16 << 20;  ///< total byteSize() cap; 0 = unbounded
};

/// Run `mod` to completion with no hook — the ExecResult is identical to
/// execute(mod, limits, nullptr) — capturing snapshots along the way into
/// `out` (cleared first, ordered by capture time, so the instruction and
/// candidate counters are nondecreasing across the vector). Each capture
/// pauses the run at an exact instruction count (Machine::runUntil), so
/// the run keeps its backend (limits.dispatch) throughout.
ExecResult executeWithSnapshots(const ir::Module& mod, const ExecLimits& limits,
                                const SnapshotCapturePolicy& policy,
                                std::vector<Snapshot>& out);

/// Continue a snapshotted execution of `mod` to completion. The continuation
/// is bit-identical to a from-scratch execute(mod, limits, hook) run from the
/// snapshot point on: the hook sees the same callback stream (with candidate
/// indices continuing from the snapshot's counters), and the returned
/// ExecResult — including the cumulative instruction/candidate counts and the
/// full output — equals the from-scratch result. Throws std::invalid_argument
/// when the snapshot does not fit `mod` or `limits` (wrong module, a stack /
/// heap image exceeding the limits' segment sizes).
ExecResult resume(const ir::Module& mod, const Snapshot& snap,
                  const ExecLimits& limits, ExecHook* hook = nullptr);

}  // namespace onebit::vm
