// The resumable interpreter core behind vm::execute / vm::resume.
//
// A Machine owns the full mid-execution state of one run (frames, register
// stack, memory segments, counters, partial output) and can
//   * start fresh from a module's entry function,
//   * be reconstructed from a vm::Snapshot and continue bit-identically, and
//   * capture snapshots of itself at candidate-count boundaries while running
//     (the instrumented golden run of a fi::Workload).
//
// The execution loop is templated on whether a hook is attached: once an
// attached hook reports exhausted() — it can no longer mutate any future
// candidate — run() switches to the hook-free instantiation, so the tail of
// a faulty run pays no virtual hook dispatch at all (the same fast path
// golden runs use).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ir/module.hpp"
#include "vm/interpreter.hpp"
#include "vm/memory.hpp"
#include "vm/snapshot.hpp"
#include "vm/state_hash.hpp"
#include "vm/threaded.hpp"

namespace onebit::vm {

namespace detail {

/// FPToSI semantics shared by both dispatch backends: NaN converts to 0,
/// out-of-range values saturate to the int64 extremes.
std::int64_t saturatingFpToSi(double d) noexcept;

}  // namespace detail

class Machine {
 public:
  /// Fresh run: pushes the entry frame (a frame too large for the stack
  /// traps immediately; run() then returns that trap).
  Machine(const ir::Module& mod, const ExecLimits& limits, ExecHook* hook);

  /// Resumed run: reconstructs the snapshot's state. Throws
  /// std::invalid_argument when the snapshot does not fit `mod`/`limits`.
  Machine(const ir::Module& mod, const Snapshot& snap, const ExecLimits& limits,
          ExecHook* hook);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Snapshot sink: receives each captured snapshot and returns the capture
  /// interval to use from here on (in combined candidate indices, >= 1) —
  /// collectors coarsen the cadence on the fly to honor retention budgets.
  using SnapshotSink = std::function<std::uint64_t(Snapshot&&)>;

  /// Capture a snapshot each time the combined candidate count
  /// (readCandidates + writeCandidates) crosses a multiple of `interval`
  /// (>= 1). Call before run().
  void captureEvery(std::uint64_t interval, SnapshotSink sink);

  /// Run to completion (or trap / fuel exhaustion). Call once, after any
  /// runToBoundary() pauses.
  ExecResult run();

  /// Run until the dynamic instruction counter reaches the next multiple of
  /// `grid` (> the current count), then pause between instructions and
  /// return true. Returns false when the run ends (halt / trap / fuel)
  /// before that boundary — the caller then calls run() to collect the
  /// result — or when state hashing is off / `grid` is 0.
  ///
  /// While an attached hook is not yet exhausted the run does NOT pause:
  /// pending injections are part of the dynamic state but not of the hash,
  /// so hash comparisons are only sound once the hook is exhausted. A hook
  /// that never exhausts simply runs to completion (returns false).
  bool runToBoundary(std::uint64_t grid);

  /// Snapshot the current between-instructions state.
  [[nodiscard]] Snapshot capture() const;

  /// The incrementally maintained 64-bit state hash (requires
  /// ExecLimits::trackStateHash). Two runs of the same module with equal
  /// stateHash() at the same point have bit-identical machine state, so
  /// their hook-free continuations are bit-identical too: the hash covers
  /// frames, registers, memory, sp, output (and its truncation flag), and
  /// the instruction/candidate counters.
  [[nodiscard]] std::uint64_t stateHash() const;

  /// From-scratch recomputation of stateHash() — the differential
  /// cross-check for the incremental maintenance (tests/state_hash_test).
  [[nodiscard]] std::uint64_t computeStateHash() const;

  /// Stop maintaining the state hash for the rest of the run. Execution is
  /// unchanged (the hash is passive), but stateHash() is stale afterwards.
  /// Callers that made their pruning decision at a boundary use this so the
  /// remainder runs at full speed.
  void stopStateHashTracking() noexcept;

  /// Dynamic instructions executed so far.
  [[nodiscard]] std::uint64_t instructions() const noexcept {
    return instructions_;
  }

 private:
  struct CallFrame {
    const ir::Function* fn = nullptr;
    std::uint32_t block = 0;
    std::uint32_t ip = 0;         ///< next instruction index within block
    std::size_t regBase = 0;      ///< base into the shared register stack
    std::uint64_t frameBase = 0;  ///< base address of this frame's stack slot
    const ir::Instr* pendingCall = nullptr;  ///< call awaiting a return value
  };

  ExecResult finish();
  void trap(TrapKind k);
  void pushFrame(std::uint32_t fnId, std::span<const std::uint64_t> args,
                 const ir::Instr* pendingCall);
  void popFrame();
  void appendOutput(const char* data, std::size_t n);
  void printValue(ir::PrintKind kind, std::uint64_t v);
  std::uint64_t applyIntrinsic(ir::IntrinsicKind kind,
                               std::span<const std::uint64_t> v);
  void maybeCapture();

  /// Mixed term of a parked (non-top) call frame at `depth` in frames_.
  [[nodiscard]] std::uint64_t frameTerm(std::uint64_t depth,
                                        const CallFrame& f) const noexcept;

  /// The interpreter loop. `Hooked` instantiations dispatch to hook_ and
  /// return early once it is exhausted; `Capturing` instantiations check the
  /// snapshot cadence at each instruction boundary; `Hashing` instantiations
  /// fold register writes into the incremental state hash and honor
  /// runToBoundary() pauses. When Hashing is false the generated code is
  /// identical to before state hashing existed.
  template <bool Hooked, bool Capturing, bool Hashing>
  void loop();

  /// Select the loop instantiation for the runtime hashing flag.
  template <bool Hooked>
  void dispatchLoop(bool capturing);

  /// Run the hook-free remainder on the direct-threaded backend
  /// (limits_.threadedCode, or ThreadedCode::decode when that is null,
  /// executed by detail::runThreadedLoop). The reference loop runs the
  /// segment in which fuel runs out.
  /// Preconditions: between instructions, hook-free/exhausted, not
  /// capturing, not hashing.
  void runThreaded();

  /// The threaded loop lives in its own translation unit (computed goto)
  /// and drives this machine's private state directly.
  friend void detail::runThreadedLoop(Machine* m, const ThreadedCode* code,
                                      const void* const** labelsOut);

  const ir::Module& mod_;
  ExecLimits limits_;
  ExecHook* hook_;
  Memory mem_;
  std::vector<CallFrame> frames_;
  /// The register stack: frames' registers are [0, regsTop_), each frame's
  /// at its regBase. regs_ is a buffer that only grows (pushFrame doubles
  /// it), so pushing and popping a frame moves regsTop_ and never resizes;
  /// slots at or above regsTop_ are stale and zeroed on the next push.
  std::vector<std::uint64_t> regs_;
  std::size_t regsTop_ = 0;
  std::uint64_t sp_ = 0;
  std::uint64_t instructions_ = 0;
  std::uint64_t readCandidates_ = 0;
  std::uint64_t writeCandidates_ = 0;
  std::uint64_t storeCandidates_ = 0;
  bool halted_ = false;  ///< main returned
  std::uint64_t captureInterval_ = 0;  ///< 0 = not capturing
  std::uint64_t nextCaptureAt_ = 0;
  SnapshotSink snapshotSink_;
  ExecResult result_;
  // --- incremental state hash (ExecLimits::trackStateHash) ---
  bool hashing_ = false;
  std::uint64_t regsHash_ = 0;    ///< XOR of non-zero register terms
  std::uint64_t framesHash_ = 0;  ///< XOR of parked (non-top) frame terms
  std::uint64_t outputHash_ = statehash::kFnvBasis;  ///< rolling FNV-1a
  std::uint64_t pauseAt_ = ~0ULL;  ///< runToBoundary pause point
};

}  // namespace onebit::vm
