// The resumable interpreter core behind vm::execute / vm::resume.
//
// A Machine owns the full mid-execution state of one run (frames, register
// stack, memory segments, counters, partial output) and can
//   * start fresh from a module's entry function,
//   * be reconstructed from a vm::Snapshot and continue bit-identically,
//   * pause at an exact instruction count (runUntil), then snapshot itself
//     there (the golden run's captures, vm::executeWithSnapshots) or compare
//     itself with a snapshot taken there (outcome-equivalence pruning,
//     fi/experiment.hpp).
//
// The execution loop is templated on whether a hook is attached, and only
// the instructions whose callbacks an awake hook must see run hooked. While
// the hook sleeps (ExecHook::sleepUntil) the machine runs hook-free up to
// the last instruction count that cannot reach the wake point, and once it
// reports exhausted() — it can no longer mutate any future candidate — the
// rest of the run is hook-free. Hook-free stretches use the selected
// dispatch backend (the threaded loop in every driver), so a faulty run
// pays virtual hook dispatch only for the few instructions around each
// injection, as golden runs pay none.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ir/module.hpp"
#include "vm/interpreter.hpp"
#include "vm/memory.hpp"
#include "vm/snapshot.hpp"
#include "vm/threaded.hpp"

namespace onebit::vm {

namespace detail {
class HangProof;
}  // namespace detail

/// The first part of the machine state that differs from a snapshot, in the
/// order Machine::compare checks them (cheapest first).
enum class StateDiff : unsigned char {
  Equal,      ///< the whole state matches
  Control,    ///< instruction/candidate counters, sp, or the call frames
  Output,     ///< the output bytes or the truncation flag
  Registers,  ///< the live register stack
  Memory,     ///< globals, stack, or heap (the heap's size included)
};

class Machine {
 public:
  /// A sleeping hook is woken, rather than run past hook-free, once fewer
  /// than this many instructions can be skipped before its wake point:
  /// entering the threaded loop and stepping the segment that crosses the
  /// stop on the reference loop costs more than a few hooked instructions.
  static constexpr std::uint64_t kMinSleep = 16;

  /// Fresh run: pushes the entry frame (a frame too large for the stack
  /// traps immediately; run() then returns that trap).
  Machine(const ir::Module& mod, const ExecLimits& limits, ExecHook* hook);

  /// Resumed run: reconstructs the snapshot's state. Throws
  /// std::invalid_argument when the snapshot does not fit `mod`/`limits`.
  Machine(const ir::Module& mod, const Snapshot& snap, const ExecLimits& limits,
          ExecHook* hook);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Run to completion (or trap / fuel exhaustion). Call once, after any
  /// runUntil() pauses.
  ExecResult run();

  /// How a runUntil() call stopped.
  enum class Stop : unsigned char {
    Paused,    ///< between instructions, exactly at the requested count
    Overshot,  ///< the hook exhausted past the requested count
    Ended,     ///< halted, trapped or out of fuel; run() returns the result
  };

  /// Run until `n` dynamic instructions have executed, then pause between
  /// instructions. While an attached hook is not yet exhausted the run does
  /// NOT pause: the hooked part, sleeping stretches included, always runs to
  /// exhaustion first (pending injections are dynamic state a comparison
  /// cannot see), so a hook that never exhausts runs to the end. The stop
  /// shares the fuel check: both loops run against min(fuel, n), so
  /// stopping costs nothing per instruction.
  Stop runUntil(std::uint64_t n);

  /// Snapshot the current between-instructions state.
  [[nodiscard]] Snapshot capture() const;

  /// Compare the current state with `snap`, part by part, cheapest first:
  /// control, output, registers, memory. The stack is compared up to the
  /// higher of the two store high-water marks with zeros beyond each (the
  /// marks themselves are not state: every byte past them is zero). Equal
  /// state at a between-instructions point means equal hook-free
  /// continuations.
  [[nodiscard]] StateDiff compare(const Snapshot& snap) const;

  /// Dynamic instructions executed so far.
  [[nodiscard]] std::uint64_t instructions() const noexcept {
    return instructions_;
  }

  /// Try to prove that this run ends FuelExhausted: that from here one loop
  /// goes round, on whichever of its paths, with no trap and no halt, until
  /// the fuel runs out (vm/hang_proof.cpp gives the argument). The run must
  /// be between instructions and hook-free or exhausted (a runUntil()
  /// pause); any other run is not eligible. The attempt steps the run on
  /// the reference loop, at most 14,336 instructions, so a false return
  /// leaves the run valid but further along, and possibly ended (run() then
  /// returns that end). After a true return a full run() would end
  /// FuelExhausted with instructions == maxInstructions + 1; the caller
  /// reports that instead of running it.
  [[nodiscard]] bool provesHang();

 private:
  struct CallFrame {
    const ir::Function* fn = nullptr;
    std::uint32_t block = 0;
    std::uint32_t ip = 0;         ///< next instruction index within block
    std::size_t regBase = 0;      ///< base into the shared register stack
    std::uint64_t frameBase = 0;  ///< base address of this frame's stack slot
    const ir::Instr* pendingCall = nullptr;  ///< call awaiting a return value
  };

  [[nodiscard]] bool running() const noexcept {
    return result_.status == ExecStatus::Ok && !halted_;
  }
  ExecResult finish();
  void trap(TrapKind k);
  void pushFrame(std::uint32_t fnId, std::span<const std::uint64_t> args,
                 const ir::Instr* pendingCall);
  void popFrame();
  /// Run exactly one instruction (or end the run) on the reference loop.
  /// Precondition: running, hook-free or exhausted.
  void step();
  void appendOutput(const char* data, std::size_t n);
  void printValue(ir::PrintKind kind, std::uint64_t v);
  std::uint64_t applyIntrinsic(ir::IntrinsicKind kind,
                               std::span<const std::uint64_t> v);

  /// The interpreter loop. `Hooked` instantiations dispatch to hook_ and
  /// return early once it sleeps or is exhausted. Both instantiations stop
  /// before the instruction that would pass limit_: past the fuel budget
  /// they end the run FuelExhausted, at a runUntil() or sleep stop they
  /// pause.
  template <bool Hooked>
  void loop();

  /// Run the part of the run that has an unexhausted hook attached: hooked
  /// while the hook is awake, hook-free up to each sleep's stop. Returns
  /// once the hook is exhausted or the run ended.
  void runHooked();

  /// The instruction count a sleeping hook can be run hook-free to: one
  /// before an instruction wake point, or, for candidate wake point k of a
  /// stream that has counted c so far, k − c instructions on (each
  /// instruction adds at most one candidate to each stream). The current
  /// count when the wake point is due or passed.
  [[nodiscard]] std::uint64_t sleepStop() const noexcept;

  /// Run the hook-free part: on the direct-threaded backend when selected,
  /// else on the reference loop.
  void runHookFree();

  /// Run the hook-free remainder on the direct-threaded backend
  /// (limits_.threadedCode, or ThreadedCode::decode when that is null,
  /// executed by detail::runThreadedLoop). The reference loop runs the
  /// segment that crosses limit_.
  /// Preconditions: between instructions, hook-free/exhausted.
  void runThreaded();

  /// The threaded loop lives in its own translation unit (computed goto)
  /// and drives this machine's private state directly.
  friend void detail::runThreadedLoop(Machine* m, const ThreadedCode* code,
                                      const void* const** labelsOut);
  /// The hang proof (vm/hang_proof.cpp) reads the state it starts from.
  friend class detail::HangProof;

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
  /// The instruction count no loop runs past: the fuel budget, or a lower
  /// runUntil() or sleep stop while one is pending.
  std::uint64_t limit_ = 0;
  ExecResult result_;
};

}  // namespace onebit::vm
