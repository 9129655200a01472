// The onebit IR interpreter.
//
// Plays the role native execution plays for LLFI: it runs a module to
// completion while exposing the hook points the fault models need —
//   * inject-on-read:  a dynamic instruction is about to consume its source
//     register operands (ExecHook::onRead),
//   * inject-on-write: a dynamic instruction has produced its destination
//     register value (ExecHook::onWrite), and
//   * store events:    a dynamic Store instruction has just written memory
//     (ExecHook::onStore) — the candidate stream of the MemoryData fault
//     domain, which flips bits of the freshly stored bytes in place.
// The interpreter also counts all three candidate streams so that fault
// plans can address injection points by candidate index, exactly like LLFI
// addresses (time, location) pairs over a fault-free profiling run.
//
// This header is the stable execution surface (hook interface, limits,
// results, execute()). The resumable execution engine itself lives in
// vm/machine.hpp, and vm/snapshot.hpp adds mid-run checkpoints: capture
// snapshots during a run and resume() them bit-identically later — the
// golden-prefix fast-forward the fault-injection layer is built on.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "ir/module.hpp"
#include "vm/memory.hpp"
#include "vm/trap.hpp"

namespace onebit::vm {

class Machine;
class ThreadedCode;

/// Observer/mutator interface for fault injection.
///
/// A hook that can no longer mutate (or wants to observe) any future
/// candidate should call markExhausted(): the interpreter then stops
/// dispatching to it entirely and finishes the run on the same
/// virtual-call-free fast path golden runs use. Exhaustion is a promise
/// about the future, not a request — callbacks already in flight for the
/// current instruction are still delivered.
///
/// A hook that knows where it acts next can instead call sleepUntil(stream,
/// index). That is the same kind of promise, with an end: no callback
/// delivered before the *wake point* will act (mutate a value, or change
/// what the hook does later). The wake point is
///   * Stream::Instructions, n: the first callback whose instrIndex is >= n
///     (the n-th dynamic instruction, counting from 1 like instrIndex);
///   * Stream::Reads / Writes / Stores, k: the callback of that stream
///     whose candidate index is k.
/// The machine may then run any stretch before the wake point on its
/// hook-free loop, skipping those callbacks; it may also deliver some of
/// them (it wakes the hook a few instructions early rather than enter the
/// fast loop for a short stretch), and the hook must ignore them. From the
/// wake point on the hook gets exactly the callbacks an always-awake hook
/// gets. Callbacks already in flight for the current instruction are still
/// delivered, and a later sleepUntil() replaces a pending one. A hook that
/// never sleeps gets every callback until it is exhausted.
class ExecHook {
 public:
  /// The counters a wake point is addressed in: the dynamic instruction
  /// count, or one of the three candidate streams.
  enum class Stream : unsigned char { Instructions, Reads, Writes, Stores };

  virtual ~ExecHook() = default;

  /// Called before executing a dynamic instruction that reads at least one
  /// register operand. `readIndex` counts such instructions (the
  /// inject-on-read candidate stream); `instrIndex` is the global dynamic
  /// instruction counter (used for win-size distances). `values` holds the
  /// operand values about to be used; `isReg[i]` tells whether operand i came
  /// from a register (only those are legal injection targets). The hook may
  /// mutate `values` in place.
  virtual void onRead(std::uint64_t readIndex, std::uint64_t instrIndex,
                      const ir::Instr& instr,
                      std::span<std::uint64_t> values,
                      std::span<const bool> isReg) = 0;

  /// Called after a dynamic instruction computed its destination-register
  /// value, before the register is written. `writeIndex` counts the
  /// inject-on-write candidate stream. The hook may mutate `value`.
  virtual void onWrite(std::uint64_t writeIndex, std::uint64_t instrIndex,
                       const ir::Instr& instr, std::uint64_t& value) = 0;

  /// Called after a dynamic Store instruction successfully wrote
  /// `instr.width` bytes at `addr`. `storeIndex` counts the store-event
  /// candidate stream (the MemoryData fault domain). The hook may corrupt
  /// the stored bytes in place through Memory::poke. Default: no-op, so
  /// register-domain hooks need not care about the memory stream.
  virtual void onStore(std::uint64_t storeIndex, std::uint64_t instrIndex,
                       const ir::Instr& instr, std::uint64_t addr,
                       Memory& mem) {
    (void)storeIndex; (void)instrIndex; (void)instr; (void)addr; (void)mem;
  }

  /// True once the hook has promised to never mutate another candidate.
  [[nodiscard]] bool exhausted() const noexcept {
    return state_ == State::Exhausted;
  }

 protected:
  /// Irreversibly mark this hook as done; the interpreter detaches it and
  /// continues on the hook-free fast path.
  void markExhausted() noexcept { state_ = State::Exhausted; }

  /// Promise that no callback before the wake point (stream, index) will
  /// act (see the class comment). Ignored once the hook is exhausted.
  void sleepUntil(Stream stream, std::uint64_t index) noexcept {
    if (state_ == State::Exhausted) return;
    state_ = State::Asleep;
    wakeStream_ = stream;
    wakeIndex_ = index;
  }

 private:
  /// The machine reads the wake point and wakes the hook when it delivers
  /// callbacks again.
  friend class Machine;
  enum class State : unsigned char { Awake, Asleep, Exhausted };

  /// Deliberately non-virtual and one byte: the hooked loop polls it once
  /// per dynamic instruction and returns as soon as it is not Awake.
  State state_ = State::Awake;
  Stream wakeStream_ = Stream::Instructions;
  std::uint64_t wakeIndex_ = 0;
};

enum class ExecStatus : unsigned char {
  Ok,             ///< program returned from main normally
  Trapped,        ///< a hardware-exception-like trap fired (see trap)
  FuelExhausted,  ///< instruction budget exceeded (classified as Hang)
};

/// Which execution loop runs the hook-free part of a run (golden
/// executions, snapshot captures included, the stretches a faulty run's
/// hook sleeps through, and the post-exhaustion suffix). `Switch` is the
/// templated reference interpreter in vm/machine.cpp; `Threaded`
/// pre-decodes the module into a dense direct-threaded stream
/// (computed-goto label pointers where the compiler supports them, a
/// decoded switch otherwise — see vm/threaded.hpp) and runs that. The two
/// are bit-identical for every program — pinned by the differential
/// backend fuzzer (tests/dispatch_differential_test.cpp) — so the choice is
/// a pure speedup. Instructions whose callbacks an awake hook receives
/// always run on the reference loop regardless of this setting.
enum class DispatchBackend : unsigned char {
  Switch,    ///< templated switch interpreter (the reference semantics)
  Threaded,  ///< pre-decoded direct-threaded stream (fast path)
};

struct ExecLimits {
  std::uint64_t maxInstructions = 1'000'000'000ULL;
  std::uint32_t maxCallDepth = 512;
  std::size_t stackBytes = 1 << 20;
  std::size_t maxHeapBytes = 32 << 20;
  std::size_t maxOutputBytes = 4 << 20;
  /// Backend for the hook-free fast path. A pure performance choice that
  /// never affects results and is NOT part of any workload fingerprint.
  /// Every campaign driver, fleet worker and the benchmark pass Threaded.
  /// The default stays the reference loop because the oracles rely on it:
  /// a run built with default limits (or a default fi::Workload) is the
  /// reference semantics, which the differential tests and the benchmark's
  /// from-scratch check compare the threaded loop against.
  DispatchBackend dispatch = DispatchBackend::Switch;
  /// Optional precompiled stream for the module being executed. When null,
  /// a Threaded run decodes the module itself (ThreadedCode::decode, O(module
  /// size)). Callers that execute one module thousands of times
  /// (fi::Workload) decode once and pass the handle here.
  /// Contract: must be ThreadedCode::decode() of the exact module passed to
  /// execute()/Machine; a stream decoded from a different module is
  /// undefined behavior.
  std::shared_ptr<const ThreadedCode> threadedCode;
};

struct ExecResult {
  ExecStatus status = ExecStatus::Ok;
  TrapKind trap = TrapKind::None;
  std::uint64_t instructions = 0;      ///< dynamic instructions executed
  std::uint64_t readCandidates = 0;    ///< inject-on-read candidate count
  std::uint64_t writeCandidates = 0;   ///< inject-on-write candidate count
  std::uint64_t storeCandidates = 0;   ///< store-event candidate count
  std::int64_t returnValue = 0;
  bool outputTruncated = false;
  std::string output;
};

/// Execute `mod` from its entry function. The module must have passed
/// ir::verify. `hook` may be nullptr (golden runs).
ExecResult execute(const ir::Module& mod, const ExecLimits& limits = {},
                   ExecHook* hook = nullptr);

}  // namespace onebit::vm
