// InjectorHook — executes one FaultPlan against the VM hook interface, for
// every cell of the FaultModel algebra (fi/fault_model.hpp).
//
// Register domains (the extended-LLFI injector, §III-C):
//  * waits for the plan's first candidate index in the domain's candidate
//    stream (read operands or destination writes),
//  * applies one bit-pattern event there — a single bit, a burst of k
//    adjacent bits, or (temporal pattern, window 0) all max-MBF bits at
//    once on the same register —
//  * then schedules each following temporal event at the first candidate at
//    least `window` dynamic instructions after the previous one, until the
//    flip budget is spent or the run ends.
//
// MemoryData domain: same schedule over the store-event stream; each event
// flips bits of the bytes a Store instruction just committed, in place,
// through Memory::poke. The flip locus is the stored width (8 or 64 bits);
// FaultPlan::flipWidth does not apply.
//
// RandomValue domain (the blind §III-A model, formerly random_reg_hook):
// firstIndex is a dynamic-instruction timestamp. At the first hook callback
// at or after it the fault lands in a register id drawn uniformly from a
// synthetic architectural file of kArchRegisters registers, with a
// pattern-shaped stuck mask; from then on every read of that register
// observes the flipped value until an instruction writes it, which flushes
// the fault. Activations count the corrupted values actually consumed.
//
// Every injection point is fixed by index, so the hook sleeps
// (vm::ExecHook::sleepUntil) until the next one: from construction until
// the plan's first index in its domain's stream (the landing instruction for
// RandomValue), and after each temporal event that leaves budget until
// instruction `nextMinInstr_`. The interpreter runs those stretches on its
// hook-free fast path. Once a hook can no longer mutate any future candidate
// it marks itself exhausted (vm::ExecHook::exhausted), so the interpreter
// finishes the run there too. Callbacks delivered while it sleeps are
// ignored, so a forwarder that never sleeps gets the same records.
#pragma once

#include <cstdint>
#include <vector>

#include "fi/fault_plan.hpp"
#include "ir/instr.hpp"
#include "vm/interpreter.hpp"

namespace onebit::fi {

/// Size of the synthetic architectural register file the RandomValue domain
/// draws from (x86-64 has 16 GPRs + 16 vector registers; our functions use
/// up to ~60 virtual registers). Register ids are function-local virtual
/// registers, so an id >= numRegs of the running function plays the role of
/// an unused architectural register.
inline constexpr unsigned kArchRegisters = 64;

/// One applied injection (for logs, tests and the transition study).
struct InjectionRecord {
  std::uint64_t candidateIndex = 0;  ///< index in the domain's stream
  std::uint64_t instrIndex = 0;      ///< dynamic instruction number
  int operandIndex = -1;             ///< source operand (-1 for writes/stores)
  std::uint64_t flipMask = 0;        ///< bits flipped
};

class InjectorHook final : public vm::ExecHook {
 public:
  explicit InjectorHook(const FaultPlan& plan);

  void onRead(std::uint64_t readIndex, std::uint64_t instrIndex,
              const ir::Instr& instr, std::span<std::uint64_t> values,
              std::span<const bool> isReg) override;
  void onWrite(std::uint64_t writeIndex, std::uint64_t instrIndex,
               const ir::Instr& instr, std::uint64_t& value) override;
  void onStore(std::uint64_t storeIndex, std::uint64_t instrIndex,
               const ir::Instr& instr, std::uint64_t addr,
               vm::Memory& mem) override;

  /// Number of bit-flip errors actually applied (activated), the quantity
  /// RQ1 / Fig. 3 studies. For RandomValue: corrupted values consumed.
  [[nodiscard]] unsigned activations() const noexcept { return activations_; }

  [[nodiscard]] const std::vector<InjectionRecord>& records() const noexcept {
    return records_;
  }

  // --- RandomValue observables (the former RandomRegisterHook surface) ---

  /// The fault was injected (the run reached the target instruction).
  [[nodiscard]] bool landed() const noexcept { return landed_; }
  /// The corrupted register value was consumed by at least one instruction.
  [[nodiscard]] bool activated() const noexcept { return activations_ > 0; }
  /// The fault was overwritten before (further) use.
  [[nodiscard]] bool overwritten() const noexcept { return overwritten_; }
  [[nodiscard]] ir::Reg targetRegister() const noexcept { return blindReg_; }

 private:
  /// Whether the candidate at (candidateIndex, instrIndex) should receive an
  /// injection now.
  bool shouldInject(std::uint64_t candidateIndex,
                    std::uint64_t instrIndex) const noexcept;
  void armNext(std::uint64_t instrIndex) noexcept;
  /// Total flips this plan may apply over the whole run.
  [[nodiscard]] unsigned flipBudget() const noexcept;
  /// Draw the flip mask of the current event within a `width`-bit locus,
  /// honoring the plan's bit pattern; sets `flips` to the bits in the mask.
  std::uint64_t eventMask(unsigned width, unsigned& flips);
  /// Apply the bookkeeping every event shares (budget, records, scheduling,
  /// exhaustion).
  void commitEvent(std::uint64_t candidateIndex, std::uint64_t instrIndex,
                   int operandIndex, std::uint64_t mask, unsigned flips);

  // RandomValue state machine.
  void blindArm(std::uint64_t instrIndex);
  void blindRead(std::uint64_t readIndex, std::uint64_t instrIndex,
                 const ir::Instr& instr, std::span<std::uint64_t> values,
                 std::span<const bool> isReg);
  void blindWrite(std::uint64_t instrIndex, const ir::Instr& instr);

  FaultPlan plan_;
  util::Rng rng_;
  unsigned injectionsPlanned_ = 0;  ///< flips applied counts toward budget
  unsigned activations_ = 0;
  bool sawFirst_ = false;
  std::uint64_t nextMinInstr_ = 0;  ///< arm threshold after first injection
  // RandomValue: the stuck fault.
  bool landed_ = false;
  bool overwritten_ = false;
  ir::Reg blindReg_ = ir::kNoReg;
  std::uint64_t blindMask_ = 0;
  std::vector<InjectionRecord> records_;
};

}  // namespace onebit::fi
