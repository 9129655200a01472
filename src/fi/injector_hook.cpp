#include "fi/injector_hook.hpp"

#include <algorithm>

#include "util/bitops.hpp"

namespace onebit::fi {

namespace {

/// Does this instruction consume f64 operands? Doubles are 64-bit registers
/// in LLVM too, so FaultPlan::flipWidth (which models the paper's i32
/// integer registers) must not constrain them.
bool readsF64(const ir::Instr& in) noexcept {
  switch (in.op) {
    case ir::Opcode::FAdd: case ir::Opcode::FSub: case ir::Opcode::FMul:
    case ir::Opcode::FDiv: case ir::Opcode::FCmpEq: case ir::Opcode::FCmpNe:
    case ir::Opcode::FCmpLt: case ir::Opcode::FCmpLe: case ir::Opcode::FCmpGt:
    case ir::Opcode::FCmpGe: case ir::Opcode::FPToSI:
    case ir::Opcode::Intrinsic:
      return true;
    case ir::Opcode::Print:
      return in.printKind == ir::PrintKind::F64;
    default:
      return false;
  }
}

unsigned effectiveWidth(unsigned flipWidth, bool isF64) noexcept {
  if (isF64) return 64;
  return flipWidth == 0 ? 64U : flipWidth;
}

std::uint64_t lowBits(unsigned n) noexcept {
  return n >= 64 ? ~0ULL : (1ULL << n) - 1;
}

}  // namespace

InjectorHook::InjectorHook(const FaultPlan& plan)
    : plan_(plan), rng_(plan.seed) {
  if (flipBudget() == 0) {
    markExhausted();
    return;
  }
  // Nothing acts before the first injection point: candidate firstIndex of
  // the domain's stream, or the RandomValue landing instruction.
  switch (plan_.domain) {
    case FaultDomain::RegisterRead:
      sleepUntil(Stream::Reads, plan_.firstIndex);
      break;
    case FaultDomain::RegisterWrite:
      sleepUntil(Stream::Writes, plan_.firstIndex);
      break;
    case FaultDomain::MemoryData:
      sleepUntil(Stream::Stores, plan_.firstIndex);
      break;
    case FaultDomain::RandomValue:
      sleepUntil(Stream::Instructions, plan_.firstIndex);
      break;
  }
}

unsigned InjectorHook::flipBudget() const noexcept {
  switch (plan_.pattern.kind) {
    case BitPattern::Kind::SingleBit:
      return 1;
    case BitPattern::Kind::MultiBitTemporal:
    case BitPattern::Kind::BurstAdjacent:
      return plan_.pattern.count;
  }
  return 1;
}

bool InjectorHook::shouldInject(std::uint64_t candidateIndex,
                                std::uint64_t instrIndex) const noexcept {
  if (exhausted() || injectionsPlanned_ >= flipBudget()) return false;
  if (!sawFirst_) return candidateIndex == plan_.firstIndex;
  // window == 0 never reaches here (all flips are applied at the first hit).
  return instrIndex >= nextMinInstr_;
}

void InjectorHook::armNext(std::uint64_t instrIndex) noexcept {
  // Saturate: a window reaching past the last instruction index arms
  // nothing, instead of wrapping to an index already passed.
  nextMinInstr_ = plan_.window > ~instrIndex ? ~std::uint64_t{0}
                                             : instrIndex + plan_.window;
}

std::uint64_t InjectorHook::eventMask(unsigned width, unsigned& flips) {
  switch (plan_.pattern.kind) {
    case BitPattern::Kind::BurstAdjacent: {
      // Rao et al.: one particle strike upsets k spatially adjacent bits.
      const unsigned k =
          std::min(std::max(plan_.pattern.count, 1U), width);
      const unsigned start =
          static_cast<unsigned>(rng_.below(width - k + 1));
      flips = k;
      return lowBits(k) << start;
    }
    case BitPattern::Kind::MultiBitTemporal:
      if (!sawFirst_ && plan_.window == 0 && plan_.pattern.count > 1) {
        // Same-register mode: all max-MBF flips at once, distinct bits.
        const auto bits =
            util::pickDistinctBits(rng_, width, plan_.pattern.count);
        flips = static_cast<unsigned>(bits.size());
        return util::maskFromBits(bits);
      }
      [[fallthrough]];
    case BitPattern::Kind::SingleBit:
      break;
  }
  flips = 1;
  return 1ULL << rng_.below(width);
}

void InjectorHook::commitEvent(std::uint64_t candidateIndex,
                               std::uint64_t instrIndex, int operandIndex,
                               std::uint64_t mask, unsigned flips) {
  // Same-register/same-word mode applies ALL flips in this first event; the
  // error is spent even when the locus was narrower than the flip budget
  // (e.g. max-MBF 30 into an 8-bit stored byte) — leaking the remainder
  // onto later candidates would contradict the window == 0 semantics.
  const bool allAtOnce =
      plan_.pattern.kind == BitPattern::Kind::MultiBitTemporal &&
      plan_.window == 0 && plan_.pattern.count > 1;
  sawFirst_ = true;
  injectionsPlanned_ += flips;
  activations_ += flips;
  records_.push_back({candidateIndex, instrIndex, operandIndex, mask});
  armNext(instrIndex);
  // A burst is likewise ONE event by definition, clamped locus or not.
  if (plan_.pattern.kind == BitPattern::Kind::BurstAdjacent || allAtOnce ||
      injectionsPlanned_ >= flipBudget()) {
    markExhausted();
  } else {
    // The next temporal event waits for the first candidate at or after
    // nextMinInstr_.
    sleepUntil(Stream::Instructions, nextMinInstr_);
  }
}

void InjectorHook::onRead(std::uint64_t readIndex, std::uint64_t instrIndex,
                          const ir::Instr& instr,
                          std::span<std::uint64_t> values,
                          std::span<const bool> isReg) {
  if (plan_.domain == FaultDomain::RandomValue) {
    blindRead(readIndex, instrIndex, instr, values, isReg);
    return;
  }
  if (plan_.domain != FaultDomain::RegisterRead) return;
  if (!shouldInject(readIndex, instrIndex)) return;

  // Pick one register operand uniformly.
  unsigned regCount = 0;
  for (const bool r : isReg) regCount += r ? 1U : 0U;
  if (regCount == 0) return;  // defensive; interpreter only calls with >= 1
  unsigned pick = static_cast<unsigned>(rng_.below(regCount));
  int opIndex = -1;
  for (std::size_t i = 0; i < isReg.size(); ++i) {
    if (isReg[i] && pick-- == 0) {
      opIndex = static_cast<int>(i);
      break;
    }
  }

  const unsigned width = effectiveWidth(plan_.flipWidth, readsF64(instr));
  unsigned flips = 0;
  const std::uint64_t mask = eventMask(width, flips);
  values[static_cast<std::size_t>(opIndex)] ^= mask;
  commitEvent(readIndex, instrIndex, opIndex, mask, flips);
}

void InjectorHook::onWrite(std::uint64_t writeIndex, std::uint64_t instrIndex,
                           const ir::Instr& instr, std::uint64_t& value) {
  if (plan_.domain == FaultDomain::RandomValue) {
    blindWrite(instrIndex, instr);
    return;
  }
  if (plan_.domain != FaultDomain::RegisterWrite) return;
  if (!shouldInject(writeIndex, instrIndex)) return;

  const unsigned width =
      effectiveWidth(plan_.flipWidth, instr.type == ir::Type::F64);
  unsigned flips = 0;
  const std::uint64_t mask = eventMask(width, flips);
  value ^= mask;
  commitEvent(writeIndex, instrIndex, -1, mask, flips);
}

void InjectorHook::onStore(std::uint64_t storeIndex, std::uint64_t instrIndex,
                           const ir::Instr& instr, std::uint64_t addr,
                           vm::Memory& mem) {
  if (plan_.domain != FaultDomain::MemoryData) return;
  if (!shouldInject(storeIndex, instrIndex)) return;

  // The flip locus is the freshly stored bytes (1 or 8 of them); the
  // register-width knob does not apply to memory.
  const unsigned width = instr.width * 8U;
  unsigned flips = 0;
  const std::uint64_t mask = eventMask(width, flips);
  vm::TrapKind trap = vm::TrapKind::None;
  mem.poke(addr, instr.width, mask, trap);  // store() just succeeded here
  commitEvent(storeIndex, instrIndex, -1, mask, flips);
}

void InjectorHook::blindArm(std::uint64_t instrIndex) {
  if (landed_ || instrIndex < plan_.firstIndex) return;
  landed_ = true;
  blindReg_ = static_cast<ir::Reg>(rng_.below(kArchRegisters));
  // The stuck mask is pattern-shaped: one bit (the classic blind model,
  // RNG-identical to the former RandomRegisterHook), k adjacent bits, or
  // max-MBF distinct bits — all applied on every read until overwritten.
  if (plan_.pattern.kind == BitPattern::Kind::MultiBitTemporal &&
      plan_.pattern.count > 1) {
    blindMask_ =
        util::maskFromBits(util::pickDistinctBits(rng_, 64, plan_.pattern.count));
  } else {
    unsigned flips = 0;
    blindMask_ = eventMask(64, flips);
  }
}

void InjectorHook::blindRead(std::uint64_t readIndex, std::uint64_t instrIndex,
                             const ir::Instr& instr,
                             std::span<std::uint64_t> values,
                             std::span<const bool> isReg) {
  blindArm(instrIndex);
  if (!landed_ || overwritten_) return;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (isReg[i] && instr.operands[i].reg == blindReg_) {
      values[i] ^= blindMask_;
      // Record only the first consumption: the stuck fault can flip reads
      // until the register is overwritten (potentially millions in a hot
      // loop), and nothing consumes per-read records for this domain.
      if (activations_ == 0) {
        records_.push_back({readIndex, instrIndex, static_cast<int>(i),
                            blindMask_});
      }
      ++activations_;
    }
  }
}

void InjectorHook::blindWrite(std::uint64_t instrIndex,
                              const ir::Instr& instr) {
  blindArm(instrIndex);
  if (!landed_ || overwritten_) return;
  if (instr.dest == blindReg_) {
    // The register is rewritten: the stuck fault is flushed and can never
    // mutate another value.
    overwritten_ = true;
    markExhausted();
  }
}

}  // namespace onebit::fi
