// Hang proofs: Machine::provesHang.
//
// A faulty run that hangs here rarely loops forever: a flipped loop counter
// or bound leaves a long finite loop, and the run interprets millions of
// instructions before its fuel runs out. From a paused state the proof
// shows, exactly, that the fuel runs out first:
//
//  1. Find the loop. Step kHangWindow (2,048) instructions on the reference
//     loop, recording each one's (depth, function, block, ip). If that
//     trace has a period p <= kHangWindow / 2, anchor at the shallowest
//     frame within one period (the loop frame). Step on to the anchor and read the loop
//     frame's registers R0 there, step p more and read R1: iteration 0
//     starts here, and the hypothesis is that register r holds
//     R1[r] + i·(R1[r] − R0[r]) at the start of iteration i.
//  2. Run one symbolic iteration of p instructions from the current state.
//     A value is affine in i (hang::Affine) or unknown. Add and Sub, and
//     Mul and Shl by a constant, stay affine; any other op whose operands
//     are all constant is computed with the VM's own semantics
//     (vm/semantics.hpp, Machine::applyIntrinsic); anything else is unknown.
//     Each fact the path depends on bounds K, the last iteration it
//     provably holds at:
//       * an ICmp of affine values keeps its i = 0 result, without either
//         operand wrapping (hang::compareBound); CondBr compares with 0;
//       * an affine load address stays inside the segment it starts in,
//         8-aligned at width 8 (hang::segmentBound); the value is unknown;
//       * an affine divisor stays nonzero.
//     An unknown value may not reach a branch condition, a load or store
//     address or a divisor. A store needs a constant address; one that
//     changes memory (its value is not a constant equal to the bytes there)
//     marks those bytes dirty, and loads of dirty bytes are unknown. Calls
//     are followed with pushFrame's depth and stack checks; a Ret out of
//     the loop frame, Alloc or Abort ends the attempt. Print is harmless:
//     output truncation never traps.
//  3. After p instructions the iteration must be back at the anchor, and
//     every live-in register of the loop frame (read before it is written)
//     must hold a + b·(i + 1). One that does not becomes unknown, and so
//     does memory a store dirtied; the pass is then redone, to a fixpoint.
//
// By induction, iterations 0..K then take the same path with no trap and
// no halt: the frames below the loop frame and the bytes no store dirties
// never change, and every value the path depends on is what the symbolic
// iteration computed. So if instructions + (K + 1)·p >= maxInstructions,
// the run reaches its fuel limit on that path and ends FuelExhausted. A
// failed attempt leaves the run valid, just further along.
#include "vm/hang_proof.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "vm/machine.hpp"
#include "vm/semantics.hpp"

namespace onebit::vm {

namespace hang {

namespace {

using I128 = __int128;

std::uint64_t clampBound(I128 k) noexcept {
  return k >= static_cast<I128>(kUnbounded) ? kUnbounded
                                            : static_cast<std::uint64_t>(k);
}

I128 signedOf(std::uint64_t v) noexcept { return ir::asI64(v); }

}  // namespace

std::uint64_t noWrapBound(Affine x) noexcept {
  constexpr I128 kMin = std::numeric_limits<std::int64_t>::min();
  constexpr I128 kMax = std::numeric_limits<std::int64_t>::max();
  const I128 a = signedOf(x.a);
  const I128 b = signedOf(x.b);
  if (b > 0) return clampBound((kMax - a) / b);
  if (b < 0) return clampBound((a - kMin) / -b);
  return kUnbounded;
}

std::uint64_t compareBound(ir::Opcode cmp, Affine x, Affine y) noexcept {
  // x > y is y < x, and x >= y is y <= x.
  if (cmp == ir::Opcode::ICmpGt) return compareBound(ir::Opcode::ICmpLt, y, x);
  if (cmp == ir::Opcode::ICmpGe) return compareBound(ir::Opcode::ICmpLe, y, x);
  // Without wrap, the compare tests the sign of d + i·s.
  const I128 d = signedOf(x.a) - signedOf(y.a);
  const I128 s = signedOf(x.b) - signedOf(y.b);
  I128 k = -1;  // unbounded
  switch (cmp) {
    case ir::Opcode::ICmpLt:  // d < 0
      if (d < 0 && s > 0) k = (-d - 1) / s;
      if (d >= 0 && s < 0) k = d / -s;
      break;
    case ir::Opcode::ICmpLe:  // d <= 0
      if (d <= 0 && s > 0) k = -d / s;
      if (d > 0 && s < 0) k = (d - 1) / -s;
      break;
    default:  // ICmpEq, ICmpNe: d == 0
      if (d == 0 && s != 0) k = 0;
      // d moves toward 0 and lands on it at i = -d / s.
      if (d != 0 && s != 0 && (d < 0) != (s < 0) && -d % s == 0) {
        k = -d / s - 1;
      }
      break;
  }
  const std::uint64_t keeps = k < 0 ? kUnbounded : clampBound(k);
  return std::min({keeps, noWrapBound(x), noWrapBound(y)});
}

std::uint64_t segmentBound(Affine addr, std::uint64_t base, std::uint64_t size,
                           unsigned width) noexcept {
  if (width == 8 && addr.b % 8 != 0) return 0;
  const I128 off = addr.a - base;
  const I128 b = signedOf(addr.b);
  if (b > 0) return clampBound((static_cast<I128>(size) - width - off) / b);
  if (b < 0) return clampBound(off / -b);
  return kUnbounded;
}

}  // namespace hang

namespace detail {

namespace {

/// Instructions stepped, each one's place recorded, before the proof looks
/// for a loop in that trace.
constexpr std::size_t kHangWindow = 2048;

}  // namespace

/// One attempt of Machine::provesHang (the file comment gives the proof).
class HangProof {
 public:
  explicit HangProof(Machine& m) : m_(m) {}

  bool run() {
    if (!findLoop()) return false;
    Pass pass = Pass::Redo;
    while (pass == Pass::Redo) pass = iterate();
    if (pass == Pass::Fail) return false;
    // Iterations 0..K take one path of p instructions each.
    using U128 = unsigned __int128;
    const U128 end = static_cast<U128>(m_.instructions_) +
                     (static_cast<U128>(k_) + 1) * period_;
    return end >= m_.limits_.maxInstructions;
  }

 private:
  /// Where an instruction runs: one entry of the trace.
  struct Where {
    std::size_t depth = 0;
    std::uint32_t fn = 0;
    std::uint32_t block = 0;
    std::uint32_t ip = 0;
    bool operator==(const Where&) const = default;
  };

  /// A symbolic value: affine in the iteration count when known.
  struct Val {
    hang::Affine v;
    bool known = false;
  };
  static Val constant(std::uint64_t c) { return {{c, 0}, true}; }

  /// A symbolic call frame; frame 0 is the loop frame.
  struct Frame {
    const ir::Function* fn = nullptr;
    std::uint32_t block = 0;
    std::uint32_t ip = 0;
    std::size_t regBase = 0;  ///< into vals_
    std::uint64_t frameBase = 0;
    const ir::Instr* pendingCall = nullptr;
  };

  enum class Pass { Done, Redo, Fail };

  [[nodiscard]] Where where() const {
    const Machine::CallFrame& f = m_.frames_.back();
    return {m_.frames_.size(),
            static_cast<std::uint32_t>(f.fn - m_.mod_.functions.data()),
            f.block, f.ip};
  }

  /// Step n instructions; false when the run ends first.
  bool stepN(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!m_.running()) return false;
      m_.step();
    }
    return m_.running();
  }

  std::span<const std::uint64_t> loopRegs() const {
    const Machine::CallFrame& f = m_.frames_.back();
    return {m_.regs_.data() + f.regBase, f.fn->numRegs};
  }

  /// Step 1 of the file comment: the period, the anchor, R0 and R1.
  bool findLoop() {
    constexpr std::size_t kW = kHangWindow;
    std::vector<Where> trace(kW);
    for (Where& w : trace) {
      if (!m_.running()) return false;
      w = where();
      m_.step();
    }
    // The trace's smallest period, from its prefix function.
    std::vector<std::size_t> border(kW, 0);
    for (std::size_t i = 1; i < kW; ++i) {
      std::size_t k = border[i - 1];
      while (k > 0 && !(trace[i] == trace[k])) k = border[k - 1];
      if (trace[i] == trace[k]) ++k;
      border[i] = k;
    }
    period_ = kW - border[kW - 1];
    if (period_ > kW / 2) return false;
    // The anchor: the first shallowest entry of the last period, met again
    // one period on (where the run now stands, or a little further).
    std::size_t anchor = kW - period_;
    for (std::size_t j = anchor; j < kW; ++j) {
      if (trace[j].depth < trace[anchor].depth) anchor = j;
    }
    anchor_ = trace[anchor];
    if (!stepN(anchor + period_ - kW) || !(where() == anchor_)) return false;
    const std::vector<std::uint64_t> r0(loopRegs().begin(), loopRegs().end());
    if (!stepN(period_) || !(where() == anchor_)) return false;
    const std::span<const std::uint64_t> r1 = loopRegs();
    start_.resize(r1.size());
    for (std::size_t r = 0; r < r1.size(); ++r) {
      start_[r] = {{r1[r], r1[r] - r0[r]}, true};
    }
    return true;
  }

  /// Steps 2 and 3 of the file comment: one symbolic iteration.
  Pass iterate() {
    k_ = hang::kUnbounded;
    grew_ = false;
    const Machine::CallFrame& lf = m_.frames_.back();
    frames_.assign(1, {lf.fn, lf.block, lf.ip, 0, lf.frameBase, nullptr});
    vals_ = start_;
    written_.assign(start_.size(), false);
    liveIn_.assign(start_.size(), false);
    sp_ = m_.sp_;
    for (std::size_t n = 0; n < period_; ++n) {
      if (!execute()) return Pass::Fail;
    }
    const Frame& f = frames_.back();
    if (frames_.size() != 1 || f.block != anchor_.block ||
        f.ip != anchor_.ip) {
      return Pass::Fail;
    }
    bool redo = grew_;
    for (std::size_t r = 0; r < start_.size(); ++r) {
      Val& s = start_[r];
      if (!liveIn_[r] || !s.known) continue;
      const Val& e = vals_[r];
      if (!e.known || e.v.a != s.v.a + s.v.b || e.v.b != s.v.b) {
        s.known = false;
        redo = true;
      }
    }
    return redo ? Pass::Redo : Pass::Done;
  }

  void bound(std::uint64_t k) { k_ = std::min(k_, k); }

  Val read(ir::Reg r) {
    if (frames_.size() == 1 && !written_[r]) liveIn_[r] = true;
    return vals_[frames_.back().regBase + r];
  }

  void write(ir::Reg r, Val v) {
    if (frames_.size() == 1) written_[r] = true;
    vals_[frames_.back().regBase + r] = v;
  }

  [[nodiscard]] bool dirty(std::uint64_t addr, unsigned width) const {
    return std::any_of(dirty_.begin(), dirty_.end(), [&](const auto& d) {
      return addr < d.first + d.second && d.first < addr + width;
    });
  }

  [[nodiscard]] bool covered(std::uint64_t addr, unsigned width) const {
    return std::any_of(dirty_.begin(), dirty_.end(), [&](const auto& d) {
      return d.first <= addr && addr + width <= d.first + d.second;
    });
  }

  /// hang::segmentBound in the segment that holds the access at i = 0
  /// (one does: that access did not trap).
  [[nodiscard]] std::uint64_t segmentBound(hang::Affine addr,
                                           unsigned width) const {
    const std::pair<std::uint64_t, std::uint64_t> segs[] = {
        {ir::kStackBase, m_.mem_.stackBytes()},
        {ir::kGlobalBase, m_.mem_.globalBytes()},
        {ir::kHeapBase, m_.mem_.heapUsed()}};
    for (const auto& [base, size] : segs) {
      if (addr.a - base < size) {
        return hang::segmentBound(addr, base, size, width);
      }
    }
    return 0;
  }

  /// The value of a pure op, or unknown. Add/Sub of affine values and
  /// Mul/Shl by a constant stay affine.
  static Val pure(ir::Opcode op, Val x, Val y) {
    if (!x.known || !y.known) return {};
    const hang::Affine a = x.v;
    const hang::Affine b = y.v;
    switch (op) {
      case ir::Opcode::Add:
        return {{sem::Add(a.a, b.a), sem::Add(a.b, b.b)}, true};
      case ir::Opcode::Sub:
        return {{sem::Sub(a.a, b.a), sem::Sub(a.b, b.b)}, true};
      case ir::Opcode::Mul:  // (a + i·a') (b + i·b') with a' or b' zero
        if (a.b != 0 && b.b != 0) return {};
        return {{sem::Mul(a.a, b.a), a.a * b.b + a.b * b.a}, true};
      case ir::Opcode::Shl:
        if (b.b != 0) return {};
        return {{sem::Shl(a.a, b.a), sem::Shl(a.b, b.a)}, true};
      default: break;
    }
    if (a.b != 0 || b.b != 0) return {};
    std::uint64_t (*fn)(std::uint64_t, std::uint64_t) = nullptr;
    switch (op) {
      case ir::Opcode::And: fn = sem::And; break;
      case ir::Opcode::Or: fn = sem::Or; break;
      case ir::Opcode::Xor: fn = sem::Xor; break;
      case ir::Opcode::LShr: fn = sem::LShr; break;
      case ir::Opcode::AShr: fn = sem::AShr; break;
      case ir::Opcode::FAdd: fn = sem::FAdd; break;
      case ir::Opcode::FSub: fn = sem::FSub; break;
      case ir::Opcode::FMul: fn = sem::FMul; break;
      case ir::Opcode::FDiv: fn = sem::FDiv; break;
      case ir::Opcode::ICmpEq: fn = sem::ICmpEq; break;
      case ir::Opcode::ICmpNe: fn = sem::ICmpNe; break;
      case ir::Opcode::ICmpLt: fn = sem::ICmpLt; break;
      case ir::Opcode::ICmpLe: fn = sem::ICmpLe; break;
      case ir::Opcode::ICmpGt: fn = sem::ICmpGt; break;
      case ir::Opcode::ICmpGe: fn = sem::ICmpGe; break;
      case ir::Opcode::FCmpEq: fn = sem::FCmpEq; break;
      case ir::Opcode::FCmpNe: fn = sem::FCmpNe; break;
      case ir::Opcode::FCmpLt: fn = sem::FCmpLt; break;
      case ir::Opcode::FCmpLe: fn = sem::FCmpLe; break;
      case ir::Opcode::FCmpGt: fn = sem::FCmpGt; break;
      case ir::Opcode::FCmpGe: fn = sem::FCmpGe; break;
      case ir::Opcode::SDiv: fn = sem::SDiv; break;
      case ir::Opcode::SRem: fn = sem::SRem; break;
      default: return {};
    }
    return constant(fn(a.a, b.a));
  }

  /// Run one instruction symbolically; false ends the attempt.
  bool execute() {
    Frame& f = frames_.back();
    const ir::Instr& in = f.fn->blocks[f.block].instrs[f.ip++];
    const std::size_t nops = in.operands.size();
    std::array<Val, ir::kMaxOperands> v{};
    for (std::size_t i = 0; i < nops; ++i) {
      const ir::Operand& o = in.operands[i];
      v[i] = o.isReg() ? read(o.reg) : constant(o.imm);
    }
    Val out;
    switch (in.op) {
      case ir::Opcode::ICmpEq: case ir::Opcode::ICmpNe:
      case ir::Opcode::ICmpLt: case ir::Opcode::ICmpLe:
      case ir::Opcode::ICmpGt: case ir::Opcode::ICmpGe:
        // Keeps its i = 0 result through iteration K: fold the operands'
        // i = 0 values.
        if (v[0].known && v[1].known) {
          bound(hang::compareBound(in.op, v[0].v, v[1].v));
          out = pure(in.op, constant(v[0].v.a), constant(v[1].v.a));
        }
        break;
      case ir::Opcode::SDiv: case ir::Opcode::SRem:
        if (!v[1].known || v[1].v.a == 0) return false;
        bound(hang::compareBound(ir::Opcode::ICmpNe, v[1].v, {}));
        out = pure(in.op, v[0], v[1]);
        break;
      case ir::Opcode::SIToFP:
        if (v[0].known && v[0].v.b == 0) out = constant(sem::SIToFP(v[0].v.a));
        break;
      case ir::Opcode::FPToSI:
        if (v[0].known && v[0].v.b == 0) out = constant(sem::FPToSI(v[0].v.a));
        break;
      case ir::Opcode::Load: {
        const Val addr = v[0];
        if (!addr.known) return false;
        TrapKind t = TrapKind::None;
        const std::uint64_t bytes = m_.mem_.load(addr.v.a, in.width, t);
        if (t != TrapKind::None) return false;
        if (addr.v.b != 0) {
          bound(segmentBound(addr.v, in.width));
        } else if (!dirty(addr.v.a, in.width)) {
          out = constant(bytes);
        }
        break;
      }
      case ir::Opcode::Store: {
        const Val addr = v[0];
        if (!addr.known || addr.v.b != 0) return false;
        TrapKind t = TrapKind::None;
        const std::uint64_t bytes = m_.mem_.load(addr.v.a, in.width, t);
        if (t != TrapKind::None) return false;
        // A store that rewrites clean bytes with what they hold changes
        // nothing; any other one dirties all of its bytes.
        const std::uint64_t mask = in.width == 8 ? ~0ULL : 0xffULL;
        const bool same = v[1].known && v[1].v.b == 0 &&
                          (v[1].v.a & mask) == bytes &&
                          !dirty(addr.v.a, in.width);
        if (!same && !covered(addr.v.a, in.width)) {
          dirty_.emplace_back(addr.v.a, in.width);
          grew_ = true;
        }
        return true;
      }
      case ir::Opcode::FrameAddr:
        out = constant(f.frameBase + static_cast<std::uint64_t>(in.offset));
        break;
      case ir::Opcode::Br:
        f.block = in.target0;
        f.ip = 0;
        return true;
      case ir::Opcode::CondBr:
        if (!v[0].known) return false;
        bound(hang::compareBound(ir::Opcode::ICmpNe, v[0].v, {}));
        f.block = v[0].v.a != 0 ? in.target0 : in.target1;
        f.ip = 0;
        return true;
      case ir::Opcode::Call: return call(in, std::span(v.data(), nops));
      case ir::Opcode::Ret: {
        if (frames_.size() == 1) return false;
        const Val ret = nops > 0 ? v[0] : constant(0);
        const Frame done = frames_.back();
        sp_ -= frameSize(*done.fn);
        vals_.resize(done.regBase);
        frames_.pop_back();
        if (done.pendingCall->dest != ir::kNoReg) {
          write(done.pendingCall->dest, ret);
        }
        return true;
      }
      case ir::Opcode::Const: out = constant(in.imm); break;
      case ir::Opcode::Move: out = v[0]; break;
      case ir::Opcode::Intrinsic: {
        std::array<std::uint64_t, ir::kMaxOperands> c{};
        bool all = true;
        for (std::size_t i = 0; i < nops; ++i) {
          all = all && v[i].known && v[i].v.b == 0;
          c[i] = v[i].v.a;
        }
        if (all) {
          out = constant(m_.applyIntrinsic(in.intrinsic,
                                           std::span(c.data(), nops)));
        }
        break;
      }
      case ir::Opcode::Print: return true;  // output truncation never traps
      case ir::Opcode::Alloc:
      case ir::Opcode::Abort: return false;
      default: out = pure(in.op, v[0], v[1]); break;
    }
    if (in.dest != ir::kNoReg) write(in.dest, out);
    return true;
  }

  /// The stack bytes a call of `fn` takes, as Machine::pushFrame counts.
  static std::uint64_t frameSize(const ir::Function& fn) {
    return (static_cast<std::uint64_t>(fn.frameBytes) + 7U) & ~7ULL;
  }

  /// A Call, with Machine::pushFrame's depth and stack checks.
  bool call(const ir::Instr& in, std::span<const Val> args) {
    const ir::Function& fn = m_.mod_.functions[in.callee];
    if (m_.frames_.size() - 1 + frames_.size() >= m_.limits_.maxCallDepth) {
      return false;
    }
    const std::uint64_t aligned = frameSize(fn);
    if (sp_ + aligned > m_.mem_.stackBytes()) return false;
    Frame callee{&fn, 0, 0, vals_.size(), ir::kStackBase + sp_, &in};
    sp_ += aligned;
    vals_.resize(callee.regBase + fn.numRegs, constant(0));
    for (std::size_t i = 0; i < args.size() && i < fn.numParams; ++i) {
      vals_[callee.regBase + i] = args[i];
    }
    frames_.push_back(callee);
    return true;
  }

  Machine& m_;
  std::size_t period_ = 0;
  Where anchor_;
  std::vector<Val> start_;  ///< the loop frame's registers at iteration i
  std::uint64_t k_ = hang::kUnbounded;
  bool grew_ = false;
  std::vector<Frame> frames_;
  std::vector<Val> vals_;
  std::vector<bool> written_;
  std::vector<bool> liveIn_;
  std::uint64_t sp_ = 0;
  /// Byte ranges (address, length) a store may change.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> dirty_;
};

}  // namespace detail

bool Machine::provesHang() {
  if (!running() || (hook_ != nullptr && !hook_->exhausted())) return false;
  return detail::HangProof(*this).run();
}

}  // namespace onebit::vm
