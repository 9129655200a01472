#include "vm/machine.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "vm/semantics.hpp"

namespace onebit::vm {

using ir::Instr;
using ir::Opcode;

Machine::Machine(const ir::Module& mod, const ExecLimits& limits,
                 ExecHook* hook)
    : mod_(mod),
      limits_(limits),
      hook_(hook),
      mem_(mod.globalData, limits.stackBytes, limits.maxHeapBytes),
      limit_(limits.maxInstructions) {
  pushFrame(mod_.entry, {}, nullptr);
}

namespace {

[[noreturn]] void badSnapshot(const char* what) {
  throw std::invalid_argument(std::string("vm::resume: snapshot ") + what);
}

}  // namespace

Machine::Machine(const ir::Module& mod, const Snapshot& snap,
                 const ExecLimits& limits, ExecHook* hook)
    : mod_(mod),
      limits_(limits),
      hook_(hook),
      mem_(mod.globalData, limits.stackBytes, limits.maxHeapBytes),
      limit_(limits.maxInstructions) {
  if (snap.frames.empty()) badSnapshot("has no call frames");
  if (snap.stackHighWater > limits.stackBytes ||
      snap.sp > limits.stackBytes ||
      snap.stack.size() != snap.stackHighWater) {
    badSnapshot("stack image does not fit the limits");
  }
  // A from-scratch run under these limits must be able to reach the
  // snapshot point, or the resumed continuation would diverge from it.
  if (snap.frames.size() > limits.maxCallDepth ||
      snap.instructions > limits.maxInstructions ||
      snap.output.size() > limits.maxOutputBytes) {
    badSnapshot("state exceeds the limits");
  }
  mem_.restoreSegments(snap.globals, snap.stack, snap.heap);

  frames_.reserve(snap.frames.size());
  std::size_t expectRegBase = 0;
  for (std::size_t i = 0; i < snap.frames.size(); ++i) {
    const Snapshot::Frame& sf = snap.frames[i];
    if (sf.fn >= mod.functions.size()) badSnapshot("references an unknown function");
    const ir::Function& fn = mod.functions[sf.fn];
    if (sf.block >= fn.blocks.size() ||
        sf.ip >= fn.blocks[sf.block].instrs.size()) {
      badSnapshot("references an unknown instruction");
    }
    if (sf.regBase != expectRegBase) badSnapshot("register bases are corrupt");
    expectRegBase += fn.numRegs;
    CallFrame frame;
    frame.fn = &fn;
    frame.block = sf.block;
    frame.ip = sf.ip;
    frame.regBase = static_cast<std::size_t>(sf.regBase);
    frame.frameBase = sf.frameBase;
    if (i > 0) {
      // The pending call is always the caller's previously fetched
      // instruction (pushFrame is only reached from Opcode::Call, which
      // leaves the caller's ip pointing one past the call).
      const CallFrame& caller = frames_.back();
      const auto& callerInstrs = caller.fn->blocks[caller.block].instrs;
      if (caller.ip == 0 || callerInstrs[caller.ip - 1].op != Opcode::Call) {
        badSnapshot("call chain is corrupt");
      }
      frame.pendingCall = &callerInstrs[caller.ip - 1];
    }
    frames_.push_back(frame);
  }
  if (snap.regs.size() != expectRegBase) badSnapshot("register file size is corrupt");

  regs_ = snap.regs;
  regsTop_ = regs_.size();
  sp_ = snap.sp;
  instructions_ = snap.instructions;
  readCandidates_ = snap.readCandidates;
  writeCandidates_ = snap.writeCandidates;
  storeCandidates_ = snap.storeCandidates;
  result_.output = snap.output;
  result_.outputTruncated = snap.outputTruncated;
}

Snapshot Machine::capture() const {
  Snapshot s;
  s.frames.reserve(frames_.size());
  for (const CallFrame& f : frames_) {
    s.frames.push_back({static_cast<std::uint32_t>(f.fn - mod_.functions.data()),
                        f.block, f.ip, static_cast<std::uint64_t>(f.regBase),
                        f.frameBase});
  }
  s.regs.assign(regs_.begin(),
                regs_.begin() + static_cast<std::ptrdiff_t>(regsTop_));
  const std::size_t stackUsed = mem_.stackStoreHighWater();
  mem_.captureSegments(stackUsed, s.globals, s.stack, s.heap);
  s.sp = sp_;
  s.stackHighWater = stackUsed;
  s.instructions = instructions_;
  s.readCandidates = readCandidates_;
  s.writeCandidates = writeCandidates_;
  s.storeCandidates = storeCandidates_;
  s.outputTruncated = result_.outputTruncated;
  s.output = result_.output;
  return s;
}

StateDiff Machine::compare(const Snapshot& snap) const {
  if (instructions_ != snap.instructions ||
      readCandidates_ != snap.readCandidates ||
      writeCandidates_ != snap.writeCandidates ||
      storeCandidates_ != snap.storeCandidates || sp_ != snap.sp ||
      frames_.size() != snap.frames.size()) {
    return StateDiff::Control;
  }
  for (std::size_t i = 0; i < frames_.size(); ++i) {
    // pendingCall is not compared: it is derived from the caller's ip.
    const CallFrame& f = frames_[i];
    const Snapshot::Frame& g = snap.frames[i];
    if (static_cast<std::uint64_t>(f.fn - mod_.functions.data()) != g.fn ||
        f.block != g.block || f.ip != g.ip || f.regBase != g.regBase ||
        f.frameBase != g.frameBase) {
      return StateDiff::Control;
    }
  }
  if (result_.outputTruncated != snap.outputTruncated ||
      result_.output != snap.output) {
    return StateDiff::Output;
  }
  if (regsTop_ != snap.regs.size() ||
      !std::equal(snap.regs.begin(), snap.regs.end(), regs_.begin())) {
    return StateDiff::Registers;
  }
  if (!mem_.holds(snap.globals, snap.stack, snap.heap)) {
    return StateDiff::Memory;
  }
  return StateDiff::Equal;
}

ExecResult Machine::finish() {
  result_.instructions = instructions_;
  result_.readCandidates = readCandidates_;
  result_.writeCandidates = writeCandidates_;
  result_.storeCandidates = storeCandidates_;
  ExecResult out = std::move(result_);
  // Leave the machine's residual state deterministic (the moved-from output
  // is defined-empty, the flags are restored) so a post-run compare() is
  // well-defined — the differential backend fuzzer compares the finished
  // machines of both dispatch backends.
  result_ = ExecResult{};
  result_.status = out.status;
  result_.trap = out.trap;
  result_.outputTruncated = out.outputTruncated;
  return out;
}

void Machine::trap(TrapKind k) {
  result_.status = ExecStatus::Trapped;
  result_.trap = k;
}

void Machine::pushFrame(std::uint32_t fnId, std::span<const std::uint64_t> args,
                        const Instr* pendingCall) {
  const ir::Function& fn = mod_.functions[fnId];
  if (frames_.size() >= limits_.maxCallDepth) {
    trap(TrapKind::SegFault);  // runaway recursion = stack overflow
    return;
  }
  const std::uint64_t alignedFrame =
      (static_cast<std::uint64_t>(fn.frameBytes) + 7U) & ~7ULL;
  if (sp_ + alignedFrame > mem_.stackBytes()) {
    trap(TrapKind::SegFault);
    return;
  }
  CallFrame frame;
  frame.fn = &fn;
  frame.regBase = regsTop_;
  frame.frameBase = ir::kStackBase + sp_;
  frame.pendingCall = pendingCall;
  sp_ += alignedFrame;
  regsTop_ += fn.numRegs;
  if (regsTop_ > regs_.size()) {
    regs_.resize(std::max(regsTop_, 2 * regs_.size()));
  }
  std::fill(regs_.begin() + static_cast<std::ptrdiff_t>(frame.regBase),
            regs_.begin() + static_cast<std::ptrdiff_t>(regsTop_), 0);
  for (std::size_t i = 0; i < args.size() && i < fn.numParams; ++i) {
    regs_[frame.regBase + i] = args[i];
  }
  frames_.push_back(frame);
}

void Machine::popFrame() {
  const CallFrame& frame = frames_.back();
  const std::uint64_t alignedFrame =
      (static_cast<std::uint64_t>(frame.fn->frameBytes) + 7U) & ~7ULL;
  sp_ -= alignedFrame;
  regsTop_ = frame.regBase;
  frames_.pop_back();
}

void Machine::appendOutput(const char* data, std::size_t n) {
  if (result_.output.size() + n > limits_.maxOutputBytes) {
    result_.outputTruncated = true;
    return;
  }
  result_.output.append(data, n);
}

void Machine::printValue(ir::PrintKind kind, std::uint64_t v) {
  // Room for any finite double at "%.6f": a sign, 309 integer digits, the
  // point, six decimals and a spare byte. std::to_chars writes what printf
  // would in the "C" locale, and all of it is appended.
  char buf[std::numeric_limits<double>::max_exponent10 + 11];
  char* const end = buf + sizeof buf;
  switch (kind) {
    case ir::PrintKind::I64: {
      const std::to_chars_result r = std::to_chars(buf, end, ir::asI64(v));
      appendOutput(buf, static_cast<std::size_t>(r.ptr - buf));
      break;
    }
    case ir::PrintKind::F64: {
      double d = ir::asF64(v);
      // Normalize non-finite and negative-zero values so the golden
      // comparison is well defined across platforms.
      if (std::isnan(d)) {
        appendOutput("nan", 3);
        break;
      }
      if (std::isinf(d)) {
        if (d < 0) appendOutput("-inf", 4);
        else appendOutput("inf", 3);
        break;
      }
      if (d == 0.0) d = 0.0;  // collapse -0.0 into +0.0
      const std::to_chars_result r =
          std::to_chars(buf, end, d, std::chars_format::fixed, 6);
      appendOutput(buf, static_cast<std::size_t>(r.ptr - buf));
      break;
    }
    case ir::PrintKind::Char: {
      buf[0] = static_cast<char>(v & 0xff);
      appendOutput(buf, 1);
      break;
    }
  }
}

std::uint64_t Machine::applyIntrinsic(ir::IntrinsicKind kind,
                                      std::span<const std::uint64_t> v) {
  const double a = ir::asF64(v[0]);
  const double b = v.size() > 1 ? ir::asF64(v[1]) : 0.0;
  double r = 0.0;
  switch (kind) {
    case ir::IntrinsicKind::Sqrt: r = std::sqrt(a); break;
    case ir::IntrinsicKind::Sin: r = std::sin(a); break;
    case ir::IntrinsicKind::Cos: r = std::cos(a); break;
    case ir::IntrinsicKind::Tan: r = std::tan(a); break;
    case ir::IntrinsicKind::Atan: r = std::atan(a); break;
    case ir::IntrinsicKind::Exp: r = std::exp(a); break;
    case ir::IntrinsicKind::Log: r = std::log(a); break;
    case ir::IntrinsicKind::Fabs: r = std::fabs(a); break;
    case ir::IntrinsicKind::Floor: r = std::floor(a); break;
    case ir::IntrinsicKind::Ceil: r = std::ceil(a); break;
    case ir::IntrinsicKind::Pow: r = std::pow(a, b); break;
    case ir::IntrinsicKind::Atan2: r = std::atan2(a, b); break;
  }
  return ir::fromF64(r);
}

void Machine::runHookFree() {
  // Hook-free fast path: golden runs (captures included: they pause at
  // runUntil() stops), the stretches a faulty run's hook sleeps through,
  // and its tail once the hook can no longer mutate anything (no virtual
  // dispatch at all). Only this part is eligible for the threaded backend:
  // hooked parts need the per-instruction callbacks only the reference loop
  // carries.
  if (limits_.dispatch == DispatchBackend::Threaded) {
    runThreaded();
  } else {
    loop<false>();
  }
}

std::uint64_t Machine::sleepStop() const noexcept {
  const std::uint64_t k = hook_->wakeIndex_;
  std::uint64_t count = 0;
  switch (hook_->wakeStream_) {
    case ExecHook::Stream::Instructions:
      // Callbacks carry the pre-incremented count: the instruction whose
      // callbacks carry instrIndex == k must run hooked.
      return k > instructions_ + 1 ? k - 1 : instructions_;
    case ExecHook::Stream::Reads: count = readCandidates_; break;
    case ExecHook::Stream::Writes: count = writeCandidates_; break;
    case ExecHook::Stream::Stores: count = storeCandidates_; break;
  }
  // Candidates are post-incremented: k − count more instructions yield at
  // most candidates count .. k − 1, never candidate k itself.
  return k > count ? instructions_ + std::min(k - count, ~instructions_)
                   : instructions_;
}

void Machine::runHooked() {
  while (running() && hook_ != nullptr && !hook_->exhausted()) {
    if (hook_->state_ == ExecHook::State::Asleep) {
      const std::uint64_t stop = sleepStop();
      if (stop - instructions_ >= kMinSleep) {
        // Candidate stops are lower bounds: re-evaluate after each stretch.
        limit_ = std::min(limits_.maxInstructions, stop);
        runHookFree();
        limit_ = limits_.maxInstructions;
        continue;
      }
      hook_->state_ = ExecHook::State::Awake;
    }
    loop<true>();
  }
}

ExecResult Machine::run() {
  runHooked();
  if (running()) runHookFree();
  return finish();
}

Machine::Stop Machine::runUntil(std::uint64_t n) {
  runHooked();
  if (!running()) return Stop::Ended;
  if (instructions_ > n) return Stop::Overshot;
  limit_ = std::min(limits_.maxInstructions, n);
  runHookFree();
  limit_ = limits_.maxInstructions;
  return running() ? Stop::Paused : Stop::Ended;
}

void Machine::step() {
  limit_ = std::min(limits_.maxInstructions, instructions_ + 1);
  loop<false>();
  limit_ = limits_.maxInstructions;
}

void Machine::runThreaded() {
  // Callers that run one module many times (fi::Workload) pass a stream
  // decoded once; any other run decodes its module here.
  if (limits_.threadedCode == nullptr) {
    limits_.threadedCode = ThreadedCode::decode(mod_);
  }
  detail::runThreadedLoop(this, limits_.threadedCode.get(), nullptr);
  // The reference loop finishes the segment that crosses limit_, so the
  // run stops on the exact instruction.
  if (running()) loop<false>();
}

template <bool Hooked>
void Machine::loop() {
  while (result_.status == ExecStatus::Ok) {
    if constexpr (Hooked) {
      // Asleep or exhausted: runHooked() takes over.
      if (hook_->state_ != ExecHook::State::Awake) return;
    }
    CallFrame& frame = frames_.back();
    const ir::BasicBlock& bb = frame.fn->blocks[frame.block];
    const Instr& in = bb.instrs[frame.ip++];

    if (++instructions_ > limit_) {
      if (instructions_ > limits_.maxInstructions) {
        result_.status = ExecStatus::FuelExhausted;
      } else {
        // A runUntil() stop: un-fetch, pausing between instructions.
        --instructions_;
        --frame.ip;
      }
      return;
    }

    // Gather operand values; give the read hook a chance to corrupt them.
    std::array<std::uint64_t, ir::kMaxOperands> vals{};
    std::array<bool, ir::kMaxOperands> isReg{};
    const std::size_t nops = in.operands.size();
    bool anyReg = false;
    for (std::size_t i = 0; i < nops; ++i) {
      const ir::Operand& op = in.operands[i];
      if (op.isReg()) {
        vals[i] = regs_[frame.regBase + op.reg];
        isReg[i] = true;
        anyReg = true;
      } else {
        vals[i] = op.imm;
      }
    }
    if (anyReg) {
      const std::uint64_t readIdx = readCandidates_++;
      if constexpr (Hooked) {
        hook_->onRead(readIdx, instructions_, in, std::span(vals.data(), nops),
                      std::span(isReg.data(), nops));
      }
    }

    std::uint64_t destValue = 0;
    bool writeDest = false;
    TrapKind t = TrapKind::None;

    switch (in.op) {
      case Opcode::Add:
        destValue = vals[0] + vals[1];
        writeDest = true;
        break;
      case Opcode::Sub:
        destValue = vals[0] - vals[1];
        writeDest = true;
        break;
      case Opcode::Mul:
        destValue = vals[0] * vals[1];
        writeDest = true;
        break;
      case Opcode::SDiv: {
        const auto num = ir::asI64(vals[0]);
        const auto den = ir::asI64(vals[1]);
        if (den == 0) {
          trap(TrapKind::DivByZero);
          return;
        }
        if (den == -1 && num == std::numeric_limits<std::int64_t>::min()) {
          destValue = vals[0];  // wraps, like x86 would fault; define it
        } else {
          destValue = ir::fromI64(num / den);
        }
        writeDest = true;
        break;
      }
      case Opcode::SRem: {
        const auto num = ir::asI64(vals[0]);
        const auto den = ir::asI64(vals[1]);
        if (den == 0) {
          trap(TrapKind::DivByZero);
          return;
        }
        if (den == -1) {
          destValue = 0;
        } else {
          destValue = ir::fromI64(num % den);
        }
        writeDest = true;
        break;
      }
      case Opcode::And: destValue = vals[0] & vals[1]; writeDest = true; break;
      case Opcode::Or: destValue = vals[0] | vals[1]; writeDest = true; break;
      case Opcode::Xor: destValue = vals[0] ^ vals[1]; writeDest = true; break;
      case Opcode::Shl:
        destValue = vals[0] << (vals[1] & 63U);
        writeDest = true;
        break;
      case Opcode::LShr:
        destValue = vals[0] >> (vals[1] & 63U);
        writeDest = true;
        break;
      case Opcode::AShr:
        destValue =
            ir::fromI64(ir::asI64(vals[0]) >> (vals[1] & 63U));
        writeDest = true;
        break;
      case Opcode::FAdd:
        destValue = ir::fromF64(ir::asF64(vals[0]) + ir::asF64(vals[1]));
        writeDest = true;
        break;
      case Opcode::FSub:
        destValue = ir::fromF64(ir::asF64(vals[0]) - ir::asF64(vals[1]));
        writeDest = true;
        break;
      case Opcode::FMul:
        destValue = ir::fromF64(ir::asF64(vals[0]) * ir::asF64(vals[1]));
        writeDest = true;
        break;
      case Opcode::FDiv:
        destValue = ir::fromF64(ir::asF64(vals[0]) / ir::asF64(vals[1]));
        writeDest = true;
        break;
      case Opcode::ICmpEq:
        destValue = vals[0] == vals[1] ? 1 : 0;
        writeDest = true;
        break;
      case Opcode::ICmpNe:
        destValue = vals[0] != vals[1] ? 1 : 0;
        writeDest = true;
        break;
      case Opcode::ICmpLt:
        destValue = ir::asI64(vals[0]) < ir::asI64(vals[1]) ? 1 : 0;
        writeDest = true;
        break;
      case Opcode::ICmpLe:
        destValue = ir::asI64(vals[0]) <= ir::asI64(vals[1]) ? 1 : 0;
        writeDest = true;
        break;
      case Opcode::ICmpGt:
        destValue = ir::asI64(vals[0]) > ir::asI64(vals[1]) ? 1 : 0;
        writeDest = true;
        break;
      case Opcode::ICmpGe:
        destValue = ir::asI64(vals[0]) >= ir::asI64(vals[1]) ? 1 : 0;
        writeDest = true;
        break;
      case Opcode::FCmpEq:
        destValue = ir::asF64(vals[0]) == ir::asF64(vals[1]) ? 1 : 0;
        writeDest = true;
        break;
      case Opcode::FCmpNe:
        destValue = ir::asF64(vals[0]) != ir::asF64(vals[1]) ? 1 : 0;
        writeDest = true;
        break;
      case Opcode::FCmpLt:
        destValue = ir::asF64(vals[0]) < ir::asF64(vals[1]) ? 1 : 0;
        writeDest = true;
        break;
      case Opcode::FCmpLe:
        destValue = ir::asF64(vals[0]) <= ir::asF64(vals[1]) ? 1 : 0;
        writeDest = true;
        break;
      case Opcode::FCmpGt:
        destValue = ir::asF64(vals[0]) > ir::asF64(vals[1]) ? 1 : 0;
        writeDest = true;
        break;
      case Opcode::FCmpGe:
        destValue = ir::asF64(vals[0]) >= ir::asF64(vals[1]) ? 1 : 0;
        writeDest = true;
        break;
      case Opcode::SIToFP:
        destValue = ir::fromF64(static_cast<double>(ir::asI64(vals[0])));
        writeDest = true;
        break;
      case Opcode::FPToSI:
        destValue = ir::fromI64(detail::saturatingFpToSi(ir::asF64(vals[0])));
        writeDest = true;
        break;
      case Opcode::Load:
        destValue = mem_.load(vals[0], in.width, t);
        if (t != TrapKind::None) {
          trap(t);
          return;
        }
        writeDest = true;
        break;
      case Opcode::Store: {
        mem_.store(vals[0], in.width, vals[1], t);
        if (t != TrapKind::None) {
          trap(t);
          return;
        }
        // Only committed stores are MemoryData candidates: a trapped store
        // wrote nothing, so there are no stored bytes to corrupt.
        const std::uint64_t storeIdx = storeCandidates_++;
        if constexpr (Hooked) {
          hook_->onStore(storeIdx, instructions_, in, vals[0], mem_);
        }
        break;
      }
      case Opcode::FrameAddr:
        destValue = frame.frameBase + static_cast<std::uint64_t>(in.offset);
        writeDest = true;
        break;
      case Opcode::Br:
        frame.block = in.target0;
        frame.ip = 0;
        continue;
      case Opcode::CondBr:
        frame.block = vals[0] != 0 ? in.target0 : in.target1;
        frame.ip = 0;
        continue;
      case Opcode::Call: {
        pushFrame(in.callee, std::span(vals.data(), nops), &in);
        continue;
      }
      case Opcode::Ret: {
        const std::uint64_t retVal = nops > 0 ? vals[0] : 0;
        const Instr* call = frame.pendingCall;
        popFrame();
        if (frames_.empty()) {
          result_.returnValue = ir::asI64(retVal);
          halted_ = true;
          return;  // main returned
        }
        if (call != nullptr && call->dest != ir::kNoReg) {
          std::uint64_t v = retVal;
          const std::uint64_t writeIdx = writeCandidates_++;
          if constexpr (Hooked) {
            hook_->onWrite(writeIdx, instructions_, *call, v);
          }
          regs_[frames_.back().regBase + call->dest] = v;
        }
        continue;
      }
      case Opcode::Const:
        destValue = in.imm;
        writeDest = true;
        break;
      case Opcode::Move:
        destValue = vals[0];
        writeDest = true;
        break;
      case Opcode::Intrinsic:
        destValue = applyIntrinsic(in.intrinsic, std::span(vals.data(), nops));
        writeDest = true;
        break;
      case Opcode::Print:
        printValue(in.printKind, vals[0]);
        break;
      case Opcode::Alloc: {
        destValue = mem_.alloc(ir::asI64(vals[0]), t);
        if (t != TrapKind::None) {
          trap(t);
          return;
        }
        writeDest = true;
        break;
      }
      case Opcode::Abort:
        trap(TrapKind::Abort);
        return;
    }

    if (writeDest && in.dest != ir::kNoReg) {
      // Const/FrameAddr materialize immediates; LLVM has no such
      // instructions (constants are operands there), so they are not
      // inject-on-write candidates.
      if (in.op != Opcode::Const && in.op != Opcode::FrameAddr) {
        const std::uint64_t writeIdx = writeCandidates_++;
        if constexpr (Hooked) {
          hook_->onWrite(writeIdx, instructions_, in, destValue);
        }
      }
      regs_[frame.regBase + in.dest] = destValue;
    }
  }
}

}  // namespace onebit::vm
