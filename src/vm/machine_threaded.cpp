// The direct-threaded execution loop (the DispatchBackend::Threaded fast
// path). Executes the pre-decoded stream of vm/threaded.hpp with one
// computed `goto *label` per instruction on GCC/Clang; other compilers run
// the same decoded stream through a switch (still much cheaper than the
// reference loop's per-execution ir::Instr decode).
//
// Semantics are a field-for-field replica of the hook-free instantiation
// of Machine::loop() in vm/machine.cpp — the differential
// backend fuzzer (tests/dispatch_differential_test.cpp) holds the two
// bit-identical over outputs, traps, counters, and the full post-run
// machine state (Machine::compare). Invariants the replica must keep:
//   * counters are charged per segment (vm/threaded.hpp): entering one adds
//     the instruction, read- and write-candidate totals from the entry Op to
//     the segment's end, so between segments they equal the reference
//     loop's; a call's return value is counted at its Ret, and
//     storeCandidates_ counts only committed stores, as they happen;
//   * a trap mid-segment takes back the counts of the Ops after the
//     trapping one, and the trapping Op's own write: like the reference
//     loop, it leaves that Op fetched and read but not written;
//   * the instruction limit (fuel, or a lower Machine::runUntil stop) is
//     checked once per segment, before charging it. When the segment would
//     cross it the loop returns, parked between instructions at the
//     segment's start, and Machine::runThreaded lets the reference loop run
//     that segment, so a run ending FuelExhausted or paused by runUntil
//     stops on exactly the reference loop's instruction;
//   * every exit resynchronizes the top frame's (block, ip) from the
//     current Op's provenance, so capture()/compare()/resume see exactly
//     the coordinates the reference loop would leave;
//   * the caller's coordinates are synchronized BEFORE a call pushes its
//     frame, keeping the "caller.ip - 1 is the Call" invariant snapshots
//     rely on;
//   * a fused op+move pair writes both destinations and skips the Move; the
//     Move is still in the stream, so entering there runs it alone.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>

#include "vm/machine.hpp"
#include "vm/threaded.hpp"

// The compiler gate. CMake passes -DONEBIT_COMPUTED_GOTO=0/1 after a
// feature check; standalone builds fall back to detecting the extension by
// compiler family.
#ifndef ONEBIT_COMPUTED_GOTO
#if defined(__GNUC__) || defined(__clang__)
#define ONEBIT_COMPUTED_GOTO 1
#else
#define ONEBIT_COMPUTED_GOTO 0
#endif
#endif

namespace onebit::vm::detail {

// OB_CASE / OB_FUSED_CASE introduce an opcode's plain and fused handler;
// OB_DISPATCH jumps to the handler of `op`. In computed-goto mode handlers
// are labels and OB_DISPATCH is one `goto *label`; in portable mode they
// are cases of a switch over Op::handler, re-entered through `dispatch`.
#if ONEBIT_COMPUTED_GOTO
#define OB_CASE(name) Lbl_##name:
#define OB_FUSED_CASE(name) LblMv_##name:
#define OB_DISPATCH() goto* op->label
#else
#define OB_CASE(name) case static_cast<std::size_t>(ir::Opcode::name):
#define OB_FUSED_CASE(name)              \
  case ThreadedCode::kNumOpcodes +       \
      static_cast<std::size_t>(ir::Opcode::name):
#define OB_DISPATCH() goto dispatch
#endif

// The next Op of the current segment (already charged).
#define OB_NEXT() \
  do {            \
    ++op;         \
    OB_DISPATCH(); \
  } while (0)

// Enter the segment that starts at `op`: the limit must cover all of it,
// then its counts are charged up front.
#define OB_ENTER()                                        \
  do {                                                    \
    if (op->segInstrs > limit - instrs) goto limit_tail;  \
    instrs += op->segInstrs;                              \
    reads += op->segReads;                                \
    writes += op->segWrites;                              \
    OB_DISPATCH();                                        \
  } while (0)

// Operand slot -> value (register read or immediate).
#define OB_VAL(A) ((A).reg != ir::kNoReg ? regs[(A).reg] : (A).imm)

// A value-producing opcode and its fused op+move twin, from one body: the
// statements after `name` set `v` from the operand slots `a` (and may
// OB_TRAP). The plain handler writes v to dest; the fused one also writes
// it to the dest of the Move that follows, then skips that Move.
#define OB_VALUE_OP(name, ...)                                \
  OB_CASE(name) {                                             \
    const ThreadedCode::Arg* const a = argPool + op->argBase; \
    std::uint64_t v = 0;                                      \
    __VA_ARGS__                                               \
    regs[op->dest] = v;                                       \
    OB_NEXT();                                                \
  }                                                           \
  OB_FUSED_CASE(name) {                                       \
    const ThreadedCode::Arg* const a = argPool + op->argBase; \
    std::uint64_t v = 0;                                      \
    __VA_ARGS__                                               \
    regs[op->dest] = v;                                       \
    regs[op[1].dest] = v;                                     \
    op += 2;                                                  \
    OB_DISPATCH();                                            \
  }

// A binary value opcode: EXPR computes the result from operands x and y.
#define OB_BINARY(name, EXPR)              \
  OB_VALUE_OP(name, {                      \
    const std::uint64_t x = OB_VAL(a[0]);  \
    const std::uint64_t y = OB_VAL(a[1]);  \
    v = (EXPR);                            \
  })

// The instruction/candidate counters live in locals so the hot path never
// round-trips them through the Machine (nothing called from this loop reads
// them); every exit publishes them back first.
#define OB_FLUSH()                  \
  do {                              \
    m.instructions_ = instrs;       \
    m.readCandidates_ = reads;      \
    m.writeCandidates_ = writes;    \
    m.storeCandidates_ = stores;    \
  } while (0)

#define OB_TRAP(K)     \
  do {                 \
    m.trap(K);         \
    goto trap_exit;    \
  } while (0)

void runThreadedLoop(Machine* mp, const ThreadedCode* codep,
                     const void* const** labelsOut) {
#if ONEBIT_COMPUTED_GOTO
  static const void* const kLabels[ThreadedCode::kNumHandlers] = {
      // Plain handlers, in ir::Opcode order.
      &&Lbl_Add,     &&Lbl_Sub,    &&Lbl_Mul,    &&Lbl_SDiv,   &&Lbl_SRem,
      &&Lbl_And,     &&Lbl_Or,     &&Lbl_Xor,    &&Lbl_Shl,    &&Lbl_LShr,
      &&Lbl_AShr,    &&Lbl_FAdd,   &&Lbl_FSub,   &&Lbl_FMul,   &&Lbl_FDiv,
      &&Lbl_ICmpEq,  &&Lbl_ICmpNe, &&Lbl_ICmpLt, &&Lbl_ICmpLe, &&Lbl_ICmpGt,
      &&Lbl_ICmpGe,  &&Lbl_FCmpEq, &&Lbl_FCmpNe, &&Lbl_FCmpLt, &&Lbl_FCmpLe,
      &&Lbl_FCmpGt,  &&Lbl_FCmpGe, &&Lbl_SIToFP, &&Lbl_FPToSI, &&Lbl_Load,
      &&Lbl_Store,   &&Lbl_FrameAddr, &&Lbl_Br,  &&Lbl_CondBr, &&Lbl_Call,
      &&Lbl_Ret,     &&Lbl_Const,  &&Lbl_Move,   &&Lbl_Intrinsic,
      &&Lbl_Print,   &&Lbl_Alloc,  &&Lbl_Abort,
      // Fused op+move handlers (ThreadedCode::fusesMove opcodes only).
      &&LblMv_Add,    &&LblMv_Sub,    &&LblMv_Mul,    &&LblMv_SDiv,
      &&LblMv_SRem,   &&LblMv_And,    &&LblMv_Or,     &&LblMv_Xor,
      &&LblMv_Shl,    &&LblMv_LShr,   &&LblMv_AShr,   &&LblMv_FAdd,
      &&LblMv_FSub,   &&LblMv_FMul,   &&LblMv_FDiv,   &&LblMv_ICmpEq,
      &&LblMv_ICmpNe, &&LblMv_ICmpLt, &&LblMv_ICmpLe, &&LblMv_ICmpGt,
      &&LblMv_ICmpGe, &&LblMv_FCmpEq, &&LblMv_FCmpNe, &&LblMv_FCmpLt,
      &&LblMv_FCmpLe, &&LblMv_FCmpGt, &&LblMv_FCmpGe, nullptr,
      nullptr,        &&LblMv_Load,   nullptr,        nullptr,
      nullptr,        nullptr,        nullptr,        nullptr,
      nullptr,        nullptr,        nullptr,        nullptr,
      nullptr,        nullptr,
  };
  if (labelsOut != nullptr) {
    *labelsOut = kLabels;
    return;
  }
#else
  if (labelsOut != nullptr) {
    *labelsOut = nullptr;
    return;
  }
#endif

  Machine& m = *mp;
  const ThreadedCode& code = *codep;
  const ThreadedCode::Arg* const argPool = code.args.data();
  const std::uint64_t limit = m.limit_;
  const std::uint64_t stackBytes = m.mem_.stackBytes();

  // Per-frame execution state, cached in locals and refreshed on every
  // call/ret. Declared before the first jump so no goto skips an
  // initialization.
  const ThreadedCode::FnCode* fn = nullptr;
  const ThreadedCode::Op* fnOps = nullptr;
  const ThreadedCode::Op* op = nullptr;
  std::uint64_t* regs = nullptr;
  std::uint64_t frameBase = 0;
  std::uint64_t scratch[ThreadedCode::kMaxOperands];
  std::uint64_t instrs = m.instructions_;
  std::uint64_t reads = m.readCandidates_;
  std::uint64_t writes = m.writeCandidates_;
  std::uint64_t stores = m.storeCandidates_;

  {
    // Entry — possibly mid-block, mid-call-stack (snapshot resume, or the
    // hooked reference loop handing over after exhaustion): the stream
    // position of (block, ip) is blockStart[block] + ip, and the segment
    // counts stored there cover exactly the rest of its segment.
    const auto& frame = m.frames_.back();
    fn = &code.fns[static_cast<std::size_t>(frame.fn -
                                            m.mod_.functions.data())];
    fnOps = code.ops.data() + fn->opBase;
    regs = m.regs_.data() + frame.regBase;
    frameBase = frame.frameBase;
    op = fnOps + fn->blockStart[frame.block] + frame.ip;
  }
  OB_ENTER();

#if !ONEBIT_COMPUTED_GOTO
dispatch:
  switch (op->handler) {
#endif

  OB_BINARY(Add, x + y)
  OB_BINARY(Sub, x - y)
  OB_BINARY(Mul, x * y)
  OB_VALUE_OP(SDiv, {
    const auto num = ir::asI64(OB_VAL(a[0]));
    const auto den = ir::asI64(OB_VAL(a[1]));
    if (den == 0) OB_TRAP(TrapKind::DivByZero);
    // INT64_MIN / -1 wraps, like x86 would fault; define it.
    v = den == -1 && num == std::numeric_limits<std::int64_t>::min()
            ? OB_VAL(a[0])
            : ir::fromI64(num / den);
  })
  OB_VALUE_OP(SRem, {
    const auto num = ir::asI64(OB_VAL(a[0]));
    const auto den = ir::asI64(OB_VAL(a[1]));
    if (den == 0) OB_TRAP(TrapKind::DivByZero);
    v = den == -1 ? 0 : ir::fromI64(num % den);
  })
  OB_BINARY(And, x & y)
  OB_BINARY(Or, x | y)
  OB_BINARY(Xor, x ^ y)
  OB_BINARY(Shl, x << (y & 63U))
  OB_BINARY(LShr, x >> (y & 63U))
  OB_BINARY(AShr, ir::fromI64(ir::asI64(x) >> (y & 63U)))
  OB_BINARY(FAdd, ir::fromF64(ir::asF64(x) + ir::asF64(y)))
  OB_BINARY(FSub, ir::fromF64(ir::asF64(x) - ir::asF64(y)))
  OB_BINARY(FMul, ir::fromF64(ir::asF64(x) * ir::asF64(y)))
  OB_BINARY(FDiv, ir::fromF64(ir::asF64(x) / ir::asF64(y)))
  OB_BINARY(ICmpEq, x == y ? 1 : 0)
  OB_BINARY(ICmpNe, x != y ? 1 : 0)
  OB_BINARY(ICmpLt, ir::asI64(x) < ir::asI64(y) ? 1 : 0)
  OB_BINARY(ICmpLe, ir::asI64(x) <= ir::asI64(y) ? 1 : 0)
  OB_BINARY(ICmpGt, ir::asI64(x) > ir::asI64(y) ? 1 : 0)
  OB_BINARY(ICmpGe, ir::asI64(x) >= ir::asI64(y) ? 1 : 0)
  OB_BINARY(FCmpEq, ir::asF64(x) == ir::asF64(y) ? 1 : 0)
  OB_BINARY(FCmpNe, ir::asF64(x) != ir::asF64(y) ? 1 : 0)
  OB_BINARY(FCmpLt, ir::asF64(x) < ir::asF64(y) ? 1 : 0)
  OB_BINARY(FCmpLe, ir::asF64(x) <= ir::asF64(y) ? 1 : 0)
  OB_BINARY(FCmpGt, ir::asF64(x) > ir::asF64(y) ? 1 : 0)
  OB_BINARY(FCmpGe, ir::asF64(x) >= ir::asF64(y) ? 1 : 0)
  OB_VALUE_OP(Load, {
    TrapKind t = TrapKind::None;
    v = m.mem_.load(OB_VAL(a[0]), op->aux, t);
    if (t != TrapKind::None) OB_TRAP(t);
  })
  OB_CASE(SIToFP) {
    const ThreadedCode::Arg* const a = argPool + op->argBase;
    regs[op->dest] =
        ir::fromF64(static_cast<double>(ir::asI64(OB_VAL(a[0]))));
    OB_NEXT();
  }
  OB_CASE(FPToSI) {
    const ThreadedCode::Arg* const a = argPool + op->argBase;
    regs[op->dest] = ir::fromI64(saturatingFpToSi(ir::asF64(OB_VAL(a[0]))));
    OB_NEXT();
  }
  OB_CASE(Store) {
    const ThreadedCode::Arg* const a = argPool + op->argBase;
    TrapKind t = TrapKind::None;
    m.mem_.store(OB_VAL(a[0]), op->aux, OB_VAL(a[1]), t);
    if (t != TrapKind::None) OB_TRAP(t);
    // Only committed stores are MemoryData candidates.
    ++stores;
    OB_NEXT();
  }
  OB_CASE(FrameAddr) {
    regs[op->dest] = frameBase + op->imm;
    OB_NEXT();
  }
  OB_CASE(Br) {
    op = fnOps + op->target;
    OB_ENTER();
  }
  OB_CASE(CondBr) {
    const ThreadedCode::Arg* const a = argPool + op->argBase;
    op = fnOps + (OB_VAL(a[0]) != 0 ? op->target : op->aux);
    OB_ENTER();
  }
  OB_CASE(Call) {
    const ThreadedCode::Arg* const a = argPool + op->argBase;
    const unsigned n = op->nops;
    const ThreadedCode::FnCode* const callee = &code.fns[op->aux];
    {
      // Park the caller at the instruction after the call BEFORE pushing:
      // the push may trap (depth/stack overflow), and snapshots derive
      // pendingCall from "caller.ip - 1 is the Call".
      auto& caller = m.frames_.back();
      caller.block = op->block;
      caller.ip = op->ip + 1;
      const ir::Instr* const callInstr =
          &caller.fn->blocks[op->block].instrs[op->ip];
      const std::size_t base = m.regsTop_;
      if (m.frames_.size() < m.limits_.maxCallDepth &&
          callee->frameSize <= stackBytes - m.sp_ &&
          callee->numRegs <= m.regs_.size() - base) {
        // Machine::pushFrame's non-trapping, non-growing path.
        std::uint64_t* const calleeRegs = m.regs_.data() + base;
        for (unsigned i = 0; i < n; ++i) calleeRegs[i] = OB_VAL(a[i]);
        std::fill(calleeRegs + n, calleeRegs + callee->numRegs, 0);
        m.frames_.push_back({&m.mod_.functions[op->aux], 0, 0, base,
                             ir::kStackBase + m.sp_, callInstr});
        m.sp_ += callee->frameSize;
        m.regsTop_ = base + callee->numRegs;
        regs = calleeRegs;
      } else {
        for (unsigned i = 0; i < n; ++i) scratch[i] = OB_VAL(a[i]);
        m.pushFrame(op->aux, std::span(scratch, n), callInstr);
        if (m.result_.status != ExecStatus::Ok) goto trap_exit;
        regs = m.regs_.data() + m.frames_.back().regBase;
      }
    }
    fn = callee;
    fnOps = code.ops.data() + fn->opBase;
    frameBase = m.frames_.back().frameBase;
    op = fnOps;  // blockStart[0] is always 0: execution starts at the entry
    OB_ENTER();
  }
  OB_CASE(Ret) {
    const std::uint64_t retVal =
        op->nops > 0 ? OB_VAL(argPool[op->argBase]) : 0;
    const ir::Instr* call = nullptr;
    {
      // Machine::popFrame, inline.
      const auto& done = m.frames_.back();
      call = done.pendingCall;
      m.sp_ -= fn->frameSize;
      m.regsTop_ = done.regBase;
      m.frames_.pop_back();
    }
    if (m.frames_.empty()) {
      m.result_.returnValue = ir::asI64(retVal);
      m.halted_ = true;
      OB_FLUSH();
      return;  // main returned
    }
    {
      const auto& caller = m.frames_.back();
      fn = &code.fns[static_cast<std::size_t>(caller.fn -
                                              m.mod_.functions.data())];
      fnOps = code.ops.data() + fn->opBase;
      regs = m.regs_.data() + caller.regBase;
      frameBase = caller.frameBase;
      op = fnOps + fn->blockStart[caller.block] + caller.ip;
    }
    if (call != nullptr && call->dest != ir::kNoReg) {
      ++writes;
      regs[call->dest] = retVal;
    }
    OB_ENTER();
  }
  OB_CASE(Const) {
    regs[op->dest] = op->imm;
    OB_NEXT();
  }
  OB_CASE(Move) {
    const ThreadedCode::Arg* const a = argPool + op->argBase;
    regs[op->dest] = OB_VAL(a[0]);
    OB_NEXT();
  }
  OB_CASE(Intrinsic) {
    const ThreadedCode::Arg* const a = argPool + op->argBase;
    const unsigned n = op->nops;
    for (unsigned i = 0; i < n; ++i) scratch[i] = OB_VAL(a[i]);
    regs[op->dest] = m.applyIntrinsic(op->intrinsic, std::span(scratch, n));
    OB_NEXT();
  }
  OB_CASE(Print) {
    const ThreadedCode::Arg* const a = argPool + op->argBase;
    m.printValue(op->printKind, OB_VAL(a[0]));
    OB_NEXT();
  }
  OB_CASE(Alloc) {
    const ThreadedCode::Arg* const a = argPool + op->argBase;
    TrapKind t = TrapKind::None;
    const std::uint64_t v = m.mem_.alloc(ir::asI64(OB_VAL(a[0])), t);
    if (t != TrapKind::None) OB_TRAP(t);
    regs[op->dest] = v;
    OB_NEXT();
  }
  OB_CASE(Abort) {
    OB_TRAP(TrapKind::Abort);
  }

#if !ONEBIT_COMPUTED_GOTO
  }
#endif

limit_tail : {
  // The limit falls inside the segment starting at `op`, which is not
  // charged yet: park between instructions at `op` for the reference loop.
  auto& frame = m.frames_.back();
  frame.block = op->block;
  frame.ip = op->ip;
  OB_FLUSH();
  return;
}

trap_exit : {
  // `op` trapped fetched and read but not written; the segment's later Ops
  // never ran. Leave the top frame's coordinates where the reference loop
  // would: the trapping instruction's slot, ip already advanced past it.
  instrs -= op->segInstrs - 1;
  reads -= op->segReads - op->countsRead;
  writes -= op->segWrites;
  auto& frame = m.frames_.back();
  frame.block = op->block;
  frame.ip = op->ip + 1;
  OB_FLUSH();
}
}

#undef OB_CASE
#undef OB_FUSED_CASE
#undef OB_DISPATCH
#undef OB_NEXT
#undef OB_ENTER
#undef OB_VAL
#undef OB_VALUE_OP
#undef OB_BINARY
#undef OB_FLUSH
#undef OB_TRAP

}  // namespace onebit::vm::detail
