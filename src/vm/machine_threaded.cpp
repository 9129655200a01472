// The direct-threaded execution loop (the DispatchBackend::Threaded fast
// path). Executes the pre-decoded stream of vm/threaded.hpp with one
// computed `goto *label` per handler on GCC/Clang; other compilers run the
// same decoded stream through a switch (still much cheaper than the
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
//     current Op's provenance (ThreadedCode::coords), so
//     capture()/compare()/resume see exactly the coordinates the reference
//     loop would leave;
//   * the caller's coordinates are synchronized BEFORE a call pushes its
//     frame, keeping the "caller.ip - 1 is the Call" invariant snapshots
//     rely on;
//   * a superinstruction (an op+move twin, compare-and-branch, array
//     access, loop latch) performs its Ops' writes in their order and reads
//     each operand after the writes before it, so it leaves what running its
//     Ops one by one leaves. Its later Ops are still in the stream, so
//     entering at one runs from there. Its last Op may be a Br or CondBr,
//     which enters its target through OB_ENTER like any branch; a Load
//     inside one moves `op` to its own Op before it can trap.
//
// Each opcode's semantics are written once — the value ops in namespace
// sem (vm/semantics.hpp, shared with the hang prover), Load in OB_LOAD,
// CondBr in OB_BRANCH — and every generic, per-form and fused handler is
// generated from them.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <span>

#include "vm/machine.hpp"
#include "vm/semantics.hpp"
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

// OB_CASE(name) introduces the handler of slot `name` (ONEBIT_VM_SLOTS);
// OB_DISPATCH jumps to the handler of `op`. In computed-goto mode handlers
// are labels and OB_DISPATCH is one `goto *label`; in portable mode they
// are cases of a switch over Op::handler, re-entered through `dispatch`.
#if ONEBIT_COMPUTED_GOTO
#define OB_CASE(name) Lbl_##name:
#define OB_DISPATCH() goto* op->label
#else
#define OB_CASE(name) \
  case static_cast<std::uint8_t>(ThreadedCode::Slot::name):
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

// Operand values. The generic handlers check each operand's kind; a
// per-form handler reads the register (OB_R) or the immediate (OB_I) its
// slot was chosen for, of `op` or of a later Op of its superinstruction.
#define OB_X (op->reg[0] != ir::kNoReg ? regs[op->reg[0]] : op->imm[0])
#define OB_Y (op->reg[1] != ir::kNoReg ? regs[op->reg[1]] : op->imm[1])
#define OB_R(o, i) regs[(o).reg[i]]
#define OB_I(o, i) (o).imm[i]

// A Call operand from the Arg pool.
#define OB_ARG(A) ((A).reg != ir::kNoReg ? regs[(A).reg] : (A).imm)

// Load: v = the Op's `width`-byte word at `addr`, or trap at `op`.
#define OB_LOAD(v, addr)                          \
  do {                                            \
    TrapKind t = TrapKind::None;                  \
    v = m.mem_.load((addr), op->aux, t);          \
    if (t != TrapKind::None) OB_TRAP(t);          \
  } while (0)

// CondBr: enter the taken target of the CondBr Op `br` when `cond` != 0,
// else its false target.
#define OB_BRANCH(cond, br)                                  \
  do {                                                       \
    op = fnOps + ((cond) != 0 ? (br).target : (br).aux);     \
    OB_ENTER();                                              \
  } while (0)

// A value-producing handler and its op+move twin, from one body: the
// statements after `name` set `v` (and may OB_TRAP). The plain handler
// writes v to dest; the twin also writes it to the dest of the Move that
// follows, then skips that Move.
#define OB_VALUE_OP(name, ...)   \
  OB_CASE(name) {                \
    std::uint64_t v = 0;         \
    __VA_ARGS__                  \
    regs[op->dest] = v;          \
    OB_NEXT();                   \
  }                              \
  OB_CASE(Mv_##name) {           \
    std::uint64_t v = 0;         \
    __VA_ARGS__                  \
    regs[op->dest] = v;          \
    regs[op[1].dest] = v;        \
    op += 2;                     \
    OB_DISPATCH();               \
  }

// A binary op with only its generic handler and op+move twin.
#define OB_BINARY(name) OB_VALUE_OP(name, { v = sem::name(OB_X, OB_Y); })

// One form (F) of a non-trapping integer op, operands X and Y.
#define OB_FORM(name, F, X, Y) OB_VALUE_OP(name##_##F, { v = sem::name(X, Y); })

// A non-trapping integer op: its generic handler (two immediates) and its
// three forms.
#define OB_INT_BINARY(name)                                 \
  OB_CASE(name) {                                           \
    regs[op->dest] = sem::name(OB_X, OB_Y);                 \
    OB_NEXT();                                              \
  }                                                         \
  OB_FORM(name, RR, OB_R(*op, 0), OB_R(*op, 1))             \
  OB_FORM(name, RI, OB_R(*op, 0), OB_I(*op, 1))             \
  OB_FORM(name, IR, OB_I(*op, 0), OB_R(*op, 1))

// ICmp + CondBr on its result, for one form of the ICmp.
#define OB_CMP_BR(name, F, X, Y)                    \
  OB_CASE(Br_##name##_##F) {                        \
    const std::uint64_t v = sem::name(X, Y);        \
    regs[op->dest] = v;                             \
    OB_BRANCH(v, op[1]);                            \
  }

// An ICmp: its integer-op handlers and its compare-and-branch ones.
#define OB_ICMP(name)                                  \
  OB_INT_BINARY(name)                                  \
  OB_CMP_BR(name, RR, OB_R(*op, 0), OB_R(*op, 1))      \
  OB_CMP_BR(name, RI, OB_R(*op, 0), OB_I(*op, 1))      \
  OB_CMP_BR(name, IR, OB_I(*op, 0), OB_R(*op, 1))

// Mul(reg, imm) + Add(X, product) [+ Load of the sum], X being the Add's
// operand 0 (register or immediate: form F). X is read after the product
// is written, as the Add would read it.
#define OB_MUL_ADD(F, X)                                  \
  OB_CASE(MulAdd_##F) {                                   \
    const std::uint64_t p = sem::Mul(OB_R(*op, 0), OB_I(*op, 1)); \
    regs[op->dest] = p;                                   \
    regs[op[1].dest] = sem::Add(X, p);                    \
    op += 2;                                              \
    OB_DISPATCH();                                        \
  }                                                       \
  OB_CASE(MulAddLoad_##F) {                               \
    const std::uint64_t p = sem::Mul(OB_R(*op, 0), OB_I(*op, 1)); \
    regs[op->dest] = p;                                   \
    const std::uint64_t addr = sem::Add(X, p);            \
    regs[op[1].dest] = addr;                              \
    op += 2; /* the Load: a trap leaves from its own Op */ \
    std::uint64_t v = 0;                                  \
    OB_LOAD(v, addr);                                     \
    regs[op->dest] = v;                                   \
    OB_NEXT();                                            \
  }

// Add + Load of the sum, and Add + Move of the sum + Br, for one form of
// the Add.
#define OB_ADD_FUSED(F, X, Y)                             \
  OB_CASE(AddLoad_##F) {                                  \
    const std::uint64_t addr = sem::Add(X, Y);            \
    regs[op->dest] = addr;                                \
    ++op; /* the Load: a trap leaves from its own Op */   \
    std::uint64_t v = 0;                                  \
    OB_LOAD(v, addr);                                     \
    regs[op->dest] = v;                                   \
    OB_NEXT();                                            \
  }                                                       \
  OB_CASE(AddMoveBr_##F) {                                \
    const std::uint64_t v = sem::Add(X, Y);               \
    regs[op->dest] = v;                                   \
    regs[op[1].dest] = v;                                 \
    op = fnOps + op[2].target;                            \
    OB_ENTER();                                           \
  }

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
#define OB_LABEL(name) &&Lbl_##name,
  static const void* const kLabels[] = {ONEBIT_VM_SLOTS(OB_LABEL)};
#undef OB_LABEL
  static_assert(std::size(kLabels) == ThreadedCode::kNumSlots);
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
  const ThreadedCode::Coord* const coords = code.coords.data();
  const std::uint64_t limit = m.limit_;
  const std::uint64_t stackBytes = m.mem_.stackBytes();
  std::uint8_t* const globals = m.mem_.globalsData();

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

  OB_INT_BINARY(Add)
  OB_INT_BINARY(Sub)
  OB_INT_BINARY(Mul)
  OB_VALUE_OP(SDiv, {
    const std::uint64_t den = OB_Y;
    if (den == 0) OB_TRAP(TrapKind::DivByZero);
    v = sem::SDiv(OB_X, den);
  })
  OB_VALUE_OP(SRem, {
    const std::uint64_t den = OB_Y;
    if (den == 0) OB_TRAP(TrapKind::DivByZero);
    v = sem::SRem(OB_X, den);
  })
  OB_INT_BINARY(And)
  OB_INT_BINARY(Or)
  OB_INT_BINARY(Xor)
  OB_INT_BINARY(Shl)
  OB_INT_BINARY(LShr)
  OB_INT_BINARY(AShr)
  OB_BINARY(FAdd)
  OB_BINARY(FSub)
  OB_BINARY(FMul)
  OB_BINARY(FDiv)
  OB_ICMP(ICmpEq)
  OB_ICMP(ICmpNe)
  OB_ICMP(ICmpLt)
  OB_ICMP(ICmpLe)
  OB_ICMP(ICmpGt)
  OB_ICMP(ICmpGe)
  OB_BINARY(FCmpEq)
  OB_BINARY(FCmpNe)
  OB_BINARY(FCmpLt)
  OB_BINARY(FCmpLe)
  OB_BINARY(FCmpGt)
  OB_BINARY(FCmpGe)
  OB_CASE(SIToFP) {
    regs[op->dest] = sem::SIToFP(OB_X);
    OB_NEXT();
  }
  OB_CASE(FPToSI) {
    regs[op->dest] = sem::FPToSI(OB_X);
    OB_NEXT();
  }
  // Load: the generic handler serves the immediate addresses the decoder
  // could not resolve (each traps, or lies outside the globals).
  OB_CASE(Load) {
    std::uint64_t v = 0;
    OB_LOAD(v, OB_X);
    regs[op->dest] = v;
    OB_NEXT();
  }
  OB_VALUE_OP(LoadR, { OB_LOAD(v, OB_R(*op, 0)); })
  // Resolved global loads: imm[0] is the offset into the globals, in range
  // and aligned for the width.
  OB_VALUE_OP(LoadG8, { std::memcpy(&v, globals + op->imm[0], 8); })
  OB_VALUE_OP(LoadG1, { v = globals[op->imm[0]]; })
  OB_CASE(Store) {
    TrapKind t = TrapKind::None;
    m.mem_.store(OB_X, op->aux, OB_Y, t);
    if (t != TrapKind::None) OB_TRAP(t);
    // Only committed stores are MemoryData candidates.
    ++stores;
    OB_NEXT();
  }
  OB_CASE(StoreG8) {
    std::memcpy(globals + op->imm[0], &OB_R(*op, 1), 8);
    ++stores;
    OB_NEXT();
  }
  OB_CASE(StoreG1) {
    globals[op->imm[0]] = static_cast<std::uint8_t>(OB_R(*op, 1));
    ++stores;
    OB_NEXT();
  }
  OB_CASE(FrameAddr) {
    regs[op->dest] = frameBase + op->imm[0];
    OB_NEXT();
  }
  OB_CASE(Br) {
    op = fnOps + op->target;
    OB_ENTER();
  }
  OB_CASE(CondBr) {
    OB_BRANCH(OB_X, *op);
  }
  OB_CASE(CondBr_R) {
    OB_BRANCH(OB_R(*op, 0), *op);
  }
  OB_MUL_ADD(R, OB_R(op[1], 0))
  OB_MUL_ADD(I, OB_I(op[1], 0))
  OB_ADD_FUSED(RR, OB_R(*op, 0), OB_R(*op, 1))
  OB_ADD_FUSED(RI, OB_R(*op, 0), OB_I(*op, 1))
  OB_ADD_FUSED(IR, OB_I(*op, 0), OB_R(*op, 1))
  OB_CASE(MoveAddMoveBr) {
    // Move s <- i; Add t <- s, imm; Move i <- t; Br.
    const std::uint64_t s = OB_R(*op, 0);
    regs[op->dest] = s;
    const std::uint64_t v = sem::Add(s, OB_I(op[1], 1));
    regs[op[1].dest] = v;
    regs[op[2].dest] = v;
    op = fnOps + op[3].target;
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
      const ThreadedCode::Coord at = coords[op - code.ops.data()];
      auto& caller = m.frames_.back();
      caller.block = at.block;
      caller.ip = at.ip + 1;
      const ir::Instr* const callInstr =
          &caller.fn->blocks[at.block].instrs[at.ip];
      const std::size_t base = m.regsTop_;
      if (m.frames_.size() < m.limits_.maxCallDepth &&
          callee->frameSize <= stackBytes - m.sp_ &&
          callee->numRegs <= m.regs_.size() - base) {
        // Machine::pushFrame's non-trapping, non-growing path.
        std::uint64_t* const calleeRegs = m.regs_.data() + base;
        for (unsigned i = 0; i < n; ++i) calleeRegs[i] = OB_ARG(a[i]);
        std::fill(calleeRegs + n, calleeRegs + callee->numRegs, 0);
        m.frames_.push_back({&m.mod_.functions[op->aux], 0, 0, base,
                             ir::kStackBase + m.sp_, callInstr});
        m.sp_ += callee->frameSize;
        m.regsTop_ = base + callee->numRegs;
        regs = calleeRegs;
      } else {
        for (unsigned i = 0; i < n; ++i) scratch[i] = OB_ARG(a[i]);
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
    const std::uint64_t retVal = op->nops > 0 ? OB_X : 0;
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
    regs[op->dest] = op->imm[0];
    OB_NEXT();
  }
  OB_CASE(Move_R) {
    regs[op->dest] = OB_R(*op, 0);
    OB_NEXT();
  }
  OB_CASE(Move_I) {
    regs[op->dest] = OB_I(*op, 0);
    OB_NEXT();
  }
  OB_CASE(Intrinsic) {
    const unsigned n = op->nops;
    scratch[0] = OB_X;
    if (n > 1) scratch[1] = OB_Y;
    regs[op->dest] =
        m.applyIntrinsic(static_cast<ir::IntrinsicKind>(op->aux),
                         std::span(scratch, n));
    OB_NEXT();
  }
  OB_CASE(Print) {
    m.printValue(static_cast<ir::PrintKind>(op->aux), OB_X);
    OB_NEXT();
  }
  OB_CASE(Alloc) {
    TrapKind t = TrapKind::None;
    const std::uint64_t v = m.mem_.alloc(ir::asI64(OB_X), t);
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
  const ThreadedCode::Coord at = coords[op - code.ops.data()];
  auto& frame = m.frames_.back();
  frame.block = at.block;
  frame.ip = at.ip;
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
  const ThreadedCode::Coord at = coords[op - code.ops.data()];
  auto& frame = m.frames_.back();
  frame.block = at.block;
  frame.ip = at.ip + 1;
  OB_FLUSH();
}
}

#undef OB_CASE
#undef OB_DISPATCH
#undef OB_NEXT
#undef OB_ENTER
#undef OB_X
#undef OB_Y
#undef OB_R
#undef OB_I
#undef OB_ARG
#undef OB_LOAD
#undef OB_BRANCH
#undef OB_VALUE_OP
#undef OB_BINARY
#undef OB_FORM
#undef OB_INT_BINARY
#undef OB_CMP_BR
#undef OB_ICMP
#undef OB_MUL_ADD
#undef OB_ADD_FUSED
#undef OB_FLUSH
#undef OB_TRAP

}  // namespace onebit::vm::detail
