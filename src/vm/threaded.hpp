// Pre-decoded direct-threaded code for the fast hook-free execution loop.
//
// The reference interpreter (vm/machine.cpp) re-reads each ir::Instr on
// every dynamic execution: a vector of variant operands, attribute fields
// spread over a cache line, and one indirect branch through a switch. The
// threaded backend pays that decode cost ONCE per module: every function's
// blocks are flattened into a dense stream of fixed-size Ops — computed-goto
// label pointer, operands 0 and 1 inline, pre-resolved branch targets
// (stream indices) and per-segment counter totals — which the loop in
// vm/machine_threaded.cpp executes with one `goto *p` per handler (GCC/Clang;
// a decoded switch on other compilers).
//
// Layout invariant: a function's Ops appear block by block in block order,
// one Op per ir::Instr, so the stream index of (block, ip) is
// `blockStart[block] + ip`. That makes mid-block entry trivial — a Machine
// resumed from a snapshot (or switching over from the hooked reference loop
// mid-run) computes its stream position directly from the frame's
// block/ip coordinates, and Ret re-enters the caller the same way.
//
// Segments: a run of Ops that ends at Br, CondBr, Ret or Call (or at the end
// of its block) is a segment. Control enters a segment only at its start or,
// on loop entry, anywhere inside it; it leaves only at its end or by a trap.
// Each Op carries the instruction, read-candidate and write-candidate counts
// from itself to the end of its segment, so the loop charges them, and
// checks the instruction limit, once per segment instead of once per
// instruction.
//
// Specialization: the decoder picks each Op's handler slot (choose()) from
// what it knows about the instruction and the ones after it in its block:
//   * per-form handlers: the non-trapping integer binary ops take a
//     reg,reg / reg,imm / imm,reg handler, Move a reg or imm one, Load a
//     reg-address one and CondBr a reg one, so they read their operands with
//     no register-or-immediate check; every other instruction (FP ops,
//     SDiv/SRem, two-immediate forms, ...) takes its opcode's generic
//     handler, which checks each operand's kind;
//   * resolved global accesses: a Load or Store whose address is an
//     immediate inside the globals segment, in range for its width and
//     8-aligned at width 8, indexes the globals buffer at a decode-time
//     offset with no check (any other immediate address keeps the checked,
//     trapping path);
//   * superinstructions: a handler may also run the next Ops of its block,
//     one dispatch for the whole idiom — a value op and the Move of its
//     result (op+move), ICmp + CondBr on its result, Mul(reg, imm) + the Add
//     of the product (+ the Load of the sum), Add + the Load of the sum,
//     Add + Move + Br, and Move + Add(imm) + Move + Br (a `for` latch).
// Every instruction still has its own Op with its own standalone handler,
// so entering the stream at any Op (snapshot resume, sleep handover, the
// limit tail, a return point) runs from that Op. A superinstruction lies in
// one segment, and only its last Op may be a Br or CondBr, which enters its
// target like any branch; a Load that traps inside one first moves to its
// own Op, so the trap exit sees exactly a standalone Load's trap.
//
// Decoded streams are immutable and shared: ThreadedCode::decode() builds
// one per module, and callers that run a module many times (fi::Workload)
// decode once and pass the stream to every run via ExecLimits::threadedCode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ir/instr.hpp"
#include "ir/module.hpp"

// The integer binary opcodes that never trap: each has per-form handlers.
// M(X, op) is applied to each; the ICmp ones also feed CondBr.
#define ONEBIT_VM_ICMP_OPS(M, X)                                          \
  M(X, ICmpEq) M(X, ICmpNe) M(X, ICmpLt) M(X, ICmpLe) M(X, ICmpGt)        \
  M(X, ICmpGe)
#define ONEBIT_VM_INT_OPS(M, X)                                           \
  M(X, Add) M(X, Sub) M(X, Mul) M(X, And) M(X, Or) M(X, Xor) M(X, Shl)    \
  M(X, LShr) M(X, AShr) ONEBIT_VM_ICMP_OPS(M, X)
// The value opcodes whose generic handler has an op+move twin.
#define ONEBIT_VM_MOVE_TWIN_OPS(M, X)                                     \
  M(X, SDiv) M(X, SRem) M(X, FAdd) M(X, FSub) M(X, FMul) M(X, FDiv)       \
  M(X, FCmpEq) M(X, FCmpNe) M(X, FCmpLt) M(X, FCmpLe) M(X, FCmpGt)        \
  M(X, FCmpGe)

// The slots of one integer op, in this order (the decoder relies on it):
// reg,reg / reg,imm / imm,reg, then the op+move twin of each.
#define ONEBIT_VM_FORM_SLOTS(X, op)                                       \
  X(op##_RR) X(op##_RI) X(op##_IR) X(Mv_##op##_RR) X(Mv_##op##_RI)        \
  X(Mv_##op##_IR)
// ICmp + CondBr on its result, per form of the ICmp, in the same order.
#define ONEBIT_VM_CMP_BR_SLOTS(X, op)                                     \
  X(Br_##op##_RR) X(Br_##op##_RI) X(Br_##op##_IR)
#define ONEBIT_VM_MOVE_TWIN_SLOT(X, op) X(Mv_##op)

// The generic handlers, one per opcode and named after it: all but Move,
// whose operand always has a form.
#define ONEBIT_VM_GENERIC_SLOTS(X)                                        \
  X(Add) X(Sub) X(Mul) X(SDiv) X(SRem) X(And) X(Or) X(Xor) X(Shl)         \
  X(LShr) X(AShr) X(FAdd) X(FSub) X(FMul) X(FDiv) X(ICmpEq) X(ICmpNe)     \
  X(ICmpLt) X(ICmpLe) X(ICmpGt) X(ICmpGe) X(FCmpEq) X(FCmpNe) X(FCmpLt)   \
  X(FCmpLe) X(FCmpGt) X(FCmpGe) X(SIToFP) X(FPToSI) X(Load) X(Store)      \
  X(FrameAddr) X(Br) X(CondBr) X(Call) X(Ret) X(Const) X(Intrinsic)       \
  X(Print) X(Alloc) X(Abort)

// Every handler slot of the threaded loop, in slot order. This one list
// numbers the slots (ThreadedCode::Slot), and vm/machine_threaded.cpp
// expands it into the computed-goto label table and the portable switch's
// case labels, so the three cannot drift apart. X(name) names one slot; its
// handler is OB_CASE(name).
#define ONEBIT_VM_SLOTS(X)                                                \
  ONEBIT_VM_GENERIC_SLOTS(X)                                              \
  ONEBIT_VM_MOVE_TWIN_OPS(ONEBIT_VM_MOVE_TWIN_SLOT, X)                    \
  ONEBIT_VM_INT_OPS(ONEBIT_VM_FORM_SLOTS, X)                              \
  ONEBIT_VM_ICMP_OPS(ONEBIT_VM_CMP_BR_SLOTS, X)                           \
  X(Move_R) X(Move_I)                                                     \
  X(LoadR) X(Mv_LoadR)                                                    \
  X(LoadG8) X(Mv_LoadG8) X(LoadG1) X(Mv_LoadG1)                           \
  X(StoreG8) X(StoreG1)                                                   \
  X(CondBr_R)                                                             \
  X(MulAdd_R) X(MulAdd_I) X(MulAddLoad_R) X(MulAddLoad_I)                 \
  X(AddLoad_RR) X(AddLoad_RI) X(AddLoad_IR)                               \
  X(AddMoveBr_RR) X(AddMoveBr_RI) X(AddMoveBr_IR)                         \
  X(MoveAddMoveBr)

namespace onebit::vm {

class ThreadedCode {
 public:
  /// Handler slots (ONEBIT_VM_SLOTS). Per-form slots end in _RR, _RI or
  /// _IR (the kinds of operands 0 and 1), op+move twins start with Mv_,
  /// resolved global accesses end in G8/G1 (the width), and the other
  /// superinstructions are named after the idiom they run.
  enum class Slot : std::uint8_t {
#define ONEBIT_VM_SLOT_ENUM(name) name,
    ONEBIT_VM_SLOTS(ONEBIT_VM_SLOT_ENUM)
#undef ONEBIT_VM_SLOT_ENUM
  };
#define ONEBIT_VM_SLOT_COUNT(name) +1
  static constexpr std::size_t kNumSlots =
      0 ONEBIT_VM_SLOTS(ONEBIT_VM_SLOT_COUNT);
#undef ONEBIT_VM_SLOT_COUNT
  static_assert(kNumSlots <= 256, "Op::handler is one byte");

  /// Operand slots per instruction (ir::kMaxOperands, which ir::verify
  /// enforces).
  static constexpr std::size_t kMaxOperands = ir::kMaxOperands;

  /// The idiom a handler runs as one dispatch.
  enum class Fusion : std::uint8_t {
    None,           ///< the instruction alone
    OpMove,         ///< value op + Move of its result
    CmpBr,          ///< ICmp + CondBr on its result
    MulAdd,         ///< Mul(reg, imm) + Add(x, product)
    MulAddLoad,     ///< ... + Load of the sum
    AddLoad,        ///< Add + Load of the sum
    AddMoveBr,      ///< Add + Move of the sum + Br
    MoveAddMoveBr,  ///< Move + Add(moved, imm) + Move of the sum + Br
  };

  /// The decoder's choice for one instruction: its Op's handler slot, and
  /// the Ops that handler runs — `span` of them, from this one on.
  struct Choice {
    Slot slot = Slot::Abort;
    std::uint8_t span = 1;
    Fusion fusion = Fusion::None;
  };

  /// The handler for instruction `ip` of `bb`, in a module whose globals
  /// segment is `globalBytes` long. decode() takes every Op's slot from
  /// here, and the tests ask it which Ops lie inside a superinstruction.
  static Choice choose(const ir::BasicBlock& bb, std::size_t ip,
                       std::size_t globalBytes) noexcept;

  /// The slot's name as written in ONEBIT_VM_SLOTS.
  static const char* slotName(Slot s) noexcept;

  /// A Call operand: a register index, or kNoReg + the immediate value.
  struct Arg {
    std::uint32_t reg = ir::kNoReg;
    std::uint64_t imm = 0;
  };

  /// One decoded instruction, one cache line. `label` is the computed-goto
  /// target of `handler` (null when the build has no label table — the
  /// portable loop switches on `handler`).
  struct alignas(64) Op {
    const void* label = nullptr;
    /// Operands 0 and 1: reg[i] is the register, or kNoReg when the operand
    /// is the immediate imm[i]. imm[0] also holds a Const's value, a
    /// FrameAddr's offset, and a resolved global access's offset into the
    /// globals segment (in place of the address).
    std::uint64_t imm[2] = {0, 0};
    std::uint32_t reg[2] = {ir::kNoReg, ir::kNoReg};
    std::uint32_t target = 0;  ///< Br/CondBr taken target (fn-local index)
    /// CondBr false target / callee / access width / intrinsic or print
    /// kind.
    std::uint32_t aux = 0;
    std::uint32_t dest = ir::kNoReg;
    std::uint32_t argBase = 0;  ///< Call: first operand in the Arg pool
    /// Counts from this Op to the end of its segment, inclusive: the
    /// instructions, the read candidates (Ops with >= 1 register operand)
    /// and the write candidates (dest writes except Const/FrameAddr/Call;
    /// a call's return value is counted at its Ret).
    std::uint32_t segInstrs = 0;
    std::uint32_t segReads = 0;
    std::uint32_t segWrites = 0;
    std::uint8_t nops = 0;
    std::uint8_t countsRead = 0;  ///< 1 = this Op is a read candidate
    std::uint8_t handler = 0;     ///< the Slot
  };
  static_assert(sizeof(Op) == 64, "one Op per cache line");

  /// Where an Op came from: its block and its index within the block. Read
  /// only on exits and calls, so it lives beside the stream, not in it.
  struct Coord {
    std::uint32_t block = 0;
    std::uint32_t ip = 0;
  };

  /// One function's slice of the stream, plus the frame shape a call
  /// pushes.
  struct FnCode {
    std::uint32_t opBase = 0;  ///< index of the function's first Op in ops
    std::uint32_t numRegs = 0;
    std::uint64_t frameSize = 0;  ///< stack frame bytes, 8-byte aligned
    std::vector<std::uint32_t> blockStart;  ///< fn-local Op index per block
  };

  std::vector<Op> ops;
  std::vector<Coord> coords;  ///< coords[i] is ops[i]'s provenance
  std::vector<Arg> args;      ///< Call operands
  std::vector<FnCode> fns;

  /// Decode `mod`, which must have passed ir::verify. Throws
  /// std::invalid_argument for an instruction wider than kMaxOperands (only
  /// an unverified module has one). The returned stream is immutable and
  /// independent of the module object.
  static std::shared_ptr<const ThreadedCode> decode(const ir::Module& mod);
};

class Machine;

namespace detail {

/// The direct-threaded execution loop (defined in vm/machine_threaded.cpp).
/// Normal mode: runs `m` (which must be between instructions and hook-free)
/// on `code` until it halts or traps, or until its
/// instruction limit (fuel, or a runUntil stop) falls inside the next
/// segment; it then returns with `m` between instructions at that segment's
/// start and status still Ok, and the caller runs that segment on the
/// reference loop. Label-collection
/// mode: when `labelsOut` is non-null, stores the loop's computed-goto label
/// table (kNumSlots entries indexed by Op::handler; the table itself is null
/// when the build lacks computed goto) and returns without touching
/// `m`/`code` (both may be null).
void runThreadedLoop(Machine* m, const ThreadedCode* code,
                     const void* const** labelsOut);

}  // namespace detail

}  // namespace onebit::vm
