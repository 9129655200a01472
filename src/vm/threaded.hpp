// Pre-decoded direct-threaded code for the fast hook-free execution loop.
//
// The reference interpreter (vm/machine.cpp) re-reads each ir::Instr on
// every dynamic execution: a vector of variant operands, attribute fields
// spread over a cache line, and one indirect branch through a switch. The
// threaded backend pays that decode cost ONCE per module: every function's
// blocks are flattened into a dense stream of fixed-size Ops — computed-goto
// label pointer, pre-resolved branch targets (stream indices), operand slots
// in a shared contiguous pool, and per-segment counter totals — which the
// loop in vm/machine_threaded.cpp executes with one `goto *p` per
// instruction (GCC/Clang; a decoded switch on other compilers).
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
// Fused pairs: when a `move y <- x` directly follows the binary op or load
// that wrote x, the first Op gets the fused handler, which also writes y
// and skips the Move. The Move keeps its own Op (and plain handler), so the
// layout invariant holds and entering the stream at the Move still works.
//
// Decoded streams are immutable and shared: ThreadedCode::decode() builds
// one per module, and callers that run a module many times (fi::Workload)
// decode once and pass the stream to every run via ExecLimits::threadedCode.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ir/instr.hpp"
#include "ir/module.hpp"

namespace onebit::vm {

class ThreadedCode {
 public:
  static constexpr std::size_t kNumOpcodes =
      static_cast<std::size_t>(ir::Opcode::Abort) + 1;
  /// Handler slots: one per opcode, then one fused op+move twin per opcode
  /// (used only for opcodes where fusesMove() holds).
  static constexpr std::size_t kNumHandlers = 2 * kNumOpcodes;
  /// Operand slots per instruction (ir::kMaxOperands, which ir::verify
  /// enforces).
  static constexpr std::size_t kMaxOperands = ir::kMaxOperands;

  /// Opcodes whose Op takes the fused handler when the next instruction of
  /// its block is a Move of its destination: the binary ops and Load.
  static constexpr bool fusesMove(ir::Opcode op) noexcept {
    return op <= ir::Opcode::FCmpGe || op == ir::Opcode::Load;
  }

  /// One operand slot: a register index, or kNoReg + the immediate value.
  struct Arg {
    std::uint32_t reg = ir::kNoReg;
    std::uint64_t imm = 0;
  };

  /// One decoded instruction. `label` is the computed-goto target of
  /// `handler` (null when the build has no label table — the portable loop
  /// switches on `handler`).
  struct Op {
    const void* label = nullptr;
    std::uint64_t imm = 0;       ///< Const value / FrameAddr offset bits
    std::uint32_t target = 0;    ///< Br/CondBr taken target (fn-local index)
    std::uint32_t aux = 0;       ///< CondBr false target / callee / width
    std::uint32_t dest = ir::kNoReg;
    std::uint32_t argBase = 0;   ///< first slot in the shared Arg pool
    std::uint32_t block = 0;     ///< provenance: source block id ...
    std::uint32_t ip = 0;        ///< ... and instruction index within it
    /// Counts from this Op to the end of its segment, inclusive: the
    /// instructions, the read candidates (Ops with >= 1 register operand)
    /// and the write candidates (dest writes except Const/FrameAddr/Call;
    /// a call's return value is counted at its Ret).
    std::uint32_t segInstrs = 0;
    std::uint32_t segReads = 0;
    std::uint32_t segWrites = 0;
    std::uint8_t nops = 0;
    std::uint8_t countsRead = 0;  ///< 1 = this Op is a read candidate
    /// Handler slot: the opcode, or kNumOpcodes + opcode for the first Op
    /// of a fused op+move pair.
    std::uint8_t handler = 0;
    ir::IntrinsicKind intrinsic = ir::IntrinsicKind::Sqrt;
    ir::PrintKind printKind = ir::PrintKind::I64;
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
  std::vector<Arg> args;
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
/// table (kNumHandlers entries indexed by Op::handler, null for unused
/// fused slots; the table itself is null when the build lacks computed
/// goto) and returns without touching `m`/`code` (both may be null).
void runThreadedLoop(Machine* m, const ThreadedCode* code,
                     const void* const** labelsOut);

}  // namespace detail

}  // namespace onebit::vm
