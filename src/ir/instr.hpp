// Instructions of the onebit IR.
//
// The IR is register based (an unbounded file of 64-bit virtual registers per
// function). Unlike LLVM it is not SSA: the front end assigns each named
// local variable a dedicated register that may be rewritten, which removes
// the need for phi nodes while preserving the property the fault model cares
// about — every dynamic instruction reads source registers and/or writes one
// destination register.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "ir/type.hpp"

namespace onebit::ir {

using Reg = std::uint32_t;
inline constexpr Reg kNoReg = 0xffffffffU;

/// Most operands one instruction may have (ir::verify rejects more): both
/// interpreter loops gather operand values into this many fixed slots.
inline constexpr std::size_t kMaxOperands = 8;

enum class Opcode : std::uint8_t {
  // Integer arithmetic / bitwise (i64 operands, i64 result).
  Add, Sub, Mul, SDiv, SRem, And, Or, Xor, Shl, LShr, AShr,
  // Floating point (f64 operands, f64 result).
  FAdd, FSub, FMul, FDiv,
  // Integer comparisons (i64 operands, i64 0/1 result).
  ICmpEq, ICmpNe, ICmpLt, ICmpLe, ICmpGt, ICmpGe,
  // Float comparisons (f64 operands, i64 0/1 result).
  FCmpEq, FCmpNe, FCmpLt, FCmpLe, FCmpGt, FCmpGe,
  // Conversions.
  SIToFP,  ///< i64 -> f64
  FPToSI,  ///< f64 -> i64 (truncation; out-of-range saturates)
  // Memory. `width` is 1 or 8 bytes; 1-byte loads zero-extend.
  Load,   ///< dest = mem[op0]
  Store,  ///< mem[op0] = op1 (no destination register)
  // Address materialization.
  FrameAddr,  ///< dest = frame base + `offset`
  // Control flow.
  Br,      ///< jump to block `target0`
  CondBr,  ///< if op0 != 0 goto `target0` else `target1`
  Call,    ///< dest = call function `callee`(op0..opN)
  Ret,     ///< return (op0 if function is non-void)
  // Data movement.
  Const,  ///< dest = immediate `imm`
  Move,   ///< dest = op0
  // Math intrinsics (libm-backed; f64 unless noted).
  Intrinsic,  ///< dest = `intrinsic`(op0[, op1])
  // I/O and runtime services.
  Print,  ///< append op0 to the program output (`printKind` selects format)
  Alloc,  ///< dest = address of a fresh heap block of op0 bytes
  Abort,  ///< raise the Abort trap (program self-termination)
};

enum class IntrinsicKind : std::uint8_t {
  Sqrt, Sin, Cos, Tan, Atan, Exp, Log, Fabs, Floor, Ceil,
  Pow,    // two operands
  Atan2,  // two operands
};

enum class PrintKind : std::uint8_t {
  I64,   ///< decimal integer
  F64,   ///< fixed %.6f
  Char,  ///< single byte
};

/// An instruction operand: either a register read or an immediate.
/// Only register operands are fault-injection candidates (inject-on-read).
struct Operand {
  enum class Kind : std::uint8_t { Reg, Imm } kind = Kind::Imm;
  Reg reg = kNoReg;        ///< valid when kind == Reg
  std::uint64_t imm = 0;   ///< valid when kind == Imm

  static Operand makeReg(Reg r) noexcept {
    Operand o;
    o.kind = Kind::Reg;
    o.reg = r;
    return o;
  }
  static Operand makeImm(std::uint64_t raw) noexcept {
    Operand o;
    o.kind = Kind::Imm;
    o.imm = raw;
    return o;
  }
  [[nodiscard]] bool isReg() const noexcept { return kind == Kind::Reg; }
};

struct Instr {
  Opcode op = Opcode::Abort;
  Type type = Type::Void;  ///< result type (Void when dest == kNoReg)
  Reg dest = kNoReg;
  std::vector<Operand> operands;

  // Attributes (meaning depends on opcode).
  std::uint32_t target0 = 0;       ///< Br / CondBr block ids
  std::uint32_t target1 = 0;
  std::uint32_t callee = 0;        ///< Call function id
  std::uint32_t width = 8;         ///< Load / Store access width (1 or 8)
  std::int64_t offset = 0;         ///< FrameAddr byte offset
  std::uint64_t imm = 0;           ///< Const raw value
  IntrinsicKind intrinsic = IntrinsicKind::Sqrt;
  PrintKind printKind = PrintKind::I64;

  [[nodiscard]] bool hasDest() const noexcept { return dest != kNoReg; }
  [[nodiscard]] bool isTerminator() const noexcept {
    return op == Opcode::Br || op == Opcode::CondBr || op == Opcode::Ret;
  }
  /// Number of register (non-immediate) operands — the inject-on-read
  /// candidate count contribution of one dynamic execution of this
  /// instruction is 1 if this is > 0.
  [[nodiscard]] unsigned regOperandCount() const noexcept {
    unsigned n = 0;
    for (const auto& o : operands) n += o.isReg() ? 1U : 0U;
    return n;
  }
};

std::string_view opcodeName(Opcode op) noexcept;
std::string_view intrinsicName(IntrinsicKind k) noexcept;

/// Expected operand count for an opcode; returns -1 for variadic (Call) or
/// optional (Ret).
int fixedOperandCount(Opcode op) noexcept;

/// Whether the opcode is allowed (required) to have a destination register.
bool opcodeHasDest(Opcode op) noexcept;

}  // namespace onebit::ir
