#include "vm/threaded.hpp"

#include <optional>
#include <stdexcept>

namespace onebit::vm {

namespace {

using ir::Opcode;
using Slot = ThreadedCode::Slot;
using Fusion = ThreadedCode::Fusion;

/// True for the Ops after which control may leave straight-line order.
bool endsSegment(Opcode op) noexcept {
  return op == Opcode::Br || op == Opcode::CondBr || op == Opcode::Ret ||
         op == Opcode::Call;
}

/// Mirrors the reference loop's write-candidate gate: dest writes count
/// except for Const/FrameAddr (immediate materialization) — and Call, whose
/// return-value write is counted at Ret.
std::uint32_t countsWrite(const ir::Instr& in) noexcept {
  return in.dest != ir::kNoReg && in.op != Opcode::Const &&
                 in.op != Opcode::FrameAddr && in.op != Opcode::Call
             ? 1
             : 0;
}

/// The operand kinds of a two-operand instruction, in per-form slot order
/// (ONEBIT_VM_FORM_SLOTS).
enum Form : unsigned { kRR = 0, kRI = 1, kIR = 2, kII = 3 };

Form formOf(const ir::Instr& in) noexcept {
  const bool r0 = in.operands[0].isReg();
  const bool r1 = in.operands[1].isReg();
  return r0 ? (r1 ? kRR : kRI) : (r1 ? kIR : kII);
}

Slot plus(Slot s, unsigned n) noexcept {
  return static_cast<Slot>(static_cast<unsigned>(s) + n);
}

/// The generic slot of `op` (every opcode but Move has one).
Slot genericSlot(Opcode op) noexcept {
  switch (op) {
#define OB_GENERIC(name) \
  case Opcode::name:     \
    return Slot::name;
    ONEBIT_VM_GENERIC_SLOTS(OB_GENERIC)
#undef OB_GENERIC
    case Opcode::Move:
      break;
  }
  return Slot::Move_R;
}

/// The op+move twin of a generic value op, if it has one.
std::optional<Slot> moveTwinSlot(Opcode op) noexcept {
  switch (op) {
#define OB_TWIN(X, name) \
  case Opcode::name:     \
    return Slot::Mv_##name;
    ONEBIT_VM_MOVE_TWIN_OPS(OB_TWIN, _)
#undef OB_TWIN
    default:
      return std::nullopt;
  }
}

/// The reg,reg slot of a non-trapping integer op (the first of its
/// ONEBIT_VM_FORM_SLOTS); none for any other opcode.
std::optional<Slot> formBase(Opcode op) noexcept {
  switch (op) {
#define OB_FORM_BASE(X, name) \
  case Opcode::name:          \
    return Slot::name##_RR;
    ONEBIT_VM_INT_OPS(OB_FORM_BASE, _)
#undef OB_FORM_BASE
    default:
      return std::nullopt;
  }
}

/// The ICmp + CondBr reg,reg slot of an ICmp; none for any other opcode.
std::optional<Slot> cmpBrBase(Opcode op) noexcept {
  switch (op) {
#define OB_CMP_BR_BASE(X, name) \
  case Opcode::name:            \
    return Slot::Br_##name##_RR;
    ONEBIT_VM_ICMP_OPS(OB_CMP_BR_BASE, _)
#undef OB_CMP_BR_BASE
    default:
      return std::nullopt;
  }
}

bool readsReg(const ir::Operand& o, ir::Reg r) noexcept {
  return o.isReg() && o.reg == r;
}

/// `in` exists and is `op` with operand 0 the register r.
bool isOn(const ir::Instr* in, Opcode op, ir::Reg r) noexcept {
  return in != nullptr && in->op == op && readsReg(in->operands[0], r);
}

/// True when an immediate-address access of `width` bytes at `addr` is a
/// plain access to the globals: inside the segment, in range for its width,
/// and 8-aligned at width 8 — exactly the accesses Memory serves from the
/// globals without a trap. It must also lie below kStackBase: Memory looks
/// in the stack first, and the stack's size is not known here.
bool resolvesGlobal(std::uint64_t addr, unsigned width,
                    std::size_t globalBytes) noexcept {
  const std::uint64_t off = addr - ir::kGlobalBase;  // wraps below the base
  return off < globalBytes && width <= globalBytes - off &&
         (width != 8 || (addr & 7U) == 0) && addr < ir::kStackBase;
}

/// True for the slots of a resolved global access, whose imm[0] holds the
/// offset into the globals segment.
bool isGlobalSlot(Slot s) noexcept {
  return s == Slot::LoadG8 || s == Slot::Mv_LoadG8 || s == Slot::LoadG1 ||
         s == Slot::Mv_LoadG1 || s == Slot::StoreG8 || s == Slot::StoreG1;
}

/// The choice for a non-trapping integer op with at most one immediate.
ThreadedCode::Choice chooseIntOp(const ir::Instr& in, Form f, Slot base,
                                 const ir::Instr* n1, const ir::Instr* n2) {
  const std::optional<Slot> cmpBr = cmpBrBase(in.op);
  if (cmpBr && isOn(n1, Opcode::CondBr, in.dest)) {
    return {plus(*cmpBr, f), 2, Fusion::CmpBr};
  }
  if (in.op == Opcode::Mul && f == kRI && n1 != nullptr &&
      n1->op == Opcode::Add && readsReg(n1->operands[1], in.dest)) {
    // Add(x, product): x is a register or an immediate, never the Add's
    // second immediate.
    const bool xReg = n1->operands[0].isReg();
    if (isOn(n2, Opcode::Load, n1->dest)) {
      return {xReg ? Slot::MulAddLoad_R : Slot::MulAddLoad_I, 3,
              Fusion::MulAddLoad};
    }
    return {xReg ? Slot::MulAdd_R : Slot::MulAdd_I, 2, Fusion::MulAdd};
  }
  const bool movesResult = isOn(n1, Opcode::Move, in.dest);
  if (in.op == Opcode::Add) {
    if (isOn(n1, Opcode::Load, in.dest)) {
      return {plus(Slot::AddLoad_RR, f), 2, Fusion::AddLoad};
    }
    if (movesResult && n2 != nullptr && n2->op == Opcode::Br) {
      return {plus(Slot::AddMoveBr_RR, f), 3, Fusion::AddMoveBr};
    }
  }
  if (movesResult) return {plus(base, 3 + f), 2, Fusion::OpMove};
  return {plus(base, f), 1, Fusion::None};
}

}  // namespace

ThreadedCode::Choice ThreadedCode::choose(const ir::BasicBlock& bb,
                                          std::size_t ip,
                                          std::size_t globalBytes) noexcept {
  const auto& instrs = bb.instrs;
  const ir::Instr& in = instrs[ip];
  // The k-th instruction after `in` in its block, or null.
  const auto next = [&](std::size_t k) -> const ir::Instr* {
    return ip + k < instrs.size() ? &instrs[ip + k] : nullptr;
  };
  const ir::Instr* const n1 = next(1);
  const Slot generic = genericSlot(in.op);
  const bool movesResult =
      in.dest != ir::kNoReg && isOn(n1, Opcode::Move, in.dest);

  if (const std::optional<Slot> base = formBase(in.op)) {
    const Form f = formOf(in);
    if (f == kII) return {generic, 1, Fusion::None};
    return chooseIntOp(in, f, *base, n1, next(2));
  }
  switch (in.op) {
    case Opcode::Move: {
      if (!in.operands[0].isReg()) return {Slot::Move_I, 1, Fusion::None};
      // A `for` latch: Move s <- i; Add t <- s, imm; Move i <- t; Br.
      const ir::Instr* const n2 = next(2);
      const ir::Instr* const n3 = next(3);
      if (isOn(n1, Opcode::Add, in.dest) && !n1->operands[1].isReg() &&
          isOn(n2, Opcode::Move, n1->dest) && n3 != nullptr &&
          n3->op == Opcode::Br) {
        return {Slot::MoveAddMoveBr, 4, Fusion::MoveAddMoveBr};
      }
      return {Slot::Move_R, 1, Fusion::None};
    }
    case Opcode::Load: {
      const ir::Operand& addr = in.operands[0];
      if (addr.isReg()) {
        return movesResult ? Choice{Slot::Mv_LoadR, 2, Fusion::OpMove}
                           : Choice{Slot::LoadR, 1, Fusion::None};
      }
      if (!resolvesGlobal(addr.imm, in.width, globalBytes)) {
        return {generic, 1, Fusion::None};
      }
      if (in.width == 8) {
        return movesResult ? Choice{Slot::Mv_LoadG8, 2, Fusion::OpMove}
                           : Choice{Slot::LoadG8, 1, Fusion::None};
      }
      return movesResult ? Choice{Slot::Mv_LoadG1, 2, Fusion::OpMove}
                         : Choice{Slot::LoadG1, 1, Fusion::None};
    }
    case Opcode::Store:
      if (!in.operands[0].isReg() && in.operands[1].isReg() &&
          resolvesGlobal(in.operands[0].imm, in.width, globalBytes)) {
        return {in.width == 8 ? Slot::StoreG8 : Slot::StoreG1, 1,
                Fusion::None};
      }
      return {generic, 1, Fusion::None};
    case Opcode::CondBr:
      return {in.operands[0].isReg() ? Slot::CondBr_R : generic, 1,
              Fusion::None};
    default: {
      const std::optional<Slot> twin = moveTwinSlot(in.op);
      if (movesResult && twin) return {*twin, 2, Fusion::OpMove};
      return {generic, 1, Fusion::None};
    }
  }
}

const char* ThreadedCode::slotName(Slot s) noexcept {
  static const char* const kNames[] = {
#define OB_NAME(name) #name,
      ONEBIT_VM_SLOTS(OB_NAME)
#undef OB_NAME
  };
  return kNames[static_cast<std::size_t>(s)];
}

std::shared_ptr<const ThreadedCode> ThreadedCode::decode(
    const ir::Module& mod) {
  // The label table is owned by the loop translation unit; null labels mean
  // the portable loop (switch over Op::handler) runs the stream instead.
  const void* const* labels = nullptr;
  detail::runThreadedLoop(nullptr, nullptr, &labels);
  const std::size_t globalBytes = mod.globalData.size();

  auto code = std::make_shared<ThreadedCode>();
  code->fns.reserve(mod.functions.size());
  for (const ir::Function& fn : mod.functions) {
    FnCode fc;
    fc.opBase = static_cast<std::uint32_t>(code->ops.size());
    fc.numRegs = fn.numRegs;
    fc.frameSize = (static_cast<std::uint64_t>(fn.frameBytes) + 7U) & ~7ULL;
    fc.blockStart.reserve(fn.blocks.size());
    std::uint32_t local = 0;
    for (const ir::BasicBlock& bb : fn.blocks) {
      fc.blockStart.push_back(local);
      local += static_cast<std::uint32_t>(bb.instrs.size());
    }
    for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
      const ir::BasicBlock& bb = fn.blocks[bi];
      const std::size_t blockBase = code->ops.size();
      for (const ir::Instr& in : bb.instrs) {
        if (in.operands.size() > kMaxOperands) {
          throw std::invalid_argument(
              "ThreadedCode::decode: instruction wider than ir::kMaxOperands "
              "(module did not pass ir::verify)");
        }
      }
      for (std::size_t ii = 0; ii < bb.instrs.size(); ++ii) {
        const ir::Instr& in = bb.instrs[ii];
        Op op;
        op.handler =
            static_cast<std::uint8_t>(choose(bb, ii, globalBytes).slot);
        if (labels != nullptr) op.label = labels[op.handler];
        op.dest = in.dest;
        op.nops = static_cast<std::uint8_t>(in.operands.size());
        bool anyReg = false;
        for (std::size_t i = 0; i < in.operands.size(); ++i) {
          const ir::Operand& o = in.operands[i];
          anyReg = anyReg || o.isReg();
          if (i >= 2) continue;
          if (o.isReg()) {
            op.reg[i] = o.reg;
          } else {
            op.imm[i] = o.imm;
          }
        }
        op.countsRead = anyReg ? 1 : 0;
        switch (in.op) {
          case Opcode::Br:
            op.target = fc.blockStart[in.target0];
            break;
          case Opcode::CondBr:
            op.target = fc.blockStart[in.target0];
            op.aux = fc.blockStart[in.target1];
            break;
          case Opcode::Call:
            op.aux = in.callee;
            op.argBase = static_cast<std::uint32_t>(code->args.size());
            for (const ir::Operand& o : in.operands) {
              code->args.push_back(
                  o.isReg() ? Arg{o.reg, 0} : Arg{ir::kNoReg, o.imm});
            }
            break;
          case Opcode::Load:
          case Opcode::Store: {
            op.aux = in.width;
            if (isGlobalSlot(static_cast<Slot>(op.handler))) {
              op.imm[0] = in.operands[0].imm - ir::kGlobalBase;
            }
            break;
          }
          case Opcode::Const:
            op.imm[0] = in.imm;
            break;
          case Opcode::FrameAddr:
            op.imm[0] = static_cast<std::uint64_t>(in.offset);
            break;
          case Opcode::Intrinsic:
            op.aux = static_cast<std::uint32_t>(in.intrinsic);
            break;
          case Opcode::Print:
            op.aux = static_cast<std::uint32_t>(in.printKind);
            break;
          default:
            break;
        }
        code->ops.push_back(op);
        code->coords.push_back({static_cast<std::uint32_t>(bi),
                                static_cast<std::uint32_t>(ii)});
      }
      // Segment totals, accumulated backwards from each segment's end.
      std::uint32_t instrs = 0;
      std::uint32_t reads = 0;
      std::uint32_t writes = 0;
      for (std::size_t ii = bb.instrs.size(); ii-- > 0;) {
        const ir::Instr& in = bb.instrs[ii];
        Op& op = code->ops[blockBase + ii];
        if (endsSegment(in.op)) instrs = reads = writes = 0;
        op.segInstrs = ++instrs;
        op.segReads = reads += op.countsRead;
        op.segWrites = writes += countsWrite(in);
      }
    }
    code->fns.push_back(std::move(fc));
  }
  return code;
}

}  // namespace onebit::vm
