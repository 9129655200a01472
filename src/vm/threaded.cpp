#include "vm/threaded.hpp"

#include <stdexcept>

namespace onebit::vm {

namespace {

/// True for the Ops after which control may leave straight-line order.
bool endsSegment(ir::Opcode op) noexcept {
  return op == ir::Opcode::Br || op == ir::Opcode::CondBr ||
         op == ir::Opcode::Ret || op == ir::Opcode::Call;
}

/// Mirrors the reference loop's write-candidate gate: dest writes count
/// except for Const/FrameAddr (immediate materialization) — and Call, whose
/// return-value write is counted at Ret.
std::uint32_t countsWrite(const ir::Instr& in) noexcept {
  return in.dest != ir::kNoReg && in.op != ir::Opcode::Const &&
                 in.op != ir::Opcode::FrameAddr && in.op != ir::Opcode::Call
             ? 1
             : 0;
}

}  // namespace

std::shared_ptr<const ThreadedCode> ThreadedCode::decode(
    const ir::Module& mod) {
  // The label table is owned by the loop translation unit; null labels mean
  // the portable loop (switch over Op::handler) runs the stream instead.
  const void* const* labels = nullptr;
  detail::runThreadedLoop(nullptr, nullptr, &labels);

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
      for (std::size_t ii = 0; ii < bb.instrs.size(); ++ii) {
        const ir::Instr& in = bb.instrs[ii];
        if (in.operands.size() > kMaxOperands) {
          throw std::invalid_argument(
              "ThreadedCode::decode: instruction wider than ir::kMaxOperands "
              "(module did not pass ir::verify)");
        }
        Op op;
        op.handler = static_cast<std::uint8_t>(in.op);
        if (fusesMove(in.op) && ii + 1 < bb.instrs.size()) {
          const ir::Instr& next = bb.instrs[ii + 1];
          if (next.op == ir::Opcode::Move && next.operands.size() == 1 &&
              next.operands[0].isReg() && next.operands[0].reg == in.dest) {
            op.handler += kNumOpcodes;
          }
        }
        if (labels != nullptr) op.label = labels[op.handler];
        op.block = static_cast<std::uint32_t>(bi);
        op.ip = static_cast<std::uint32_t>(ii);
        op.dest = in.dest;
        op.nops = static_cast<std::uint8_t>(in.operands.size());
        op.argBase = static_cast<std::uint32_t>(code->args.size());
        bool anyReg = false;
        for (const ir::Operand& o : in.operands) {
          Arg a;
          if (o.isReg()) {
            a.reg = o.reg;
            anyReg = true;
          } else {
            a.imm = o.imm;
          }
          code->args.push_back(a);
        }
        op.countsRead = anyReg ? 1 : 0;
        switch (in.op) {
          case ir::Opcode::Br:
            op.target = fc.blockStart[in.target0];
            break;
          case ir::Opcode::CondBr:
            op.target = fc.blockStart[in.target0];
            op.aux = fc.blockStart[in.target1];
            break;
          case ir::Opcode::Call:
            op.aux = in.callee;
            break;
          case ir::Opcode::Load:
          case ir::Opcode::Store:
            op.aux = in.width;
            break;
          case ir::Opcode::Const:
            op.imm = in.imm;
            break;
          case ir::Opcode::FrameAddr:
            op.imm = static_cast<std::uint64_t>(in.offset);
            break;
          case ir::Opcode::Intrinsic:
            op.intrinsic = in.intrinsic;
            break;
          case ir::Opcode::Print:
            op.printKind = in.printKind;
            break;
          default:
            break;
        }
        code->ops.push_back(op);
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
