#include "vm/threaded.hpp"

#include <mutex>
#include <unordered_map>

#include "util/rng.hpp"

namespace onebit::vm {

namespace {

std::uint64_t hashInstr(std::uint64_t h, const ir::Instr& in) noexcept {
  using util::hashCombine;
  h = hashCombine(h, static_cast<std::uint64_t>(in.op) |
                         (static_cast<std::uint64_t>(in.type) << 8) |
                         (static_cast<std::uint64_t>(in.intrinsic) << 16) |
                         (static_cast<std::uint64_t>(in.printKind) << 24));
  h = hashCombine(h, (static_cast<std::uint64_t>(in.dest) << 32) | in.width);
  h = hashCombine(h, (static_cast<std::uint64_t>(in.target0) << 32) |
                         in.target1);
  h = hashCombine(h, in.callee);
  h = hashCombine(h, static_cast<std::uint64_t>(in.offset));
  h = hashCombine(h, in.imm);
  h = hashCombine(h, in.operands.size());
  for (const ir::Operand& o : in.operands) {
    h = hashCombine(h, o.isReg() ? (1ULL << 32) | o.reg : 0ULL);
    h = hashCombine(h, o.isReg() ? 0ULL : o.imm);
  }
  return h;
}

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

/// Decode `mod` into a fresh stream, or nullptr for unsupported shapes.
std::shared_ptr<const ThreadedCode> build(const ir::Module& mod,
                                          std::uint64_t fingerprint) {
  // The label table is owned by the loop translation unit; null labels mean
  // the portable loop (switch over Op::handler) runs the stream instead.
  const void* const* labels = nullptr;
  detail::runThreadedLoop(nullptr, nullptr, &labels);

  auto code = std::make_shared<ThreadedCode>();
  code->fingerprint = fingerprint;
  code->fns.reserve(mod.functions.size());
  for (const ir::Function& fn : mod.functions) {
    ThreadedCode::FnCode fc;
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
        if (in.operands.size() > ThreadedCode::kMaxOperands) return nullptr;
        ThreadedCode::Op op;
        op.handler = static_cast<std::uint8_t>(in.op);
        if (ThreadedCode::fusesMove(in.op) && ii + 1 < bb.instrs.size()) {
          const ir::Instr& next = bb.instrs[ii + 1];
          if (next.op == ir::Opcode::Move && next.operands.size() == 1 &&
              next.operands[0].isReg() && next.operands[0].reg == in.dest) {
            op.handler += ThreadedCode::kNumOpcodes;
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
          ThreadedCode::Arg a;
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
        ThreadedCode::Op& op = code->ops[blockBase + ii];
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

}  // namespace

std::uint64_t ThreadedCode::structuralFingerprint(
    const ir::Module& mod) noexcept {
  using util::hashCombine;
  std::uint64_t h = hashCombine(0x7468726561646564ULL, mod.entry);
  h = hashCombine(h, mod.functions.size());
  for (const ir::Function& fn : mod.functions) {
    h = hashCombine(h, (static_cast<std::uint64_t>(fn.numParams) << 32) |
                           fn.numRegs);
    h = hashCombine(h, static_cast<std::uint64_t>(fn.frameBytes));
    h = hashCombine(h, fn.blocks.size());
    for (const ir::BasicBlock& bb : fn.blocks) {
      h = hashCombine(h, bb.instrs.size());
      for (const ir::Instr& in : bb.instrs) h = hashInstr(h, in);
    }
  }
  return h;
}

std::shared_ptr<const ThreadedCode> ThreadedCode::get(const ir::Module& mod) {
  // Address-keyed registry, fingerprint-validated: a module destroyed and
  // another constructed at the same address gets a fresh decode (equal
  // fingerprints would mean the decode is bit-identical anyway). Unsupported
  // modules are cached as null so repeat callers skip the rebuild attempt.
  static std::mutex mu;
  static std::unordered_map<const ir::Module*,
                            std::pair<std::uint64_t,
                                      std::shared_ptr<const ThreadedCode>>>
      registry;
  constexpr std::size_t kMaxEntries = 256;

  const std::uint64_t fp = structuralFingerprint(mod);
  {
    const std::lock_guard<std::mutex> lock(mu);
    auto it = registry.find(&mod);
    if (it != registry.end() && it->second.first == fp) {
      return it->second.second;
    }
  }
  std::shared_ptr<const ThreadedCode> built = build(mod, fp);
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = registry[&mod];
  if (slot.first != fp || (slot.second == nullptr) != (built == nullptr)) {
    slot = {fp, built};
  }
  if (registry.size() > kMaxEntries) {
    // Generation flush: drop everything but the entry just used. Decoding is
    // cheap relative to the campaigns that reach this size, and a bound on
    // the registry beats an LRU's bookkeeping here.
    auto keep = *registry.find(&mod);
    registry.clear();
    registry.insert(keep);
  }
  return slot.second;
}

}  // namespace onebit::vm
