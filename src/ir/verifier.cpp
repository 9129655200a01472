#include "ir/verifier.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

namespace onebit::ir {

namespace {

class Checker {
 public:
  explicit Checker(const Module& mod) : mod_(mod) {}

  std::vector<VerifyError> run() {
    if (mod_.functions.empty()) {
      fail("module has no functions");
      return errors_;
    }
    if (mod_.entry >= mod_.functions.size()) {
      fail("entry function index out of range");
    }
    for (std::size_t f = 0; f < mod_.functions.size(); ++f) checkFunction(f);
    return errors_;
  }

 private:
  void fail(const std::string& msg) { errors_.push_back({msg}); }

  void failAt(std::size_t f, std::size_t b, std::size_t i,
              const std::string& msg) {
    std::ostringstream out;
    out << mod_.functions[f].name << " block " << b << " instr " << i << ": "
        << msg;
    fail(out.str());
  }

  void checkFunction(std::size_t fi) {
    const Function& fn = mod_.functions[fi];
    if (fn.blocks.empty()) {
      fail(fn.name + ": function has no blocks");
      return;
    }
    if (fn.numParams > fn.numRegs) {
      fail(fn.name + ": numParams exceeds numRegs");
    }
    if (fn.frameBytes < 0) {
      fail(fn.name + ": negative frame size");
    }
    for (std::size_t bi = 0; bi < fn.blocks.size(); ++bi) {
      const BasicBlock& bb = fn.blocks[bi];
      if (bb.instrs.empty()) {
        failAt(fi, bi, 0, "empty basic block");
        continue;
      }
      for (std::size_t ii = 0; ii < bb.instrs.size(); ++ii) {
        checkInstr(fi, bi, ii);
        const bool last = (ii + 1 == bb.instrs.size());
        if (last != bb.instrs[ii].isTerminator()) {
          failAt(fi, bi, ii,
                 last ? "block does not end with a terminator"
                      : "terminator in the middle of a block");
        }
      }
    }
  }

  void checkInstr(std::size_t fi, std::size_t bi, std::size_t ii) {
    const Function& fn = mod_.functions[fi];
    const Instr& in = fn.blocks[bi].instrs[ii];

    if (in.operands.size() > kMaxOperands) {
      failAt(fi, bi, ii, "more than " + std::to_string(kMaxOperands) +
                             " operands");
    }
    const int arity = fixedOperandCount(in.op);
    if (arity >= 0 && in.operands.size() != static_cast<std::size_t>(arity)) {
      failAt(fi, bi, ii, "wrong operand count for " +
                             std::string(opcodeName(in.op)));
    }
    if (in.op == Opcode::Intrinsic) {
      const std::size_t want =
          (in.intrinsic == IntrinsicKind::Pow ||
           in.intrinsic == IntrinsicKind::Atan2)
              ? 2
              : 1;
      if (in.operands.size() != want) {
        failAt(fi, bi, ii, "wrong operand count for intrinsic");
      }
    }
    if (in.op == Opcode::Ret) {
      const bool wantValue = fn.returnType != Type::Void;
      if (in.operands.size() != (wantValue ? 1U : 0U)) {
        failAt(fi, bi, ii, "ret operand count does not match return type");
      }
    }
    if (!opcodeHasDest(in.op) && in.dest != kNoReg) {
      failAt(fi, bi, ii, "opcode must not have a destination");
    }
    if (opcodeHasDest(in.op) && in.op != Opcode::Call && in.dest == kNoReg) {
      failAt(fi, bi, ii, "opcode requires a destination register");
    }
    if (in.dest != kNoReg && in.dest >= fn.numRegs) {
      failAt(fi, bi, ii, "destination register out of range");
    }
    for (const auto& op : in.operands) {
      if (op.isReg() && op.reg >= fn.numRegs) {
        failAt(fi, bi, ii, "operand register out of range");
      }
    }
    if (in.op == Opcode::Br || in.op == Opcode::CondBr) {
      if (in.target0 >= fn.blocks.size()) {
        failAt(fi, bi, ii, "branch target0 out of range");
      }
      if (in.op == Opcode::CondBr && in.target1 >= fn.blocks.size()) {
        failAt(fi, bi, ii, "branch target1 out of range");
      }
    }
    if (in.op == Opcode::Call) {
      if (in.callee >= mod_.functions.size()) {
        failAt(fi, bi, ii, "call target out of range");
        return;
      }
      const Function& callee = mod_.functions[in.callee];
      if (in.operands.size() != callee.numParams) {
        failAt(fi, bi, ii, "call argument count mismatch for " + callee.name);
      }
      if (callee.returnType == Type::Void && in.dest != kNoReg) {
        failAt(fi, bi, ii, "void call must not have a destination");
      }
    }
    if ((in.op == Opcode::Load || in.op == Opcode::Store) && in.width != 1 &&
        in.width != 8) {
      failAt(fi, bi, ii, "load/store width must be 1 or 8");
    }
  }

  const Module& mod_;
  std::vector<VerifyError> errors_;
};

}  // namespace

std::vector<VerifyError> verify(const Module& mod) {
  return Checker(mod).run();
}

void verifyOrThrow(const Module& mod) {
  const auto errors = verify(mod);
  if (errors.empty()) return;
  std::ostringstream out;
  out << "IR verification failed:\n";
  for (const auto& e : errors) out << "  " << e.message << '\n';
  throw std::runtime_error(out.str());
}

}  // namespace onebit::ir
