// Unit tests for src/ir: types, builder, verifier, printer — and the
// threaded decoder's refusal of what the verifier rejects.
#include <cstring>
#include <stdexcept>

#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/printer.hpp"
#include "ir/verifier.hpp"
#include "vm/threaded.hpp"

namespace onebit::ir {
namespace {

TEST(Type, Widths) {
  EXPECT_EQ(bitWidth(Type::Void), 0u);
  EXPECT_EQ(bitWidth(Type::I64), 64u);
  EXPECT_EQ(bitWidth(Type::F64), 64u);
}

TEST(Type, F64RoundTrip) {
  for (const double d : {0.0, 1.5, -3.25, 1e300, -1e-300}) {
    EXPECT_EQ(asF64(fromF64(d)), d);
  }
}

TEST(Type, I64RoundTrip) {
  for (const std::int64_t v : std::initializer_list<std::int64_t>{0, 1, -1, INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(asI64(fromI64(v)), v);
  }
}

TEST(Type, Names) {
  EXPECT_EQ(typeName(Type::I64), "i64");
  EXPECT_EQ(typeName(Type::F64), "f64");
  EXPECT_EQ(typeName(Type::Void), "void");
}

TEST(Instr, RegOperandCount) {
  Instr in;
  in.operands = {Operand::makeReg(1), Operand::makeImm(5),
                 Operand::makeReg(2)};
  EXPECT_EQ(in.regOperandCount(), 2u);
}

TEST(Instr, TerminatorDetection) {
  Instr in;
  in.op = Opcode::Br;
  EXPECT_TRUE(in.isTerminator());
  in.op = Opcode::CondBr;
  EXPECT_TRUE(in.isTerminator());
  in.op = Opcode::Ret;
  EXPECT_TRUE(in.isTerminator());
  in.op = Opcode::Add;
  EXPECT_FALSE(in.isTerminator());
}

class OpcodeNames : public ::testing::TestWithParam<Opcode> {};

TEST_P(OpcodeNames, EveryOpcodeHasAName) {
  EXPECT_NE(opcodeName(GetParam()), "?");
}

INSTANTIATE_TEST_SUITE_P(
    All, OpcodeNames,
    ::testing::Values(Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::SDiv,
                      Opcode::SRem, Opcode::And, Opcode::Or, Opcode::Xor,
                      Opcode::Shl, Opcode::LShr, Opcode::AShr, Opcode::FAdd,
                      Opcode::FSub, Opcode::FMul, Opcode::FDiv,
                      Opcode::ICmpEq, Opcode::ICmpNe, Opcode::ICmpLt,
                      Opcode::ICmpLe, Opcode::ICmpGt, Opcode::ICmpGe,
                      Opcode::FCmpEq, Opcode::FCmpNe, Opcode::FCmpLt,
                      Opcode::FCmpLe, Opcode::FCmpGt, Opcode::FCmpGe,
                      Opcode::SIToFP, Opcode::FPToSI, Opcode::Load,
                      Opcode::Store, Opcode::FrameAddr, Opcode::Br,
                      Opcode::CondBr, Opcode::Call, Opcode::Ret, Opcode::Const,
                      Opcode::Move, Opcode::Intrinsic, Opcode::Print,
                      Opcode::Alloc, Opcode::Abort));

// --- builder ------------------------------------------------------------------

/// Minimal valid module: main() { return 7; }
Module tinyModule() {
  Module mod;
  IRBuilder b(mod);
  b.createFunction("main", Type::I64, 0);
  const auto entry = b.createBlock("entry");
  b.setInsertBlock(entry);
  b.emitRet(Operand::makeImm(7));
  mod.entry = 0;
  return mod;
}

TEST(Builder, TinyModuleVerifies) {
  const Module mod = tinyModule();
  EXPECT_TRUE(verify(mod).empty());
}

TEST(Builder, FrameAllocationAligns) {
  Module mod;
  IRBuilder b(mod);
  b.createFunction("main", Type::Void, 0);
  EXPECT_EQ(b.allocFrame(3), 0);
  EXPECT_EQ(b.allocFrame(8), 8);   // padded to the next 8-byte boundary
  EXPECT_EQ(b.allocFrame(1), 16);
  EXPECT_EQ(mod.functions[0].frameBytes, 17);
}

TEST(Builder, GlobalDataAddressesAreAligned) {
  Module mod;
  IRBuilder b(mod);
  const std::uint64_t a = b.addGlobalBytes({1, 2, 3});
  const std::uint64_t c = b.addGlobalI64({10, 20});
  EXPECT_EQ(a, kGlobalBase);
  EXPECT_EQ(c % 8, 0u);
  EXPECT_GT(c, a);
}

TEST(Builder, GlobalI64RoundTrip) {
  Module mod;
  IRBuilder b(mod);
  const std::uint64_t addr = b.addGlobalI64({-5, 123456789});
  const std::size_t off = addr - kGlobalBase;
  std::int64_t v0;
  std::memcpy(&v0, mod.globalData.data() + off, 8);
  EXPECT_EQ(v0, -5);
}

TEST(Builder, GlobalF64RoundTrip) {
  Module mod;
  IRBuilder b(mod);
  const std::uint64_t addr = b.addGlobalF64({2.5});
  double v;
  std::memcpy(&v, mod.globalData.data() + (addr - kGlobalBase), 8);
  EXPECT_EQ(v, 2.5);
}

TEST(Builder, NewRegAdvances) {
  Module mod;
  IRBuilder b(mod);
  b.createFunction("f", Type::Void, 2);
  EXPECT_EQ(b.newReg(), 2u);  // params take registers 0 and 1
  EXPECT_EQ(b.newReg(), 3u);
}

TEST(Builder, CallToVoidFunctionHasNoDest) {
  Module mod;
  IRBuilder b(mod);
  const auto calleeId = b.createFunction("callee", Type::Void, 0);
  auto bb = b.createBlock("entry");
  b.setInsertBlock(bb);
  b.emitRetVoid();
  b.createFunction("main", Type::I64, 0);
  bb = b.createBlock("entry");
  b.setInsertBlock(bb);
  const Reg r = b.emitCall(calleeId, {}, Type::Void);
  EXPECT_EQ(r, kNoReg);
  b.emitRet(Operand::makeImm(0));
  mod.entry = 1;
  EXPECT_TRUE(verify(mod).empty());
}

// --- verifier -----------------------------------------------------------------

TEST(Verifier, EmptyModuleFails) {
  Module mod;
  EXPECT_FALSE(verify(mod).empty());
}

TEST(Verifier, BadEntryIndexFails) {
  Module mod = tinyModule();
  mod.entry = 5;
  EXPECT_FALSE(verify(mod).empty());
}

TEST(Verifier, EmptyBlockFails) {
  Module mod = tinyModule();
  mod.functions[0].blocks.push_back({"empty", {}});
  EXPECT_FALSE(verify(mod).empty());
}

TEST(Verifier, MissingTerminatorFails) {
  Module mod = tinyModule();
  Instr add;
  add.op = Opcode::Add;
  add.type = Type::I64;
  add.dest = 0;
  add.operands = {Operand::makeImm(1), Operand::makeImm(2)};
  mod.functions[0].numRegs = 1;
  mod.functions[0].blocks[0].instrs = {add};  // no terminator
  EXPECT_FALSE(verify(mod).empty());
}

TEST(Verifier, TerminatorMidBlockFails) {
  Module mod = tinyModule();
  Instr ret;
  ret.op = Opcode::Ret;
  ret.operands = {Operand::makeImm(0)};
  auto& instrs = mod.functions[0].blocks[0].instrs;
  instrs.insert(instrs.begin(), ret);
  EXPECT_FALSE(verify(mod).empty());
}

TEST(Verifier, WrongArityFails) {
  Module mod = tinyModule();
  Instr add;
  add.op = Opcode::Add;
  add.type = Type::I64;
  add.dest = 0;
  add.operands = {Operand::makeImm(1)};  // needs two
  mod.functions[0].numRegs = 1;
  auto& instrs = mod.functions[0].blocks[0].instrs;
  instrs.insert(instrs.begin(), add);
  EXPECT_FALSE(verify(mod).empty());
}

TEST(Verifier, OutOfRangeRegisterFails) {
  Module mod = tinyModule();
  Instr mv;
  mv.op = Opcode::Move;
  mv.type = Type::I64;
  mv.dest = 100;  // function has no registers
  mv.operands = {Operand::makeImm(0)};
  auto& instrs = mod.functions[0].blocks[0].instrs;
  instrs.insert(instrs.begin(), mv);
  EXPECT_FALSE(verify(mod).empty());
}

TEST(Verifier, OutOfRangeBranchTargetFails) {
  Module mod = tinyModule();
  Instr br;
  br.op = Opcode::Br;
  br.target0 = 42;
  mod.functions[0].blocks[0].instrs = {br};
  EXPECT_FALSE(verify(mod).empty());
}

TEST(Verifier, BadCallTargetFails) {
  Module mod = tinyModule();
  Instr call;
  call.op = Opcode::Call;
  call.callee = 9;
  call.dest = kNoReg;
  auto& instrs = mod.functions[0].blocks[0].instrs;
  instrs.insert(instrs.begin(), call);
  EXPECT_FALSE(verify(mod).empty());
}

TEST(Verifier, CallArgCountMismatchFails) {
  Module mod;
  IRBuilder b(mod);
  const auto f = b.createFunction("f", Type::Void, 2);
  auto bb = b.createBlock("entry");
  b.setInsertBlock(bb);
  b.emitRetVoid();
  b.createFunction("main", Type::I64, 0);
  bb = b.createBlock("entry");
  b.setInsertBlock(bb);
  b.emitCall(f, {Operand::makeImm(1)}, Type::Void);  // needs 2 args
  b.emitRet(Operand::makeImm(0));
  mod.entry = 1;
  EXPECT_FALSE(verify(mod).empty());
}

/// `main` calling a `params`-argument void function.
Module callWithParams(std::uint32_t params) {
  Module mod;
  IRBuilder b(mod);
  const auto f = b.createFunction("f", Type::Void, params);
  auto bb = b.createBlock("entry");
  b.setInsertBlock(bb);
  b.emitRetVoid();
  b.createFunction("main", Type::I64, 0);
  bb = b.createBlock("entry");
  b.setInsertBlock(bb);
  b.emitCall(f, std::vector<Operand>(params, Operand::makeImm(1)),
             Type::Void);
  b.emitRet(Operand::makeImm(0));
  mod.entry = 1;
  return mod;
}

TEST(Verifier, CallWiderThanOperandSlotsFails) {
  // A well-matched call is still rejected past ir::kMaxOperands operands:
  // both interpreter loops gather operands into that many slots.
  for (const std::uint32_t params : {8U, 10U}) {
    const Module mod = callWithParams(params);
    const auto errors = verify(mod);
    if (params <= kMaxOperands) {
      EXPECT_TRUE(errors.empty()) << params;
    } else {
      ASSERT_EQ(errors.size(), 1U) << params;
      EXPECT_NE(errors[0].message.find("more than 8 operands"),
                std::string::npos)
          << errors[0].message;
    }
  }
}

TEST(ThreadedDecode, ThrowsOnACallWiderThanOperandSlots) {
  // The decoder is total over verified modules; the one shape the verifier
  // rejects for operand width is a typed error, never a null stream.
  EXPECT_NE(vm::ThreadedCode::decode(callWithParams(kMaxOperands)), nullptr);
  EXPECT_THROW((void)vm::ThreadedCode::decode(callWithParams(kMaxOperands + 1)),
               std::invalid_argument);
}

TEST(Verifier, BadLoadWidthFails) {
  Module mod = tinyModule();
  Instr ld;
  ld.op = Opcode::Load;
  ld.type = Type::I64;
  ld.dest = 0;
  ld.width = 4;  // only 1 and 8 allowed
  ld.operands = {Operand::makeImm(kGlobalBase)};
  mod.functions[0].numRegs = 1;
  auto& instrs = mod.functions[0].blocks[0].instrs;
  instrs.insert(instrs.begin(), ld);
  EXPECT_FALSE(verify(mod).empty());
}

TEST(Verifier, RetValueInVoidFunctionFails) {
  Module mod;
  IRBuilder b(mod);
  b.createFunction("main", Type::Void, 0);
  const auto bb = b.createBlock("entry");
  b.setInsertBlock(bb);
  b.emitRet(Operand::makeImm(1));  // void function returning a value
  EXPECT_FALSE(verify(mod).empty());
}

TEST(Verifier, VerifyOrThrowThrowsWithMessage) {
  Module mod;
  EXPECT_THROW(verifyOrThrow(mod), std::runtime_error);
}

TEST(Verifier, VerifyOrThrowPassesValidModule) {
  const Module mod = tinyModule();
  EXPECT_NO_THROW(verifyOrThrow(mod));
}

// --- printer ------------------------------------------------------------------

TEST(Printer, ContainsFunctionAndOpcodeNames) {
  const Module mod = tinyModule();
  const std::string text = printModule(mod);
  EXPECT_NE(text.find("main"), std::string::npos);
  EXPECT_NE(text.find("ret"), std::string::npos);
  EXPECT_NE(text.find("entry"), std::string::npos);
}

TEST(Printer, ShowsRegistersAndImmediates) {
  Module mod;
  IRBuilder b(mod);
  b.createFunction("main", Type::I64, 0);
  const auto bb = b.createBlock("entry");
  b.setInsertBlock(bb);
  const Reg c = b.emitConstI(42);
  const Reg d = b.emitBin(Opcode::Add, Operand::makeReg(c),
                          Operand::makeImm(8), Type::I64);
  b.emitRet(Operand::makeReg(d));
  const std::string text = printFunction(mod.functions[0]);
  EXPECT_NE(text.find("const 42"), std::string::npos);
  EXPECT_NE(text.find("%r0"), std::string::npos);
  EXPECT_NE(text.find("add"), std::string::npos);
}

}  // namespace
}  // namespace onebit::ir
