// Unit tests for src/vm: memory, traps, interpreter semantics, hooks.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/verifier.hpp"
#include "vm/interpreter.hpp"
#include "vm/memory.hpp"
#include "vm/snapshot.hpp"

namespace onebit::vm {
namespace {

using ir::IRBuilder;
using ir::kGlobalBase;
using ir::kHeapBase;
using ir::kStackBase;
using ir::Module;
using ir::Opcode;
using ir::Operand;
using ir::Type;

/// main() { return <op>(a, b); } for integer operands.
Module binModule(Opcode op, std::uint64_t a, std::uint64_t b,
                 Type t = Type::I64) {
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  const auto r = bld.emitBin(op, Operand::makeImm(a), Operand::makeImm(b), t);
  bld.emitRet(Operand::makeReg(r));
  ir::verifyOrThrow(mod);
  return mod;
}

std::int64_t evalI(Opcode op, std::int64_t a, std::int64_t b) {
  const Module mod = binModule(op, ir::fromI64(a), ir::fromI64(b));
  const ExecResult r = execute(mod);
  EXPECT_EQ(r.status, ExecStatus::Ok);
  return r.returnValue;
}

double evalF(Opcode op, double a, double b) {
  const Module mod =
      binModule(op, ir::fromF64(a), ir::fromF64(b), Type::F64);
  const ExecResult r = execute(mod);
  EXPECT_EQ(r.status, ExecStatus::Ok);
  return ir::asF64(ir::fromI64(r.returnValue));
}

// --- integer semantics ---------------------------------------------------------

TEST(Semantics, IntegerArithmetic) {
  EXPECT_EQ(evalI(Opcode::Add, 40, 2), 42);
  EXPECT_EQ(evalI(Opcode::Sub, 10, 15), -5);
  EXPECT_EQ(evalI(Opcode::Mul, -6, 7), -42);
  EXPECT_EQ(evalI(Opcode::SDiv, 42, 5), 8);
  EXPECT_EQ(evalI(Opcode::SDiv, -42, 5), -8);  // C-style truncation
  EXPECT_EQ(evalI(Opcode::SRem, 42, 5), 2);
  EXPECT_EQ(evalI(Opcode::SRem, -42, 5), -2);
}

TEST(Semantics, Bitwise) {
  EXPECT_EQ(evalI(Opcode::And, 0b1100, 0b1010), 0b1000);
  EXPECT_EQ(evalI(Opcode::Or, 0b1100, 0b1010), 0b1110);
  EXPECT_EQ(evalI(Opcode::Xor, 0b1100, 0b1010), 0b0110);
}

TEST(Semantics, Shifts) {
  EXPECT_EQ(evalI(Opcode::Shl, 1, 10), 1024);
  EXPECT_EQ(evalI(Opcode::AShr, -16, 2), -4);
  const Module mod = binModule(Opcode::LShr, ~0ULL, ir::fromI64(60));
  EXPECT_EQ(execute(mod).returnValue, 15);
}

TEST(Semantics, ShiftAmountIsMasked) {
  // Shifting by 64+n behaves as shifting by n (no UB).
  EXPECT_EQ(evalI(Opcode::Shl, 1, 64), 1);
  EXPECT_EQ(evalI(Opcode::Shl, 1, 65), 2);
}

TEST(Semantics, DivisionByZeroTraps) {
  const Module mod = binModule(Opcode::SDiv, 1, 0);
  const ExecResult r = execute(mod);
  EXPECT_EQ(r.status, ExecStatus::Trapped);
  EXPECT_EQ(r.trap, TrapKind::DivByZero);
}

TEST(Semantics, RemainderByZeroTraps) {
  const Module mod = binModule(Opcode::SRem, 1, 0);
  EXPECT_EQ(execute(mod).trap, TrapKind::DivByZero);
}

TEST(Semantics, Int64MinDividedByMinusOneIsDefined) {
  EXPECT_EQ(evalI(Opcode::SDiv, INT64_MIN, -1), INT64_MIN);  // wraps
  EXPECT_EQ(evalI(Opcode::SRem, INT64_MIN, -1), 0);
}

TEST(Semantics, IntegerComparisons) {
  EXPECT_EQ(evalI(Opcode::ICmpEq, 3, 3), 1);
  EXPECT_EQ(evalI(Opcode::ICmpNe, 3, 3), 0);
  EXPECT_EQ(evalI(Opcode::ICmpLt, -5, 3), 1);
  EXPECT_EQ(evalI(Opcode::ICmpLe, 3, 3), 1);
  EXPECT_EQ(evalI(Opcode::ICmpGt, 3, -5), 1);
  EXPECT_EQ(evalI(Opcode::ICmpGe, 2, 3), 0);
}

// --- float semantics -----------------------------------------------------------

TEST(Semantics, FloatArithmetic) {
  EXPECT_DOUBLE_EQ(evalF(Opcode::FAdd, 1.5, 2.25), 3.75);
  EXPECT_DOUBLE_EQ(evalF(Opcode::FSub, 1.0, 0.25), 0.75);
  EXPECT_DOUBLE_EQ(evalF(Opcode::FMul, 3.0, -0.5), -1.5);
  EXPECT_DOUBLE_EQ(evalF(Opcode::FDiv, 1.0, 4.0), 0.25);
}

TEST(Semantics, FloatDivisionByZeroDoesNotTrap) {
  const double inf = evalF(Opcode::FDiv, 1.0, 0.0);
  EXPECT_TRUE(std::isinf(inf));
}

TEST(Semantics, FloatComparisons) {
  const Module mod = binModule(Opcode::FCmpLt, ir::fromF64(1.0),
                               ir::fromF64(2.0), Type::I64);
  EXPECT_EQ(execute(mod).returnValue, 1);
}

TEST(Semantics, NaNComparesUnequal) {
  const double nan = std::nan("");
  const Module eq = binModule(Opcode::FCmpEq, ir::fromF64(nan),
                              ir::fromF64(nan), Type::I64);
  EXPECT_EQ(execute(eq).returnValue, 0);
  const Module ne = binModule(Opcode::FCmpNe, ir::fromF64(nan),
                              ir::fromF64(nan), Type::I64);
  EXPECT_EQ(execute(ne).returnValue, 1);
}

// --- conversions ----------------------------------------------------------------

Module unModule(Opcode op, std::uint64_t a, Type t) {
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  const auto r = bld.emitUn(op, Operand::makeImm(a), t);
  bld.emitRet(Operand::makeReg(r));
  ir::verifyOrThrow(mod);
  return mod;
}

TEST(Semantics, SIToFP) {
  const Module mod = unModule(Opcode::SIToFP, ir::fromI64(-3), Type::F64);
  EXPECT_DOUBLE_EQ(ir::asF64(ir::fromI64(execute(mod).returnValue)), -3.0);
}

TEST(Semantics, FPToSITruncates) {
  const Module mod = unModule(Opcode::FPToSI, ir::fromF64(-2.9), Type::I64);
  EXPECT_EQ(execute(mod).returnValue, -2);
}

TEST(Semantics, FPToSISaturates) {
  const Module hi = unModule(Opcode::FPToSI, ir::fromF64(1e30), Type::I64);
  EXPECT_EQ(execute(hi).returnValue, INT64_MAX);
  const Module lo = unModule(Opcode::FPToSI, ir::fromF64(-1e30), Type::I64);
  EXPECT_EQ(execute(lo).returnValue, INT64_MIN);
}

TEST(Semantics, FPToSIOnNaNIsZero) {
  const Module mod =
      unModule(Opcode::FPToSI, ir::fromF64(std::nan("")), Type::I64);
  EXPECT_EQ(execute(mod).returnValue, 0);
}

// --- memory ---------------------------------------------------------------------

TEST(Memory, GlobalLoadStoreRoundTrip) {
  Module mod;
  IRBuilder bld(mod);
  const std::uint64_t addr = bld.addGlobalI64({0});
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  bld.emitStore(Operand::makeImm(addr), Operand::makeImm(777), 8);
  const auto v = bld.emitLoad(Operand::makeImm(addr), 8, Type::I64);
  bld.emitRet(Operand::makeReg(v));
  ir::verifyOrThrow(mod);
  EXPECT_EQ(execute(mod).returnValue, 777);
}

TEST(Memory, ByteLoadZeroExtends) {
  Module mod;
  IRBuilder bld(mod);
  const std::uint64_t addr = bld.addGlobalBytes({0xff});
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  const auto v = bld.emitLoad(Operand::makeImm(addr), 1, Type::I64);
  bld.emitRet(Operand::makeReg(v));
  EXPECT_EQ(execute(mod).returnValue, 255);
}

TEST(Memory, ByteStoreTruncates) {
  Module mod;
  IRBuilder bld(mod);
  const std::uint64_t addr = bld.addGlobalBytes({0, 0});
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  bld.emitStore(Operand::makeImm(addr), Operand::makeImm(0x1234), 1);
  const auto v = bld.emitLoad(Operand::makeImm(addr), 1, Type::I64);
  bld.emitRet(Operand::makeReg(v));
  EXPECT_EQ(execute(mod).returnValue, 0x34);
}

TEST(Memory, NullAccessSegfaults) {
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  const auto v = bld.emitLoad(Operand::makeImm(0), 8, Type::I64);
  bld.emitRet(Operand::makeReg(v));
  const ExecResult r = execute(mod);
  EXPECT_EQ(r.status, ExecStatus::Trapped);
  EXPECT_EQ(r.trap, TrapKind::SegFault);
}

TEST(Memory, OutOfSegmentAccessSegfaults) {
  Module mod;
  IRBuilder bld(mod);
  bld.addGlobalI64({1});
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  const auto v =
      bld.emitLoad(Operand::makeImm(kGlobalBase + 8), 8, Type::I64);
  bld.emitRet(Operand::makeReg(v));
  EXPECT_EQ(execute(mod).trap, TrapKind::SegFault);
}

TEST(Memory, MisalignedEightByteAccessTraps) {
  Module mod;
  IRBuilder bld(mod);
  bld.addGlobalI64({1, 2});
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  const auto v =
      bld.emitLoad(Operand::makeImm(kGlobalBase + 3), 8, Type::I64);
  bld.emitRet(Operand::makeReg(v));
  EXPECT_EQ(execute(mod).trap, TrapKind::Misaligned);
}

TEST(Memory, MisalignedByteAccessIsFine) {
  Module mod;
  IRBuilder bld(mod);
  bld.addGlobalBytes({10, 20, 30});
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  const auto v = bld.emitLoad(Operand::makeImm(kGlobalBase + 1), 1, Type::I64);
  bld.emitRet(Operand::makeReg(v));
  EXPECT_EQ(execute(mod).returnValue, 20);
}

TEST(Memory, FrameAddressesAreWritable) {
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto off = bld.allocFrame(16);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  const auto base = bld.emitFrameAddr(off);
  bld.emitStore(Operand::makeReg(base), Operand::makeImm(55), 8);
  const auto v = bld.emitLoad(Operand::makeReg(base), 8, Type::I64);
  bld.emitRet(Operand::makeReg(v));
  ir::verifyOrThrow(mod);
  EXPECT_EQ(execute(mod).returnValue, 55);
}

TEST(Memory, HeapAllocZeroInitialized) {
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  const auto p = bld.emitAlloc(Operand::makeImm(64));
  const auto v = bld.emitLoad(Operand::makeReg(p), 8, Type::I64);
  bld.emitRet(Operand::makeReg(v));
  EXPECT_EQ(execute(mod).returnValue, 0);
}

TEST(Memory, HeapExhaustionTraps) {
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  const auto p = bld.emitAlloc(Operand::makeImm(1LL << 40));
  bld.emitRet(Operand::makeReg(p));
  EXPECT_EQ(execute(mod).trap, TrapKind::SegFault);
}

TEST(Memory, HeapBudgetCountsAlignmentPadding) {
  // alloc(5) pads the heap to 8 bytes, so 59 more would need 67 of 64.
  Memory mem({}, 4096, 64);
  TrapKind trap = TrapKind::None;
  EXPECT_EQ(mem.alloc(5, trap), kHeapBase);
  EXPECT_EQ(mem.alloc(59, trap), 0u);
  EXPECT_EQ(trap, TrapKind::SegFault);
  trap = TrapKind::None;
  EXPECT_EQ(mem.alloc(56, trap), kHeapBase + 8);
  EXPECT_EQ(trap, TrapKind::None);
  EXPECT_EQ(mem.heapUsed(), 64u);
  // The heap image stays within the budget its snapshot is restored under.
  std::vector<std::uint8_t> globals;
  std::vector<std::uint8_t> stack;
  std::vector<std::uint8_t> heap;
  mem.captureSegments(0, globals, stack, heap);
  Memory restored({}, 4096, 64);
  EXPECT_NO_THROW(restored.restoreSegments(globals, stack, heap));
}

TEST(Memory, NegativeAllocTraps) {
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  const auto p = bld.emitAlloc(Operand::makeImm(ir::fromI64(-8)));
  bld.emitRet(Operand::makeReg(p));
  EXPECT_EQ(execute(mod).trap, TrapKind::SegFault);
}

TEST(Memory, SegmentEdges) {
  // Direct load()/store() at the edges of the inline fast path. A 60-byte
  // stack and a 20-byte global segment put an aligned 8-byte word across
  // each end, so every row either hits the inline path or must fall through
  // to the out-of-line one; each must get value, trap kind and stack store
  // high-water mark right.
  constexpr std::size_t kStack = 60;
  constexpr std::size_t kGlobals = 20;
  std::vector<std::uint8_t> image(kGlobals);
  for (std::size_t i = 0; i < kGlobals; ++i) {
    image[i] = static_cast<std::uint8_t>(i + 1);
  }
  struct Row {
    const char* what;
    std::uint64_t addr;
    unsigned width;
    TrapKind trap;
    std::size_t highWater;  ///< after the store
  };
  const Row rows[] = {
      {"stack first byte", kStackBase, 1, TrapKind::None, 1},
      {"stack last byte", kStackBase + 59, 1, TrapKind::None, 60},
      {"stack last word", kStackBase + 48, 8, TrapKind::None, 56},
      {"stack one byte past end", kStackBase + 60, 1, TrapKind::SegFault, 0},
      {"stack word straddling end", kStackBase + 56, 8, TrapKind::SegFault,
       0},
      {"byte below stack", kStackBase - 1, 1, TrapKind::SegFault, 0},
      {"word below stack", kStackBase - 8, 8, TrapKind::SegFault, 0},
      {"globals first word", kGlobalBase, 8, TrapKind::None, 0},
      {"globals last byte", kGlobalBase + 19, 1, TrapKind::None, 0},
      {"globals last word", kGlobalBase + 8, 8, TrapKind::None, 0},
      {"globals one byte past end", kGlobalBase + 20, 1, TrapKind::SegFault,
       0},
      {"globals word straddling end", kGlobalBase + 16, 8,
       TrapKind::SegFault, 0},
      {"byte below globals", kGlobalBase - 1, 1, TrapKind::SegFault, 0},
      {"word below globals", kGlobalBase - 8, 8, TrapKind::SegFault, 0},
      {"misaligned word in stack", kStackBase + 4, 8, TrapKind::Misaligned,
       0},
      {"misaligned word in globals", kGlobalBase + 1, 8,
       TrapKind::Misaligned, 0},
      {"misaligned word past stack end", kStackBase + 61, 8,
       TrapKind::Misaligned, 0},
      {"misaligned word below globals", kGlobalBase - 3, 8,
       TrapKind::Misaligned, 0},
      {"misaligned word at null", 3, 8, TrapKind::Misaligned, 0},
  };
  constexpr std::uint64_t kValue = 0xa1b2'c3d4'e5f6'0718ULL;
  for (const Row& row : rows) {
    const std::string ctx = row.what;
    Memory mem(image, kStack, 4096);
    // Before any store: globals read the image, the stack reads zero.
    std::uint64_t before = 0;
    if (row.trap == TrapKind::None && row.addr >= kGlobalBase &&
        row.addr < kGlobalBase + kGlobals) {
      std::memcpy(&before, image.data() + (row.addr - kGlobalBase), row.width);
    }
    TrapKind trap = TrapKind::None;
    EXPECT_EQ(mem.load(row.addr, row.width, trap), before) << ctx;
    EXPECT_EQ(trap, row.trap) << ctx;

    trap = TrapKind::None;
    mem.store(row.addr, row.width, kValue, trap);
    EXPECT_EQ(trap, row.trap) << ctx;
    EXPECT_EQ(mem.stackStoreHighWater(), row.highWater) << ctx;

    trap = TrapKind::None;
    const std::uint64_t stored = row.width == 8 ? kValue : (kValue & 0xffU);
    EXPECT_EQ(mem.load(row.addr, row.width, trap),
              row.trap == TrapKind::None ? stored : 0U)
        << ctx;
    EXPECT_EQ(trap, row.trap) << ctx;
  }
}

// --- pooled stack reuse -----------------------------------------------------------

constexpr std::size_t kSmallStack = 4 << 10;
constexpr std::size_t kBigStack = 1 << 20;

/// Stack offsets of the words the reuse tests dirty: bottom, middle, top.
std::vector<std::uint64_t> dirtyOffsets(std::size_t stackBytes) {
  return {0, 8, stackBytes / 2, stackBytes - 16, stackBytes - 8};
}

/// Write non-zero bytes at dirtyOffsets() through store() and poke().
void dirtyStack(Memory& mem) {
  TrapKind trap = TrapKind::None;
  for (const std::uint64_t off : dirtyOffsets(mem.stackBytes())) {
    mem.store(kStackBase + off, 8, 0xdead'beef'cafe'f00dULL, trap);
    mem.poke(kStackBase + off + 7, 1, 0x5a, trap);
  }
  mem.poke(kStackBase + mem.stackBytes() - 1, 1, 0xff, trap);
  ASSERT_EQ(trap, TrapKind::None);
}

/// A just-built `mem` must load 0 at every dirtied word, and its whole stack
/// must be zero.
void expectCleanStack(Memory& mem) {
  TrapKind trap = TrapKind::None;
  for (const std::uint64_t off : dirtyOffsets(mem.stackBytes())) {
    EXPECT_EQ(mem.load(kStackBase + off, 8, trap), 0u) << "offset " << off;
  }
  // A zero store at the last byte raises the store high-water mark to the
  // stack end, so holds() checks every stack byte against zero.
  mem.store(kStackBase + mem.stackBytes() - 1, 1, 0, trap);
  ASSERT_EQ(trap, TrapKind::None);
  EXPECT_TRUE(mem.holds({}, {}, {}));
}

TEST(MemoryPool, ReusedStackIsZero) {
  {
    Memory dirty({}, kBigStack, 4096);
    dirtyStack(dirty);
  }
  Memory reused({}, kBigStack, 4096);
  expectCleanStack(reused);
}

TEST(MemoryPool, AlternatingSizesStayZero) {
  for (int round = 0; round < 3; ++round) {
    for (const std::size_t bytes : {kSmallStack, kBigStack}) {
      {
        Memory mem({}, bytes, 4096);
        dirtyStack(mem);
      }
      Memory reused({}, bytes, 4096);
      expectCleanStack(reused);
    }
  }
}

TEST(MemoryPool, DestroyedOnAnotherThread) {
  auto mem = std::make_unique<Memory>(std::vector<std::uint8_t>{}, kBigStack,
                                      4096);
  dirtyStack(*mem);
  std::thread([&mem] {
    mem.reset();  // lands in this thread's pool
    Memory reused({}, kBigStack, 4096);
    expectCleanStack(reused);
  }).join();
  Memory here({}, kBigStack, 4096);
  expectCleanStack(here);
}

TEST(MemoryPool, MemoryOutlivingItsThreadsPoolFreesItsStack) {
  // `late` registers its destructor before the thread's pool exists, so at
  // thread exit it is destroyed after the pool and must free its stack
  // itself; the sanitizer lane reports a leak or a use after free if not.
  std::thread([] {
    thread_local std::unique_ptr<Memory> late;
    late = std::make_unique<Memory>(std::vector<std::uint8_t>{}, kBigStack,
                                    4096);
    dirtyStack(*late);
  }).join();
}

TEST(MemoryPool, ResumeAfterStackWritingRunMatchesFreshThread) {
  // `writer` leaves non-zero words near the top of the default stack;
  // `reader` loads them before anything stores there, so a resumed reader
  // returns exactly its frame slot's 7 unless a reused stack leaks them.
  const std::uint64_t top = kStackBase + ExecLimits{}.stackBytes - 8;
  Module writer;
  {
    IRBuilder bld(writer);
    bld.createFunction("main", Type::I64, 0);
    bld.setInsertBlock(bld.createBlock("entry"));
    bld.emitStore(Operand::makeImm(top), Operand::makeImm(0x1111), 8);
    bld.emitStore(Operand::makeImm(top - 4096), Operand::makeImm(0x2222), 8);
    bld.emitRet(Operand::makeImm(0));
    ir::verifyOrThrow(writer);
  }
  Module reader;
  {
    IRBuilder bld(reader);
    bld.createFunction("main", Type::I64, 0);
    const auto off = bld.allocFrame(8);
    bld.setInsertBlock(bld.createBlock("entry"));
    const auto slot = bld.emitFrameAddr(off);
    bld.emitStore(Operand::makeReg(slot), Operand::makeImm(7), 8);
    const auto a = bld.emitLoad(Operand::makeImm(top), 8, Type::I64);
    const auto b = bld.emitLoad(Operand::makeImm(top - 4096), 8, Type::I64);
    const auto c = bld.emitLoad(Operand::makeReg(slot), 8, Type::I64);
    const auto ab = bld.emitBin(Opcode::Add, Operand::makeReg(a),
                                Operand::makeReg(b), Type::I64);
    const auto sum = bld.emitBin(Opcode::Add, Operand::makeReg(ab),
                                 Operand::makeReg(c), Type::I64);
    bld.emitRet(Operand::makeReg(sum));
    ir::verifyOrThrow(reader);
  }
  std::vector<Snapshot> snaps;
  const SnapshotCapturePolicy dense{/*interval=*/1, /*maxSnapshots=*/0,
                                    /*budgetBytes=*/0};
  ASSERT_EQ(executeWithSnapshots(reader, {}, dense, snaps).returnValue, 7);
  ASSERT_GE(snaps.size(), 3u);
  for (const Snapshot& snap : snaps) {
    ASSERT_EQ(execute(writer).status, ExecStatus::Ok);
    const ExecResult here = resume(reader, snap, {});
    ExecResult fresh;
    std::thread([&] { fresh = resume(reader, snap, {}); }).join();
    EXPECT_EQ(here.status, fresh.status);
    EXPECT_EQ(here.instructions, fresh.instructions);
    EXPECT_EQ(here.returnValue, fresh.returnValue);
    EXPECT_EQ(here.returnValue, 7);
  }
}

// --- control flow / calls --------------------------------------------------------

TEST(Control, CondBrTakesCorrectPath) {
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  const auto yes = bld.createBlock("yes");
  const auto no = bld.createBlock("no");
  bld.setInsertBlock(entry);
  bld.emitCondBr(Operand::makeImm(1), yes, no);
  bld.setInsertBlock(yes);
  bld.emitRet(Operand::makeImm(100));
  bld.setInsertBlock(no);
  bld.emitRet(Operand::makeImm(200));
  ir::verifyOrThrow(mod);
  EXPECT_EQ(execute(mod).returnValue, 100);
}

TEST(Control, RecursionComputesFactorial) {
  Module mod;
  IRBuilder bld(mod);
  // fact(n) = n <= 1 ? 1 : n * fact(n - 1)
  const auto factId = bld.createFunction("fact", Type::I64, 1);
  const auto fEntry = bld.createBlock("entry");
  const auto base = bld.createBlock("base");
  const auto rec = bld.createBlock("rec");
  bld.setInsertBlock(fEntry);
  const auto isBase = bld.emitBin(Opcode::ICmpLe, Operand::makeReg(0),
                                  Operand::makeImm(1), Type::I64);
  bld.emitCondBr(Operand::makeReg(isBase), base, rec);
  bld.setInsertBlock(base);
  bld.emitRet(Operand::makeImm(1));
  bld.setInsertBlock(rec);
  const auto nm1 = bld.emitBin(Opcode::Sub, Operand::makeReg(0),
                               Operand::makeImm(1), Type::I64);
  const auto sub = bld.emitCall(factId, {Operand::makeReg(nm1)}, Type::I64);
  const auto prod = bld.emitBin(Opcode::Mul, Operand::makeReg(0),
                                Operand::makeReg(sub), Type::I64);
  bld.emitRet(Operand::makeReg(prod));

  bld.createFunction("main", Type::I64, 0);
  const auto mEntry = bld.createBlock("entry");
  bld.setInsertBlock(mEntry);
  const auto r = bld.emitCall(factId, {Operand::makeImm(10)}, Type::I64);
  bld.emitRet(Operand::makeReg(r));
  mod.entry = 1;
  ir::verifyOrThrow(mod);
  EXPECT_EQ(execute(mod).returnValue, 3628800);
}

TEST(Control, UnboundedRecursionTrapsAsStackOverflow) {
  Module mod;
  IRBuilder bld(mod);
  const auto loopId = bld.createFunction("loop", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  const auto r = bld.emitCall(loopId, {}, Type::I64);
  bld.emitRet(Operand::makeReg(r));
  mod.entry = 0;
  ir::verifyOrThrow(mod);
  const ExecResult res = execute(mod);
  EXPECT_EQ(res.status, ExecStatus::Trapped);
  EXPECT_EQ(res.trap, TrapKind::SegFault);
}

TEST(Control, InfiniteLoopRunsOutOfFuel) {
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  bld.emitBr(entry);
  ir::verifyOrThrow(mod);
  ExecLimits limits;
  limits.maxInstructions = 10'000;
  const ExecResult r = execute(mod, limits);
  EXPECT_EQ(r.status, ExecStatus::FuelExhausted);
}

TEST(Control, AbortTraps) {
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  bld.emitAbort();
  bld.emitRet(Operand::makeImm(0));
  ir::verifyOrThrow(mod);
  const ExecResult r = execute(mod);
  EXPECT_EQ(r.status, ExecStatus::Trapped);
  EXPECT_EQ(r.trap, TrapKind::Abort);
}

// --- output ----------------------------------------------------------------------

TEST(Output, PrintFormats) {
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  bld.emitPrint(Operand::makeImm(ir::fromI64(-42)), ir::PrintKind::I64);
  bld.emitPrint(Operand::makeImm(' '), ir::PrintKind::Char);
  bld.emitPrint(Operand::makeImm(ir::fromF64(2.5)), ir::PrintKind::F64);
  bld.emitPrint(Operand::makeImm('\n'), ir::PrintKind::Char);
  bld.emitRet(Operand::makeImm(0));
  ir::verifyOrThrow(mod);
  EXPECT_EQ(execute(mod).output, "-42 2.500000\n");
}

TEST(Output, NaNPrintsStably) {
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  bld.emitPrint(Operand::makeImm(ir::fromF64(std::nan(""))),
                ir::PrintKind::F64);
  bld.emitRet(Operand::makeImm(0));
  EXPECT_EQ(execute(mod).output, "nan");
}

TEST(Output, InfinityPrintsStably) {
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  const double inf = std::numeric_limits<double>::infinity();
  bld.emitPrint(Operand::makeImm(ir::fromF64(inf)), ir::PrintKind::F64);
  bld.emitPrint(Operand::makeImm(' '), ir::PrintKind::Char);
  bld.emitPrint(Operand::makeImm(ir::fromF64(-inf)), ir::PrintKind::F64);
  bld.emitRet(Operand::makeImm(0));
  EXPECT_EQ(execute(mod).output, "inf -inf");
}

TEST(Output, HugeDoublePrintsInFull) {
  // "%.6f" of -DBL_MAX is 317 characters: every one of them is printed on
  // both loops, and no byte past them.
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  const double big = -std::numeric_limits<double>::max();
  bld.emitPrint(Operand::makeImm(ir::fromF64(big)), ir::PrintKind::F64);
  bld.emitPrint(Operand::makeImm(' '), ir::PrintKind::Char);
  bld.emitPrint(Operand::makeImm(ir::fromF64(1e300)), ir::PrintKind::F64);
  bld.emitRet(Operand::makeImm(0));
  ir::verifyOrThrow(mod);
  const std::string want = std::to_string(big) + " " + std::to_string(1e300);
  ASSERT_EQ(want.size(), 317u + 1u + 308u);
  for (const DispatchBackend backend :
       {DispatchBackend::Switch, DispatchBackend::Threaded}) {
    ExecLimits limits;
    limits.dispatch = backend;
    EXPECT_EQ(execute(mod, limits).output, want);
  }
}

TEST(Output, NumbersPrintAsPrintfDoes) {
  // The VM formats print_i and print_f itself; its output must stay what
  // printf's "%lld" and "%.6f" give in the "C" locale, after the VM's
  // nan/inf/-0.0 normalization, on both loops.
  std::vector<double> doubles;
  for (const double denom : {128.0, 1024.0}) {
    // Exact ties at the sixth decimal, and the numbers around them.
    for (int j = -2048; j <= 2048; ++j) doubles.push_back(j / denom);
    for (int j = 199'000; j <= 200'000; j += 7) {
      doubles.push_back(j / denom);
      doubles.push_back(-j / denom);
    }
  }
  for (int e = std::numeric_limits<double>::min_exponent - 53;
       e < std::numeric_limits<double>::max_exponent; e += 3) {
    doubles.push_back(std::ldexp(1.0, e));
    doubles.push_back(-std::ldexp(1.0, e));
  }
  for (const double d :
       {std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
        std::numeric_limits<double>::denorm_min(), -0.0, 0.0, 0.5, 2.5e-7,
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::infinity()}) {
    doubles.push_back(d);
  }
  std::mt19937_64 rng(0x9f1d);
  std::vector<std::uint64_t> ints = {
      0, 1, static_cast<std::uint64_t>(-1),
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::min()),
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())};
  for (int i = 0; i < 1000; ++i) {
    doubles.push_back(ir::asF64(rng()));
    ints.push_back(rng());
  }

  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  bld.setInsertBlock(bld.createBlock("entry"));
  std::string want;
  char buf[400];
  for (const double d : doubles) {
    bld.emitPrint(Operand::makeImm(ir::fromF64(d)), ir::PrintKind::F64);
    bld.emitPrint(Operand::makeImm(' '), ir::PrintKind::Char);
    if (std::isnan(d)) {
      want += "nan";
    } else if (std::isinf(d)) {
      want += d < 0 ? "-inf" : "inf";
    } else {
      std::snprintf(buf, sizeof buf, "%.6f", d == 0.0 ? 0.0 : d);
      want += buf;
    }
    want += ' ';
  }
  for (const std::uint64_t v : ints) {
    bld.emitPrint(Operand::makeImm(v), ir::PrintKind::I64);
    bld.emitPrint(Operand::makeImm(' '), ir::PrintKind::Char);
    std::snprintf(buf, sizeof buf, "%lld",
                  static_cast<long long>(ir::asI64(v)));
    want += buf;
    want += ' ';
  }
  bld.emitRet(Operand::makeImm(0));
  ir::verifyOrThrow(mod);
  for (const DispatchBackend backend :
       {DispatchBackend::Switch, DispatchBackend::Threaded}) {
    ExecLimits limits;
    limits.dispatch = backend;
    const ExecResult r = execute(mod, limits);
    EXPECT_FALSE(r.outputTruncated);
    const std::size_t at = static_cast<std::size_t>(
        std::mismatch(want.begin(), want.end(), r.output.begin(),
                      r.output.end())
            .first -
        want.begin());
    EXPECT_TRUE(r.output == want)
        << "first difference at byte " << at << "\nwant ..."
        << want.substr(at, 40) << "\ngot  ..." << r.output.substr(at, 40);
  }
}

TEST(Output, NegativeZeroPrintsAsPositiveZero) {
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  bld.emitPrint(Operand::makeImm(ir::fromF64(-0.0)), ir::PrintKind::F64);
  bld.emitRet(Operand::makeImm(0));
  EXPECT_EQ(execute(mod).output, "0.000000");
}

TEST(Output, TruncationIsFlagged) {
  // A loop printing forever within a small output limit.
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  const auto loop = bld.createBlock("loop");
  bld.setInsertBlock(entry);
  bld.emitBr(loop);
  bld.setInsertBlock(loop);
  bld.emitPrint(Operand::makeImm('x'), ir::PrintKind::Char);
  bld.emitBr(loop);
  ir::verifyOrThrow(mod);
  ExecLimits limits;
  limits.maxInstructions = 5'000;
  limits.maxOutputBytes = 100;
  const ExecResult r = execute(mod, limits);
  EXPECT_TRUE(r.outputTruncated);
  EXPECT_EQ(r.output.size(), 100u);
}

// --- candidate counting ------------------------------------------------------------

TEST(Candidates, ReadAndWriteStreamsCountCorrectly) {
  // main: c = const 5 (no read cand, no write cand: Const excluded);
  //       d = add c, 1 (read cand, write cand); ret d (read cand)
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  const auto c = bld.emitConstI(5);
  const auto d = bld.emitBin(Opcode::Add, Operand::makeReg(c),
                             Operand::makeImm(1), Type::I64);
  bld.emitRet(Operand::makeReg(d));
  ir::verifyOrThrow(mod);
  const ExecResult r = execute(mod);
  EXPECT_EQ(r.readCandidates, 2u);   // add + ret
  EXPECT_EQ(r.writeCandidates, 1u);  // add only (Const excluded)
  EXPECT_EQ(r.instructions, 3u);
}

/// Hook recording every callback.
class RecordingHook final : public ExecHook {
 public:
  struct Event {
    bool isRead;
    std::uint64_t index;
    std::uint64_t instr;
  };
  std::vector<Event> events;

  void onRead(std::uint64_t readIndex, std::uint64_t instrIndex,
              const ir::Instr&, std::span<std::uint64_t>,
              std::span<const bool>) override {
    events.push_back({true, readIndex, instrIndex});
  }
  void onWrite(std::uint64_t writeIndex, std::uint64_t instrIndex,
               const ir::Instr&, std::uint64_t&) override {
    events.push_back({false, writeIndex, instrIndex});
  }
};

TEST(Candidates, HookIndicesAreSequential) {
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  ir::Reg acc = bld.emitConstI(0);
  for (int i = 0; i < 5; ++i) {
    acc = bld.emitBin(Opcode::Add, Operand::makeReg(acc), Operand::makeImm(1),
                      Type::I64);
  }
  bld.emitRet(Operand::makeReg(acc));
  ir::verifyOrThrow(mod);
  RecordingHook hook;
  execute(mod, {}, &hook);
  std::uint64_t nextRead = 0;
  std::uint64_t nextWrite = 0;
  for (const auto& e : hook.events) {
    if (e.isRead) EXPECT_EQ(e.index, nextRead++);
    else EXPECT_EQ(e.index, nextWrite++);
  }
  EXPECT_EQ(nextRead, 6u);   // 5 adds + ret
  EXPECT_EQ(nextWrite, 5u);  // 5 adds
}

TEST(Candidates, WriteHookCanCorruptResult) {
  // Flip the destination of the add and observe the changed return value.
  class FlipHook final : public ExecHook {
   public:
    void onRead(std::uint64_t, std::uint64_t, const ir::Instr&,
                std::span<std::uint64_t>, std::span<const bool>) override {}
    void onWrite(std::uint64_t writeIndex, std::uint64_t, const ir::Instr&,
                 std::uint64_t& value) override {
      if (writeIndex == 0) value ^= 1ULL << 4;  // +16 on a small value
    }
  };
  const Module mod = binModule(Opcode::Add, 1, 2);
  FlipHook hook;
  const ExecResult r = execute(mod, {}, &hook);
  EXPECT_EQ(r.returnValue, 19);  // (1+2) ^ 16
}

TEST(Candidates, ReadHookCanCorruptOperand) {
  class FlipHook final : public ExecHook {
   public:
    void onRead(std::uint64_t readIndex, std::uint64_t, const ir::Instr&,
                std::span<std::uint64_t> values,
                std::span<const bool> isReg) override {
      if (readIndex != 0) return;
      for (std::size_t i = 0; i < values.size(); ++i) {
        if (isReg[i]) values[i] ^= 1;
      }
    }
    void onWrite(std::uint64_t, std::uint64_t, const ir::Instr&,
                 std::uint64_t&) override {}
  };
  // c = 4; d = c + 0; ret d  -> read hook flips bit0 of c when read: 5
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  const auto c = bld.emitConstI(4);
  const auto d = bld.emitBin(Opcode::Add, Operand::makeReg(c),
                             Operand::makeImm(0), Type::I64);
  bld.emitRet(Operand::makeReg(d));
  FlipHook hook;
  EXPECT_EQ(execute(mod, {}, &hook).returnValue, 5);
}

TEST(Candidates, CallResultIsAWriteCandidate) {
  Module mod;
  IRBuilder bld(mod);
  const auto f = bld.createFunction("f", Type::I64, 0);
  auto bb = bld.createBlock("entry");
  bld.setInsertBlock(bb);
  bld.emitRet(Operand::makeImm(9));
  bld.createFunction("main", Type::I64, 0);
  bb = bld.createBlock("entry");
  bld.setInsertBlock(bb);
  const auto r = bld.emitCall(f, {}, Type::I64);
  bld.emitRet(Operand::makeReg(r));
  mod.entry = 1;
  ir::verifyOrThrow(mod);
  const ExecResult res = execute(mod);
  EXPECT_EQ(res.writeCandidates, 1u);  // the call's returned value
  EXPECT_EQ(res.returnValue, 9);
}

// --- intrinsics ---------------------------------------------------------------------

class IntrinsicCase
    : public ::testing::TestWithParam<std::pair<ir::IntrinsicKind, double>> {};

TEST_P(IntrinsicCase, MatchesLibm) {
  const auto [kind, arg] = GetParam();
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  const auto r =
      bld.emitIntrinsic(kind, {Operand::makeImm(ir::fromF64(arg))});
  bld.emitRet(Operand::makeReg(r));
  const double got = ir::asF64(ir::fromI64(execute(mod).returnValue));
  double want = 0;
  switch (kind) {
    case ir::IntrinsicKind::Sqrt: want = std::sqrt(arg); break;
    case ir::IntrinsicKind::Sin: want = std::sin(arg); break;
    case ir::IntrinsicKind::Cos: want = std::cos(arg); break;
    case ir::IntrinsicKind::Tan: want = std::tan(arg); break;
    case ir::IntrinsicKind::Atan: want = std::atan(arg); break;
    case ir::IntrinsicKind::Exp: want = std::exp(arg); break;
    case ir::IntrinsicKind::Log: want = std::log(arg); break;
    case ir::IntrinsicKind::Fabs: want = std::fabs(arg); break;
    case ir::IntrinsicKind::Floor: want = std::floor(arg); break;
    case ir::IntrinsicKind::Ceil: want = std::ceil(arg); break;
    default: FAIL();
  }
  EXPECT_DOUBLE_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IntrinsicCase,
    ::testing::Values(std::pair{ir::IntrinsicKind::Sqrt, 2.0},
                      std::pair{ir::IntrinsicKind::Sin, 1.1},
                      std::pair{ir::IntrinsicKind::Cos, 0.3},
                      std::pair{ir::IntrinsicKind::Tan, 0.5},
                      std::pair{ir::IntrinsicKind::Atan, 2.2},
                      std::pair{ir::IntrinsicKind::Exp, 1.0},
                      std::pair{ir::IntrinsicKind::Log, 10.0},
                      std::pair{ir::IntrinsicKind::Fabs, -3.5},
                      std::pair{ir::IntrinsicKind::Floor, 2.7},
                      std::pair{ir::IntrinsicKind::Ceil, 2.2}));

TEST(Intrinsics, TwoOperandKinds) {
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  const auto r = bld.emitIntrinsic(
      ir::IntrinsicKind::Pow,
      {Operand::makeImm(ir::fromF64(2.0)), Operand::makeImm(ir::fromF64(10.0))});
  bld.emitRet(Operand::makeReg(r));
  EXPECT_DOUBLE_EQ(ir::asF64(ir::fromI64(execute(mod).returnValue)), 1024.0);
}

TEST(Traps, NamesAreStable) {
  EXPECT_EQ(trapName(TrapKind::SegFault), "segfault");
  EXPECT_EQ(trapName(TrapKind::Misaligned), "misaligned");
  EXPECT_EQ(trapName(TrapKind::DivByZero), "div-by-zero");
  EXPECT_EQ(trapName(TrapKind::Abort), "abort");
  EXPECT_EQ(trapName(TrapKind::None), "none");
}

}  // namespace
}  // namespace onebit::vm
