// Hang proofs (vm::Machine::provesHang, vm/hang_proof.hpp): a proof must
// fire only on a run that really ends FuelExhausted, and a declined attempt
// must leave a run that ends exactly like the reference run.
//
//  * the iteration-bound helpers against brute force, near INT64 wrap;
//  * hand-built loops on both backends, each checked against the reference
//    run at budgets around its end: a walk whose load leaves its segment
//    just before or just after the budget (there the proof is tight: it
//    must fire iff the reference ends FuelExhausted), every ICmp form with
//    affine operands of both slopes near wrap, a divisor crossing zero,
//    calls in the body, constant and memory-changing stores, unknown values
//    reaching an address, a divisor or a branch one side of which leaves
//    the loop (never a proof), and branches on unknown values whose sides
//    both stay (a proof bounded by the shorter side);
//  * two generated MiniC corpora, loop-heavy and forking, where
//    fi::runExperiment must equal fi::runReference at hang factors 2-5,
//    with proofs both fired and declined, and in every forking shape;
//  * every proof on the paper's programs under the Fig. 4/5 grid equals
//    fi::runReference, and basicmath and crc32 prove every hang;
//  * a hang factor whose budget overflows 64 bits is rejected.
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fi/experiment.hpp"
#include "fi/fault_model.hpp"
#include "fi/grid.hpp"
#include "ir/builder.hpp"
#include "ir/verifier.hpp"
#include "lang/compile.hpp"
#include "progs/registry.hpp"
#include "util/rng.hpp"
#include "vm/hang_proof.hpp"
#include "vm/machine.hpp"

namespace onebit {
namespace {

using ir::Opcode;
using ir::Operand;
using vm::hang::Affine;
using vm::hang::kUnbounded;

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

Operand reg(ir::Reg r) { return Operand::makeReg(r); }
Operand imm(std::int64_t v) { return Operand::makeImm(ir::fromI64(v)); }

// --- the bound helpers -------------------------------------------------------

/// asI64(a) + i·asI64(b), exactly.
__int128 at(Affine x, std::uint64_t i) {
  return static_cast<__int128>(ir::asI64(x.a)) +
         static_cast<__int128>(i) * ir::asI64(x.b);
}

bool fits(__int128 v) { return v >= kMin && v <= kMax; }

bool compares(Opcode op, __int128 x, __int128 y) {
  switch (op) {
    case Opcode::ICmpEq: return x == y;
    case Opcode::ICmpNe: return x != y;
    case Opcode::ICmpLt: return x < y;
    case Opcode::ICmpLe: return x <= y;
    case Opcode::ICmpGt: return x > y;
    default: return x >= y;
  }
}

/// The last i in [0, limit] before `holds` first fails, or limit + 1 when
/// it never fails there.
template <class Holds>
std::uint64_t bruteBound(std::uint64_t limit, Holds holds) {
  for (std::uint64_t i = 0; i <= limit; ++i) {
    if (!holds(i)) return i - 1;
  }
  return limit + 1;
}

void expectBound(std::uint64_t got, std::uint64_t brute, std::uint64_t limit,
                 const std::string& what) {
  if (brute <= limit) {
    EXPECT_EQ(got, brute) << what;
  } else {
    EXPECT_GE(got, limit) << what;
  }
}

/// A value near one of the wrap points or zero, `reach` steps of `b` away.
std::uint64_t near(std::mt19937_64& rng, std::int64_t b, std::uint64_t reach) {
  const std::int64_t slack = static_cast<std::int64_t>(rng() % (2 * reach + 1)) -
                             static_cast<std::int64_t>(reach);
  const std::int64_t step = b == 0 ? 1 : b;
  switch (rng() % 3) {
    case 0: return ir::fromI64(kMax - std::abs(step) * (slack + static_cast<std::int64_t>(reach)));
    case 1: return ir::fromI64(kMin + std::abs(step) * (slack + static_cast<std::int64_t>(reach)));
    default: return ir::fromI64(step * slack);
  }
}

TEST(HangBounds, NoWrapAndCompareBoundsMatchBruteForce) {
  constexpr std::uint64_t kLimit = 300;
  std::mt19937_64 rng(0x6a6e);
  const Opcode kCmps[] = {Opcode::ICmpEq, Opcode::ICmpNe, Opcode::ICmpLt,
                          Opcode::ICmpLe, Opcode::ICmpGt, Opcode::ICmpGe};
  for (int trial = 0; trial < 4000; ++trial) {
    const std::int64_t bx = static_cast<std::int64_t>(rng() % 41) - 20;
    const std::int64_t by = trial % 4 == 0
                                ? bx
                                : static_cast<std::int64_t>(rng() % 41) - 20;
    const Affine x{near(rng, bx, kLimit / 2), ir::fromI64(bx)};
    const Affine y{trial % 5 == 0 ? x.a : near(rng, by, kLimit / 2),
                   ir::fromI64(by)};
    const std::string what = "x = " + std::to_string(ir::asI64(x.a)) + " + i·" +
                             std::to_string(bx) + ", y = " +
                             std::to_string(ir::asI64(y.a)) + " + i·" +
                             std::to_string(by);
    expectBound(vm::hang::noWrapBound(x),
                bruteBound(kLimit, [&](std::uint64_t i) { return fits(at(x, i)); }),
                kLimit, "noWrap " + what);
    for (const Opcode op : kCmps) {
      const bool first = compares(op, at(x, 0), at(y, 0));
      const std::uint64_t brute = bruteBound(kLimit, [&](std::uint64_t i) {
        return fits(at(x, i)) && fits(at(y, i)) &&
               compares(op, at(x, i), at(y, i)) == first;
      });
      expectBound(vm::hang::compareBound(op, x, y), brute, kLimit,
                  std::string(ir::opcodeName(op)) + " " + what);
    }
  }
}

TEST(HangBounds, ExtremeSlopesDoNotOverflow) {
  // Bounds computed in 128 bits: the largest slopes and offsets neither
  // overflow nor lose the answer.
  EXPECT_EQ(vm::hang::noWrapBound({ir::fromI64(kMin), ir::fromI64(1)}),
            kUnbounded);  // 2^64 - 1 steps to INT64_MAX: never within budget
  EXPECT_EQ(vm::hang::noWrapBound({ir::fromI64(kMax), ir::fromI64(1)}), 0u);
  EXPECT_EQ(vm::hang::noWrapBound({0, ir::fromI64(kMin)}), 1u);
  // y: INT64_MAX, then -1, then it wraps.
  EXPECT_EQ(vm::hang::compareBound(Opcode::ICmpLt, {ir::fromI64(kMin), 0},
                                   {ir::fromI64(kMax), ir::fromI64(kMin)}),
            1u);
  EXPECT_EQ(vm::hang::compareBound(Opcode::ICmpEq, {0, 0}, {0, 0}),
            kUnbounded);
  EXPECT_EQ(vm::hang::compareBound(Opcode::ICmpNe, {5, ir::fromI64(-1)}, {}),
            4u);
}

TEST(HangBounds, SegmentBoundMatchesBruteForce) {
  constexpr std::uint64_t kLimit = 300;
  constexpr std::uint64_t kBase = ir::kGlobalBase;
  std::mt19937_64 rng(0x5e9);
  for (int trial = 0; trial < 4000; ++trial) {
    const unsigned width = trial % 2 == 0 ? 8 : 1;
    const std::uint64_t size = 8 * (1 + rng() % 60) + (width == 1 ? rng() % 8 : 0);
    std::uint64_t off = rng() % (size - width + 1);
    if (width == 8) off &= ~std::uint64_t{7};
    const std::int64_t b = static_cast<std::int64_t>(rng() % 49) - 24;
    const Affine addr{kBase + off, ir::fromI64(b)};
    const std::uint64_t brute = bruteBound(kLimit, [&](std::uint64_t i) {
      const __int128 o = static_cast<__int128>(off) +
                         static_cast<__int128>(i) * b;
      return o >= 0 && o + width <= static_cast<__int128>(size) &&
             (width != 8 || o % 8 == 0);
    });
    expectBound(vm::hang::segmentBound(addr, kBase, size, width), brute, kLimit,
                "off " + std::to_string(off) + " size " + std::to_string(size) +
                    " width " + std::to_string(width) + " slope " +
                    std::to_string(b));
  }
}

// --- hand-built loops --------------------------------------------------------

/// The reference run under `budget`: from scratch, reference loop.
vm::ExecResult reference(const ir::Module& mod, std::uint64_t budget) {
  vm::ExecLimits limits;
  limits.maxInstructions = budget;
  return vm::execute(mod, limits);
}

void expectSameRun(const vm::ExecResult& got, const vm::ExecResult& want,
                   const std::string& what) {
  EXPECT_EQ(got.status, want.status) << what;
  EXPECT_EQ(got.trap, want.trap) << what;
  EXPECT_EQ(got.instructions, want.instructions) << what;
  EXPECT_EQ(got.readCandidates, want.readCandidates) << what;
  EXPECT_EQ(got.writeCandidates, want.writeCandidates) << what;
  EXPECT_EQ(got.storeCandidates, want.storeCandidates) << what;
  EXPECT_EQ(got.returnValue, want.returnValue) << what;
  EXPECT_EQ(got.output, want.output) << what;
}

/// Pause `mod` at instruction `pause` under `budget` and try a proof, on
/// both backends. A proof must mean the reference run ends FuelExhausted;
/// a declined attempt must leave a run that ends like the reference run.
/// Both backends must decide alike. Returns whether the proof fired.
bool proves(const ir::Module& mod, std::uint64_t budget, std::uint64_t pause,
            const std::string& what) {
  const vm::ExecResult want = reference(mod, budget);
  bool proved[2] = {false, false};
  for (const vm::DispatchBackend backend :
       {vm::DispatchBackend::Switch, vm::DispatchBackend::Threaded}) {
    const std::string ctx =
        what + " budget " + std::to_string(budget) + " pause " +
        std::to_string(pause) +
        (backend == vm::DispatchBackend::Switch ? " (switch)" : " (threaded)");
    vm::ExecLimits limits;
    limits.maxInstructions = budget;
    limits.dispatch = backend;
    vm::Machine m(mod, limits, nullptr);
    bool& p = proved[backend == vm::DispatchBackend::Threaded];
    p = m.runUntil(pause) == vm::Machine::Stop::Paused && m.provesHang();
    if (p) {
      EXPECT_EQ(want.status, vm::ExecStatus::FuelExhausted) << ctx;
    } else {
      expectSameRun(m.run(), want, ctx);
    }
  }
  EXPECT_EQ(proved[0], proved[1]) << what;
  return proved[0];
}

/// Instructions in block `block` of main: one loop iteration.
std::size_t blockSize(const ir::Module& mod, std::uint32_t block) {
  return mod.functions[mod.entry].blocks[block].instrs.size();
}

/// A loop that loads a `width`-byte word and steps its address by `step`,
/// from `first` within a `words`-word global array, until the load leaves
/// the globals: `loop: v = load p; p = p + step; br loop`.
ir::Module walkModule(std::size_t words, unsigned width, std::int64_t step,
                      std::uint64_t firstOffset) {
  ir::Module mod;
  ir::IRBuilder b(mod);
  const std::uint64_t base = b.addGlobalZeros(8 * words);
  b.createFunction("main", ir::Type::I64, 0);
  const std::uint32_t entry = b.createBlock("entry");
  const std::uint32_t loop = b.createBlock("loop");
  b.setInsertBlock(entry);
  const ir::Reg p = b.newReg();
  b.emitMoveInto(p, imm(static_cast<std::int64_t>(base + firstOffset)),
                 ir::Type::I64);
  b.emitBr(loop);
  b.setInsertBlock(loop);
  b.emitLoad(reg(p), width, ir::Type::I64);
  const ir::Reg next = b.emitBin(Opcode::Add, reg(p), imm(step), ir::Type::I64);
  b.emitMoveInto(p, reg(next), ir::Type::I64);
  b.emitBr(loop);
  ir::verifyOrThrow(mod);
  return mod;
}

TEST(HangProof, LoadLeavingItsSegmentAtTheBudgetProvesIffFuelRunsOut) {
  // The walk traps on the load that leaves the segment, instruction T. The
  // anchor is the loop's block start, that load, so iteration K + 1 traps
  // on its first instruction and the proof is tight: at budget T - 1 the
  // run ends FuelExhausted and the proof fires, at T and T + 1 it traps and
  // no proof may fire. Every pause phase is tried.
  struct Walk {
    unsigned width;
    std::int64_t step;
    std::uint64_t first;
  };
  constexpr std::size_t kWords = 1500;
  for (const Walk w : {Walk{8, 8, 0}, Walk{8, -8, 8 * (kWords - 1)},
                       Walk{1, 3, 1}, Walk{1, -5, 8 * kWords - 1}}) {
    const ir::Module mod = walkModule(kWords, w.width, w.step, w.first);
    const vm::ExecResult end = reference(mod, 1'000'000);
    ASSERT_EQ(end.status, vm::ExecStatus::Trapped);
    ASSERT_EQ(end.trap, vm::TrapKind::SegFault);
    const std::uint64_t t = end.instructions;
    const std::size_t period = blockSize(mod, 1);
    const std::string what = "walk width " + std::to_string(w.width) +
                             " step " + std::to_string(w.step);
    for (const std::uint64_t budget : {t - 1, t, t + 1}) {
      bool any = false;
      for (std::uint64_t pause = 100; pause < 100 + period; ++pause) {
        any = proves(mod, budget, pause, what) || any;
      }
      EXPECT_EQ(any, budget == t - 1) << what << " budget " << budget;
    }
  }
}

/// `loop: x = x + sx; y = y + sy; c = icmp x, y; condbr c` staying in the
/// loop while c keeps its first value, `exit: ret 0`. `form` picks the
/// compare's operands: 0 = (x, y), 1 = (x, imm y0), 2 = (imm y0, x).
ir::Module compareModule(Opcode op, int form, std::int64_t x0, std::int64_t sx,
                         std::int64_t y0, std::int64_t sy) {
  ir::Module mod;
  ir::IRBuilder b(mod);
  b.createFunction("main", ir::Type::I64, 0);
  const std::uint32_t entry = b.createBlock("entry");
  const std::uint32_t loop = b.createBlock("loop");
  const std::uint32_t exit = b.createBlock("exit");
  b.setInsertBlock(entry);
  const ir::Reg x = b.newReg();
  const ir::Reg y = b.newReg();
  b.emitMoveInto(x, imm(x0), ir::Type::I64);
  b.emitMoveInto(y, imm(y0), ir::Type::I64);
  b.emitBr(loop);
  b.setInsertBlock(loop);
  b.emitMoveInto(x, reg(b.emitBin(Opcode::Add, reg(x), imm(sx), ir::Type::I64)),
                 ir::Type::I64);
  b.emitMoveInto(y, reg(b.emitBin(Opcode::Add, reg(y), imm(sy), ir::Type::I64)),
                 ir::Type::I64);
  const Operand lhs = form == 2 ? imm(y0) : reg(x);
  const Operand rhs = form == 0 ? reg(y) : form == 1 ? imm(y0) : reg(x);
  const ir::Reg c = b.emitBin(op, lhs, rhs, ir::Type::I64);
  // The first compare's result, on the wrapped values the VM computes.
  const std::uint64_t x1 = ir::fromI64(x0) + ir::fromI64(sx);
  const std::uint64_t y1 =
      form == 0 ? ir::fromI64(y0) + ir::fromI64(sy) : ir::fromI64(y0);
  const __int128 l = ir::asI64(form == 2 ? y1 : x1);
  const __int128 r = ir::asI64(form == 2 ? x1 : y1);
  if (compares(op, l, r)) {
    b.emitCondBr(reg(c), loop, exit);
  } else {
    b.emitCondBr(reg(c), exit, loop);
  }
  b.setInsertBlock(exit);
  b.emitRet(imm(0));
  ir::verifyOrThrow(mod);
  return mod;
}

TEST(HangProof, EveryCompareFormBothSlopesNearWrap) {
  // Each loop runs until its compare flips: by crossing (x meets or passes
  // y) or by wrapping past INT64_MAX or INT64_MIN. A terminating loop must
  // be proven at a budget one iteration and its exit short of its end (the
  // bounds are exact), and never one short of, at or past its end.
  constexpr std::uint64_t kFar = 200'000;
  const Opcode kCmps[] = {Opcode::ICmpEq, Opcode::ICmpNe, Opcode::ICmpLt,
                          Opcode::ICmpLe, Opcode::ICmpGt, Opcode::ICmpGe};
  int terminating = 0;
  int wrapping = 0;
  for (const Opcode op : kCmps) {
    for (int form = 0; form < 3; ++form) {
      for (const std::int64_t sx : {1, -1, 7, -7}) {
        const std::int64_t sy = form == 0 ? (sx > 0 ? -2 : 3) : 0;
        const std::int64_t n = 1500;  // iterations to the crossing or wrap
        // Crossing: x lands on y after n iterations; wrap: x wraps after n.
        const std::int64_t cross = -n * (sx - sy);
        const std::int64_t wrap = sx > 0 ? kMax - n * sx + 1 : kMin - n * sx - 1;
        for (const std::int64_t x0 : {cross, cross + 1, wrap}) {
          const ir::Module mod = compareModule(op, form, x0, sx, 0, sy);
          const std::string what = std::string(ir::opcodeName(op)) + " form " +
                                   std::to_string(form) + " x0 " +
                                   std::to_string(x0) + " sx " +
                                   std::to_string(sx) + " sy " +
                                   std::to_string(sy);
          const vm::ExecResult end = reference(mod, kFar);
          const std::uint64_t period = blockSize(mod, 1);
          if (end.status == vm::ExecStatus::Ok) {
            ++terminating;
            wrapping += x0 == wrap;
            const std::uint64_t t = end.instructions;
            EXPECT_TRUE(proves(mod, t - period - 2, 50, what)) << what;
            for (const std::uint64_t budget : {t - 1, t, t + 1}) {
              EXPECT_FALSE(proves(mod, budget, 50, what)) << what;
            }
          } else {
            proves(mod, kFar, 50, what);
          }
        }
      }
    }
  }
  EXPECT_GT(terminating, 100);
  EXPECT_GT(wrapping, 30);
}

/// `loop: d = d + step; q = op(7, d); br loop` with d starting at d0.
ir::Module divisorModule(Opcode op, std::int64_t d0, std::int64_t step) {
  ir::Module mod;
  ir::IRBuilder b(mod);
  b.createFunction("main", ir::Type::I64, 0);
  const std::uint32_t entry = b.createBlock("entry");
  const std::uint32_t loop = b.createBlock("loop");
  b.setInsertBlock(entry);
  const ir::Reg d = b.newReg();
  b.emitMoveInto(d, imm(d0), ir::Type::I64);
  b.emitBr(loop);
  b.setInsertBlock(loop);
  b.emitMoveInto(d, reg(b.emitBin(Opcode::Add, reg(d), imm(step), ir::Type::I64)),
                 ir::Type::I64);
  b.emitBin(op, imm(7), reg(d), ir::Type::I64);
  b.emitBr(loop);
  ir::verifyOrThrow(mod);
  return mod;
}

TEST(HangProof, AffineDivisorCrossingZero) {
  for (const Opcode op : {Opcode::SDiv, Opcode::SRem}) {
    // Lands on zero after 2,000 iterations: DivByZero.
    const ir::Module lands = divisorModule(op, 2000, -1);
    const vm::ExecResult end = reference(lands, 1'000'000);
    ASSERT_EQ(end.trap, vm::TrapKind::DivByZero);
    const std::uint64_t t = end.instructions;
    const std::uint64_t period = blockSize(lands, 1);
    EXPECT_TRUE(proves(lands, t - period - 1, 50, "lands"));
    for (const std::uint64_t budget : {t - 1, t, t + 1}) {
      proves(lands, budget, 50, "lands");
    }
    // Steps over zero (2001, 1999, ..., 1, -1, ...): never traps.
    const ir::Module skips = divisorModule(op, 2001, -2);
    EXPECT_TRUE(proves(skips, 100'000, 50, "skips"));
  }
}

/// `loop: i = inc(i); c = i < n; condbr c, loop, exit` where inc(x) calls
/// id(x) and adds one, and stores the constant 5 into a global each call.
ir::Module callModule(std::int64_t n) {
  ir::Module mod;
  ir::IRBuilder b(mod);
  const std::uint64_t g = b.addGlobalI64({5});
  const std::uint32_t main = b.createFunction("main", ir::Type::I64, 0);
  const std::uint32_t inc = b.createFunction("inc", ir::Type::I64, 1);
  const std::uint32_t id = b.createFunction("id", ir::Type::I64, 1);
  b.setFunction(id);
  b.setInsertBlock(b.createBlock("entry"));
  b.allocFrame(24);
  b.emitRet(reg(0));
  b.setFunction(inc);
  b.setInsertBlock(b.createBlock("entry"));
  b.emitStore(imm(static_cast<std::int64_t>(g)), imm(5), 8);
  const ir::Reg same = b.emitCall(id, {reg(0)}, ir::Type::I64);
  b.emitRet(reg(b.emitBin(Opcode::Add, reg(same), imm(1), ir::Type::I64)));
  b.setFunction(main);
  mod.entry = main;
  const std::uint32_t entry = b.createBlock("entry");
  const std::uint32_t loop = b.createBlock("loop");
  const std::uint32_t exit = b.createBlock("exit");
  b.setInsertBlock(entry);
  const ir::Reg i = b.newReg();
  b.emitMoveInto(i, imm(0), ir::Type::I64);
  b.emitBr(loop);
  b.setInsertBlock(loop);
  b.emitMoveInto(i, reg(b.emitCall(inc, {reg(i)}, ir::Type::I64)),
                 ir::Type::I64);
  const ir::Reg c = b.emitBin(Opcode::ICmpLt, reg(i), imm(n), ir::Type::I64);
  b.emitCondBr(reg(c), loop, exit);
  b.setInsertBlock(exit);
  b.emitRet(reg(i));
  ir::verifyOrThrow(mod);
  return mod;
}

TEST(HangProof, CallsInTheBodyAreFollowed) {
  const ir::Module mod = callModule(2000);
  const vm::ExecResult end = reference(mod, 1'000'000);
  ASSERT_EQ(end.status, vm::ExecStatus::Ok);
  const std::uint64_t t = end.instructions;
  // One iteration: Call, Store, Call, Ret, Add, Ret, Move, ICmp, CondBr.
  EXPECT_TRUE(proves(mod, t - 20, 100, "calls"));
  for (const std::uint64_t budget : {t - 1, t, t + 1}) {
    EXPECT_FALSE(proves(mod, budget, 100, "calls"));
  }
  EXPECT_TRUE(proves(callModule(kMax), 1'000'000, 100, "calls forever"));
}

/// How a store loop treats memory: `loop: i = i + 1; store; c = cond;
/// condbr c, loop, exit`, the store and the condition picked by `kind`.
enum class StoreKind {
  SameConstant,     ///< stores 5 over a 5; branches on a load of it == 5
  ChangesUnread,    ///< stores i; branches on i < n
  ChangesRead,      ///< stores i; branches on a load of it < n
  AffineAddress,    ///< stores 0 at a[i]; branches on i < n
};

ir::Module storeModule(StoreKind kind, std::int64_t n) {
  ir::Module mod;
  ir::IRBuilder b(mod);
  const std::uint64_t g = b.addGlobalI64({5});
  const std::uint64_t a = b.addGlobalZeros(8 * 4096);
  b.createFunction("main", ir::Type::I64, 0);
  const std::uint32_t entry = b.createBlock("entry");
  const std::uint32_t loop = b.createBlock("loop");
  const std::uint32_t exit = b.createBlock("exit");
  b.setInsertBlock(entry);
  const ir::Reg i = b.newReg();
  b.emitMoveInto(i, imm(0), ir::Type::I64);
  b.emitBr(loop);
  b.setInsertBlock(loop);
  b.emitMoveInto(i, reg(b.emitBin(Opcode::Add, reg(i), imm(1), ir::Type::I64)),
                 ir::Type::I64);
  const Operand at = imm(static_cast<std::int64_t>(g));
  ir::Reg c = 0;
  switch (kind) {
    case StoreKind::SameConstant: {
      b.emitStore(at, imm(5), 8);
      const ir::Reg v = b.emitLoad(at, 8, ir::Type::I64);
      const ir::Reg five = b.emitBin(Opcode::ICmpEq, reg(v), imm(5), ir::Type::I64);
      const ir::Reg below = b.emitBin(Opcode::ICmpLt, reg(i), imm(n), ir::Type::I64);
      c = b.emitBin(Opcode::And, reg(five), reg(below), ir::Type::I64);
      break;
    }
    case StoreKind::ChangesUnread:
      b.emitStore(at, reg(i), 8);
      c = b.emitBin(Opcode::ICmpLt, reg(i), imm(n), ir::Type::I64);
      break;
    case StoreKind::ChangesRead: {
      b.emitStore(at, reg(i), 8);
      const ir::Reg v = b.emitLoad(at, 8, ir::Type::I64);
      c = b.emitBin(Opcode::ICmpLt, reg(v), imm(n), ir::Type::I64);
      break;
    }
    case StoreKind::AffineAddress: {
      const ir::Reg off = b.emitBin(Opcode::Mul, reg(i), imm(8), ir::Type::I64);
      const ir::Reg p = b.emitBin(Opcode::Add, imm(static_cast<std::int64_t>(a)),
                                  reg(off), ir::Type::I64);
      b.emitStore(reg(p), imm(0), 8);
      c = b.emitBin(Opcode::ICmpLt, reg(i), imm(n), ir::Type::I64);
      break;
    }
  }
  b.emitCondBr(reg(c), loop, exit);
  b.setInsertBlock(exit);
  b.emitRet(imm(0));
  ir::verifyOrThrow(mod);
  return mod;
}

TEST(HangProof, ConstantStoresProveMemoryChangingReadsDoNot) {
  // And of two compares folds to a constant: the condition stays known.
  EXPECT_TRUE(proves(storeModule(StoreKind::SameConstant, kMax), 100'000, 50,
                     "same constant"));
  // A store that changes memory no load reads is harmless to the proof.
  EXPECT_TRUE(proves(storeModule(StoreKind::ChangesUnread, kMax), 100'000, 50,
                     "changes unread"));
  // Its bytes are unknown once changed: a branch on them is no proof.
  for (const std::int64_t n : {std::int64_t{3000}, kMax}) {
    const ir::Module mod = storeModule(StoreKind::ChangesRead, n);
    for (const std::uint64_t budget : {std::uint64_t{20'000}, std::uint64_t{100'000}}) {
      EXPECT_FALSE(proves(mod, budget, 50, "changes read"));
    }
  }
  // A store needs a constant address.
  const ir::Module affine = storeModule(StoreKind::AffineAddress, 4000);
  EXPECT_FALSE(proves(affine, 30'000, 50, "affine store"));
  EXPECT_FALSE(proves(affine, 100'000, 50, "affine store"));
}

/// Where an unknown value (i·i, which is not affine) ends up in a loop that
/// runs forever: `loop: i = i + 1; u = i * i; ...; br loop`. The branch
/// always takes its loop side, but its other side would leave the loop.
enum class Unknown { Branch, Address, Divisor };

ir::Module unknownModule(Unknown where) {
  ir::Module mod;
  ir::IRBuilder b(mod);
  const std::uint64_t g = b.addGlobalI64({1, 2});
  b.createFunction("main", ir::Type::I64, 0);
  const std::uint32_t entry = b.createBlock("entry");
  const std::uint32_t loop = b.createBlock("loop");
  const std::uint32_t exit = b.createBlock("exit");
  b.setInsertBlock(entry);
  const ir::Reg i = b.newReg();
  b.emitMoveInto(i, imm(0), ir::Type::I64);
  b.emitBr(loop);
  b.setInsertBlock(loop);
  b.emitMoveInto(i, reg(b.emitBin(Opcode::Add, reg(i), imm(1), ir::Type::I64)),
                 ir::Type::I64);
  const ir::Reg u = b.emitBin(Opcode::Mul, reg(i), reg(i), ir::Type::I64);
  switch (where) {
    case Unknown::Branch: {
      const ir::Reg c = b.emitBin(Opcode::ICmpGe, reg(u), imm(0), ir::Type::I64);
      const ir::Reg any = b.emitBin(Opcode::Or, reg(c), imm(1), ir::Type::I64);
      b.emitCondBr(reg(any), loop, exit);
      break;
    }
    case Unknown::Address: {
      const ir::Reg off = b.emitBin(Opcode::And, reg(u), imm(8), ir::Type::I64);
      const ir::Reg p = b.emitBin(Opcode::Add, imm(static_cast<std::int64_t>(g)),
                                  reg(off), ir::Type::I64);
      b.emitLoad(reg(p), 8, ir::Type::I64);
      b.emitBr(loop);
      break;
    }
    case Unknown::Divisor: {
      const ir::Reg odd = b.emitBin(Opcode::Or, reg(u), imm(1), ir::Type::I64);
      b.emitBin(Opcode::SDiv, imm(7), reg(odd), ir::Type::I64);
      b.emitBr(loop);
      break;
    }
  }
  b.setInsertBlock(exit);
  b.emitRet(imm(0));
  ir::verifyOrThrow(mod);
  return mod;
}

TEST(HangProof, UnknownExitBranchesAddressesOrDivisorsAreNoProof) {
  for (const Unknown where : {Unknown::Branch, Unknown::Address, Unknown::Divisor}) {
    const ir::Module mod = unknownModule(where);
    ASSERT_EQ(reference(mod, 100'000).status, vm::ExecStatus::FuelExhausted);
    for (const std::uint64_t budget : {std::uint64_t{10'000}, std::uint64_t{100'000}}) {
      EXPECT_FALSE(proves(mod, budget, 50,
                          "unknown " + std::to_string(static_cast<int>(where))));
    }
  }
}

/// Loops that branch on an unknown value u = i·i:
/// `loop: i = i + 1; u = i * i; condbr on u`, then `latch: s = s + 1;
/// condbr i < n, loop, exit`. `kind` picks where the sides of the branch on
/// u go.
enum class Fork {
  BothStay,      ///< on u's low bit: `odd` (3 more instructions) or the latch
  ExitsOnFalse,  ///< u < lim: the latch, else return
  TrapsOnFalse,  ///< u < lim: the latch, else Abort
  ExitsOnTrue,   ///< u >= lim: return, else the latch
};

ir::Module forkModule(Fork kind, std::int64_t n, std::int64_t lim) {
  ir::Module mod;
  ir::IRBuilder b(mod);
  b.createFunction("main", ir::Type::I64, 0);
  const std::uint32_t entry = b.createBlock("entry");
  const std::uint32_t loop = b.createBlock("loop");
  const std::uint32_t odd = b.createBlock("odd");
  const std::uint32_t latch = b.createBlock("latch");
  const std::uint32_t exit = b.createBlock("exit");
  const std::uint32_t boom = b.createBlock("boom");
  const auto bin = [&](Opcode op, Operand x, Operand y) {
    return reg(b.emitBin(op, x, y, ir::Type::I64));
  };
  b.setInsertBlock(entry);
  const ir::Reg i = b.newReg();
  const ir::Reg s = b.newReg();
  b.emitMoveInto(i, imm(0), ir::Type::I64);
  b.emitMoveInto(s, imm(0), ir::Type::I64);
  b.emitBr(loop);
  b.setInsertBlock(loop);
  b.emitMoveInto(i, bin(Opcode::Add, reg(i), imm(1)), ir::Type::I64);
  const Operand u = bin(Opcode::Mul, reg(i), reg(i));
  switch (kind) {
    case Fork::BothStay:
      b.emitCondBr(bin(Opcode::And, u, imm(1)), odd, latch);
      break;
    case Fork::ExitsOnFalse:
      b.emitCondBr(bin(Opcode::ICmpLt, u, imm(lim)), latch, exit);
      break;
    case Fork::TrapsOnFalse:
      b.emitCondBr(bin(Opcode::ICmpLt, u, imm(lim)), latch, boom);
      break;
    case Fork::ExitsOnTrue:
      b.emitCondBr(bin(Opcode::ICmpGe, u, imm(lim)), exit, latch);
      break;
  }
  b.setInsertBlock(odd);
  b.emitMoveInto(s, bin(Opcode::Xor, bin(Opcode::Add, reg(s), imm(3)), imm(5)),
                 ir::Type::I64);
  b.emitBr(latch);
  b.setInsertBlock(latch);
  b.emitMoveInto(s, bin(Opcode::Add, reg(s), imm(1)), ir::Type::I64);
  b.emitCondBr(bin(Opcode::ICmpLt, reg(i), imm(n)), loop, exit);
  b.setInsertBlock(exit);
  b.emitRet(reg(s));
  b.setInsertBlock(boom);
  b.emitAbort();
  b.emitRet(imm(0));  // a terminator the Abort never reaches
  ir::verifyOrThrow(mod);
  return mod;
}

TEST(HangProof, BranchesOnUnknownValuesFollowBothSides) {
  // Both sides stay in the loop, and the loop alternates between them: a
  // proof, bounded by the shorter side. Bounding by the longer one would
  // prove the loop past its end.
  const ir::Module stays = forkModule(Fork::BothStay, 3000, 0);
  const vm::ExecResult end = reference(stays, 1'000'000);
  ASSERT_EQ(end.status, vm::ExecStatus::Ok);
  const std::uint64_t t = end.instructions;
  EXPECT_TRUE(proves(stays, t / 2, 100, "both stay"));
  for (const std::uint64_t budget : {t, t + 1, t + 100}) {
    EXPECT_FALSE(proves(stays, budget, 100, "both stay"));
  }
  EXPECT_TRUE(proves(forkModule(Fork::BothStay, kMax, 0), 1'000'000, 100,
                     "both stay forever"));
  // One side leaves the loop, to a return or a trap, once i reaches 1,000.
  // No proof, though the other side loops: past the exit the reference ends
  // Ok or traps, so a prover that follows one side only fails here.
  for (const Fork kind : {Fork::ExitsOnFalse, Fork::TrapsOnFalse,
                          Fork::ExitsOnTrue}) {
    const std::string what = "fork " + std::to_string(static_cast<int>(kind));
    const ir::Module mod = forkModule(kind, kMax, 1000 * 1000);
    const vm::ExecResult out = reference(mod, 1'000'000);
    ASSERT_EQ(out.status, kind == Fork::TrapsOnFalse ? vm::ExecStatus::Trapped
                                                     : vm::ExecStatus::Ok)
        << what;
    const std::uint64_t e = out.instructions;
    for (const std::uint64_t budget : {e / 2, e - 1, e, e + 1, e + 50'000}) {
      EXPECT_FALSE(proves(mod, budget, 50, what)) << what;
    }
  }
}

/// A hook that never exhausts and never acts.
class IdleHook final : public vm::ExecHook {
 public:
  void onRead(std::uint64_t, std::uint64_t, const ir::Instr&,
              std::span<std::uint64_t>, std::span<const bool>) override {}
  void onWrite(std::uint64_t, std::uint64_t, const ir::Instr&,
               std::uint64_t&) override {}
};

TEST(HangProof, HookedAndEndedRunsAreNotEligible) {
  // A run whose hook may still act, or that has ended, cannot be proven;
  // the caller then runs it out and gets its real end.
  const ir::Module forever = callModule(kMax);
  IdleHook hook;
  vm::ExecLimits limits;
  limits.maxInstructions = 50'000;
  vm::Machine hooked(forever, limits, &hook);
  EXPECT_FALSE(hooked.provesHang());
  EXPECT_EQ(hooked.instructions(), 0u);

  const ir::Module mod = callModule(3);
  vm::Machine ended(mod, limits, nullptr);
  EXPECT_EQ(ended.runUntil(1'000'000), vm::Machine::Stop::Ended);
  EXPECT_FALSE(ended.provesHang());
  expectSameRun(ended.run(), reference(mod, limits.maxInstructions), "ended");
}

// --- the generated loop-heavy corpus ----------------------------------------

/// Random loop-heavy MiniC programs. Each loop's counter and bound live in
/// registers, so a flipped bit stretches it into a long finite loop: most
/// loop kinds are provable (arithmetic, calls, constant stores, walks that
/// stay in or leave their array), and some are not (a floating-point
/// counter, a branch on loaded data), so proofs both fire and decline.
class LoopGen {
 public:
  explicit LoopGen(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    std::string src;
    src += "int a[64];\nint g = 5;\nint h;\n";
    src += "int step(int x, int k) { h = 3; return x + k; }\n";
    src += "int main() {\n  int s = 0;\n";
    src += "  for (int i = 0; i < 64; i++) { a[i] = i & " + k(1, 7) + "; }\n";
    const int loops = in(3, 6);
    for (int l = 0; l < loops; ++l) src += "  " + loop() + "\n";
    src += "  print_i(s);\n  return 0;\n}\n";
    return src;
  }

 private:
  int in(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  std::string k(int lo, int hi) { return std::to_string(in(lo, hi)); }

  std::string loop() {
    const std::string n = k(20, 120);
    switch (in(0, 7)) {
      case 0:
        return "for (int i = 0; i < " + n + "; i++) { s = s + i * " +
               k(2, 9) + "; }";
      case 1:
        return "{ int m = " + n + "; while (m > 0) { m = m - " + k(1, 3) +
               "; g = 5; } }";
      case 2:
        return "for (int i = 0; i < " + n + "; i = step(i, " + k(1, 2) +
               ")) { s = s + 1; }";
      case 3:
        return "for (int i = 0; i < " + std::to_string(in(8, 63)) +
               "; i++) { s = s + a[i]; }";
      case 4:
        return "{ double x = 0.0; while (x < " + n +
               ".0) { x = x + 1.0; s = s + 1; } }";
      case 5:
        return "for (int i = 0; i < " + n + "; i++) { if (a[i & 63] > " +
               k(2, 5) + ") { s = s + 1; } }";
      case 6:
        return "for (int i = 0; i < " + k(5, 20) +
               "; i++) { for (int j = 0; j < " + k(2, 6) +
               "; j++) { s = s + j; } }";
      default:
        return "{ int j = " + n + "; int t = 0; while (j != 0) { j = j - 1; "
               "t = t + 2; } s = s + t; }";
    }
  }

  std::mt19937_64 rng_;
};

TEST(HangProofCorpus, RunExperimentEqualsTheReferenceAtHangFactorsTwoToFive) {
  constexpr int kPrograms = 12;
  constexpr std::size_t kExperiments = 24;
  int proofs = 0;
  int declined = 0;
  for (int prog = 0; prog < kPrograms; ++prog) {
    LoopGen gen(0x100b + static_cast<std::uint64_t>(prog));
    const ir::Module mod = lang::compileMiniC(gen.generate());
    for (std::uint64_t hangFactor = 2; hangFactor <= 5; ++hangFactor) {
      // Both backends, with and without snapshots (and so pruning).
      const fi::Workload w(mod, hangFactor,
                           prog % 4 == 3 ? fi::SnapshotPolicy::disabled()
                                         : fi::SnapshotPolicy{},
                           fi::PrunePolicy{},
                           prog % 2 == 0 ? vm::DispatchBackend::Threaded
                                         : vm::DispatchBackend::Switch);
      for (const fi::FaultDomain d :
           {fi::FaultDomain::RegisterRead, fi::FaultDomain::RegisterWrite}) {
        fi::FaultModel model = hangFactor % 2 == 0
                                   ? fi::FaultModel::singleBit(d)
                                   : fi::FaultModel::multiBitTemporal(
                                         d, 3, fi::WinSize::fixed(10));
        model.flipWidth = prog % 3 == 0 ? 64 : 32;
        for (std::size_t e = 0; e < kExperiments; ++e) {
          const fi::FaultPlan plan = fi::FaultPlan::forExperiment(
              model, w.candidates(d), 0x5eed + prog, e);
          const fi::ExperimentResult got = fi::runExperiment(w, plan);
          const fi::ExperimentResult want = fi::runReference(w, plan);
          const std::string what = "program " + std::to_string(prog) +
                                   " hang factor " +
                                   std::to_string(hangFactor) + " " +
                                   model.label() + " #" + std::to_string(e);
          EXPECT_EQ(got.outcome, want.outcome) << what;
          EXPECT_EQ(got.trap, want.trap) << what;
          EXPECT_EQ(got.activations, want.activations) << what;
          EXPECT_EQ(got.instructions, want.instructions) << what;
          if (got.hangProof) {
            ++proofs;
            EXPECT_GT(hangFactor, 2u) << what;  // no checkpoint at <= 2
          } else if (got.outcome == stats::Outcome::Hang) {
            ++declined;
          }
        }
      }
    }
  }
  EXPECT_GT(proofs, 0);
  EXPECT_GT(declined, 0);
}

/// Random MiniC programs built around loops whose paths fork on values the
/// proof cannot track, one shape per program. A flipped counter makes each
/// loop long, and its iterations take either side of the fork:
///  * FpBranch: branches on a floating-point value the loop updates;
///  * DataBranch: branches on a global the loop stores and loads back;
///  * NestedOuter: the outer counter of a nested loop whose inner body
///    branches on a floating-point value;
///  * CallBranch: calls a function that branches on its argument.
enum class Shape { FpBranch, DataBranch, NestedOuter, CallBranch };
constexpr int kShapes = 4;

class ForkGen {
 public:
  explicit ForkGen(std::uint64_t seed) : rng_(seed) {}

  std::string generate(Shape shape) {
    std::string src;
    src += "int g = 5;\n";
    src += "int pick(int v) { if (v & 1) { return (v * 3 + 1) & 65535; } "
           "return v / 2; }\n";
    src += "int main() {\n  int s = 0;\n  double x = 0.5;\n";
    src += "  " + loop(shape) + "\n";
    src += "  print_i(s);\n  print_f(x);\n  return 0;\n}\n";
    return src;
  }

 private:
  std::string k(int lo, int hi) {
    return std::to_string(std::uniform_int_distribution<int>(lo, hi)(rng_));
  }

  std::string loop(Shape shape) {
    const std::string n = k(30, 120);
    switch (shape) {
      case Shape::FpBranch:
        return "{ int m = " + n + "; while (m > 0) { m = m - 1; x = x * 1." +
               k(3, 9) + " + 0.25; if (x > " + k(4, 9) + ".0) { x = x - " +
               k(2, 3) + ".5; s = s + 1; } else { s = s + 2; } } }";
      case Shape::DataBranch:
        return "{ int m = " + n + "; while (m > 0) { m = m - 1; g = (g * " +
               k(101, 999) + " + 7) & 1023; if (g > " + k(200, 800) +
               ") { s = s + 1; } else { s = s + 3; } } }";
      case Shape::NestedOuter:
        return "{ int o = " + k(8, 30) + "; while (o > 0) { o = o - 1; "
               "for (int j = 0; j < " + k(2, 5) + "; j++) { x = x * 1.3 + "
               "0.1; if (x > 4.0) { x = x - 3.9; } s = s + j; } } }";
      default:
        return "{ int c = " + k(7, 99) + "; int m = " + n +
               "; while (m > 0) { m = m - 1; c = pick(c); s = s + c; } }";
    }
  }

  std::mt19937_64 rng_;
};

TEST(HangProofCorpus, ForkingLoopsEqualTheReferenceAndProve) {
  constexpr int kPerShape = 3;
  constexpr std::size_t kExperiments = 16;
  int proofs[kShapes] = {};
  for (int prog = 0; prog < kShapes * kPerShape; ++prog) {
    const Shape shape = static_cast<Shape>(prog % kShapes);
    ForkGen gen(0xf02c + static_cast<std::uint64_t>(prog));
    const ir::Module mod = lang::compileMiniC(gen.generate(shape));
    for (std::uint64_t hangFactor = 2; hangFactor <= 5; ++hangFactor) {
      const fi::Workload w(mod, hangFactor,
                           prog % 3 == 2 ? fi::SnapshotPolicy::disabled()
                                         : fi::SnapshotPolicy{},
                           fi::PrunePolicy{},
                           (prog / kShapes) % 2 == 0
                               ? vm::DispatchBackend::Threaded
                               : vm::DispatchBackend::Switch);
      for (const fi::FaultDomain d :
           {fi::FaultDomain::RegisterRead, fi::FaultDomain::RegisterWrite}) {
        for (const unsigned width : {32U, 64U}) {
          fi::FaultModel model = fi::FaultModel::singleBit(d);
          model.flipWidth = width;
          for (std::size_t e = 0; e < kExperiments; ++e) {
            const fi::FaultPlan plan = fi::FaultPlan::forExperiment(
                model, w.candidates(d), 0xf0 + prog + width, e);
            const fi::ExperimentResult got = fi::runExperiment(w, plan);
            const fi::ExperimentResult want = fi::runReference(w, plan);
            const std::string what =
                "shape " + std::to_string(prog % kShapes) + " program " +
                std::to_string(prog) + " hang factor " +
                std::to_string(hangFactor) + " " + model.label() + "/" +
                std::to_string(width) + " #" + std::to_string(e);
            EXPECT_EQ(got.outcome, want.outcome) << what;
            EXPECT_EQ(got.trap, want.trap) << what;
            EXPECT_EQ(got.activations, want.activations) << what;
            EXPECT_EQ(got.instructions, want.instructions) << what;
            proofs[prog % kShapes] += got.hangProof ? 1 : 0;
          }
        }
      }
    }
  }
  std::printf("[ proofs   ] by shape: fp %d, data %d, nested %d, call %d\n",
              proofs[0], proofs[1], proofs[2], proofs[3]);
  for (int shape = 0; shape < kShapes; ++shape) {
    EXPECT_GT(proofs[shape], 0) << "shape " << shape;
  }
}

// --- the paper's programs ----------------------------------------------------

TEST(HangProofPaper, EveryProofOnTheFig4GridEqualsTheReference) {
  // The 15 programs under every Fig. 4/5 grid model of both techniques, at
  // flip widths 32 and 64, as the drivers run them. A run ended by a proof
  // must equal the reference run field for field. basicmath's hangs branch
  // on floating-point values and crc32's on the bits of a shifted word:
  // the prover must prove every one of them.
  constexpr std::size_t kExperiments = 1;
  std::size_t proofs = 0;
  std::size_t mustProve[2] = {};  // basicmath's hangs, crc32's
  std::uint64_t cell = 0;
  for (const progs::ProgramInfo& info : progs::allPrograms()) {
    const fi::Workload w(progs::compileProgram(info),
                         fi::Workload::kDefaultHangFactor, fi::SnapshotPolicy{},
                         fi::PrunePolicy{}, vm::DispatchBackend::Threaded);
    const int all = info.name == "basicmath" ? 0 : info.name == "crc32" ? 1 : -1;
    for (const fi::FaultDomain d :
         {fi::FaultDomain::RegisterRead, fi::FaultDomain::RegisterWrite}) {
      for (const unsigned width : {32U, 64U}) {
        for (fi::FaultModel model : fi::multiRegisterCampaigns(d)) {
          model.flipWidth = width;
          const std::uint64_t seed = util::hashCombine(0x6a9, cell++);
          for (std::size_t e = 0; e < kExperiments; ++e) {
            const fi::FaultPlan plan = fi::FaultPlan::forExperiment(
                model, w.candidates(d), seed, e);
            const fi::ExperimentResult got = fi::runExperiment(w, plan);
            const std::string what = info.name + " " + model.label() + "/" +
                                     std::to_string(width) + " #" +
                                     std::to_string(e);
            if (all >= 0 && got.outcome == stats::Outcome::Hang) {
              ++mustProve[all];
              EXPECT_TRUE(got.hangProof) << what;
            }
            if (!got.hangProof) continue;
            ++proofs;
            const fi::ExperimentResult want = fi::runReference(w, plan);
            EXPECT_EQ(got.outcome, want.outcome) << what;
            EXPECT_EQ(got.trap, want.trap) << what;
            EXPECT_EQ(got.activations, want.activations) << what;
            EXPECT_EQ(got.instructions, want.instructions) << what;
          }
        }
      }
    }
  }
  std::printf("[ proofs   ] %zu on the grid; hangs: basicmath %zu, crc32 %zu\n",
              proofs, mustProve[0], mustProve[1]);
  EXPECT_GT(mustProve[0], 0u);
  EXPECT_GT(mustProve[1], 0u);
}

// --- the hang budget ---------------------------------------------------------

TEST(HangBudget, AHangFactorWhoseBudgetOverflowsIsRejected) {
  const ir::Module mod = callModule(10);
  const std::uint64_t golden = fi::Workload(mod).golden().instructions;
  // The budget is golden × hangFactor + 10,000: the largest factor that
  // fits builds, the next one throws.
  const std::uint64_t largest =
      (std::numeric_limits<std::uint64_t>::max() - 10'000) / golden;
  const fi::Workload fits(mod, largest);
  EXPECT_EQ(fits.faultyLimits().maxInstructions, golden * largest + 10'000);
  EXPECT_THROW(fi::Workload(mod, largest + 1), std::invalid_argument);
  EXPECT_THROW(fi::Workload(mod, std::numeric_limits<std::uint64_t>::max()),
               std::invalid_argument);
  EXPECT_EQ(fi::Workload(mod, 0).faultyLimits().maxInstructions, 10'000u);
}

}  // namespace
}  // namespace onebit
