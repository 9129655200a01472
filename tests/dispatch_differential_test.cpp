// Differential backend fuzzer: the proof that DispatchBackend::Threaded is
// bit-identical to the reference switch loop.
//
//  * a seeded generator produces hundreds of random MiniC programs —
//    bounded loops, helper calls, masked and deliberately out-of-range
//    array indexing, integer division (including by computed zero), double
//    math through the intrinsics, interleaved prints — and every program
//    runs once per backend; outputs, traps, all candidate counters, the
//    return value, and the full post-run machine state (Machine::compare)
//    must match;
//  * fault-injection rounds: plans from every FaultDomain drive an
//    InjectorHook through both backends (the hooked prefix is shared, the
//    post-exhaustion suffix is where the backends diverge in code path);
//  * capture rounds run the snapshotting golden run on each backend: both
//    must stop on the same instructions and keep equal snapshots, field by
//    field, over the whole corpus;
//  * snapshot-resume rounds enter the threaded stream mid-block,
//    mid-call-stack, from those snapshots — in one round at every
//    instruction of the run;
//  * a fuel sweep stops the run on every instruction of its first few
//    thousand, so fuel runs out on every Op of a segment, on Call and Ret,
//    and on both Ops of a fused op+move pair;
//  * a stop sweep pauses the run with Machine::runUntil on every
//    instruction of its first few thousand: both backends must pause in
//    the same state and then finish identically.
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fi/fault_plan.hpp"
#include "fi/injector_hook.hpp"
#include "lang/compile.hpp"
#include "vm/machine.hpp"
#include "vm/snapshot.hpp"
#include "vm/threaded.hpp"

namespace onebit {
namespace {

struct RunOutcome {
  vm::ExecResult result;
  std::unique_ptr<vm::Machine> machine;  ///< the finished machine
};

/// A machine for `mod` on `backend` that has not run yet.
RunOutcome start(const ir::Module& mod, vm::DispatchBackend backend,
                 vm::ExecHook* hook = nullptr,
                 std::uint64_t fuel = 2'000'000) {
  vm::ExecLimits limits;
  limits.dispatch = backend;
  limits.maxInstructions = fuel;
  return {{}, std::make_unique<vm::Machine>(mod, limits, hook)};
}

RunOutcome runOnce(const ir::Module& mod, vm::DispatchBackend backend,
                   vm::ExecHook* hook = nullptr,
                   std::uint64_t fuel = 2'000'000) {
  RunOutcome out = start(mod, backend, hook, fuel);
  out.result = out.machine->run();
  return out;
}

void expectSameRun(const RunOutcome& sw, const RunOutcome& th,
                   const std::string& context) {
  EXPECT_EQ(sw.result.status, th.result.status) << context;
  EXPECT_EQ(sw.result.trap, th.result.trap) << context;
  EXPECT_EQ(sw.result.instructions, th.result.instructions) << context;
  EXPECT_EQ(sw.result.readCandidates, th.result.readCandidates) << context;
  EXPECT_EQ(sw.result.writeCandidates, th.result.writeCandidates) << context;
  EXPECT_EQ(sw.result.storeCandidates, th.result.storeCandidates) << context;
  EXPECT_EQ(sw.result.returnValue, th.result.returnValue) << context;
  EXPECT_EQ(sw.result.outputTruncated, th.result.outputTruncated) << context;
  EXPECT_EQ(sw.result.output, th.result.output) << context;
  EXPECT_EQ(th.machine->compare(sw.machine->capture()), vm::StateDiff::Equal)
      << context;
}

/// True when instruction `i` of `bb` is the Move of a fused op+move pair:
/// it copies the destination of the fusable op right before it.
bool isFusedMove(const ir::BasicBlock& bb, std::size_t i) {
  if (i == 0 || i >= bb.instrs.size()) return false;
  const ir::Instr& mv = bb.instrs[i];
  const ir::Instr& first = bb.instrs[i - 1];
  return mv.op == ir::Opcode::Move && mv.operands.size() == 1 &&
         mv.operands[0].isReg() && mv.operands[0].reg == first.dest &&
         vm::ThreadedCode::fusesMove(first.op);
}

/// Random-program generator. Every emitted program is valid MiniC by
/// construction; its *behavior* is unconstrained — programs may trap
/// (division by a computed zero, out-of-range indices into the global
/// array) or run clean, and both classes must agree across backends.
class ProgramGen {
 public:
  explicit ProgramGen(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    size_ = pick({16, 32, 64});
    const int lcgSeed = intIn(1, 1 << 20);
    std::string src;
    src += "int a[" + std::to_string(size_) + "];\n";
    src += "int seed = " + std::to_string(lcgSeed) + ";\n";
    src += "double dacc = " + std::to_string(intIn(1, 9)) + ".5;\n";
    src +=
        "int rnd() { seed = (seed * 1103515245 + 12345) & 1073741823; "
        "return seed; }\n";
    src += "int f1(int x, int y) { int z = x * " +
           std::to_string(intIn(2, 9)) + " + y; if (z % 3 == 0) { z = z - " +
           std::to_string(intIn(1, 40)) + "; } return z & 1048575; }\n";
    src += "double g1(double x, int k) { return x * 0.5 + (double)k * " +
           std::to_string(intIn(1, 4)) + ".25; }\n";
    src += "int main() {\n";
    src += "  for (int i = 0; i < " + std::to_string(size_) +
           "; i++) { a[i] = rnd() % " + std::to_string(intIn(50, 2000)) +
           "; }\n";
    src += "  int s = " + std::to_string(intIn(0, 100)) + ";\n";
    src += "  int t = " + std::to_string(intIn(1, 50)) + ";\n";
    src += "  int* p = alloc_int(8);\n";
    src += "  for (int i = 0; i < 8; i++) { p[i] = a[i] + i; }\n";
    const int rounds = intIn(2, 6);
    src += "  for (int r = 0; r < " + std::to_string(rounds) + "; r++) {\n";
    const int stmts = intIn(4, 12);
    for (int i = 0; i < stmts; ++i) src += "    " + statement() + "\n";
    src += "  }\n";
    src += "  print_i(s); print_c(32); print_i(t); print_c(10);\n";
    src += "  print_f(dacc); print_c(10);\n";
    src += "  return s % 7;\n";
    src += "}\n";
    return src;
  }

 private:
  int intIn(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  int pick(std::initializer_list<int> xs) {
    auto it = xs.begin();
    std::advance(it, intIn(0, static_cast<int>(xs.size()) - 1));
    return *it;
  }
  std::string idx(const std::string& e) {
    return "a[(" + e + ") % " + std::to_string(size_) + "]";
  }

  std::string statement() {
    switch (intIn(0, 11)) {
      case 0:
        return "s = (s * " + std::to_string(intIn(3, 97)) + " + " +
               idx("s & 4095") + " + r) & 1048575;";
      case 1:
        return idx("s + " + std::to_string(intIn(0, 63))) + " = " +
               idx("s * 3 + r") + " + t;";
      case 2:
        return "t = f1(s, " + idx("r") + ");";
      case 3:
        return "if (s % 2 == 1) { s = s + t; } else { t = t - 1; }";
      case 4:
        return "dacc = g1(dacc, " + idx("r + " + std::to_string(intIn(0, 7))) +
               ");";
      case 5:
        return "dacc = dacc + sqrt((double)(" + idx("r") + " % 77 + 1));";
      case 6:
        // Denominator can reach zero -> DivByZero trap in some programs.
        return "s = s + t / (" + idx("s + r") + " % " +
               std::to_string(intIn(2, 9)) + " + " +
               std::to_string(intIn(0, 1)) + ");";
      case 7:
        // Unmasked index: out of range whenever the draw lands past the
        // array -> SegFault trap in some programs.
        return "s = s + a[rnd() % " + std::to_string(size_ + intIn(0, 24)) +
               "];";
      case 8:
        return "p[(s + r) % 8] = p[(t + r) % 8] + " +
               std::to_string(intIn(1, 30)) + ";";
      case 9:
        return "t = (t << " + std::to_string(intIn(1, 6)) + ") % 65521 + " +
               "(s >> " + std::to_string(intIn(1, 4)) + ");";
      case 10:
        return "while (t > " + std::to_string(intIn(200, 900)) +
               ") { t = t / 2; }";
      default:
        return "s = s - " + idx("t") + " % 257;";
    }
  }

  std::mt19937_64 rng_;
  int size_ = 32;
};

TEST(DispatchDifferential, FiveHundredRandomProgramsBitIdentical) {
  constexpr int kPrograms = 500;
  int trapped = 0;
  int clean = 0;
  for (int i = 0; i < kPrograms; ++i) {
    ProgramGen gen(0xD15BA7C4ULL + static_cast<std::uint64_t>(i));
    const std::string src = gen.generate();
    ir::Module mod = lang::compileMiniC(src);
    const RunOutcome sw = runOnce(mod, vm::DispatchBackend::Switch);
    const RunOutcome th = runOnce(mod, vm::DispatchBackend::Threaded);
    expectSameRun(sw, th, "program " + std::to_string(i));
    if (sw.result.status == vm::ExecStatus::Trapped) ++trapped;
    if (sw.result.status == vm::ExecStatus::Ok) ++clean;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first diverging program:\n" << src;
      break;
    }
  }
  // The corpus must actually exercise both the clean path and the trap
  // paths, or "identical" proves less than it claims. The generator is
  // seeded, so these are deterministic, not flaky.
  EXPECT_GT(trapped, 10);
  EXPECT_GT(clean, 100);
}

TEST(DispatchDifferential, TinyFuelAgreesOnFuelExhaustion) {
  // The fuel check sits between fetch and execute; an off-by-one in either
  // backend shows up as a one-instruction disagreement here. Every fuel
  // value from 1 up stops the run on each of its first kMaxFuel
  // instructions in turn, so the threaded loop's per-segment fuel check
  // meets every offset into every segment it enters. The stopping
  // instruction is read off the reference machine's top frame (ip - 1 is
  // the instruction fetched last).
  constexpr std::uint64_t kMaxFuel = 2500;
  int stoppedAtCall = 0;
  int stoppedAtRet = 0;
  int stoppedAtFusedOp = 0;
  int stoppedAtFusedMove = 0;
  for (const std::uint64_t seed : {0xF0E1ULL, 0xF0E2ULL, 0xF0E3ULL}) {
    ProgramGen gen(seed);
    ir::Module mod = lang::compileMiniC(gen.generate());
    for (std::uint64_t fuel = 1; fuel <= kMaxFuel; ++fuel) {
      const RunOutcome sw =
          runOnce(mod, vm::DispatchBackend::Switch, nullptr, fuel);
      const RunOutcome th =
          runOnce(mod, vm::DispatchBackend::Threaded, nullptr, fuel);
      const std::string context = "seed " + std::to_string(seed) + " fuel " +
                                  std::to_string(fuel);
      expectSameRun(sw, th, context);
      if (::testing::Test::HasFailure()) return;
      if (sw.result.status != vm::ExecStatus::FuelExhausted) break;
      const vm::Snapshot::Frame top = sw.machine->capture().frames.back();
      const ir::BasicBlock& bb = mod.functions[top.fn].blocks[top.block];
      const std::size_t fetched = top.ip - 1;
      stoppedAtCall += bb.instrs[fetched].op == ir::Opcode::Call ? 1 : 0;
      stoppedAtRet += bb.instrs[fetched].op == ir::Opcode::Ret ? 1 : 0;
      stoppedAtFusedOp += isFusedMove(bb, fetched + 1) ? 1 : 0;
      stoppedAtFusedMove += isFusedMove(bb, fetched) ? 1 : 0;
    }
  }
  EXPECT_GT(stoppedAtCall, 0);
  EXPECT_GT(stoppedAtRet, 0);
  EXPECT_GT(stoppedAtFusedOp, 0);
  EXPECT_GT(stoppedAtFusedMove, 0);
}

TEST(DispatchDifferential, TinyStopsPauseBothBackendsAlike) {
  // runUntil(n) shares the fuel check: the threaded loop parks at the start
  // of the segment that would cross n and the reference loop steps to it.
  // Every n from 1 up pauses the run before each of its first kMaxStop
  // instructions in turn (read off the reference machine's top frame: ip is
  // the next instruction), so the stop meets every offset into every
  // segment. Both backends must pause in the same state and then finish
  // identically.
  constexpr std::uint64_t kMaxStop = 2500;
  int stoppedAtCall = 0;
  int stoppedAtRet = 0;
  int stoppedAtFusedOp = 0;
  int stoppedAtFusedMove = 0;
  for (const std::uint64_t seed : {0xF0E1ULL, 0xF0E2ULL, 0xF0E3ULL}) {
    ProgramGen gen(seed);
    ir::Module mod = lang::compileMiniC(gen.generate());
    for (std::uint64_t n = 1; n <= kMaxStop; ++n) {
      RunOutcome sw = start(mod, vm::DispatchBackend::Switch);
      RunOutcome th = start(mod, vm::DispatchBackend::Threaded);
      const vm::Machine::Stop stop = sw.machine->runUntil(n);
      const std::string context =
          "seed " + std::to_string(seed) + " stop " + std::to_string(n);
      ASSERT_EQ(th.machine->runUntil(n), stop) << context;
      if (stop != vm::Machine::Stop::Paused) break;  // ended before n
      ASSERT_EQ(sw.machine->instructions(), n) << context;
      const vm::Snapshot paused = sw.machine->capture();
      ASSERT_EQ(th.machine->compare(paused), vm::StateDiff::Equal) << context;
      const vm::Snapshot::Frame& top = paused.frames.back();
      const ir::BasicBlock& bb = mod.functions[top.fn].blocks[top.block];
      stoppedAtCall += bb.instrs[top.ip].op == ir::Opcode::Call ? 1 : 0;
      stoppedAtRet += bb.instrs[top.ip].op == ir::Opcode::Ret ? 1 : 0;
      stoppedAtFusedOp += isFusedMove(bb, top.ip + 1) ? 1 : 0;
      stoppedAtFusedMove += isFusedMove(bb, top.ip) ? 1 : 0;
      sw.result = sw.machine->run();
      th.result = th.machine->run();
      expectSameRun(sw, th, context);
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(stoppedAtCall, 0);
  EXPECT_GT(stoppedAtRet, 0);
  EXPECT_GT(stoppedAtFusedOp, 0);
  EXPECT_GT(stoppedAtFusedMove, 0);
}

TEST(DispatchDifferential, InjectionRoundsAcrossAllDomains) {
  const fi::FaultDomain kDomains[] = {
      fi::FaultDomain::RegisterRead,
      fi::FaultDomain::RegisterWrite,
      fi::FaultDomain::MemoryData,
      fi::FaultDomain::RandomValue,
  };
  constexpr int kProgramsPerDomain = 12;
  constexpr int kPlansPerProgram = 6;
  for (const fi::FaultDomain domain : kDomains) {
    const fi::FaultModel model = fi::FaultModel::singleBit(domain);
    for (int p = 0; p < kProgramsPerDomain; ++p) {
      ProgramGen gen(0x1213E0ULL + static_cast<std::uint64_t>(p) * 131 +
                     static_cast<std::uint64_t>(domain));
      ir::Module mod = lang::compileMiniC(gen.generate());
      const RunOutcome golden = runOnce(mod, vm::DispatchBackend::Switch);
      const std::uint64_t candidates = [&] {
        switch (domain) {
          case fi::FaultDomain::RegisterRead:
            return golden.result.readCandidates;
          case fi::FaultDomain::RegisterWrite:
            return golden.result.writeCandidates;
          case fi::FaultDomain::MemoryData:
            return golden.result.storeCandidates;
          case fi::FaultDomain::RandomValue:
            return golden.result.instructions;
        }
        return golden.result.readCandidates;
      }();
      if (candidates == 0) continue;  // trapped before any candidate
      for (int e = 0; e < kPlansPerProgram; ++e) {
        const fi::FaultPlan plan = fi::FaultPlan::forExperiment(
            model, candidates, 0xCAFE + static_cast<std::uint64_t>(p),
            static_cast<std::uint64_t>(e));
        fi::InjectorHook swHook(plan);
        fi::InjectorHook thHook(plan);
        const RunOutcome sw =
            runOnce(mod, vm::DispatchBackend::Switch, &swHook);
        const RunOutcome th =
            runOnce(mod, vm::DispatchBackend::Threaded, &thHook);
        const std::string context =
            "domain " + std::to_string(static_cast<int>(domain)) +
            " program " + std::to_string(p) + " plan " + std::to_string(e);
        expectSameRun(sw, th, context);
        EXPECT_EQ(swHook.activations(), thHook.activations()) << context;
      }
    }
  }
}

/// Run executeWithSnapshots on both backends: the results and the kept
/// snapshots must be equal, field by field. Returns the reference loop's.
std::vector<vm::Snapshot> captureOnBothBackends(
    const ir::Module& mod, vm::ExecLimits limits,
    const vm::SnapshotCapturePolicy& policy, vm::ExecResult& full,
    const std::string& where) {
  std::vector<vm::Snapshot> sw;
  std::vector<vm::Snapshot> th;
  limits.dispatch = vm::DispatchBackend::Switch;
  full = vm::executeWithSnapshots(mod, limits, policy, sw);
  limits.dispatch = vm::DispatchBackend::Threaded;
  const vm::ExecResult b = vm::executeWithSnapshots(mod, limits, policy, th);
  EXPECT_EQ(full.status, b.status) << where;
  EXPECT_EQ(full.instructions, b.instructions) << where;
  EXPECT_EQ(full.output, b.output) << where;
  EXPECT_EQ(sw.size(), th.size()) << where;
  for (std::size_t k = 0; k < sw.size() && k < th.size(); ++k) {
    EXPECT_TRUE(sw[k] == th[k]) << where << " snapshot " << k << " at "
                                << sw[k].instructions << " / "
                                << th[k].instructions;
  }
  return sw;
}

TEST(DispatchDifferential, CaptureKeepsEqualSnapshotsOnBothBackends) {
  // Every corpus program at interval 1 (the retention cap coarsens the
  // cadence many times over, so stops land on every offset into early
  // segments) and at interval 64.
  constexpr int kPrograms = 500;
  std::size_t kept = 0;
  for (int i = 0; i < kPrograms; ++i) {
    ProgramGen gen(0xD15BA7C4ULL + static_cast<std::uint64_t>(i));
    const ir::Module mod = lang::compileMiniC(gen.generate());
    vm::ExecLimits limits;
    limits.maxInstructions = 2'000'000;
    for (const std::uint64_t interval : {1, 64}) {
      vm::SnapshotCapturePolicy policy;
      policy.interval = interval;
      vm::ExecResult full;
      kept += captureOnBothBackends(mod, limits, policy, full,
                                    "program " + std::to_string(i) +
                                        " interval " +
                                        std::to_string(interval))
                  .size();
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(kept, std::size_t{kPrograms} * 32);
}

/// Resume every snapshot on both backends; both continuations must agree
/// with each other and with the uninterrupted reference run.
void expectResumesAgree(const ir::Module& mod, const vm::ExecLimits& limits,
                        const vm::ExecResult& full,
                        const std::vector<vm::Snapshot>& snaps,
                        const std::string& where) {
  for (std::size_t s = 0; s < snaps.size(); ++s) {
    vm::ExecLimits sw = limits;
    sw.dispatch = vm::DispatchBackend::Switch;
    vm::ExecLimits th = limits;
    th.dispatch = vm::DispatchBackend::Threaded;
    const vm::ExecResult a = vm::resume(mod, snaps[s], sw, nullptr);
    const vm::ExecResult b = vm::resume(mod, snaps[s], th, nullptr);
    const std::string context = where + " snapshot " + std::to_string(s);
    EXPECT_EQ(a.status, b.status) << context;
    EXPECT_EQ(a.trap, b.trap) << context;
    EXPECT_EQ(a.instructions, b.instructions) << context;
    EXPECT_EQ(a.output, b.output) << context;
    EXPECT_EQ(a.readCandidates, b.readCandidates) << context;
    EXPECT_EQ(a.writeCandidates, b.writeCandidates) << context;
    EXPECT_EQ(a.storeCandidates, b.storeCandidates) << context;
    // Both resumed continuations must also agree with the uninterrupted
    // reference run (the snapshot contract).
    EXPECT_EQ(b.status, full.status) << context;
    EXPECT_EQ(b.instructions, full.instructions) << context;
    EXPECT_EQ(b.output, full.output) << context;
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(DispatchDifferential, SnapshotResumeEntersThreadedMidBlock) {
  // Two capture rounds per program. Interval 64 with a cap keeps a spread
  // of mid-block, mid-call-stack points. Interval 1 with no retention cap
  // keeps a snapshot at every instruction, so the threaded loop is entered
  // on the Move of every fused pair and right after every Call (at the
  // return point) that the run reaches.
  constexpr int kPrograms = 10;
  int atFusedMove = 0;
  int afterCall = 0;
  for (int p = 0; p < kPrograms; ++p) {
    ProgramGen gen(0x5AA5ULL + static_cast<std::uint64_t>(p) * 977);
    ir::Module mod = lang::compileMiniC(gen.generate());
    vm::ExecLimits limits;
    limits.maxInstructions = 2'000'000;
    vm::SnapshotCapturePolicy sparse;
    sparse.interval = 64;
    sparse.maxSnapshots = 32;
    vm::SnapshotCapturePolicy every;
    every.interval = 1;
    every.maxSnapshots = 0;
    every.budgetBytes = 0;
    for (const vm::SnapshotCapturePolicy& capture : {sparse, every}) {
      const std::string where = "program " + std::to_string(p) +
                                " interval " +
                                std::to_string(capture.interval);
      vm::ExecResult full;
      const std::vector<vm::Snapshot> snaps =
          captureOnBothBackends(mod, limits, capture, full, where);
      ASSERT_FALSE(snaps.empty()) << where;
      expectResumesAgree(mod, limits, full, snaps, where);
      if (capture.interval != 1) continue;
      for (const vm::Snapshot& snap : snaps) {
        const vm::Snapshot::Frame& top = snap.frames.back();
        const ir::BasicBlock& bb = mod.functions[top.fn].blocks[top.block];
        atFusedMove += isFusedMove(bb, top.ip) ? 1 : 0;
        afterCall +=
            top.ip > 0 && bb.instrs[top.ip - 1].op == ir::Opcode::Call ? 1
                                                                        : 0;
      }
    }
  }
  EXPECT_GT(atFusedMove, 0);
  EXPECT_GT(afterCall, 0);
}

}  // namespace
}  // namespace onebit
