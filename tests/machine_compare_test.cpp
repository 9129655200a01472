// Machine::runUntil and Machine::compare: the exact state comparison that
// outcome-equivalence pruning (fi::runExperiment) stands on.
//
//  * runUntil pauses exactly at the requested instruction count on both
//    backends, never while a hook is live, and reports a count already run
//    past and the end of a run;
//  * faulty runs of the kitchen-sink program from all four fault domains,
//    paused at every golden snapshot once their hook is exhausted: every
//    Equal compare is followed by a full run that is Benign with the golden
//    instruction count, a converged run stays converged, and pausing never
//    changes how a run ends;
//  * one flipped byte in any single part of a snapshot — a register, a
//    frame field, a counter, a global, a stack byte below the high-water
//    mark, a heap byte, the output — defeats a match and names that part,
//    and so do an extra zero heap byte and the truncation flag;
//  * a different stack high-water mark over zero bytes still matches.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fi/experiment.hpp"
#include "fi/fault_plan.hpp"
#include "fi/injector_hook.hpp"
#include "lang/compile.hpp"
#include "vm/machine.hpp"
#include "vm/snapshot.hpp"

namespace onebit::vm {
namespace {

/// Exercises every opcode family (the snapshot_test kitchen sink).
const char* const kKitchenSink = R"MC(
int g[16];
double gd = 0.25;

int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}

int hash(int h, int v) {
  h = (h ^ v) * 16777619;
  h = (h << 3) | (h >> 29);
  return h & 2147483647;
}

int main() {
  int local[8];
  int* heap = alloc_int(12);
  double* fheap = alloc_double(4);
  int h = 2166136261;
  for (int i = 0; i < 16; i++) {
    g[i] = i * i - 3 * i + 7;
    h = hash(h, g[i]);
  }
  for (int i = 0; i < 8; i++) { local[i] = g[i * 2] % 13; }
  for (int i = 0; i < 12; i++) { heap[i] = local[i % 8] + i / 3; }
  double acc = gd;
  for (int i = 0; i < 4; i++) {
    fheap[i] = sqrt(1.0 * heap[i] + 2.5);
    acc = acc + fheap[i] * 0.5 - 0.125;
  }
  int f = fib(9);
  print_s("h=");
  print_i(h);
  print_c(10);
  print_s("acc=");
  print_f(acc);
  print_c(10);
  print_s("fib=");
  print_i(f);
  print_c(10);
  if (acc > 100.0) { return 1; }
  return f % 7;
}
)MC";

/// The kitchen sink's golden run, with a snapshot every 8 instructions and
/// none dropped.
struct Golden {
  ir::Module mod = lang::compileMiniC(kKitchenSink);
  std::vector<Snapshot> snaps;
  ExecResult result;

  Golden() {
    SnapshotCapturePolicy every;
    every.interval = 8;
    every.maxSnapshots = 0;
    every.budgetBytes = 0;
    result = executeWithSnapshots(mod, {}, every, snaps);
  }
};

TEST(RunUntil, PausesExactlyOnBothBackendsAndReportsTheEnd) {
  const Golden golden;
  const std::uint64_t total = golden.result.instructions;
  ASSERT_GT(total, 1000u);
  for (const DispatchBackend backend :
       {DispatchBackend::Switch, DispatchBackend::Threaded}) {
    SCOPED_TRACE(backend == DispatchBackend::Threaded ? "threaded" : "switch");
    ExecLimits limits;
    limits.dispatch = backend;
    Machine m(golden.mod, limits, nullptr);
    for (const std::uint64_t n :
         {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{17},
          std::uint64_t{500}, std::uint64_t{500}, total - 1}) {
      ASSERT_EQ(m.runUntil(n), Machine::Stop::Paused) << n;
      EXPECT_EQ(m.instructions(), n);
    }
    EXPECT_EQ(m.runUntil(3), Machine::Stop::Overshot);
    EXPECT_EQ(m.instructions(), total - 1);
    // The last instruction is main's Ret: the run ends on it.
    EXPECT_EQ(m.runUntil(total), Machine::Stop::Ended);
    EXPECT_EQ(m.runUntil(total + 10), Machine::Stop::Ended);
    const ExecResult finished = m.run();
    EXPECT_EQ(finished.status, ExecStatus::Ok);
    EXPECT_EQ(finished.instructions, total);
    EXPECT_EQ(finished.output, golden.result.output);

    // Fuel below the stop ends the run on the fuel budget, as run() would.
    ExecLimits fuel = limits;
    fuel.maxInstructions = 100;
    Machine starved(golden.mod, fuel, nullptr);
    EXPECT_EQ(starved.runUntil(1000), Machine::Stop::Ended);
    const ExecResult out = starved.run();
    EXPECT_EQ(out.status, ExecStatus::FuelExhausted);
    EXPECT_EQ(out.instructions, 101u);
  }
}

TEST(RunUntil, NeverPausesWhileTheHookIsLive) {
  const Golden golden;
  const fi::FaultPlan plan = fi::FaultPlan::atLocation(
      fi::FaultModel::singleBit(fi::FaultDomain::RegisterWrite), 300, 1, 0);
  fi::InjectorHook hook(plan);
  ExecLimits limits;
  limits.maxInstructions = golden.result.instructions * 50;
  Machine m(golden.mod, limits, &hook);
  // The hook exhausts at write candidate 300, hundreds of instructions in.
  EXPECT_EQ(m.runUntil(1), Machine::Stop::Overshot);
  EXPECT_TRUE(hook.exhausted());
  EXPECT_GT(m.instructions(), 300u);
}

std::uint64_t candidatesOf(const ExecResult& r, fi::FaultDomain d) {
  switch (d) {
    case fi::FaultDomain::RegisterRead: return r.readCandidates;
    case fi::FaultDomain::RegisterWrite: return r.writeCandidates;
    case fi::FaultDomain::MemoryData: return r.storeCandidates;
    case fi::FaultDomain::RandomValue: return r.instructions;
  }
  return 0;
}

TEST(Compare, EveryMatchIsABenignRunWithTheGoldenCount) {
  const Golden golden;
  ASSERT_GT(golden.snaps.size(), 50u);
  ExecLimits limits;
  limits.maxInstructions = golden.result.instructions * 50 + 10'000;
  const fi::FaultDomain domains[] = {
      fi::FaultDomain::RegisterRead, fi::FaultDomain::RegisterWrite,
      fi::FaultDomain::MemoryData, fi::FaultDomain::RandomValue};
  int matched = 0;
  int neverMatched = 0;
  for (const fi::FaultDomain d : domains) {
    SCOPED_TRACE(static_cast<int>(d));
    const fi::FaultModel model = fi::FaultModel::singleBit(d);
    const std::uint64_t candidates = candidatesOf(golden.result, d);
    ASSERT_GT(candidates, 0u);
    for (std::uint64_t i = 0; i < 40; ++i) {
      const fi::FaultPlan plan =
          fi::FaultPlan::forExperiment(model, candidates, 0x5eed, i);
      fi::InjectorHook hook(plan);
      Machine m(golden.mod, limits, &hook);
      bool equal = false;
      for (const Snapshot& snap : golden.snaps) {
        const Machine::Stop stop = m.runUntil(snap.instructions);
        if (stop == Machine::Stop::Ended) break;
        if (stop == Machine::Stop::Overshot) continue;
        const StateDiff diff = m.compare(snap);
        // A converged run IS the golden run from there on.
        if (equal) {
          EXPECT_EQ(diff, StateDiff::Equal) << "plan " << i;
        }
        equal = equal || diff == StateDiff::Equal;
      }
      const ExecResult paused = m.run();

      fi::InjectorHook fresh(plan);
      const ExecResult full = execute(golden.mod, limits, &fresh);
      EXPECT_EQ(paused.status, full.status) << "plan " << i;
      EXPECT_EQ(paused.trap, full.trap) << "plan " << i;
      EXPECT_EQ(paused.instructions, full.instructions) << "plan " << i;
      EXPECT_EQ(paused.output, full.output) << "plan " << i;
      if (equal) {
        ++matched;
        EXPECT_EQ(fi::classify(full, golden.result), stats::Outcome::Benign)
            << "plan " << i;
        EXPECT_EQ(full.instructions, golden.result.instructions)
            << "plan " << i;
      } else {
        ++neverMatched;
      }
    }
  }
  // Both kinds must occur, or the check proves less than it claims.
  EXPECT_GT(matched, 0);
  EXPECT_GT(neverMatched, 0);
}

/// Flip every byte of `bytes` in turn; each flip must make `m` differ from
/// `snap` in part `want`.
template <class T>
void expectEveryByteDiffers(const Machine& m, Snapshot& snap, T* data,
                            std::size_t count, StateDiff want,
                            const std::string& what) {
  auto* bytes = reinterpret_cast<unsigned char*>(data);
  for (std::size_t i = 0; i < count * sizeof(T); ++i) {
    bytes[i] ^= 0xff;
    EXPECT_EQ(m.compare(snap), want) << what << " byte " << i;
    bytes[i] ^= 0xff;
  }
  ASSERT_EQ(m.compare(snap), StateDiff::Equal) << what;
}

TEST(Compare, OneFlippedByteInAnyPartDefeatsAMatch) {
  const Golden golden;
  // A snapshot deep in fib's recursion (parked frames, a written stack, a
  // heap) and the last one (output), so every part is non-empty in one.
  const Snapshot* deep = nullptr;
  for (const Snapshot& s : golden.snaps) {
    if (deep == nullptr || s.frames.size() > deep->frames.size()) deep = &s;
  }
  ASSERT_GE(deep->frames.size(), 4u);
  const Snapshot& last = golden.snaps.back();
  ASSERT_FALSE(last.output.empty());
  for (const Snapshot* base : {deep, &last}) {
    const Machine m(golden.mod, *base, {}, nullptr);
    ASSERT_EQ(m.compare(*base), StateDiff::Equal);
    Snapshot s = *base;
    ASSERT_FALSE(s.regs.empty());
    ASSERT_FALSE(s.globals.empty());
    ASSERT_FALSE(s.stack.empty());
    ASSERT_FALSE(s.heap.empty());

    expectEveryByteDiffers(m, s, s.regs.data(), s.regs.size(),
                           StateDiff::Registers, "register");
    for (std::size_t f = 0; f < s.frames.size(); ++f) {
      Snapshot::Frame& fr = s.frames[f];
      const std::string at = " of frame " + std::to_string(f);
      expectEveryByteDiffers(m, s, &fr.fn, 1, StateDiff::Control, "fn" + at);
      expectEveryByteDiffers(m, s, &fr.block, 1, StateDiff::Control,
                             "block" + at);
      expectEveryByteDiffers(m, s, &fr.ip, 1, StateDiff::Control, "ip" + at);
      expectEveryByteDiffers(m, s, &fr.regBase, 1, StateDiff::Control,
                             "regBase" + at);
      expectEveryByteDiffers(m, s, &fr.frameBase, 1, StateDiff::Control,
                             "frameBase" + at);
    }
    expectEveryByteDiffers(m, s, &s.instructions, 1, StateDiff::Control,
                           "instructions");
    expectEveryByteDiffers(m, s, &s.readCandidates, 1, StateDiff::Control,
                           "readCandidates");
    expectEveryByteDiffers(m, s, &s.writeCandidates, 1, StateDiff::Control,
                           "writeCandidates");
    expectEveryByteDiffers(m, s, &s.storeCandidates, 1, StateDiff::Control,
                           "storeCandidates");
    expectEveryByteDiffers(m, s, &s.sp, 1, StateDiff::Control, "sp");
    expectEveryByteDiffers(m, s, s.globals.data(), s.globals.size(),
                           StateDiff::Memory, "global");
    expectEveryByteDiffers(m, s, s.stack.data(), s.stack.size(),
                           StateDiff::Memory, "stack");
    expectEveryByteDiffers(m, s, s.heap.data(), s.heap.size(),
                           StateDiff::Memory, "heap");
    expectEveryByteDiffers(m, s, s.output.data(), s.output.size(),
                           StateDiff::Output, "output");

    s.heap.push_back(0);
    EXPECT_EQ(m.compare(s), StateDiff::Memory) << "extra zero heap byte";
    s.heap.pop_back();
    s.outputTruncated = !s.outputTruncated;
    EXPECT_EQ(m.compare(s), StateDiff::Output) << "truncation flag";
    s.outputTruncated = !s.outputTruncated;
    EXPECT_EQ(m.compare(s), StateDiff::Equal);
  }
}

TEST(Compare, StackHighWaterMarksOverZerosStillMatch) {
  const Golden golden;
  const Snapshot& base = golden.snaps[golden.snaps.size() / 2];
  ASSERT_LT(base.stack.size() + 64, ExecLimits{}.stackBytes);
  Snapshot higher = base;
  higher.stack.resize(base.stack.size() + 64, 0);
  higher.stackHighWater = higher.stack.size();

  // Either side may carry the higher mark.
  const Machine atBase(golden.mod, base, {}, nullptr);
  const Machine atHigher(golden.mod, higher, {}, nullptr);
  EXPECT_EQ(atBase.compare(higher), StateDiff::Equal);
  EXPECT_EQ(atHigher.compare(base), StateDiff::Equal);

  // A non-zero byte past the other side's mark is a real difference.
  higher.stack.back() = 1;
  const Machine dirtyHigher(golden.mod, higher, {}, nullptr);
  EXPECT_EQ(atBase.compare(higher), StateDiff::Memory);
  EXPECT_EQ(dirtyHigher.compare(base), StateDiff::Memory);
}

}  // namespace
}  // namespace onebit::vm
