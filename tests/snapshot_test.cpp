// VM snapshot/resume tests: the resumed-equals-from-scratch contract that
// the golden-prefix fast-forward stands on.
//
//  * round-trip across every opcode family (int/float arithmetic,
//    comparisons, conversions, intrinsics, global/frame/heap memory, calls,
//    recursion, prints) — every snapshot of a run resumes to the exact
//    from-scratch ExecResult;
//  * captures mid-call-stack, mid-heap, and after output truncation;
//  * every trap path (div-by-zero, segfault, misaligned, abort, stack
//    overflow, fuel exhaustion) reproduces identically from a snapshot;
//  * hooks attached to a resumed run see the candidate stream continue
//    exactly where the snapshot stopped;
//  * fi::Workload snapshot cache: experiments and campaigns are
//    bit-identical with the cache on and off, for any interval, and the
//    cache honors its byte budget.
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fi/campaign.hpp"
#include "fi/experiment.hpp"
#include "fi/fault_plan.hpp"
#include "ir/builder.hpp"
#include "ir/verifier.hpp"
#include "lang/compile.hpp"
#include "vm/machine.hpp"
#include "vm/snapshot.hpp"

namespace onebit::vm {
namespace {

using ir::IRBuilder;
using ir::Module;
using ir::Opcode;
using ir::Operand;
using ir::Type;

/// Exercises every opcode family: integer and float arithmetic, bitwise ops,
/// shifts, comparisons, conversions, the sqrt intrinsic, global / frame /
/// heap memory traffic (8-byte and 1-byte), calls, recursion, and all three
/// print kinds.
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

const SnapshotCapturePolicy kDense{/*interval=*/1, /*maxSnapshots=*/0,
                                   /*budgetBytes=*/0};

void expectSameResult(const ExecResult& got, const ExecResult& want,
                      const char* context) {
  EXPECT_EQ(got.status, want.status) << context;
  EXPECT_EQ(got.trap, want.trap) << context;
  EXPECT_EQ(got.instructions, want.instructions) << context;
  EXPECT_EQ(got.readCandidates, want.readCandidates) << context;
  EXPECT_EQ(got.writeCandidates, want.writeCandidates) << context;
  EXPECT_EQ(got.returnValue, want.returnValue) << context;
  EXPECT_EQ(got.outputTruncated, want.outputTruncated) << context;
  EXPECT_EQ(got.output, want.output) << context;
}

/// Resume every snapshot of (mod, limits) and require the exact
/// from-scratch ExecResult. Returns the snapshots for extra assertions.
std::vector<Snapshot> roundTripAll(const Module& mod, const ExecLimits& limits,
                                   const SnapshotCapturePolicy& policy) {
  const ExecResult scratch = execute(mod, limits, nullptr);
  std::vector<Snapshot> snaps;
  const ExecResult captured = executeWithSnapshots(mod, limits, policy, snaps);
  expectSameResult(captured, scratch, "instrumented run");
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const ExecResult resumed = resume(mod, snaps[i], limits, nullptr);
    expectSameResult(resumed, scratch,
                     ("snapshot " + std::to_string(i)).c_str());
  }
  // Capture order implies nondecreasing counters — the lookup invariant.
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_GE(snaps[i].readCandidates, snaps[i - 1].readCandidates);
    EXPECT_GE(snaps[i].writeCandidates, snaps[i - 1].writeCandidates);
    EXPECT_GE(snaps[i].instructions, snaps[i - 1].instructions);
  }
  // Captures stop on multiples of the interval, which retention only ever
  // doubles.
  for (const Snapshot& s : snaps) {
    EXPECT_EQ(s.instructions % policy.interval, 0u) << s.instructions;
  }
  return snaps;
}

TEST(SnapshotRoundTrip, EveryOpcodeFamily) {
  const Module mod = lang::compileMiniC(kKitchenSink);
  const std::vector<Snapshot> snaps = roundTripAll(mod, {}, kDense);
  ASSERT_GT(snaps.size(), 100u);

  // The run must have been snapshotted mid-call-stack and mid-heap, or the
  // suite is not testing what it claims to.
  bool sawDeepStack = false;
  bool sawHeap = false;
  for (const Snapshot& s : snaps) {
    sawDeepStack = sawDeepStack || s.frames.size() > 2;
    sawHeap = sawHeap || !s.heap.empty();
  }
  EXPECT_TRUE(sawDeepStack);
  EXPECT_TRUE(sawHeap);
}

TEST(SnapshotRoundTrip, TruncatedOutput) {
  const char* const src = R"MC(
int main() {
  for (int i = 0; i < 200; i++) { print_i(i); print_c(32); }
  return 7;
}
)MC";
  const Module mod = lang::compileMiniC(src);
  ExecLimits limits;
  limits.maxOutputBytes = 64;
  const std::vector<Snapshot> snaps = roundTripAll(mod, limits, kDense);
  bool sawTruncated = false;
  for (const Snapshot& s : snaps) sawTruncated = sawTruncated || s.outputTruncated;
  EXPECT_TRUE(sawTruncated);
}

TEST(SnapshotRoundTrip, DivByZeroTrap) {
  const char* const src = R"MC(
int main() {
  int s = 0;
  for (int i = 0; i < 30; i++) { s = s + i; }
  int z = s - s;
  return s / z;
}
)MC";
  const Module mod = lang::compileMiniC(src);
  const ExecResult scratch = execute(mod);
  ASSERT_EQ(scratch.status, ExecStatus::Trapped);
  ASSERT_EQ(scratch.trap, TrapKind::DivByZero);
  roundTripAll(mod, {}, kDense);
}

TEST(SnapshotRoundTrip, HeapSegFaultTrap) {
  const char* const src = R"MC(
int main() {
  int* p = alloc_int(4);
  int s = 0;
  for (int i = 0; i < 25; i++) { p[i % 4] = i; s = s + p[i % 4]; }
  return p[100000] + s;
}
)MC";
  const Module mod = lang::compileMiniC(src);
  const ExecResult scratch = execute(mod);
  ASSERT_EQ(scratch.trap, TrapKind::SegFault);
  roundTripAll(mod, {}, kDense);
}

TEST(SnapshotRoundTrip, StackOverflowTrap) {
  const char* const src = R"MC(
int deep(int n) { return deep(n + 1) + 1; }
int main() { return deep(0); }
)MC";
  const Module mod = lang::compileMiniC(src);
  const ExecResult scratch = execute(mod);
  ASSERT_EQ(scratch.trap, TrapKind::SegFault);
  // Thin the captures (one per 64 instructions): dense capture of a 512-deep
  // call stack would copy quadratic state for no extra coverage.
  const std::vector<Snapshot> snaps =
      roundTripAll(mod, {}, {/*interval=*/64, 0, 0});
  bool sawDeepStack = false;
  for (const Snapshot& s : snaps) {
    sawDeepStack = sawDeepStack || s.frames.size() > 100;
  }
  EXPECT_TRUE(sawDeepStack);
}

TEST(SnapshotRoundTrip, CapturesStoresAboveTheFrameHighWater) {
  // Stores anywhere inside the stack segment are legal — including far
  // above every frame ever pushed (MiniC does not bounds-check locals).
  // Snapshots bound the copied stack by the STORE-side high-water mark, so
  // such bytes must survive a round-trip; a frame-pointer bound would
  // silently zero them (regression: resumed runs returned 0 here).
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  const std::uint64_t wild = ir::kStackBase + (64 << 10);  // above all frames
  bld.emitStore(Operand::makeImm(wild), Operand::makeImm(777), 8);
  ir::Reg acc = bld.emitConstI(0);
  for (int i = 0; i < 8; ++i) {
    acc = bld.emitBin(Opcode::Add, Operand::makeReg(acc), Operand::makeImm(1),
                      Type::I64);
  }
  const auto v = bld.emitLoad(Operand::makeImm(wild), 8, Type::I64);
  const auto sum = bld.emitBin(Opcode::Add, Operand::makeReg(acc),
                               Operand::makeReg(v), Type::I64);
  bld.emitRet(Operand::makeReg(sum));
  ir::verifyOrThrow(mod);
  ASSERT_EQ(execute(mod).returnValue, 785);
  const std::vector<Snapshot> snaps = roundTripAll(mod, {}, kDense);
  bool sawWildStore = false;
  for (const Snapshot& s : snaps) {
    sawWildStore = sawWildStore || s.stackHighWater >= (64 << 10) + 8u;
  }
  EXPECT_TRUE(sawWildStore);
}

TEST(SnapshotRoundTrip, MisalignedTrap) {
  Module mod;
  IRBuilder bld(mod);
  bld.addGlobalI64({1, 2});
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  ir::Reg acc = bld.emitConstI(0);
  for (int i = 0; i < 6; ++i) {
    acc = bld.emitBin(Opcode::Add, Operand::makeReg(acc), Operand::makeImm(3),
                      Type::I64);
  }
  const auto v = bld.emitLoad(Operand::makeImm(ir::kGlobalBase + 3), 8,
                              Type::I64);
  const auto sum = bld.emitBin(Opcode::Add, Operand::makeReg(acc),
                               Operand::makeReg(v), Type::I64);
  bld.emitRet(Operand::makeReg(sum));
  ir::verifyOrThrow(mod);
  ASSERT_EQ(execute(mod).trap, TrapKind::Misaligned);
  roundTripAll(mod, {}, kDense);
}

TEST(SnapshotRoundTrip, AbortTrap) {
  Module mod;
  IRBuilder bld(mod);
  bld.createFunction("main", Type::I64, 0);
  const auto entry = bld.createBlock("entry");
  bld.setInsertBlock(entry);
  ir::Reg acc = bld.emitConstI(1);
  for (int i = 0; i < 5; ++i) {
    acc = bld.emitBin(Opcode::Mul, Operand::makeReg(acc), Operand::makeImm(2),
                      Type::I64);
  }
  bld.emitAbort();
  bld.emitRet(Operand::makeReg(acc));
  ir::verifyOrThrow(mod);
  ASSERT_EQ(execute(mod).trap, TrapKind::Abort);
  roundTripAll(mod, {}, kDense);
}

TEST(SnapshotRoundTrip, FuelExhaustion) {
  const char* const src = R"MC(
int main() {
  int s = 0;
  while (1) { s = s + 1; }
  return s;
}
)MC";
  const Module mod = lang::compileMiniC(src);
  ExecLimits limits;
  limits.maxInstructions = 2'000;
  const ExecResult scratch = execute(mod, limits);
  ASSERT_EQ(scratch.status, ExecStatus::FuelExhausted);
  roundTripAll(mod, limits, {/*interval=*/16, 0, 0});
}

/// Hook recording every callback (the vm_test recorder, with values).
class RecordingHook final : public ExecHook {
 public:
  struct Event {
    bool isRead;
    std::uint64_t index;
    std::uint64_t instr;
    bool operator==(const Event&) const = default;
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

TEST(SnapshotRoundTrip, ResumedHookSeesContinuedCandidateStream) {
  const Module mod = lang::compileMiniC(kKitchenSink);
  RecordingHook full;
  (void)execute(mod, {}, &full);

  std::vector<Snapshot> snaps;
  (void)executeWithSnapshots(mod, {}, {/*interval=*/97, 0, 0}, snaps);
  ASSERT_GT(snaps.size(), 2u);
  for (const Snapshot& snap : {snaps.front(), snaps[snaps.size() / 2],
                               snaps.back()}) {
    RecordingHook tail;
    (void)resume(mod, snap, {}, &tail);
    // The resumed stream must be exactly the suffix of the full stream
    // starting at the snapshot's candidate counters.
    std::size_t skip = 0;
    while (skip < full.events.size()) {
      const RecordingHook::Event& e = full.events[skip];
      const std::uint64_t pos =
          e.isRead ? snap.readCandidates : snap.writeCandidates;
      if (e.index >= pos) break;
      ++skip;
    }
    ASSERT_EQ(tail.events.size(), full.events.size() - skip);
    for (std::size_t i = 0; i < tail.events.size(); ++i) {
      EXPECT_EQ(tail.events[i], full.events[skip + i]) << "event " << i;
    }
  }
}

TEST(SnapshotRoundTrip, ExhaustedHookFinishesOnFastPathIdentically) {
  // A hook that corrupts one write and then reports exhausted must produce
  // the same run as one applying the same corruption but never exhausting
  // (the interpreter may stop calling the latter's callbacks only for the
  // former).
  class OneShot final : public ExecHook {
   public:
    explicit OneShot(bool exhaust) : exhaust_(exhaust) {}
    void onRead(std::uint64_t, std::uint64_t, const ir::Instr&,
                std::span<std::uint64_t>, std::span<const bool>) override {}
    void onWrite(std::uint64_t writeIndex, std::uint64_t, const ir::Instr&,
                 std::uint64_t& value) override {
      if (writeIndex == 40) {
        value ^= 1ULL << 7;
        if (exhaust_) markExhausted();
      }
    }

   private:
    bool exhaust_;
  };
  const Module mod = lang::compileMiniC(kKitchenSink);
  OneShot exhausting(true);
  OneShot observing(false);
  const ExecResult a = execute(mod, {}, &exhausting);
  const ExecResult b = execute(mod, {}, &observing);
  expectSameResult(a, b, "exhausted vs observing");
  EXPECT_TRUE(exhausting.exhausted());
}

TEST(SnapshotRoundTrip, ResumeWithPreExhaustedHookEntersHookFreeLoop) {
  // A hook that is exhausted BEFORE the resumed run starts means run()
  // skips the hooked leg entirely and drops straight into the hook-free
  // loop from the snapshot's mid-block, mid-call-stack position — the
  // entry path the threaded backend computes from blockStart[block] + ip.
  // Both backends must reproduce the uninterrupted run exactly.
  class AlreadyDone final : public ExecHook {
   public:
    AlreadyDone() { markExhausted(); }
    void onRead(std::uint64_t, std::uint64_t, const ir::Instr&,
                std::span<std::uint64_t>, std::span<const bool>) override {
      ADD_FAILURE() << "exhausted hook saw onRead";
    }
    void onWrite(std::uint64_t, std::uint64_t, const ir::Instr&,
                 std::uint64_t&) override {
      ADD_FAILURE() << "exhausted hook saw onWrite";
    }
  };
  const Module mod = lang::compileMiniC(kKitchenSink);
  const ExecResult scratch = execute(mod, {}, nullptr);
  std::vector<Snapshot> snaps;
  (void)executeWithSnapshots(mod, {}, {/*interval=*/113, 0, 0}, snaps);
  ASSERT_GT(snaps.size(), 2u);
  for (const DispatchBackend backend :
       {DispatchBackend::Switch, DispatchBackend::Threaded}) {
    ExecLimits limits;
    limits.dispatch = backend;
    for (const std::size_t i :
         {std::size_t{0}, snaps.size() / 2, snaps.size() - 1}) {
      AlreadyDone hook;
      const ExecResult resumed = resume(mod, snaps[i], limits, &hook);
      const std::string context =
          std::string(backend == DispatchBackend::Threaded ? "threaded"
                                                           : "switch") +
          " snapshot " + std::to_string(i);
      expectSameResult(resumed, scratch, context.c_str());
    }
  }
}

TEST(SnapshotRetention, BoundsAreHonored) {
  const Module mod = lang::compileMiniC(kKitchenSink);

  std::vector<Snapshot> capped;
  (void)executeWithSnapshots(mod, {}, {1, /*maxSnapshots=*/4, 0}, capped);
  EXPECT_LE(capped.size(), 4u);
  EXPECT_FALSE(capped.empty());

  std::vector<Snapshot> budgeted;
  (void)executeWithSnapshots(mod, {}, {1, 0, /*budgetBytes=*/8192}, budgeted);
  std::size_t bytes = 0;
  for (const Snapshot& s : budgeted) bytes += s.byteSize();
  EXPECT_LE(bytes, 8192u);

  // Thinned snapshots still resume exactly.
  const ExecResult scratch = execute(mod);
  for (const Snapshot& s : capped) {
    expectSameResult(resume(mod, s, {}, nullptr), scratch, "capped");
  }
}

TEST(SnapshotResume, RejectsMismatchedModuleOrLimits) {
  const Module mod = lang::compileMiniC(kKitchenSink);
  std::vector<Snapshot> snaps;
  (void)executeWithSnapshots(mod, {}, kDense, snaps);
  ASSERT_FALSE(snaps.empty());
  const Snapshot& snap = snaps.back();

  const Module other = lang::compileMiniC("int main() { return 3; }");
  EXPECT_THROW((void)resume(other, snap, {}, nullptr), std::invalid_argument);

  ExecLimits tiny;
  tiny.stackBytes = 8;  // the snapshot's stack image cannot fit
  EXPECT_THROW((void)resume(mod, snap, tiny, nullptr), std::invalid_argument);

  // Limits a from-scratch run could not reach the snapshot under must be
  // rejected too, not silently diverged from.
  ExecLimits noFuel;
  noFuel.maxInstructions = snap.instructions - 1;
  EXPECT_THROW((void)resume(mod, snap, noFuel, nullptr),
               std::invalid_argument);
  const Snapshot* withOutput = nullptr;
  for (const Snapshot& s : snaps) {
    if (!s.output.empty()) withOutput = &s;
  }
  ASSERT_NE(withOutput, nullptr);
  ExecLimits noOutput;
  noOutput.maxOutputBytes = 0;
  EXPECT_THROW((void)resume(mod, *withOutput, noOutput, nullptr),
               std::invalid_argument);
  ExecLimits shallow;
  shallow.maxCallDepth = 0;
  EXPECT_THROW((void)resume(mod, snap, shallow, nullptr),
               std::invalid_argument);

  Snapshot corrupt = snap;
  corrupt.regs.pop_back();
  EXPECT_THROW((void)resume(mod, corrupt, {}, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace onebit::vm

namespace onebit::fi {
namespace {

/// A workload-sized MiniC program: long enough that fast-forwarding is real
/// (thousands of prefix instructions), small enough for a test.
const char* const kBusy = R"MC(
int a[64];
int seed = 11;
int rnd() { seed = (seed * 1103515245 + 12345) & 2147483647; return seed; }
int main() {
  for (int i = 0; i < 64; i++) { a[i] = rnd() % 997; }
  int s = 0;
  for (int round = 0; round < 20; round++) {
    for (int i = 0; i < 64; i++) { s = (s * 33 + a[i] + round) & 1048575; }
  }
  print_s("s=");
  print_i(s);
  print_c(10);
  return 0;
}
)MC";

void expectSameExperiment(const ExperimentResult& got,
                          const ExperimentResult& want, std::size_t i) {
  EXPECT_EQ(static_cast<int>(got.outcome), static_cast<int>(want.outcome))
      << "plan " << i;
  EXPECT_EQ(got.trap, want.trap) << "plan " << i;
  EXPECT_EQ(got.activations, want.activations) << "plan " << i;
  EXPECT_EQ(got.instructions, want.instructions) << "plan " << i;
}

TEST(WorkloadSnapshots, ExperimentsBitIdenticalWithCacheOnAndOff) {
  SnapshotPolicy dense;
  dense.interval = 64;
  const Workload cached(lang::compileMiniC(kBusy), 50, dense);
  const Workload scratch(lang::compileMiniC(kBusy), 50,
                         SnapshotPolicy::disabled());
  ASSERT_GT(cached.snapshotCount(), 0u);
  ASSERT_EQ(scratch.snapshotCount(), 0u);
  EXPECT_EQ(cached.fingerprint(), scratch.fingerprint());
  EXPECT_EQ(cached.golden().output, scratch.golden().output);

  const FaultModel specs[] = {
      FaultModel::singleBit(FaultDomain::RegisterRead),
      FaultModel::singleBit(FaultDomain::RegisterWrite),
      FaultModel::multiBitTemporal(FaultDomain::RegisterRead, 3, WinSize::fixed(2)),
      FaultModel::multiBitTemporal(FaultDomain::RegisterWrite, 4, WinSize::fixed(0)),
  };
  for (const FaultModel& spec : specs) {
    const std::uint64_t candidates = cached.candidates(spec.domain);
    ASSERT_EQ(candidates, scratch.candidates(spec.domain));
    for (std::uint64_t i = 0; i < 120; ++i) {
      const FaultPlan plan =
          FaultPlan::forExperiment(spec, candidates, 0xfeed, i);
      expectSameExperiment(runExperiment(cached, plan),
                           runExperiment(scratch, plan), i);
    }
  }
}

TEST(WorkloadSnapshots, CampaignBitIdenticalWithCacheOnAndOff) {
  SnapshotPolicy dense;
  dense.interval = 32;
  const Workload cached(lang::compileMiniC(kBusy), 50, dense);
  const Workload scratch(lang::compileMiniC(kBusy), 50,
                         SnapshotPolicy::disabled());
  CampaignConfig config;
  config.model = FaultModel::multiBitTemporal(FaultDomain::RegisterWrite, 2, WinSize::fixed(3));
  config.experiments = 300;
  config.seed = 0xabcd;
  config.threads = 2;
  const CampaignResult a = runCampaign(cached, config);
  const CampaignResult b = runCampaign(scratch, config);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.activationHist, b.activationHist);
}

TEST(WorkloadSnapshots, CacheHonorsByteBudget) {
  SnapshotPolicy tight;
  tight.interval = 16;
  tight.budgetBytes = 16 << 10;
  tight.maxSnapshots = 0;  // budget is the only bound
  const Workload w(lang::compileMiniC(kBusy), 50, tight);
  EXPECT_LE(w.snapshotBytes(), tight.budgetBytes);
}

TEST(WorkloadSnapshots, LookupPicksDensestUsableSnapshot) {
  SnapshotPolicy dense;
  dense.interval = 32;
  const Workload w(lang::compileMiniC(kBusy), 50, dense);
  ASSERT_GT(w.snapshotCount(), 2u);
  const std::uint64_t candidates = w.candidates(FaultDomain::RegisterRead);
  const std::uint64_t budget = w.faultyLimits().maxInstructions;

  // Nothing usable before the first capture point.
  EXPECT_EQ(w.snapshotAtOrBefore(FaultDomain::RegisterRead, 0, budget), nullptr);
  // The last candidate index must map to some snapshot, positioned at or
  // before it.
  const vm::Snapshot* last =
      w.snapshotAtOrBefore(FaultDomain::RegisterRead, candidates - 1, budget);
  ASSERT_NE(last, nullptr);
  EXPECT_LE(last->readCandidates, candidates - 1);
  // A snapshot found for index k is the densest: the next snapshot (if any)
  // is past k.
  const std::uint64_t mid = candidates / 2;
  const vm::Snapshot* snap = w.snapshotAtOrBefore(FaultDomain::RegisterRead, mid, budget);
  ASSERT_NE(snap, nullptr);
  EXPECT_LE(snap->readCandidates, mid);
  // An instruction budget below every snapshot disables the fast-forward.
  EXPECT_EQ(w.snapshotAtOrBefore(FaultDomain::RegisterRead, mid, 0), nullptr);
}

TEST(WorkloadSnapshots, TinyHangFactorStillBitIdentical) {
  // hangFactor 0 gives a 10k-instruction faulty budget; snapshots beyond it
  // must be skipped (a from-scratch run would exhaust fuel first), and
  // results must still match the cache-off workload exactly.
  SnapshotPolicy dense;
  dense.interval = 64;
  const Workload cached(lang::compileMiniC(kBusy), 0, dense);
  const Workload scratch(lang::compileMiniC(kBusy), 0,
                         SnapshotPolicy::disabled());
  const FaultModel spec = FaultModel::singleBit(FaultDomain::RegisterRead);
  const std::uint64_t candidates = cached.candidates(FaultDomain::RegisterRead);
  for (std::uint64_t i = 0; i < 150; ++i) {
    const FaultPlan plan =
        FaultPlan::forExperiment(spec, candidates, 0xb0b, i);
    expectSameExperiment(runExperiment(cached, plan),
                         runExperiment(scratch, plan), i);
  }
}

}  // namespace
}  // namespace onebit::fi
