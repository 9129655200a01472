// Incremental state hashing (vm/state_hash.hpp, Machine::stateHash): the
// differential contract the outcome-equivalence pruning layer stands on.
//
//  * incremental hash == from-scratch recomputation at EVERY grid boundary
//    of a run, across all opcode families (int/float arithmetic, shifts,
//    comparisons, conversions, intrinsics, global/frame/heap memory, calls,
//    recursion, prints) and at the end of the run;
//  * the same holds on every trap path (div-by-zero, segfault, misaligned,
//    abort, stack overflow, fuel exhaustion) and under output truncation;
//  * the same holds with an injector hook attached, for all four fault
//    domains — faulted state must hash as exactly as golden state;
//  * hashing never changes execution: ExecResult is bit-identical with
//    trackStateHash on and off;
//  * the hash is a pure function of machine state, not of the path that
//    reached it: a resumed snapshot hashes to the capturing run's hash at
//    the capture point immediately, and to the same boundary hashes as the
//    from-scratch run afterwards;
//  * Workload::goldenHashAt agrees with a hand-driven hashing run and is
//    invariant under the snapshot policy.
#include <optional>
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

using ir::Module;

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

/// Drive a hashing machine through every `grid` boundary, asserting
/// incremental == from-scratch at each pause. (No check after run(): a
/// finished machine has moved its state into the ExecResult, and pruning
/// only ever hashes at pauses.) Returns the boundary hashes (indexed by
/// boundary / grid - 1).
std::vector<std::uint64_t> hashesAtBoundaries(const Module& mod,
                                              ExecLimits limits,
                                              std::uint64_t grid,
                                              ExecHook* hook = nullptr) {
  limits.trackStateHash = true;
  Machine m(mod, limits, hook);
  std::vector<std::uint64_t> hashes;
  while (m.runToBoundary(grid)) {
    EXPECT_EQ(m.instructions() % grid, 0u) << "pause off the grid";
    EXPECT_EQ(m.stateHash(), m.computeStateHash())
        << "boundary " << m.instructions();
    hashes.push_back(m.stateHash());
  }
  (void)m.run();
  return hashes;
}

TEST(StateHash, IncrementalMatchesScratchAtEveryBoundary) {
  const Module mod = lang::compileMiniC(kKitchenSink);
  const std::vector<std::uint64_t> hashes = hashesAtBoundaries(mod, {}, 16);
  // The kitchen sink runs thousands of instructions; a handful of pauses
  // would mean runToBoundary is not actually pausing.
  ASSERT_GT(hashes.size(), 50u);
}

TEST(StateHash, GridSpacingNeverChangesTheHashes) {
  // The hash at instruction count N is a function of the state at N alone:
  // pausing every 16 instructions and every 64 must agree wherever both
  // pause.
  const Module mod = lang::compileMiniC(kKitchenSink);
  const std::vector<std::uint64_t> fine = hashesAtBoundaries(mod, {}, 16);
  const std::vector<std::uint64_t> coarse = hashesAtBoundaries(mod, {}, 64);
  ASSERT_GT(coarse.size(), 4u);
  for (std::size_t i = 0; i < coarse.size(); ++i) {
    ASSERT_LT(i * 4 + 3, fine.size());
    EXPECT_EQ(coarse[i], fine[i * 4 + 3]) << "boundary " << (i + 1) * 64;
  }
}

TEST(StateHash, HashingDoesNotChangeExecution) {
  const Module mod = lang::compileMiniC(kKitchenSink);
  const ExecResult plain = execute(mod, {}, nullptr);
  ExecLimits hashed;
  hashed.trackStateHash = true;
  const ExecResult traced = execute(mod, hashed, nullptr);
  EXPECT_EQ(traced.status, plain.status);
  EXPECT_EQ(traced.trap, plain.trap);
  EXPECT_EQ(traced.instructions, plain.instructions);
  EXPECT_EQ(traced.readCandidates, plain.readCandidates);
  EXPECT_EQ(traced.writeCandidates, plain.writeCandidates);
  EXPECT_EQ(traced.storeCandidates, plain.storeCandidates);
  EXPECT_EQ(traced.returnValue, plain.returnValue);
  EXPECT_EQ(traced.output, plain.output);
}

TEST(StateHash, TrapPathsHashExactly) {
  const struct {
    const char* name;
    const char* src;
    TrapKind trap;
  } cases[] = {
      {"div-by-zero", R"MC(
int main() {
  int s = 0;
  for (int i = 0; i < 30; i++) { s = s + i; }
  int z = s - s;
  return s / z;
}
)MC",
       TrapKind::DivByZero},
      {"heap segfault", R"MC(
int main() {
  int* p = alloc_int(4);
  int s = 0;
  for (int i = 0; i < 25; i++) { p[i % 4] = i; s = s + p[i % 4]; }
  return p[100000] + s;
}
)MC",
       TrapKind::SegFault},
      {"stack overflow", R"MC(
int deep(int n) { return deep(n + 1) + 1; }
int main() { return deep(0); }
)MC",
       TrapKind::SegFault},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const Module mod = lang::compileMiniC(c.src);
    ASSERT_EQ(execute(mod).trap, c.trap);
    hashesAtBoundaries(mod, {}, 8);
  }
}

TEST(StateHash, FuelExhaustionAndTruncatedOutputHashExactly) {
  const Module spin = lang::compileMiniC(R"MC(
int main() {
  int s = 0;
  while (1) { s = s + 1; }
  return s;
}
)MC");
  ExecLimits fuel;
  fuel.maxInstructions = 3'000;
  ASSERT_EQ(execute(spin, fuel).status, ExecStatus::FuelExhausted);
  hashesAtBoundaries(spin, fuel, 32);

  const Module chatty = lang::compileMiniC(R"MC(
int main() {
  for (int i = 0; i < 200; i++) { print_i(i); print_c(32); }
  return 7;
}
)MC");
  ExecLimits clip;
  clip.maxOutputBytes = 64;
  ASSERT_TRUE(execute(chatty, clip).outputTruncated);
  hashesAtBoundaries(chatty, clip, 32);
}

TEST(StateHash, FaultedRunsHashExactlyAcrossAllDomains) {
  // Injected faults smash registers, memory words, and control flow; the
  // incremental maintenance has to survive all of it bit-for-bit.
  const Module mod = lang::compileMiniC(kKitchenSink);
  ExecLimits base;
  base.trackStateHash = true;
  const ExecResult golden = execute(mod, base, nullptr);
  ExecLimits limits = base;
  limits.maxInstructions = golden.instructions * 50 + 10'000;
  const fi::FaultDomain domains[] = {
      fi::FaultDomain::RegisterRead, fi::FaultDomain::RegisterWrite,
      fi::FaultDomain::MemoryData, fi::FaultDomain::RandomValue};
  for (const fi::FaultDomain d : domains) {
    SCOPED_TRACE(static_cast<int>(d));
    const fi::FaultModel model = fi::FaultModel::singleBit(d);
    std::uint64_t candidates = 0;
    switch (d) {
      case fi::FaultDomain::RegisterRead: candidates = golden.readCandidates; break;
      case fi::FaultDomain::RegisterWrite: candidates = golden.writeCandidates; break;
      case fi::FaultDomain::MemoryData: candidates = golden.storeCandidates; break;
      case fi::FaultDomain::RandomValue: candidates = golden.instructions; break;
    }
    ASSERT_GT(candidates, 0u);
    for (std::uint64_t i = 0; i < 40; ++i) {
      const fi::FaultPlan plan =
          fi::FaultPlan::forExperiment(model, candidates, 0x5eed, i);
      fi::InjectorHook hook(plan);
      hashesAtBoundaries(mod, limits, 64, &hook);
    }
  }
}

TEST(StateHash, StopTrackingMidRunFinishesOnEitherBackendIdentically) {
  // The pruned-experiment suffix path: pause at a boundary, drop the hash,
  // run() the remainder hash-free. After stopStateHashTracking the machine
  // is hook-free AND hash-free, so the remainder is exactly the segment
  // eligible for the threaded backend — both backends must finish the
  // paused run with the same result as an uninterrupted plain run.
  const Module mod = lang::compileMiniC(kKitchenSink);
  const ExecResult plain = execute(mod, {}, nullptr);
  for (const DispatchBackend backend :
       {DispatchBackend::Switch, DispatchBackend::Threaded}) {
    for (const int pauses : {1, 5, 20}) {
      ExecLimits limits;
      limits.trackStateHash = true;
      limits.dispatch = backend;
      Machine m(mod, limits, nullptr);
      int paused = 0;
      while (paused < pauses && m.runToBoundary(64)) ++paused;
      ASSERT_EQ(paused, pauses);  // the sink runs long enough for 20 pauses
      m.stopStateHashTracking();
      const ExecResult finished = m.run();
      const std::string context =
          std::string(backend == DispatchBackend::Threaded ? "threaded"
                                                           : "switch") +
          " after " + std::to_string(pauses) + " pauses";
      EXPECT_EQ(finished.status, plain.status) << context;
      EXPECT_EQ(finished.instructions, plain.instructions) << context;
      EXPECT_EQ(finished.readCandidates, plain.readCandidates) << context;
      EXPECT_EQ(finished.writeCandidates, plain.writeCandidates) << context;
      EXPECT_EQ(finished.storeCandidates, plain.storeCandidates) << context;
      EXPECT_EQ(finished.returnValue, plain.returnValue) << context;
      EXPECT_EQ(finished.output, plain.output) << context;
    }
  }
}

TEST(StateHash, ResumedSnapshotHashesLikeTheCapturingRun) {
  const Module mod = lang::compileMiniC(kKitchenSink);
  ExecLimits limits;
  limits.trackStateHash = true;

  // Capture snapshots from a hashing run, with its hash at each capture...
  Machine capturing(mod, limits, nullptr);
  std::vector<Snapshot> snaps;
  std::vector<std::uint64_t> captureHashes;
  capturing.captureEvery(64, [&](Snapshot&& s) {
    snaps.push_back(std::move(s));
    captureHashes.push_back(capturing.stateHash());
    return std::uint64_t{64};
  });
  (void)capturing.run();
  ASSERT_GT(snaps.size(), 3u);

  // ...and the boundary-hash table from a second, snapshot-free one. The
  // capture machinery must not perturb the hash stream.
  const std::vector<std::uint64_t> reference =
      hashesAtBoundaries(mod, {}, 128);

  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const Snapshot& snap = snaps[i];
    ASSERT_NE(captureHashes[i], 0u);
    Machine resumed(mod, snap, limits, nullptr);
    // The hash is a function of state, not of how the state was reached:
    // a freshly reconstructed machine hashes to the capture-time hash.
    EXPECT_EQ(resumed.stateHash(), captureHashes[i]);
    EXPECT_EQ(resumed.stateHash(), resumed.computeStateHash());
    // And its future boundary hashes are the from-scratch run's.
    while (resumed.runToBoundary(128)) {
      EXPECT_EQ(resumed.stateHash(), resumed.computeStateHash());
      const std::uint64_t idx = resumed.instructions() / 128 - 1;
      ASSERT_LT(idx, reference.size());
      EXPECT_EQ(resumed.stateHash(), reference[idx])
          << "boundary " << resumed.instructions();
    }
    (void)resumed.run();
  }
}

}  // namespace
}  // namespace onebit::vm

namespace onebit::fi {
namespace {

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

TEST(WorkloadGoldenHashes, MatchAHandDrivenRunAndIgnoreSnapshotPolicy) {
  const Workload w(lang::compileMiniC(kBusy), 50, {}, PrunePolicy::on());
  const Workload bare(lang::compileMiniC(kBusy), 50,
                      SnapshotPolicy::disabled(), PrunePolicy::on());
  ASSERT_TRUE(w.pruningEnabled());
  const std::uint64_t grid = w.hashGrid();
  ASSERT_EQ(bare.hashGrid(), grid);
  // Pruning must not leak into the fingerprint (it cannot affect results).
  EXPECT_EQ(w.fingerprint(),
            Workload(lang::compileMiniC(kBusy), 50, {}).fingerprint());

  vm::ExecLimits limits;
  limits.trackStateHash = true;
  vm::Machine m(w.module(), limits, nullptr);
  std::uint64_t boundaries = 0;
  while (m.runToBoundary(grid)) {
    const std::optional<std::uint64_t> golden =
        w.goldenHashAt(m.instructions());
    ASSERT_TRUE(golden.has_value()) << "boundary " << m.instructions();
    EXPECT_EQ(*golden, m.stateHash());
    EXPECT_EQ(bare.goldenHashAt(m.instructions()), golden)
        << "snapshot policy changed a golden hash";
    ++boundaries;
  }
  ASSERT_GT(boundaries, 3u);

  // Off-grid, zero, and past-the-end lookups miss.
  EXPECT_FALSE(w.goldenHashAt(0).has_value());
  EXPECT_FALSE(w.goldenHashAt(grid + 1).has_value());
  EXPECT_FALSE(
      w.goldenHashAt((w.golden().instructions / grid + 2) * grid).has_value());
}

TEST(WorkloadGoldenHashes, AutoGridIsClampedAndPopulated) {
  const Workload w(lang::compileMiniC(kBusy), 50, {}, PrunePolicy::on());
  ASSERT_TRUE(w.pruningEnabled());
  EXPECT_GE(w.hashGrid(), 64u);
  EXPECT_LE(w.hashGrid(), 16384u);
  EXPECT_TRUE(w.goldenHashAt(w.hashGrid()).has_value());

  const Workload off(lang::compileMiniC(kBusy), 50);
  EXPECT_FALSE(off.pruningEnabled());
  EXPECT_EQ(off.hashGrid(), 0u);
  EXPECT_FALSE(off.goldenHashAt(64).has_value());
}

}  // namespace
}  // namespace onebit::fi
