// The hook sleep (vm::ExecHook::sleepUntil): its contract, and the
// injector's use of it held to the slow oracle.
//
//  * SleepContract: a recording hook that sleeps until candidate k of each
//    stream, or until instruction n, gets at most Machine::kMinSleep
//    callbacks of its own stream before the wake point (none before
//    instruction n − kMinSleep), and from the wake point on exactly the
//    callbacks an always-awake hook gets: indices, instrIndex and values.
//    A hook that never sleeps gets every callback. Both dispatch backends.
//  * SleepDifferential: fi::runExperiment equals fi::runReference (from
//    scratch, reference loop, a forwarder that never sleeps) in outcome,
//    trap, activations and instruction count under every combination of
//    snapshots, pruning and backend, for all four fault domains under
//    single-bit, burst and multi-bit temporal plans with windows on both
//    sides of the minimum sleep; the injector's records of a sleeping run
//    equal those of an always-awake run; a wake point past the fuel budget
//    ends FuelExhausted at the same instruction.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "fi/experiment.hpp"
#include "fi/fault_model.hpp"
#include "fi/fault_plan.hpp"
#include "fi/injector_hook.hpp"
#include "progs/registry.hpp"
#include "vm/machine.hpp"

namespace onebit {
namespace {

using Stream = vm::ExecHook::Stream;

ir::Module program(const char* name) {
  const progs::ProgramInfo* info = progs::findProgram(name);
  if (info == nullptr) throw std::runtime_error("unknown program");
  return progs::compileProgram(*info);
}

// ----------------------------------------------------------- the contract

/// One delivered callback.
struct Call {
  Stream stream = Stream::Reads;  ///< Reads, Writes or Stores
  std::uint64_t index = 0;        ///< candidate index in that stream
  std::uint64_t instrIndex = 0;
  std::vector<std::uint64_t> values;  ///< operands, the value, or addr+bytes

  bool operator==(const Call&) const = default;
};

/// Records every callback it gets. With a wake point it sleeps from
/// construction until that point and stays awake after it.
class RecordingHook final : public vm::ExecHook {
 public:
  explicit RecordingHook(std::optional<std::pair<Stream, std::uint64_t>> wake) {
    if (wake) sleepUntil(wake->first, wake->second);
  }

  void onRead(std::uint64_t readIndex, std::uint64_t instrIndex,
              const ir::Instr&, std::span<std::uint64_t> values,
              std::span<const bool>) override {
    calls.push_back({Stream::Reads, readIndex, instrIndex,
                     {values.begin(), values.end()}});
  }
  void onWrite(std::uint64_t writeIndex, std::uint64_t instrIndex,
               const ir::Instr&, std::uint64_t& value) override {
    calls.push_back({Stream::Writes, writeIndex, instrIndex, {value}});
  }
  void onStore(std::uint64_t storeIndex, std::uint64_t instrIndex,
               const ir::Instr& instr, std::uint64_t addr,
               vm::Memory& mem) override {
    vm::TrapKind t = vm::TrapKind::None;
    calls.push_back({Stream::Stores, storeIndex, instrIndex,
                     {addr, mem.load(addr, instr.width, t)}});
  }

  std::vector<Call> calls;
};

/// Whether `c` is at or after the wake point (stream, k).
bool atOrAfter(const Call& c, Stream stream, std::uint64_t k) {
  if (stream == Stream::Instructions) return c.instrIndex >= k;
  return c.stream == stream && c.index >= k;
}

/// Position of the first call at or after the wake point (calls.size() when
/// none is).
std::size_t wakePosition(const std::vector<Call>& calls, Stream stream,
                         std::uint64_t k) {
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (atOrAfter(calls[i], stream, k)) return i;
  }
  return calls.size();
}

vm::ExecLimits limitsFor(vm::DispatchBackend backend,
                         std::uint64_t fuel = vm::ExecLimits{}.maxInstructions) {
  vm::ExecLimits limits;
  limits.dispatch = backend;
  limits.maxInstructions = fuel;
  return limits;
}

void expectSameRun(const vm::ExecResult& a, const vm::ExecResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.trap, b.trap);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.readCandidates, b.readCandidates);
  EXPECT_EQ(a.writeCandidates, b.writeCandidates);
  EXPECT_EQ(a.storeCandidates, b.storeCandidates);
  EXPECT_EQ(a.output, b.output);
}

class SleepContract
    : public ::testing::TestWithParam<std::tuple<const char*,
                                                 vm::DispatchBackend>> {};

TEST_P(SleepContract, AwakeHookGetsEveryCallback) {
  const auto [name, backend] = GetParam();
  const ir::Module mod = program(name);
  RecordingHook awake(std::nullopt);
  const vm::ExecResult r = vm::execute(mod, limitsFor(backend), &awake);
  ASSERT_EQ(r.status, vm::ExecStatus::Ok);
  std::uint64_t next[3] = {0, 0, 0};  // Reads, Writes, Stores
  std::uint64_t lastInstr = 0;
  for (const Call& c : awake.calls) {
    const auto s = static_cast<std::size_t>(c.stream) - 1;
    ASSERT_EQ(c.index, next[s]++);
    ASSERT_GE(c.instrIndex, lastInstr);
    lastInstr = c.instrIndex;
  }
  EXPECT_EQ(next[0], r.readCandidates);
  EXPECT_EQ(next[1], r.writeCandidates);
  EXPECT_EQ(next[2], r.storeCandidates);
  EXPECT_EQ(vm::execute(mod, limitsFor(backend)).output, r.output);
}

TEST_P(SleepContract, SleepingHookGetsTheAwakeStreamFromItsWakePoint) {
  const auto [name, backend] = GetParam();
  const ir::Module mod = program(name);
  RecordingHook awake(std::nullopt);
  const vm::ExecResult golden = vm::execute(mod, limitsFor(backend), &awake);
  ASSERT_EQ(golden.status, vm::ExecStatus::Ok);
  const std::uint64_t kMin = vm::Machine::kMinSleep;

  for (const Stream stream : {Stream::Instructions, Stream::Reads,
                              Stream::Writes, Stream::Stores}) {
    std::uint64_t total = golden.instructions;
    if (stream == Stream::Reads) total = golden.readCandidates;
    if (stream == Stream::Writes) total = golden.writeCandidates;
    if (stream == Stream::Stores) total = golden.storeCandidates;
    ASSERT_GT(total, 4 * kMin);
    for (const std::uint64_t k :
         {std::uint64_t{0}, std::uint64_t{1}, kMin - 1, kMin, kMin + 1,
          2 * kMin + 3, total / 3, total / 2 + 7, total - 1, total,
          total + 1000}) {
      SCOPED_TRACE(::testing::Message()
                   << "stream " << static_cast<int>(stream) << ", k " << k);
      RecordingHook sleeper({{stream, k}});
      const vm::ExecResult r = vm::execute(mod, limitsFor(backend), &sleeper);
      expectSameRun(r, golden);

      // The hook stays awake once woken, so what it got is one stretch of
      // the awake stream: a few callbacks before the wake point, then all
      // of them from it on.
      const std::size_t p = wakePosition(awake.calls, stream, k);
      const std::size_t q = wakePosition(sleeper.calls, stream, k);
      ASSERT_LE(q, p);
      ASSERT_EQ(sleeper.calls.size() - q, awake.calls.size() - p);
      EXPECT_TRUE(std::equal(sleeper.calls.begin(), sleeper.calls.end(),
                             awake.calls.begin() + static_cast<long>(p - q)));
      std::uint64_t early = 0;
      for (std::size_t i = 0; i < q; ++i) {
        const Call& c = sleeper.calls[i];
        if (stream == Stream::Instructions) {
          EXPECT_GE(c.instrIndex + kMin, k) << "callback too early";
        } else if (c.stream == stream) {
          ++early;
        }
      }
      EXPECT_LE(early, kMin);
    }
  }
}

TEST_P(SleepContract, WakePointPastTheFuelBudgetEndsOnTheSameInstruction) {
  const auto [name, backend] = GetParam();
  const ir::Module mod = program(name);
  const std::uint64_t fuel = 5000;
  const vm::ExecResult bare = vm::execute(mod, limitsFor(backend, fuel));
  ASSERT_EQ(bare.status, vm::ExecStatus::FuelExhausted);
  for (const Stream stream : {Stream::Instructions, Stream::Reads,
                              Stream::Writes, Stream::Stores}) {
    for (const std::uint64_t k : {fuel - 3, fuel, fuel + 1, fuel + 5000}) {
      RecordingHook sleeper({{stream, k}});
      const vm::ExecResult r =
          vm::execute(mod, limitsFor(backend, fuel), &sleeper);
      expectSameRun(r, bare);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SleepContract,
    ::testing::Combine(::testing::Values("fft", "spmv"),
                       ::testing::Values(vm::DispatchBackend::Switch,
                                         vm::DispatchBackend::Threaded)));

// ------------------------------------------------------- the differential

using fi::ExperimentResult;
using fi::FaultDomain;
using fi::FaultModel;
using fi::FaultPlan;
using fi::InjectorHook;
using fi::WinSize;

/// Single-bit, a 4-bit burst, and max-MBF 2, 5 and 30 at windows on both
/// sides of the minimum sleep.
std::vector<FaultModel> sleepModels(FaultDomain d) {
  std::vector<FaultModel> out = {FaultModel::singleBit(d),
                                 FaultModel::burstAdjacent(d, 4)};
  for (const unsigned m : {2U, 5U, 30U}) {
    for (const WinSize& w :
         {WinSize::fixed(1), WinSize::fixed(4), WinSize::fixed(10),
          WinSize::fixed(100), WinSize::fixed(1000),
          WinSize::random(101, 1000)}) {
      out.push_back(FaultModel::multiBitTemporal(d, m, w));
    }
  }
  return out;
}

constexpr FaultDomain kDomains[] = {
    FaultDomain::RegisterRead, FaultDomain::RegisterWrite,
    FaultDomain::MemoryData, FaultDomain::RandomValue};

/// One program under every snapshot × prune × backend combination.
struct Variants {
  std::vector<std::unique_ptr<fi::Workload>> all;

  Variants(const char* name, std::uint64_t hangFactor) {
    for (const bool snapshots : {false, true}) {
      for (const bool prune : {false, true}) {
        for (const auto backend :
             {vm::DispatchBackend::Switch, vm::DispatchBackend::Threaded}) {
          all.push_back(std::make_unique<fi::Workload>(
              program(name), hangFactor,
              snapshots ? fi::SnapshotPolicy{}
                        : fi::SnapshotPolicy::disabled(),
              prune ? fi::PrunePolicy{} : fi::PrunePolicy::off(), backend));
        }
      }
    }
  }
  /// Snapshots, pruning and the threaded loop: the drivers' setup.
  [[nodiscard]] const fi::Workload& production() const { return *all.back(); }
};

void expectSameResult(const ExperimentResult& got,
                      const ExperimentResult& want) {
  EXPECT_EQ(got.outcome, want.outcome);
  EXPECT_EQ(got.trap, want.trap);
  EXPECT_EQ(got.activations, want.activations);
  EXPECT_EQ(got.instructions, want.instructions);
}

/// fi::runReference of `plan`, after checking that the injector run as
/// production runs it (resumed from the workload's snapshot, sleeping)
/// leaves the same records and observables as the reference's.
ExperimentResult referenceWithSameRecords(const fi::Workload& w,
                                          const FaultPlan& plan) {
  const vm::ExecLimits& limits = w.faultyLimits();
  InjectorHook sleeping(plan);
  const vm::Snapshot* snap =
      w.snapshotAtOrBefore(plan.domain, plan.firstIndex, limits.maxInstructions);
  std::optional<vm::Machine> machine;
  if (snap != nullptr) {
    machine.emplace(w.module(), *snap, limits, &sleeping);
  } else {
    machine.emplace(w.module(), limits, &sleeping);
  }
  const vm::ExecResult a = machine->run();

  InjectorHook awake(plan);
  const ExperimentResult b = fi::runReference(w, awake);

  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(sleeping.activations(), awake.activations());
  EXPECT_EQ(sleeping.landed(), awake.landed());
  EXPECT_EQ(sleeping.overwritten(), awake.overwritten());
  EXPECT_EQ(sleeping.records().size(), awake.records().size());
  for (std::size_t i = 0;
       i < std::min(sleeping.records().size(), awake.records().size()); ++i) {
    const fi::InjectionRecord& x = sleeping.records()[i];
    const fi::InjectionRecord& y = awake.records()[i];
    EXPECT_EQ(x.candidateIndex, y.candidateIndex) << "record " << i;
    EXPECT_EQ(x.instrIndex, y.instrIndex) << "record " << i;
    EXPECT_EQ(x.operandIndex, y.operandIndex) << "record " << i;
    EXPECT_EQ(x.flipMask, y.flipMask) << "record " << i;
  }
  return b;
}

class SleepDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(SleepDifferential, RunExperimentEqualsTheReference) {
  const Variants v(GetParam(), fi::Workload::kDefaultHangFactor);
  constexpr std::uint64_t kPlansPerModel = 3;
  for (const FaultDomain d : kDomains) {
    const std::vector<FaultModel> models = sleepModels(d);
    for (std::size_t m = 0; m < models.size(); ++m) {
      for (std::uint64_t e = 0; e < kPlansPerModel; ++e) {
        const FaultPlan plan = FaultPlan::forExperiment(
            models[m], v.production().candidates(d), 0x51ee9 + m, e);
        SCOPED_TRACE(::testing::Message()
                     << models[m].label() << " first " << plan.firstIndex
                     << " window " << plan.window);
        const ExperimentResult want =
            referenceWithSameRecords(v.production(), plan);
        for (const auto& w : v.all) {
          expectSameResult(fi::runExperiment(*w, plan), want);
        }
      }
    }
  }
}

TEST_P(SleepDifferential, WakePointPastTheFuelBudget) {
  // hangFactor 0: the faulty budget is 10,000 instructions, short of the
  // golden run, so later injection points sleep past the fuel.
  const Variants v(GetParam(), 0);
  const fi::Workload& w = v.production();
  ASSERT_LT(w.faultyLimits().maxInstructions, w.golden().instructions);
  const std::uint64_t fuel = w.faultyLimits().maxInstructions;
  std::uint64_t pastFuel = 0;
  for (const FaultDomain d : kDomains) {
    for (const FaultModel& model :
         {FaultModel::singleBit(d),
          FaultModel::multiBitTemporal(d, 30, WinSize::fixed(1000))}) {
      // First points spread over the whole golden stream, plus one right
      // before the fuel runs out (temporal follow-ups then sleep past it).
      std::vector<std::uint64_t> firsts;
      for (std::uint64_t i = 1; i < 8; ++i) {
        firsts.push_back(w.candidates(d) * i / 8);
      }
      firsts.push_back(w.candidates(d) * (fuel - 1500) /
                       w.golden().instructions);
      for (std::size_t i = 0; i < firsts.size(); ++i) {
        const FaultPlan plan =
            FaultPlan::atLocation(model, firsts[i], 0xf0e1, i);
        SCOPED_TRACE(::testing::Message()
                     << model.label() << " first " << plan.firstIndex);
        const ExperimentResult want = referenceWithSameRecords(w, plan);
        if (want.outcome == stats::Outcome::Hang) {
          EXPECT_EQ(want.instructions, fuel + 1);
          ++pastFuel;
        }
        for (const auto& each : v.all) {
          expectSameResult(fi::runExperiment(*each, plan), want);
        }
      }
    }
  }
  EXPECT_GT(pastFuel, 0U);
}

INSTANTIATE_TEST_SUITE_P(Programs, SleepDifferential,
                         ::testing::Values("fft", "spmv", "dijkstra"));

}  // namespace
}  // namespace onebit
