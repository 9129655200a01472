// Self-healing fleet tests (fi/supervisor.hpp, plus the fleet-side pieces
// it rides on): the adaptive-deadline formula, quarantine skip/force
// semantics at the worker level, cost stamping in completion leases,
// adaptive deadlines driven by observed cost on a fake clock, heartbeats
// that keep such a deadline alive, and full supervised runs — clean,
// poisoned (quarantines exactly the poisoned shard), and chaos-killed —
// all bit-identical to solo.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fi/campaign_store.hpp"
#include "fi/fleet.hpp"
#include "fi/suite.hpp"
#include "fi/supervisor.hpp"
#include "lang/compile.hpp"
#include "util/file_lock.hpp"

namespace onebit::fi {
namespace {

const char* const kAlpha = R"MC(
int a[24];
int seed = 5;
int rnd() { seed = (seed * 1103515245 + 12345) & 2147483647; return seed; }
int main() {
  for (int i = 0; i < 24; i++) { a[i] = rnd() % 512; }
  int s = 0;
  for (int i = 0; i < 24; i++) { s = (s * 33 + a[i]) & 1048575; }
  print_s("chk=");
  print_i(s);
  print_c(10);
  return 0;
}
)MC";

const char* const kBeta = R"MC(
int main() {
  int s = 1;
  for (int i = 1; i < 40; i++) { s = (s * i + 7) & 65535; }
  print_s("beta=");
  print_i(s);
  print_c(10);
  return 0;
}
)MC";

class SupervisorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    alpha_ = std::make_shared<Workload>(lang::compileMiniC(kAlpha));
    beta_ = std::make_shared<Workload>(lang::compileMiniC(kBeta));
    path_ = ::testing::TempDir() + "supervisor_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid()) + ".jsonl";
    cleanup();
  }

  void TearDown() override { cleanup(); }

  void cleanup() const {
    std::remove(path_.c_str());
    std::remove((path_ + ".lock").c_str());
    std::remove((path_ + ".quarantined").c_str());
  }

  [[nodiscard]] FleetConfig fleetConfig() const {
    FleetConfig config;
    config.pollMs = 2;
    config.workloadResolver =
        [alpha = alpha_, beta = beta_](const CampaignStore::CellRecord& cell)
        -> std::shared_ptr<const Workload> {
      if (cell.workload == "alpha") return alpha;
      if (cell.workload == "beta") return beta;
      return nullptr;
    };
    return config;
  }

  struct CellSpec {
    std::string name;
    FaultModel model;
    std::size_t experiments;
    std::uint64_t seed;
  };

  [[nodiscard]] std::vector<CellSpec> mixedCells() const {
    return {
        {"alpha", FaultModel::singleBit(FaultDomain::RegisterRead), 96,
         0xaaa1},
        {"beta",
         FaultModel::multiBitTemporal(FaultDomain::RegisterRead, 2,
                                      WinSize::fixed(0)),
         57, 0xbbb1},
        {"beta", FaultModel::singleBit(FaultDomain::RegisterWrite), 10,
         0xbbb2},
    };
  }

  [[nodiscard]] const Workload& workloadOf(const CellSpec& cell) const {
    return cell.name == "alpha" ? *alpha_ : *beta_;
  }

  [[nodiscard]] CampaignResult solo(const CellSpec& cell) const {
    CampaignConfig config;
    config.model = cell.model;
    config.experiments = cell.experiments;
    config.seed = cell.seed;
    config.threads = 1;
    return runCampaign(workloadOf(cell), config);
  }

  [[nodiscard]] CampaignSuite makeSuite(const std::vector<CellSpec>& cells,
                                        SuiteConfig config) const {
    CampaignSuite suite(config);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      suite.addCell("cell" + std::to_string(i), workloadOf(cells[i]),
                    cells[i].model, cells[i].experiments, cells[i].seed,
                    cells[i].name);
    }
    return suite;
  }

  void expectMatchesSolo(const std::vector<CampaignResult>& results,
                         const std::vector<CellSpec>& cells) const {
    ASSERT_EQ(results.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CampaignResult ref = solo(cells[i]);
      EXPECT_EQ(results[i].counts, ref.counts) << "cell " << i;
      EXPECT_EQ(results[i].activationHist, ref.activationHist) << "cell " << i;
      EXPECT_TRUE(results[i].complete()) << "cell " << i;
    }
  }

  std::shared_ptr<Workload> alpha_;
  std::shared_ptr<Workload> beta_;
  std::string path_;
};

// ------------------------------------------------------- adaptiveLeaseMs

TEST(AdaptiveLeaseMs, FallsBackToBaseWithoutSamplesOrValidInputs) {
  EXPECT_EQ(adaptiveLeaseMs({}, 0.9, 30'000), 30'000u);
  EXPECT_EQ(adaptiveLeaseMs({100}, 0.0, 30'000), 30'000u);
  EXPECT_EQ(adaptiveLeaseMs({100}, -1.0, 30'000), 30'000u);
  EXPECT_EQ(adaptiveLeaseMs({100}, 1.5, 30'000), 30'000u);
  EXPECT_EQ(adaptiveLeaseMs({100}, 0.9, 0), 0u);
}

TEST(AdaptiveLeaseMs, TracksTheNearestRankQuantileWithHeadroom) {
  // One sample of 1000 ms, base 8000: 1000*4 = 4000, inside [1000, 512000].
  EXPECT_EQ(adaptiveLeaseMs({1000}, 0.9, 8'000), 4'000u);
  // Ten samples 100..1000: the 0.9 quantile (nearest rank 9) is 900.
  EXPECT_EQ(adaptiveLeaseMs({1000, 100, 200, 300, 400, 500, 600, 700, 800,
                             900},
                            0.9, 8'000),
            3'600u);
  // The median of the same set is 500.
  EXPECT_EQ(adaptiveLeaseMs({1000, 100, 200, 300, 400, 500, 600, 700, 800,
                             900},
                            0.5, 8'000),
            2'000u);
}

TEST(AdaptiveLeaseMs, ClampsToTheFixedDefaultBand) {
  // Tiny observed cost: the deadline never drops below baseMs/8.
  EXPECT_EQ(adaptiveLeaseMs({1}, 0.9, 8'000), 1'000u);
  // Huge observed cost: never above baseMs*64.
  EXPECT_EQ(adaptiveLeaseMs({10'000'000}, 0.9, 8'000), 512'000u);
  // Overflow-safe headroom on absurd samples.
  EXPECT_EQ(adaptiveLeaseMs({~0ULL / 2}, 0.9, 8'000), 512'000u);
}

// -------------------------------------------------- worker-level behavior

TEST_F(SupervisorFixture, CompletionLeaseCarriesObservedCost) {
  const CellSpec spec{"beta", FaultModel::singleBit(FaultDomain::RegisterWrite),
                      10, 0xbbb2};
  const auto cell = FleetBroker::makeCell(spec.name, *beta_, spec.model,
                                          spec.experiments, spec.seed, 10);
  ASSERT_TRUE(cell.has_value());
  {
    FleetBroker broker(path_);
    ASSERT_TRUE(broker.submit(*cell));
  }
  FleetWorker worker(path_, "", fleetConfig());
  EXPECT_EQ(worker.run(), FleetWorker::Step::Done);

  CampaignStore store(path_, CampaignStore::WriteMode::Atomic);
  store.load();
  const auto lease = store.latestLease(cell->key, 0, 10);
  ASSERT_TRUE(lease.has_value());
  EXPECT_GE(lease->costMs, 1u);  // the completion stamp
  // The stamp lives in the lease stream only: the shard record is the same
  // bytes a solo run writes, so it must not mention cost at all.
  EXPECT_NE(store.findShard(cell->key, 0, 10), nullptr);
}

TEST_F(SupervisorFixture, AdaptiveDeadlineTracksObservedCostOnAFakeClock) {
  const CellSpec spec{"beta", FaultModel::singleBit(FaultDomain::RegisterWrite),
                      10, 0xbbb2};
  const auto cell = FleetBroker::makeCell(spec.name, *beta_, spec.model,
                                          spec.experiments, spec.seed, 5);
  ASSERT_TRUE(cell.has_value());  // 2 shards of 5
  {
    FleetBroker broker(path_);
    ASSERT_TRUE(broker.submit(*cell));
    // Shard 0: an active foreign lease whose completion-style stamp says
    // "this shard took 1000 ms". It pins shard 0 (deadline 6000) AND
    // seeds the cost history adaptive deadlines are computed from.
    CampaignStore store(path_, CampaignStore::WriteMode::Atomic);
    store.load();
    ASSERT_TRUE(store.appendLease(cell->key,
                                  {0, 5, "history:1", 1, 6'000, 1000}));
  }
  // Workers whose resolver knows nothing: the claim lease is written, the
  // resolve fails, and the claim survives for inspection (a real run would
  // supersede it with the completion stamp within the same step()).
  std::uint64_t fakeNow = 5'000;
  FleetConfig config = fleetConfig();
  config.leaseMs = 8'000;
  config.clock = [&fakeNow] { return fakeNow; };
  config.workloadResolver = [](const CampaignStore::CellRecord&)
      -> std::shared_ptr<const Workload> { return nullptr; };
  FleetWorker worker(path_, "", config);
  EXPECT_EQ(worker.step(), FleetWorker::Step::Idle);  // claimed, unresolvable

  // Shard 0 is held, so the claim is shard 1, and its deadline is
  // now + adaptiveLeaseMs({1000}, .9, 8000) = now + 4000 — not the
  // fixed now + 8000.
  CampaignStore store(path_, CampaignStore::WriteMode::Atomic);
  store.load();
  auto claimed = store.latestLease(cell->key, 5, 5);
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->worker, worker.workerId());
  EXPECT_EQ(claimed->costMs, 0u);
  EXPECT_EQ(claimed->deadlineMs, fakeNow + 4'000);

  // With adaptation off the same machinery uses the fixed default. Advance
  // past the foreign lease's deadline so shard 0 becomes claimable.
  fakeNow = 10'000;
  FleetConfig fixed = config;
  fixed.adaptiveLease = false;
  FleetWorker fixedWorker(path_, "", fixed);
  EXPECT_EQ(fixedWorker.step(), FleetWorker::Step::Idle);
  store.refresh();
  const auto reclaimed = store.latestLease(cell->key, 0, 5);
  ASSERT_TRUE(reclaimed.has_value());
  EXPECT_EQ(reclaimed->worker, fixedWorker.workerId());
  EXPECT_EQ(reclaimed->epoch, 2u);
  EXPECT_EQ(reclaimed->deadlineMs, fakeNow + 8'000);
}

TEST_F(SupervisorFixture, AdaptiveLeaseIsRenewedBeforeItLapses) {
  // The claim's adaptive lease (4000 ms) is far shorter than the default
  // heartbeat period (leaseMs / 3 = 10 000 ms). The holder must renew
  // within the claim's own lease, or a rival re-runs the shard under it.
  const CellSpec spec{"beta", FaultModel::singleBit(FaultDomain::RegisterWrite),
                      10, 0xbbb2};
  const auto cell = FleetBroker::makeCell(spec.name, *beta_, spec.model,
                                          spec.experiments, spec.seed, 5);
  ASSERT_TRUE(cell.has_value());  // 2 shards of 5
  {
    FleetBroker broker(path_);
    ASSERT_TRUE(broker.submit(*cell));
    // Shard 0: a foreign lease that outlives the test pins it, and its
    // cost_ms of 1000 makes the adaptive lease
    // adaptiveLeaseMs({1000}, .9, 30000) = 4000 ms.
    CampaignStore store(path_, CampaignStore::WriteMode::Atomic);
    store.load();
    ASSERT_TRUE(store.appendLease(cell->key,
                                  {0, 5, "history:1", 1, 1'000'000, 1000}));
  }
  // The clock stands at 5000 until the holder's claim, then advances 1 s
  // per holder reading. Once it passes 10 000, mid-shard, the rival (whose
  // clock only reads) steps once.
  std::uint64_t fakeNow = 5'000;
  bool ticking = false;
  FleetConfig rivalConfig = fleetConfig();
  rivalConfig.clock = [&fakeNow] { return fakeNow; };
  FleetWorker rival(path_, "rival", rivalConfig);
  std::optional<FleetWorker::Step> rivalStep;
  FleetConfig config = fleetConfig();
  config.clock = [&] {
    if (ticking) {
      fakeNow += 1'000;
      if (fakeNow > 10'000 && !rivalStep) rivalStep = rival.step();
    }
    return fakeNow;
  };
  config.onClaim = [&](std::size_t) { ticking = true; };
  FleetWorker holder(path_, "", config);
  EXPECT_EQ(holder.step(), FleetWorker::Step::Ran);

  ASSERT_TRUE(rivalStep.has_value());
  EXPECT_EQ(*rivalStep, FleetWorker::Step::Idle);
  EXPECT_EQ(rival.shardsRun(), 0u);
  CampaignStore store(path_, CampaignStore::WriteMode::Atomic);
  store.load();
  const auto lease = store.latestLease(cell->key, 5, 5);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->worker, holder.workerId());
  EXPECT_EQ(lease->epoch, 1u);
}

TEST_F(SupervisorFixture, QuarantinedShardIsSkippedUntilForced) {
  const CellSpec spec{"beta", FaultModel::singleBit(FaultDomain::RegisterWrite),
                      10, 0xbbb2};
  const auto cell = FleetBroker::makeCell(spec.name, *beta_, spec.model,
                                          spec.experiments, spec.seed, 5);
  ASSERT_TRUE(cell.has_value());  // 2 shards of 5
  {
    FleetBroker broker(path_);
    ASSERT_TRUE(broker.submit(*cell));
    CampaignStore store(path_, CampaignStore::WriteMode::Atomic);
    store.load();
    CampaignStore::QuarantineRecord q;
    q.first = 0;
    q.count = 5;
    q.crashes = 3;
    ASSERT_TRUE(store.appendQuarantine(cell->key, q));
  }
  // A normal worker runs shard 1, then reports Quarantined — not Stalled,
  // not Done — because shard 0 still blocks completion.
  FleetWorker worker(path_, "", fleetConfig());
  EXPECT_EQ(worker.run(), FleetWorker::Step::Quarantined);
  EXPECT_EQ(worker.shardsRun(), 1u);

  // The broker sees the quarantined shard and --wait would not hang on it.
  FleetBroker broker(path_);
  EXPECT_FALSE(broker.complete());
  const auto status = broker.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].quarantinedShards, 1u);

  // A --force worker claims it anyway and finishes the cell.
  FleetConfig force = fleetConfig();
  force.ignoreQuarantine = true;
  FleetWorker forced(path_, "", force);
  EXPECT_EQ(forced.run(), FleetWorker::Step::Done);
  EXPECT_EQ(forced.shardsRun(), 1u);
  EXPECT_TRUE(broker.complete());

  // The finished run is bit-identical to solo despite the detour. A
  // resume-bound engine, the merge the fleet's final pass performs, takes
  // every experiment from the store.
  CampaignStore store(path_, CampaignStore::WriteMode::Atomic);
  store.load();
  CampaignConfig resume;
  resume.model = spec.model;
  resume.experiments = spec.experiments;
  resume.seed = spec.seed;
  resume.threads = 1;
  resume.shardSize = 5;
  const CampaignResult result =
      CampaignEngine(resume).resumeFrom(store).run(*beta_);
  EXPECT_EQ(result.resumedExperiments, spec.experiments);
  const CampaignResult ref = solo(spec);
  EXPECT_EQ(result.counts, ref.counts);
  EXPECT_EQ(result.activationHist, ref.activationHist);
}

// ------------------------------------------------------- supervised fleets

TEST_F(SupervisorFixture, SupervisedFleetMatchesSolo) {
  const std::vector<CellSpec> cells = mixedCells();
  SuiteConfig config;
  config.shardSize = 16;
  const CampaignSuite suite = makeSuite(cells, config);
  FleetSupervisorConfig options;
  options.workers = 2;
  options.fleet = fleetConfig();
  FleetSupervisor::Report report;
  const std::vector<CampaignResult> results =
      runSupervisedFleet(suite, config, path_, options, &report);
  expectMatchesSolo(results, cells);
  EXPECT_TRUE(report.converged);
  EXPECT_GE(report.spawned, options.workers);
  EXPECT_EQ(report.quarantined.size(), 0u);
  EXPECT_EQ(report.quarantinedShards, 0u);
}

TEST_F(SupervisorFixture, PoisonShardIsQuarantinedAndResultsStillMatchSolo) {
  // One shard of the beta single-bit cell reliably SIGKILLs whichever
  // worker claims it. The supervisor must quarantine exactly that shard,
  // the fleet must converge on everything else, and the built-in force
  // pass of runSupervisedFleet must still deliver solo-identical results.
  const std::vector<CellSpec> cells = mixedCells();
  SuiteConfig config;
  config.shardSize = 16;
  const CampaignSuite suite = makeSuite(cells, config);
  FleetSupervisorConfig options;
  options.workers = 2;
  options.poisonRetries = 2;
  options.backoffBaseMs = 1;
  options.backoffCapMs = 20;
  options.fleet = fleetConfig();
  options.fleet.leaseMs = 2'000;
  options.fleet.poisonWorkload = "alpha";
  options.fleet.poisonShard = 1;  // shard [16, +16) of the 96-exp cell
  FleetSupervisor::Report report;
  const std::vector<CampaignResult> results =
      runSupervisedFleet(suite, config, path_, options, &report);
  expectMatchesSolo(results, cells);

  EXPECT_GE(report.crashes, options.poisonRetries);
  EXPECT_GE(report.restarts, options.poisonRetries);
  EXPECT_EQ(report.quarantinedShards, 1u);  // exactly the poisoned shard
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].workload, "alpha");
  EXPECT_EQ(report.quarantined[0].first, 16u);
  EXPECT_EQ(report.quarantined[0].count, 16u);
  EXPECT_GE(report.quarantined[0].crashes, options.poisonRetries);
  EXPECT_TRUE(report.converged);

  // The durable verdict is in the store, and the force pass recorded the
  // shard anyway (quarantine superseded, not erased).
  CampaignStore store(path_, CampaignStore::WriteMode::Atomic);
  store.load();
  // Snapshot first: the store's forEach contract forbids re-entering it
  // from inside the callback.
  struct Verdict {
    std::uint64_t key;
    std::string workload;
    CampaignStore::QuarantineRecord rec;
  };
  std::vector<Verdict> verdicts;
  for (const CampaignStore::CellRecord& cell : store.cells()) {
    store.forEachQuarantine(cell.key,
                            [&](const CampaignStore::QuarantineRecord& q) {
                              verdicts.push_back({cell.key, cell.workload, q});
                            });
  }
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].workload, "alpha");
  EXPECT_EQ(verdicts[0].rec.first, 16u);
  EXPECT_EQ(verdicts[0].rec.count, 16u);
  EXPECT_NE(store.findShard(verdicts[0].key, 16, 16), nullptr);
}

TEST_F(SupervisorFixture, ChaosKillsAreNeverAttributedAndTheFleetConverges) {
  const std::vector<CellSpec> cells = mixedCells();
  SuiteConfig config;
  config.shardSize = 16;
  const CampaignSuite suite = makeSuite(cells, config);
  FleetSupervisorConfig options;
  options.workers = 2;
  options.poisonRetries = 1;  // hair trigger: any attributed crash quarantines
  options.backoffBaseMs = 1;
  options.backoffCapMs = 20;
  options.chaosKillMs = 40;
  options.fleet = fleetConfig();
  options.fleet.leaseMs = 2'000;
  FleetSupervisor::Report report;
  const std::vector<CampaignResult> results =
      runSupervisedFleet(suite, config, path_, options, &report);
  expectMatchesSolo(results, cells);
  EXPECT_TRUE(report.converged);
  // Even with poisonRetries=1, chaos victims must never be attributed to
  // the shard they happened to be holding.
  EXPECT_EQ(report.quarantinedShards, 0u);
  EXPECT_EQ(report.quarantined.size(), 0u);
  EXPECT_EQ(report.chaosKills, report.crashes);
}

}  // namespace
}  // namespace onebit::fi
