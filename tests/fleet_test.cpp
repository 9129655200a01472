// Campaign-fleet tests (fi/fleet.hpp): fleet-vs-solo bit-identity across
// worker counts, crash-after-claim → lease expiry → epoch-bumped re-lease
// (on a fake clock, so expiry is deterministic), the same-host dead-pid
// fast path, SIGKILL-a-worker fault tolerance through runSupervisedFleet,
// shard-record byte identity between fleet and solo stores, stalled-worker
// semantics for unresolvable cells, compaction of a finished fleet store,
// forked workers running the suite's own workloads when no resolver is
// given, and the poison-spec parser.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fi/campaign.hpp"
#include "fi/campaign_store.hpp"
#include "fi/fleet.hpp"
#include "fi/suite.hpp"
#include "fi/supervisor.hpp"
#include "lang/compile.hpp"
#include "progs/registry.hpp"
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

/// The lines of `path` that are records of `kind`, in file order.
std::vector<std::string> recordLines(const std::string& path,
                                     const std::string& kind) {
  std::string bytes;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
    std::fclose(f);
  }
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < bytes.size()) {
    std::size_t end = bytes.find('\n', start);
    if (end == std::string::npos) end = bytes.size();
    std::string line = bytes.substr(start, end - start);
    if (line.find("\"kind\":\"" + kind + "\"") != std::string::npos) {
      lines.push_back(std::move(line));
    }
    start = end + 1;
  }
  return lines;
}

/// All the lines of `path` that are shard records, sorted and deduplicated —
/// duplicate shard records are byte-identical by the determinism contract,
/// so the deduplicated set IS the comparable content of a store.
std::vector<std::string> shardLines(const std::string& path) {
  std::vector<std::string> lines = recordLines(path, "shard");
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  return lines;
}

class FleetFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    alpha_ = std::make_shared<Workload>(lang::compileMiniC(kAlpha));
    beta_ = std::make_shared<Workload>(lang::compileMiniC(kBeta));
    path_ = ::testing::TempDir() + "fleet_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid()) + ".jsonl";
    cleanup();
  }

  void TearDown() override { cleanup(); }

  void cleanup() const {
    std::remove(path_.c_str());
    std::remove((path_ + ".lock").c_str());
  }

  /// The worker-side resolver every test fleet uses: cells name "alpha" or
  /// "beta", the resolver hands back the fixture's compiled workloads (the
  /// fork()ed workers inherit them).
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
    std::string name;  ///< storeName a worker resolves ("alpha" / "beta")
    FaultModel model;
    std::size_t experiments;
    std::uint64_t seed;
  };

  [[nodiscard]] std::vector<CellSpec> mixedCells() const {
    return {
        {"alpha", FaultModel::singleBit(FaultDomain::RegisterRead), 96,
         0xaaa1},
        {"alpha",
         FaultModel::multiBitTemporal(FaultDomain::RegisterWrite, 3,
                                      WinSize::fixed(2)),
         240, 0xaaa2},
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

  std::shared_ptr<Workload> alpha_;
  std::shared_ptr<Workload> beta_;
  std::string path_;
};

TEST_F(FleetFixture, MakeCellStampsTheContractAndRefusesTheInexpressible) {
  const FaultModel model = FaultModel::singleBit(FaultDomain::RegisterRead);
  const auto cell = FleetBroker::makeCell("alpha", *alpha_, model, 96,
                                          0xaaa1, 16);
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->key, CampaignStore::campaignKey(
                           model, 96, 0xaaa1, alpha_->fingerprintFor(model)));
  EXPECT_EQ(cell->workload, "alpha");
  EXPECT_EQ(cell->spec, model.label());
  EXPECT_EQ(cell->flipWidth, model.flipWidth);
  EXPECT_EQ(cell->experiments, 96u);
  EXPECT_EQ(cell->seed, 0xaaa1u);
  EXPECT_EQ(cell->shardSize, 16u);
  EXPECT_EQ(cell->hangFactor, alpha_->hangFactor());
  EXPECT_EQ(cell->dynInstrs, alpha_->golden().instructions);
  EXPECT_EQ(cell->shardCount(), 6u);

  // Not expressible as a fleet cell: no workload name, no experiments, or
  // no shard geometry. Each must be refused, not submitted-and-stalled.
  EXPECT_FALSE(FleetBroker::makeCell("", *alpha_, model, 96, 1, 16));
  EXPECT_FALSE(FleetBroker::makeCell("alpha", *alpha_, model, 0, 1, 16));
  EXPECT_FALSE(FleetBroker::makeCell("alpha", *alpha_, model, 96, 1, 0));
  // Nor a cell the store's loader would drop as malformed: a count equal to
  // its 2^64 − 1 sentinel, or a flip width outside 1..64.
  constexpr std::size_t kBad = static_cast<std::size_t>(-1);
  EXPECT_FALSE(FleetBroker::makeCell("alpha", *alpha_, model, kBad, 1, 16));
  EXPECT_FALSE(FleetBroker::makeCell("alpha", *alpha_, model, 96, 1, kBad));
  for (const unsigned width : {0U, 65U}) {
    FaultModel odd = model;
    odd.flipWidth = width;
    EXPECT_FALSE(FleetBroker::makeCell("alpha", *alpha_, odd, 96, 1, 16))
        << "flip width " << width;
  }
}

TEST_F(FleetFixture, ShardCountsHoldNearTwoToTheSixtyFour) {
  // (n + s - 1) / s wraps for n near 2^64: n = 2^64 - 2 got an automatic
  // shard size of 16 and a cell of 0 shards, which the broker accepted and
  // the fleet then waited on forever.
  constexpr std::size_t kHuge = ~std::size_t{0} - 1;
  const std::size_t shardSize = resolveShardSize(kHuge, 0);
  EXPECT_EQ(shardSize, 4096u);
  const std::size_t shards = kHuge / 4096 + 1;
  CampaignStore::CellRecord rec;
  rec.experiments = kHuge;
  rec.shardSize = shardSize;
  EXPECT_EQ(rec.shardCount(), shards);
  CampaignConfig config;
  config.experiments = kHuge;
  EXPECT_EQ(CampaignEngine(config).shardCount(), shards);
  // The broker refuses a cell with more shards than a fleet can walk, and
  // takes one at the limit.
  const FaultModel model = FaultModel::singleBit(FaultDomain::RegisterRead);
  EXPECT_FALSE(FleetBroker::makeCell("alpha", *alpha_, model, kHuge, 1,
                                     shardSize));
  const std::size_t atLimit = FleetBroker::kMaxCellShards * 16;
  EXPECT_TRUE(FleetBroker::makeCell("alpha", *alpha_, model, atLimit, 1, 16));
  EXPECT_FALSE(
      FleetBroker::makeCell("alpha", *alpha_, model, atLimit + 1, 1, 16));
}

TEST_F(FleetFixture, FleetMatchesSoloForOneTwoAndFourWorkers) {
  const std::vector<CellSpec> cells = mixedCells();
  std::vector<CampaignResult> refs;
  for (const CellSpec& cell : cells) refs.push_back(solo(cell));

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    cleanup();
    SuiteConfig config;
    config.shardSize = 16;
    const CampaignSuite suite = makeSuite(cells, config);
    FleetSupervisorConfig options;
    options.workers = workers;
    options.fleet = fleetConfig();
    const std::vector<CampaignResult> results =
        runSupervisedFleet(suite, config, path_, options);
    ASSERT_EQ(results.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(results[i].counts, refs[i].counts)
          << "cell " << i << " workers=" << workers;
      EXPECT_EQ(results[i].activationHist, refs[i].activationHist)
          << "cell " << i << " workers=" << workers;
      EXPECT_EQ(results[i].completedExperiments, cells[i].experiments);
      EXPECT_TRUE(results[i].complete());
    }
    // Every cell was submitted and fully recorded: the broker agrees.
    FleetBroker broker(path_);
    EXPECT_TRUE(broker.complete());
    for (const FleetBroker::CellStatus& st : broker.status()) {
      EXPECT_TRUE(st.complete());
      EXPECT_EQ(st.recordedShards, st.cell.shardCount());
    }
  }
}

TEST_F(FleetFixture, KilledWorkerIsReLeasedAndResultsUnchanged) {
  // The acceptance scenario: two workers, the first SIGKILLs itself right
  // after its first lease claim (no cleanup, lease left dangling). The
  // survivor re-leases the abandoned shard — same-host liveness makes that
  // prompt once the parent reaps the corpse; the 1s deadline bounds it
  // either way — and the merged results are bit-identical to solo.
  const std::vector<CellSpec> cells = mixedCells();
  SuiteConfig config;
  config.shardSize = 16;
  const CampaignSuite suite = makeSuite(cells, config);
  FleetSupervisorConfig options;
  options.workers = 2;
  options.fleet = fleetConfig();
  options.fleet.leaseMs = 1000;
  options.killFirstWorkerAfterClaims = 1;
  FleetSupervisor::Report report;
  const std::vector<CampaignResult> results =
      runSupervisedFleet(suite, config, path_, options, &report);
  ASSERT_EQ(results.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CampaignResult ref = solo(cells[i]);
    EXPECT_EQ(results[i].counts, ref.counts) << "cell " << i;
    EXPECT_EQ(results[i].activationHist, ref.activationHist) << "cell " << i;
    EXPECT_TRUE(results[i].complete());
  }
  // The hook fires in the first incarnation only: one crash, attributed
  // once (below the default poisonRetries, so nothing is quarantined), and
  // one respawn.
  EXPECT_EQ(report.crashes, 1u);
  EXPECT_EQ(report.restarts, 1u);
  EXPECT_EQ(report.quarantinedShards, 0u);
  EXPECT_TRUE(report.converged);
  // The dangling lease really was re-claimed at a higher epoch (the killed
  // worker's claim is always burned, and the survivor must take it over —
  // it cannot finish while an unrecorded shard exists).
  CampaignStore store(path_, CampaignStore::WriteMode::Atomic);
  store.load();
  std::uint64_t maxEpoch = 0;
  for (const CampaignStore::CellRecord& cell : store.cells()) {
    store.forEachLease(cell.key, [&](const CampaignStore::LeaseRecord& l) {
      maxEpoch = std::max(maxEpoch, l.epoch);
    });
  }
  EXPECT_GE(maxEpoch, 2u);
}

TEST_F(FleetFixture, ExpiredLeaseIsReclaimedAtTheNextEpoch) {
  // Deterministic expiry on a fake clock: a foreign (non-pid) worker holds
  // shard 0; until its deadline passes the local worker must leave the
  // shard alone, afterwards it must re-lease it at epoch 2.
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
    ASSERT_TRUE(store.appendLease(cell->key,
                                  {0, 5, "foreign-host-worker", 1, 1500}));
  }
  std::uint64_t fakeNow = 1000;
  FleetConfig config = fleetConfig();
  config.leaseMs = 10'000;
  config.clock = [&fakeNow] { return fakeNow; };
  FleetWorker worker(path_, "", config);

  // Shard 0 is held (deadline 1500 > 1000): only shard 1 is claimable.
  EXPECT_EQ(worker.step(), FleetWorker::Step::Ran);
  EXPECT_EQ(worker.step(), FleetWorker::Step::Idle);
  EXPECT_EQ(worker.shardsRun(), 1u);

  fakeNow = 1500;  // deadline <= now: the foreign lease is dead
  EXPECT_EQ(worker.step(), FleetWorker::Step::Ran);
  EXPECT_EQ(worker.step(), FleetWorker::Step::Done);
  EXPECT_EQ(worker.shardsRun(), 2u);

  CampaignStore store(path_, CampaignStore::WriteMode::Atomic);
  store.load();
  const auto lease = store.latestLease(cell->key, 0, 5);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->epoch, 2u);  // re-lease, not a renewal of epoch 1
  EXPECT_EQ(lease->worker, worker.workerId());

  // The run the two epochs produced is bit-identical to solo. A
  // resume-bound engine, the merge the fleet's final pass performs, takes
  // every experiment from the store.
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

TEST_F(FleetFixture, ZeroLeaseMsMeansTheDefaultLease) {
  // leaseMs = 0 resolves to the default lease, as heartbeatMs and parkMs
  // resolve 0. Read literally it would expire every claim the moment it is
  // written, and the zero heartbeat period it implies would renew the
  // lease after every experiment.
  const auto cell = FleetBroker::makeCell(
      "beta", *beta_, FaultModel::singleBit(FaultDomain::RegisterWrite), 10,
      0xbbb2, 10);
  ASSERT_TRUE(cell.has_value());  // a single shard
  {
    FleetBroker broker(path_);
    ASSERT_TRUE(broker.submit(*cell));
  }
  // The fake clock stands still until the claim, then ticks one ms per
  // reading, so each experiment of the shard ends at a new time.
  std::uint64_t fakeNow = 1000;
  bool ticking = false;
  FleetConfig config = fleetConfig();
  config.leaseMs = 0;
  config.clock = [&] { return ticking ? ++fakeNow : fakeNow; };
  // A second worker steps at the claim's fake time, right after it: the
  // claimed shard must not be up for grabs.
  FleetWorker rival(path_, "rival", config);
  std::optional<FleetWorker::Step> rivalStep;
  config.onClaim = [&](std::size_t) {
    rivalStep = rival.step();
    ticking = true;
  };
  FleetWorker worker(path_, "", config);
  EXPECT_EQ(worker.step(), FleetWorker::Step::Ran);
  ASSERT_TRUE(rivalStep.has_value());
  EXPECT_EQ(*rivalStep, FleetWorker::Step::Idle);
  EXPECT_EQ(rival.shardsRun(), 0u);
  EXPECT_EQ(worker.step(), FleetWorker::Step::Done);

  // The claim and the completion: ten experiments take 10 ms, far inside
  // the default heartbeat period.
  EXPECT_EQ(recordLines(path_, "lease").size(), 2u);
  CampaignStore store(path_, CampaignStore::WriteMode::Atomic);
  store.load();
  const auto lease = store.latestLease(cell->key, 0, 10);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->epoch, 1u);
  EXPECT_EQ(lease->worker, worker.workerId());
}

TEST_F(FleetFixture, DeadPidLeaseIsStolenBeforeItsDeadline) {
  // Same-host fast path: the lease's worker id carries a pid that no longer
  // exists, so the shard is re-leasable immediately — long before the (far
  // future) deadline.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) std::_Exit(0);
  int status = 0;
  while (::waitpid(child, &status, 0) < 0 && errno == EINTR) {
  }

  const auto cell = FleetBroker::makeCell(
      "beta", *beta_, FaultModel::singleBit(FaultDomain::RegisterWrite), 10,
      0xbbb2, 10);
  ASSERT_TRUE(cell.has_value());  // a single shard
  {
    FleetBroker broker(path_);
    ASSERT_TRUE(broker.submit(*cell));
    CampaignStore store(path_, CampaignStore::WriteMode::Atomic);
    store.load();
    ASSERT_TRUE(store.appendLease(
        cell->key, {0, 10, std::to_string(child) + ":beef", 1,
                    util::wallClockMs() + 3'600'000}));
  }
  FleetWorker worker(path_, "", fleetConfig());
  EXPECT_EQ(worker.step(), FleetWorker::Step::Ran);
  EXPECT_EQ(worker.step(), FleetWorker::Step::Done);

  CampaignStore store(path_, CampaignStore::WriteMode::Atomic);
  store.load();
  const auto lease = store.latestLease(cell->key, 0, 10);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->epoch, 2u);
}

TEST_F(FleetFixture, WorkerStallsOnACellItCannotResolve) {
  const auto cell = FleetBroker::makeCell(
      "alpha", *alpha_, FaultModel::singleBit(FaultDomain::RegisterRead), 32,
      0xaaa1, 16);
  ASSERT_TRUE(cell.has_value());
  {
    FleetBroker broker(path_);
    ASSERT_TRUE(broker.submit(*cell));
  }
  FleetConfig config = fleetConfig();
  config.workloadResolver = [](const CampaignStore::CellRecord&)
      -> std::shared_ptr<const Workload> { return nullptr; };
  FleetWorker worker(path_, "", config);
  EXPECT_EQ(worker.run(), FleetWorker::Step::Stalled);
  EXPECT_EQ(worker.shardsRun(), 0u);

  // A worker that CAN resolve the cell is unaffected by the stalled one's
  // burned lease (its own id never blocks it; a foreign abandoned lease is
  // skipped only until it lapses — here it is the stalled worker's, which
  // is alive, so this worker waits for expiry... avoid that by reusing the
  // stalled worker's id, which never blocks itself).
  FleetWorker rescue(path_, worker.workerId(), fleetConfig());
  EXPECT_EQ(rescue.run(), FleetWorker::Step::Done);
  EXPECT_EQ(rescue.shardsRun(), 2u);
}

TEST_F(FleetFixture, DefaultResolverRefusesAHangFactorWhoseBudgetOverflows) {
  // fleet_worker's resolver rebuilds a cell's workload from the progs
  // registry and the cell's hang factor. A factor whose budget overflows 64
  // bits must not resolve (a wrapped budget would be a tiny one); the
  // worker gives the cell up as unresolvable and runs nothing.
  const progs::ProgramInfo* info = progs::findProgram("crc32");
  ASSERT_NE(info, nullptr);
  const Workload crc32(progs::compileProgram(*info));
  auto cell = FleetBroker::makeCell(
      "crc32", crc32, FaultModel::singleBit(FaultDomain::RegisterRead), 16,
      0xccc1, 16);
  ASSERT_TRUE(cell.has_value());
  cell->hangFactor = std::numeric_limits<std::uint64_t>::max();
  {
    FleetBroker broker(path_);
    ASSERT_TRUE(broker.submit(*cell));
  }
  FleetConfig config;  // no resolver: the default one
  config.pollMs = 2;
  FleetWorker worker(path_, "", config);
  testing::internal::CaptureStderr();
  const FleetWorker::Step step = worker.run();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(step, FleetWorker::Step::Stalled);
  EXPECT_EQ(worker.shardsRun(), 0u);
  EXPECT_NE(err.find("workload did not resolve"), std::string::npos) << err;
}

TEST_F(FleetFixture, RunSupervisedFleetFinishesInexpressibleCellsInProcess) {
  // A cell with no store name cannot be submitted to the fleet;
  // runSupervisedFleet must fall back to running it in-process and still
  // return a result set bit-identical to suite.run().
  std::vector<CellSpec> cells = mixedCells();
  SuiteConfig config;
  config.shardSize = 16;
  CampaignSuite suite(config);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    suite.addCell("cell" + std::to_string(i), workloadOf(cells[i]),
                  cells[i].model, cells[i].experiments, cells[i].seed,
                  i == 0 ? std::string() : cells[i].name);  // cell 0 unnamed
  }
  FleetSupervisorConfig options;
  options.workers = 1;
  options.fleet = fleetConfig();
  const std::vector<CampaignResult> results =
      runSupervisedFleet(suite, config, path_, options);
  ASSERT_EQ(results.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CampaignResult ref = solo(cells[i]);
    EXPECT_EQ(results[i].counts, ref.counts) << "cell " << i;
    EXPECT_TRUE(results[i].complete());
  }
  // Only the three named cells ever became fleet cells.
  FleetBroker broker(path_);
  EXPECT_EQ(broker.status().size(), cells.size() - 1);
}

TEST_F(FleetFixture, FleetShardRecordsAreByteIdenticalToSoloRecords) {
  const std::vector<CellSpec> cells = mixedCells();
  SuiteConfig config;
  config.shardSize = 16;

  // Fleet store: two workers through the lease protocol.
  {
    const CampaignSuite suite = makeSuite(cells, config);
    FleetSupervisorConfig options;
    options.workers = 2;
    options.fleet = fleetConfig();
    (void)runSupervisedFleet(suite, config, path_, options);
  }
  // Solo store: the ordinary record path, same cells, same geometry.
  const std::string soloPath = path_ + ".solo";
  std::remove(soloPath.c_str());
  {
    CampaignStore store(soloPath);
    SuiteConfig recordConfig = config;
    recordConfig.record = &store;
    (void)makeSuite(cells, recordConfig).run();
  }
  const std::vector<std::string> fleet = shardLines(path_);
  const std::vector<std::string> solo = shardLines(soloPath);
  EXPECT_EQ(fleet.size(), solo.size());
  EXPECT_EQ(fleet, solo);  // byte-identical records, not just equal counts
  std::remove(soloPath.c_str());
}

TEST_F(FleetFixture, CompactDropsEveryLeaseOfAFinishedFleetRun) {
  const std::vector<CellSpec> cells = mixedCells();
  SuiteConfig config;
  config.shardSize = 16;
  {
    const CampaignSuite suite = makeSuite(cells, config);
    FleetSupervisorConfig options;
    options.workers = 2;
    options.fleet = fleetConfig();
    (void)runSupervisedFleet(suite, config, path_, options);
  }
  // Every shard is recorded, so every lease is superseded — compaction must
  // drop them all (nowMs = 0: superseded-ness alone, no clock involved)
  // while keeping the cell records and every shard.
  const auto stats = CampaignStore::compact(path_);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->leaseRecords, 0u);
  EXPECT_GT(stats->droppedLeases, 0u);
  EXPECT_EQ(stats->cellRecords, cells.size());
  EXPECT_TRUE(stats->rewritten);

  CampaignStore store(path_);
  const CampaignStore::LoadStats loaded = store.load();
  EXPECT_EQ(loaded.leaseRecords, 0u);
  EXPECT_EQ(loaded.cellRecords, cells.size());
  EXPECT_EQ(loaded.malformed, 0u);

  // The compacted store still resumes every cell bit-identically.
  SuiteConfig resumeConfig = config;
  resumeConfig.resume = &store;
  const std::vector<CampaignResult> resumed =
      makeSuite(cells, resumeConfig).run();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(resumed[i].resumedExperiments, cells[i].experiments);
    EXPECT_EQ(resumed[i].counts, solo(cells[i]).counts);
  }
}

TEST_F(FleetFixture, ForkedWorkersRunTheSuiteWorkloadsWithoutAResolver) {
  // No resolver: the fixture's MiniC workloads are not in the progs
  // registry, so only the suite cells' own workloads can run them. A
  // completion lease (cost_ms stamped, a worker id named) as the newest
  // lease of every shard proves the forked workers recorded the shards, not
  // the in-process remainder pass.
  const std::vector<CellSpec> cells = mixedCells();
  SuiteConfig config;
  config.shardSize = 16;
  const CampaignSuite suite = makeSuite(cells, config);
  FleetSupervisorConfig options;
  options.workers = 2;
  options.fleet.pollMs = 2;
  const std::vector<CampaignResult> results =
      runSupervisedFleet(suite, config, path_, options);
  ASSERT_EQ(results.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CampaignResult ref = solo(cells[i]);
    EXPECT_EQ(results[i].counts, ref.counts) << "cell " << i;
    EXPECT_EQ(results[i].activationHist, ref.activationHist) << "cell " << i;
    EXPECT_TRUE(results[i].complete()) << "cell " << i;
  }
  CampaignStore store(path_, CampaignStore::WriteMode::Atomic);
  store.load();
  ASSERT_EQ(store.cells().size(), cells.size());
  for (const CampaignStore::CellRecord& cell : store.cells()) {
    for (std::size_t s = 0; s < cell.shardCount(); ++s) {
      const std::optional<CampaignStore::LeaseRecord> lease =
          store.latestLease(cell.key, cell.shardFirst(s),
                            cell.shardExperiments(s));
      ASSERT_TRUE(lease.has_value()) << cell.workload << " shard " << s;
      EXPECT_NE(lease->costMs, 0u) << cell.workload << " shard " << s;
      EXPECT_NE(lease->worker.find(':'), std::string::npos)
          << "worker id '" << lease->worker << "'";
    }
  }
}

TEST(ParseCount, AcceptsDigitsThatFitOnly) {
  struct Case {
    const char* text;
    int base;
    bool ok;
    std::uint64_t value;
  };
  const Case cases[] = {
      {"0", 10, true, 0},
      {"8", 10, true, 8},
      {"18446744073709551615", 10, true, ~0ULL},
      {"ff", 16, true, 0xff},
      {"FFFFFFFFFFFFFFFF", 16, true, ~0ULL},
      {"", 10, false, 0},
      {"-1", 10, false, 0},
      {"+8", 10, false, 0},
      {" 8", 10, false, 0},
      {"8 ", 10, false, 0},
      {"8x", 10, false, 0},
      {"0x10", 16, false, 0},
      {"ff", 10, false, 0},
      {"18446744073709551616", 10, false, 0},  // 2^64 overflows
      {"10000000000000000", 16, false, 0},
  };
  for (const Case& c : cases) {
    std::uint64_t v = 42;
    EXPECT_EQ(parseCount(c.text, v, c.base), c.ok) << "'" << c.text << "'";
    EXPECT_EQ(v, c.ok ? c.value : 42u) << "'" << c.text << "'";
  }
}

TEST(ParsePoison, AcceptsNameAndOptionalShardOnly) {
  constexpr std::size_t kAny = static_cast<std::size_t>(-1);
  struct Case {
    const char* spec;
    bool ok;
    const char* name;
    std::size_t shard;
  };
  const Case cases[] = {
      {"qsort", true, "qsort", kAny},
      {"qsort:1", true, "qsort", 1},
      {"a:b:2", true, "a:b", 2},
      {"", false, "", 0},
      {":1", false, "", 0},
      {"qsort:", false, "", 0},
      {"qsort:x", false, "", 0},
      {"qsort:1x", false, "", 0},
      {"qsort:-1", false, "", 0},
      {"qsort:+1", false, "", 0},
      {"qsort:18446744073709551615", false, "", 0},  // npos: "every shard"
      {"qsort:99999999999999999999", false, "", 0},  // overflows
  };
  for (const Case& c : cases) {
    FleetConfig config;
    config.poisonWorkload = "untouched";
    config.poisonShard = 7;
    EXPECT_EQ(parsePoison(c.spec, config), c.ok) << "'" << c.spec << "'";
    if (c.ok) {
      EXPECT_EQ(config.poisonWorkload, c.name) << "'" << c.spec << "'";
      EXPECT_EQ(config.poisonShard, c.shard) << "'" << c.spec << "'";
    } else {
      EXPECT_EQ(config.poisonWorkload, "untouched") << "'" << c.spec << "'";
      EXPECT_EQ(config.poisonShard, 7u) << "'" << c.spec << "'";
    }
  }
}

}  // namespace
}  // namespace onebit::fi
