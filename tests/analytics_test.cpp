// Analytics subsystem tests (src/analytics/): the Dataset reader over
// campaign stores, the group-by/progress aggregations, the selection knobs,
// the figure render loop (with a fake batch runner), and — through the
// sibling binaries in the build directory — the figure-regeneration
// contract: `report --figure figN` over a complete store is byte-identical
// to the driver's stdout, and a partial (live or interrupted) store is
// always EXPLICITLY marked partial, never reported as a final value.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "analytics/aggregate.hpp"
#include "analytics/dataset.hpp"
#include "analytics/figures.hpp"
#include "analytics/knobs.hpp"
#include "analytics/summary.hpp"
#include "analytics/trend.hpp"
#include "fi/campaign_store.hpp"
#include "fi/grid.hpp"

namespace onebit::analytics {
namespace {

using fi::CampaignStore;
using stats::Outcome;

constexpr std::uint64_t kKey = 0xabcdef0123456789ULL;
constexpr std::size_t kExperiments = 60;
constexpr std::size_t kShardSize = 20;  // 3 shards

CampaignStore::CampaignMeta testMeta() {
  CampaignStore::CampaignMeta meta;
  meta.key = kKey;
  meta.workload = "crc32";
  meta.specLabel = "read/single";
  meta.seed = 0x5eedULL;
  meta.experiments = kExperiments;
  meta.candidates = 1234;
  return meta;
}

/// Shard `i` of the synthetic campaign: distinguishable outcome mix so
/// aggregation mistakes show up as wrong totals, not just wrong counts.
/// The store validates histTotal == count on load, so the histogram must
/// bucket every experiment (10 Benign, 7 Detected, 3 SDC per shard).
CampaignStore::ShardAggregate testShard(std::size_t i) {
  CampaignStore::ShardAggregate agg;
  for (std::size_t k = 0; k < kShardSize; ++k) {
    agg.counts.add(k % 2 == 0 ? Outcome::Benign
                              : (k % 3 == 0 ? Outcome::SDC
                                            : Outcome::Detected));
  }
  agg.hist[static_cast<std::size_t>(Outcome::Benign)][0] = 10;
  agg.hist[static_cast<std::size_t>(Outcome::Detected)][i + 1] = 7;
  agg.hist[static_cast<std::size_t>(Outcome::SDC)][2] = 3;
  return agg;
}

void writeShards(CampaignStore& store, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_TRUE(store.appendShard(testMeta(), i, i * kShardSize, kShardSize,
                                  testShard(i)));
  }
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class AnalyticsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // Parameterized test names contain '/'.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    path_ = ::testing::TempDir() + "analytics_" + name + ".jsonl";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(AnalyticsFixture, DatasetAggregatesACompleteCampaign) {
  {
    CampaignStore store(path_);
    store.load();
    writeShards(store, 3);
  }
  Dataset ds;
  ds.addStore(path_);
  ASSERT_EQ(ds.campaigns().size(), 1u);
  const CampaignTable& table = ds.campaigns().at(kKey);
  EXPECT_EQ(table.workload(), "crc32");
  EXPECT_EQ(table.specLabel(), "read/single");
  EXPECT_EQ(table.recordedExperiments(), kExperiments);
  EXPECT_EQ(table.expectedExperiments(), kExperiments);
  EXPECT_TRUE(table.complete());
  EXPECT_EQ(table.totals().total(), kExperiments);
  EXPECT_EQ(table.totals().count(Outcome::Benign), 30u);
  // Histograms merge across shards: one bucket per shard, value 7.
  const fi::ActivationHistogram hist = table.histogram();
  EXPECT_EQ(hist[static_cast<std::size_t>(Outcome::Detected)][1], 7u);
  EXPECT_EQ(hist[static_cast<std::size_t>(Outcome::Detected)][3], 7u);
}

TEST_F(AnalyticsFixture, PartialCampaignIsNeverReportedComplete) {
  {
    CampaignStore store(path_);
    store.load();
    writeShards(store, 2);  // 40 of 60 experiments
  }
  Dataset ds;
  ds.addStore(path_);
  const CampaignTable& table = ds.campaigns().at(kKey);
  EXPECT_EQ(table.recordedExperiments(), 40u);
  EXPECT_FALSE(table.complete());
  // ... and a campaign whose expected size is unknown must not be promoted
  // to complete just because recorded == 0 == expected.
  CampaignTable unknown;
  EXPECT_FALSE(unknown.complete());
  // The group rollup carries the same flag and marks the SDC% partial.
  const std::vector<GroupRow> rows = groupBy(ds, GroupAxes{});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_FALSE(rows[0].complete());
  const std::string text = renderTable(groupTable(rows), false);
  EXPECT_NE(text.find("(partial)"), std::string::npos);
}

TEST_F(AnalyticsFixture, ShardRangeThatWrapsIsIgnored) {
  // A record whose range ends at 2^64 wraps `first + count` to 0, which
  // passed a `first + count > experiments` check: with shards 0 and 1 the
  // forged one made the campaign look complete and its outcomes counted.
  {
    CampaignStore store(path_);
    store.load();
    writeShards(store, 2);
    ASSERT_TRUE(store.appendShard(testMeta(), 2,
                                  ~std::size_t{0} - (kShardSize - 1),
                                  kShardSize, testShard(2)));
  }
  {
    CampaignStore store(path_);
    const CampaignStore::LoadStats stats = store.load();
    EXPECT_EQ(stats.shardRecords, 2u);
    EXPECT_EQ(stats.malformed, 1u);
  }
  Dataset ds;
  ds.addStore(path_);
  const CampaignTable& table = ds.campaigns().at(kKey);
  EXPECT_EQ(table.recordedExperiments(), 2 * kShardSize);
  EXPECT_FALSE(table.complete());
  EXPECT_EQ(table.totals().total(), 2 * kShardSize);
  const auto check = CampaignStore::fsck(path_, /*repair=*/false);
  ASSERT_TRUE(check.has_value());
  EXPECT_EQ(check->integrityFailures, 1u);
  EXPECT_TRUE(check->corrupt());
}

TEST_F(AnalyticsFixture, ShardsOfDifferentSizesAreNeverCountedTwice) {
  // A resume under another shard size records its own ranges beside the
  // old ones: (0,16) and (16,16) from one run, (0,32) from the next. They
  // cover experiments 0..32 twice over; only a non-overlapping set counts.
  CampaignStore::CampaignMeta meta = testMeta();
  meta.experiments = 64;
  const auto shard = [](std::size_t count) {
    CampaignStore::ShardAggregate agg;
    for (std::size_t k = 0; k < count; ++k) agg.counts.add(Outcome::Benign);
    agg.hist[static_cast<std::size_t>(Outcome::Benign)][0] =
        static_cast<std::uint32_t>(count);
    return agg;
  };
  {
    CampaignStore store(path_);
    store.load();
    ASSERT_TRUE(store.appendShard(meta, 0, 0, 16, shard(16)));
    ASSERT_TRUE(store.appendShard(meta, 1, 16, 16, shard(16)));
    ASSERT_TRUE(store.appendShard(meta, 0, 0, 32, shard(32)));
  }
  {
    Dataset ds;
    ds.addStore(path_);
    const CampaignTable& table = ds.campaigns().at(kKey);
    EXPECT_EQ(table.recordedExperiments(), 32u);
    EXPECT_EQ(table.totals().total(), 32u);
    EXPECT_FALSE(table.complete());
    EXPECT_EQ(renderSummaryText(ds, 0).find("[complete]"), std::string::npos);
  }
  {
    CampaignStore store(path_);
    store.load();
    ASSERT_TRUE(store.appendShard(meta, 1, 32, 32, shard(32)));
  }
  Dataset ds;
  ds.addStore(path_);
  const CampaignTable& table = ds.campaigns().at(kKey);
  EXPECT_EQ(table.recordedExperiments(), 64u);
  EXPECT_TRUE(table.complete());
  EXPECT_EQ(table.totals().total(), 64u);
  std::size_t histTotal = 0;
  for (const auto& row : table.histogram()) {
    for (const std::uint64_t n : row) histTotal += n;
  }
  EXPECT_EQ(histTotal, 64u);
  EXPECT_NE(renderSummaryText(ds, 0).find("64/64"), std::string::npos);
}

TEST_F(AnalyticsFixture, TornTailAndGarbageDoNotChangeAggregates) {
  {
    CampaignStore store(path_);
    store.load();
    writeShards(store, 3);
  }
  Dataset clean;
  clean.addStore(path_);
  // Mid-file garbage is impossible to append here, but a torn tail — a
  // writer killed mid-record — is exactly what a live fleet store can show
  // a reader. Also a fully garbled line (unterminated, then terminated).
  {
    std::ofstream out(path_, std::ios::app);
    out << "{\"kind\":\"shard\",\"v\":1,\"key\":\"0x";  // torn, no newline
  }
  Dataset torn;
  torn.addStore(path_);
  ASSERT_EQ(torn.campaigns().size(), 1u);
  EXPECT_EQ(torn.campaigns().at(kKey).totals().raw(),
            clean.campaigns().at(kKey).totals().raw());
  EXPECT_EQ(torn.campaigns().at(kKey).recordedExperiments(), kExperiments);
}

TEST_F(AnalyticsFixture, LegacyOutcomeLinesCountAsUnknownInTheSummary) {
  {
    CampaignStore store(path_);
    store.load();
    writeShards(store, 3);
  }
  Dataset clean;
  clean.addStore(path_);
  {
    // An "outcome" record of the outcome cache older pruning builds kept.
    std::ofstream out(path_, std::ios::app);
    out << R"({"v":1,"kind":"outcome","key":"0x0000000000000001","boundary":64,"hash":"0x0000000000000002","outcome":0,"trap":0,"instructions":10})"
        << "\n";
  }
  Dataset legacy;
  legacy.addStore(path_);
  EXPECT_EQ(legacy.campaigns().at(kKey).totals().raw(),
            clean.campaigns().at(kKey).totals().raw());
  const util::Json summary = summaryJson(legacy, 0);
  const util::Json& source = summary.find("sources")->items().at(0);
  EXPECT_EQ(source.find("unknown")->asUint(), 1u);
  EXPECT_EQ(source.find("malformed")->asUint(), 0u);
  EXPECT_EQ(source.find("outcome_records"), nullptr);
  EXPECT_NE(renderSummaryText(legacy, 0).find("0 malformed, 1 unknown"),
            std::string::npos);
}

TEST_F(AnalyticsFixture, CompactedStoreAggregatesIdentically) {
  const std::string dup = path_ + ".dup";
  {
    CampaignStore store(path_);
    store.load();
    writeShards(store, 3);
  }
  // Cross-process writers bypass each other's in-memory dedup, so a shared
  // store accumulates duplicate records — modeled here by doubling the
  // file, the pattern compact() exists for.
  {
    std::ofstream out(dup, std::ios::trunc);
    out << readFile(path_) << readFile(path_);  // every record twice
  }
  Dataset original;
  original.addStore(path_);
  ASSERT_TRUE(CampaignStore::compact(dup).has_value());
  Dataset compacted;
  compacted.addStore(dup);
  EXPECT_EQ(compacted.campaigns().at(kKey).totals().raw(),
            original.campaigns().at(kKey).totals().raw());
  EXPECT_EQ(compacted.campaigns().at(kKey).recordedExperiments(),
            kExperiments);
  EXPECT_EQ(compacted.campaigns().at(kKey).histogram(),
            original.campaigns().at(kKey).histogram());
  std::remove(dup.c_str());
}

TEST_F(AnalyticsFixture, MultiStoreMergeIsIdempotentFirstWins) {
  const std::string full = path_ + ".full";
  {
    CampaignStore store(path_);
    store.load();
    writeShards(store, 2);  // partial snapshot
  }
  {
    CampaignStore store(full);
    store.load();
    writeShards(store, 3);  // complete snapshot of the same campaign
  }
  Dataset merged;
  merged.addStore(path_);
  merged.addStore(full);
  ASSERT_EQ(merged.campaigns().size(), 1u);
  const CampaignTable& table = merged.campaigns().at(kKey);
  // Overlapping shard ranges must merge by identity, not double-count.
  EXPECT_EQ(table.recordedExperiments(), kExperiments);
  EXPECT_TRUE(table.complete());
  EXPECT_EQ(table.totals().total(), kExperiments);
  EXPECT_EQ(merged.sources().size(), 2u);
  std::remove(full.c_str());
}

TEST_F(AnalyticsFixture, PollPicksUpRecordsALiveWriterAppends) {
  CampaignStore writer(path_);
  writer.load();
  writeShards(writer, 1);
  Dataset ds;
  ds.addStore(path_);
  EXPECT_EQ(ds.campaigns().at(kKey).recordedExperiments(), kShardSize);
  EXPECT_FALSE(ds.campaigns().at(kKey).complete());
  // The fleet keeps appending while the dashboard watches.
  writeShards(writer, 3);
  ds.poll();
  EXPECT_EQ(ds.campaigns().at(kKey).recordedExperiments(), kExperiments);
  EXPECT_TRUE(ds.campaigns().at(kKey).complete());
  // A reader must never create a writer-side lock file.
  EXPECT_NE(::access(path_.c_str(), F_OK), -1);
  EXPECT_EQ(::access((path_ + ".lock").c_str(), F_OK), -1);
}

// A worker's completion renewal carries deadline = now, below the deadline
// of the heartbeat before it. A Dataset that polled the shard while it ran
// must take the renewal as the store's keep rule does, or `report --watch`
// never sees the shard's cost.
TEST_F(AnalyticsFixture, PolledDatasetKeepsTheCompletionRenewal) {
  constexpr std::uint64_t kNowMs = 60'000;
  CampaignStore writer(path_);
  writer.load();
  CampaignStore::LeaseRecord claim;
  claim.first = 0;
  claim.count = kShardSize;
  claim.worker = "4242:9f";
  claim.epoch = 1;
  claim.deadlineMs = kNowMs + 30'000;
  ASSERT_TRUE(writer.appendLease(kKey, claim));
  Dataset polled;
  polled.addStore(path_);
  writeShards(writer, 1);
  CampaignStore::LeaseRecord done = claim;
  done.deadlineMs = kNowMs;
  done.costMs = 321;
  ASSERT_TRUE(writer.appendLease(kKey, done));
  polled.poll();

  Dataset fresh;
  fresh.addStore(path_);
  const std::vector<WorkerRow> rows = workerRollup(fresh, kNowMs);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].shards, 1u);
  EXPECT_EQ(rows[0].costMs, 321u);
  EXPECT_EQ(workerJson(workerRollup(polled, kNowMs), kNowMs).dump(),
            workerJson(rows, kNowMs).dump());
}

TEST_F(AnalyticsFixture, SnapshotMatchesVisitorWalk) {
  CampaignStore store(path_);
  store.load();
  writeShards(store, 3);
  CampaignStore::LeaseRecord lease;
  lease.first = 0;
  lease.count = kShardSize;
  lease.worker = "w1";
  lease.epoch = 1;
  lease.deadlineMs = 42;
  ASSERT_TRUE(store.appendLease(kKey, lease));
  const CampaignStore::Snapshot snap = store.snapshot();
  ASSERT_EQ(snap.campaigns.size(), 1u);
  const auto& campaign = snap.campaigns.at(kKey);
  EXPECT_EQ(campaign.meta.workload, "crc32");
  EXPECT_EQ(campaign.shards.size(), 3u);
  EXPECT_EQ(campaign.leases.size(), 1u);
  for (const auto& [range, agg] : campaign.shards) {
    const auto* direct = store.findShard(kKey, range.first, range.second);
    ASSERT_NE(direct, nullptr);
    EXPECT_EQ(agg.counts.raw(), direct->counts.raw());
  }
  // The snapshot is a copy: later appends must not mutate it.
  CampaignStore::LeaseRecord renewal = lease;
  renewal.deadlineMs = 99;
  ASSERT_TRUE(store.appendLease(kKey, renewal));
  EXPECT_EQ(snap.campaigns.at(kKey).leases.begin()->second.deadlineMs, 42u);
}

TEST_F(AnalyticsFixture, StoreTrendMarksPartialSnapshotsExplicitly) {
  const std::string later = path_ + ".later";
  {
    CampaignStore store(path_);
    store.load();
    writeShards(store, 1);
  }
  {
    CampaignStore store(later);
    store.load();
    writeShards(store, 3);
  }
  const std::string text =
      renderTable(storeTrendTable({path_, later}), false);
  EXPECT_NE(text.find("partial 20/60"), std::string::npos);
  const util::Json json = storeTrendJson({path_, later});
  const util::Json* cells = json.find("cells");
  ASSERT_NE(cells, nullptr);
  std::remove(later.c_str());
}

// ---------------------------------------------------------------------------
// Selection knobs and the figure render loop. These tests set ONEBIT_*
// variables in-process, so each restores them before the subprocess-based
// tests below inherit the environment.

/// Sets (or, for a null value, unsets) environment variables for one scope,
/// re-reading knobs() on entry and on exit.
class ScopedEnv {
 public:
  ScopedEnv(std::initializer_list<std::pair<const char*, const char*>> vars) {
    for (const auto& [name, value] : vars) {
      const char* old = std::getenv(name);
      saved_.emplace_back(name, std::nullopt);
      if (old != nullptr) saved_.back().second = old;
      set(name, value);
    }
    reload();
  }
  ~ScopedEnv() {
    for (auto it = saved_.rbegin(); it != saved_.rend(); ++it) {
      set(it->first.c_str(), it->second ? it->second->c_str() : nullptr);
    }
    reload();
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  static void set(const char* name, const char* value) {
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, 1);
    }
  }
  static void reload() {
    if (const std::optional<std::string> error = reloadKnobs()) {
      ADD_FAILURE() << *error;
    }
  }

  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

/// A batch runner that fabricates tallies instead of running workloads.
/// Cells `capped` selects come back Partial (one experiment recorded).
struct FakeRunner {
  std::function<bool(const CellKey&)> capped = [](const CellKey&) {
    return false;
  };
  std::vector<std::vector<CellKey>> batches;

  std::vector<CellResolution> operator()(const std::vector<CellKey>& cells) {
    batches.push_back(cells);
    std::vector<CellResolution> out;
    // A loop that never stops asking fails (runFigure throws on a short
    // answer) instead of hanging the suite.
    if (batches.size() > 4) return out;
    for (const CellKey& cell : cells) {
      CellResolution& r = out.emplace_back();
      r.expected = cell.experiments;
      r.recorded = capped(cell) ? 1 : cell.experiments;
      r.state = r.recorded == r.expected ? CellResolution::State::Complete
                                         : CellResolution::State::Partial;
      // Seed-dependent SDC share, so Fig. 4's argmax has a winner.
      const std::size_t sdc = cell.seed % (r.recorded + 1);
      for (std::size_t k = 0; k < r.recorded; ++k) {
        r.counts.add(k < sdc ? Outcome::SDC : Outcome::Detected);
      }
      r.hist[static_cast<std::size_t>(Outcome::Detected)][1 + cell.seed % 12] =
          static_cast<std::uint32_t>(r.recorded - sdc);
    }
    return out;
  }
};

using CellId = std::tuple<std::string, std::string, unsigned, std::uint64_t,
                          std::size_t>;

CellId idOf(const CellKey& cell) {
  return {cell.workload, cell.model.label(), cell.model.flipWidth, cell.seed,
          cell.experiments};
}

/// Two programs, four experiments per cell, no spec filter, text tables.
ScopedEnv smallFigureEnv() {
  return ScopedEnv({{"ONEBIT_PROGRAMS", "qsort,crc32"},
                    {"ONEBIT_EXPERIMENTS", "4"},
                    {"ONEBIT_SPECS", nullptr},
                    {"ONEBIT_SEED", nullptr},
                    {"ONEBIT_FLIP_WIDTH", nullptr},
                    {"ONEBIT_CSV", nullptr}});
}

TEST(FigureLoop, RunsEachCellOnceInOneBatchPerPhase) {
  const ScopedEnv env = smallFigureEnv();
  for (const char* id : {"fig1", "fig2", "fig3", "fig4"}) {
    SCOPED_TRACE(id);
    FakeRunner runner;
    const std::optional<FigureOutput> out =
        runFigure(id, std::ref(runner), false);
    ASSERT_TRUE(out.has_value());
    EXPECT_TRUE(out->complete());
    EXPECT_EQ(out->text.find("incomplete("), std::string::npos);
    const bool fig4 = std::string_view(id) == "fig4";
    ASSERT_EQ(runner.batches.size(), fig4 ? 2u : 1u);
    std::set<CellId> handed;
    std::size_t total = 0;
    for (const std::vector<CellKey>& batch : runner.batches) {
      for (const CellKey& cell : batch) handed.insert(idOf(cell));
      total += batch.size();
    }
    EXPECT_EQ(handed.size(), total) << "a cell was handed to the runner twice";
    EXPECT_EQ(out->cells, total);
  }
}

TEST(FigureLoop, Fig4ValidatesOnlyCompleteGrids) {
  const ScopedEnv env = smallFigureEnv();
  FakeRunner runner;
  // Leave one cell of the first grid partial: that grid (one program, one
  // technique) must not ask for its validation campaign.
  std::optional<CellId> partial;
  runner.capped = [&](const CellKey& cell) {
    if (!partial) partial = idOf(cell);
    return idOf(cell) == *partial;
  };
  const std::optional<FigureOutput> out =
      runFigure("fig4", std::ref(runner), false);
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(runner.batches.size(), 2u);
  const CellKey& first = runner.batches[0].front();
  // Grid cells have n experiments; validation campaigns have 3n.
  for (const CellKey& cell : runner.batches[0]) {
    EXPECT_EQ(cell.experiments, 4u) << cell.model.label();
  }
  // 2 programs × 2 techniques, less the incomplete grid.
  ASSERT_EQ(runner.batches[1].size(), 3u);
  for (const CellKey& cell : runner.batches[1]) {
    EXPECT_EQ(cell.experiments, 12u);
    EXPECT_FALSE(cell.workload == first.workload &&
                 cell.model.domain == first.model.domain)
        << "validation asked for a grid with an incomplete cell";
  }
  EXPECT_FALSE(out->complete());
  EXPECT_NE(out->text.find("incomplete(1/4)"), std::string::npos);
  EXPECT_NE(out->text.find("RQ2/RQ3: unavailable"), std::string::npos);
}

TEST(FigureLoop, CappedRunEndsWithIncompleteMarkers) {
  const ScopedEnv env = smallFigureEnv();
  for (const char* id : {"fig1", "fig2", "fig3", "fig4"}) {
    SCOPED_TRACE(id);
    FakeRunner runner;
    runner.capped = [](const CellKey&) { return true; };
    const std::optional<FigureOutput> out =
        runFigure(id, std::ref(runner), false);
    ASSERT_TRUE(out.has_value());
    // No grid completes, so fig4 asks for no validation either.
    EXPECT_EQ(runner.batches.size(), 1u);
    EXPECT_FALSE(out->complete());
    EXPECT_EQ(out->incompleteCells, out->cells);
    EXPECT_NE(out->text.find("incomplete("), std::string::npos);
    // No percentage sneaks into a program row.
    std::istringstream lines(out->text);
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("qsort", 0) != 0 && line.rfind("crc32", 0) != 0) continue;
      EXPECT_FALSE(std::regex_search(line, std::regex("[0-9]%"))) << line;
    }
  }
}

TEST(FigureLoop, UnknownFigureRunsNothing) {
  FakeRunner runner;
  EXPECT_FALSE(runFigure("fig9", std::ref(runner), false).has_value());
  EXPECT_TRUE(runner.batches.empty());
}

// ONEBIT_SPECS items match as models, with no fallback to comparing label
// strings, so every label a driver can put under the filter must parse back
// to its own model and select it. The figures' cells come from the render
// loop; the other drivers' models are their fixed lists.
TEST(Knobs, EveryDriverLabelSelectsItsOwnModel) {
  using fi::FaultDomain;
  using fi::FaultModel;
  using fi::WinSize;
  std::vector<FaultModel> models;
  {
    const ScopedEnv env = smallFigureEnv();
    for (const char* id : {"fig1", "fig2", "fig3", "fig4"}) {
      FakeRunner runner;
      ASSERT_TRUE(runFigure(id, std::ref(runner), false).has_value());
      for (const std::vector<CellKey>& batch : runner.batches) {
        for (const CellKey& cell : batch) models.push_back(cell.model);
      }
    }
  }
  for (const FaultModel& model : fi::memoryScenarioModels()) {
    models.push_back(model);
  }
  for (const FaultDomain d :
       {FaultDomain::RegisterRead, FaultDomain::RegisterWrite}) {
    models.push_back(FaultModel::singleBit(d));  // ablations, error space
    models.push_back(FaultModel::multiBitTemporal(d, 3, WinSize::fixed(1)));
  }
  // Table IV's two replayed pairs.
  models.push_back(FaultModel::multiBitTemporal(FaultDomain::RegisterRead, 2,
                                                WinSize::fixed(100)));
  std::set<std::string> labels;
  for (FaultModel model : models) {
    for (const unsigned width : {16u, 32u, 64u}) {
      model.flipWidth = width;
      const std::string label = model.label();
      const std::optional<FaultModel> parsed = FaultModel::parse(label);
      ASSERT_TRUE(parsed.has_value()) << label;
      EXPECT_TRUE(parsed->matches(model)) << label;
      labels.insert(label);
    }
  }
  EXPECT_GT(labels.size(), 40u);
  for (const std::string& label : labels) {
    const ScopedEnv env({{"ONEBIT_SPECS", label.c_str()}});
    for (FaultModel model : models) {
      if (model.label() != label) continue;
      EXPECT_TRUE(specSelected(model)) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Figure byte-identity, through the real binaries. The test locates its
// sibling executables next to its own binary and skips (never fails) when
// they are absent — e.g. under a partial build.

std::string buildDir() {
  std::array<char, 4096> buf{};
  const ssize_t n = ::readlink("/proc/self/exe", buf.data(), buf.size() - 1);
  if (n <= 0) return {};
  std::string path(buf.data(), static_cast<std::size_t>(n));
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

bool exists(const std::string& path) {
  return ::access(path.c_str(), X_OK) == 0;
}

int runShell(const std::string& command) {
  const int rc = std::system(command.c_str());
  return rc < 0 ? rc : WEXITSTATUS(rc);
}

class FigureIdentityFixture : public AnalyticsFixture {
 protected:
  void SetUp() override {
    AnalyticsFixture::SetUp();
    dir_ = buildDir();
    if (dir_.empty() || !exists(dir_ + "/" + driver()) ||
        !exists(dir_ + "/report")) {
      GTEST_SKIP() << "driver/report binaries not built next to the test";
    }
    out_ = path_ + ".out";
    // A tiny but real slice of a figure: one program, few experiments/cell.
    env_ = "ONEBIT_EXPERIMENTS=" + std::to_string(experiments()) +
           " ONEBIT_PROGRAMS=crc32 ";
  }
  virtual std::string driver() const { return "bench_fig1_single_bit"; }
  virtual std::size_t experiments() const { return 20; }
  void TearDown() override {
    std::remove(out_.c_str());
    std::remove((out_ + ".2").c_str());
    AnalyticsFixture::TearDown();
  }

  std::string dir_;
  std::string out_;
  std::string env_;
};

struct FigureCase {
  const char* id;
  const char* driver;
  std::size_t experiments;
};

void PrintTo(const FigureCase& c, std::ostream* os) { *os << c.id; }

class FigureIdentityTest : public FigureIdentityFixture,
                           public ::testing::WithParamInterface<FigureCase> {
 protected:
  std::string driver() const override { return GetParam().driver; }
  std::size_t experiments() const override { return GetParam().experiments; }
};

TEST_P(FigureIdentityTest, ReportRegeneratesFigureByteIdentically) {
  const std::string id = GetParam().id;
  for (const char* csv : {"", "ONEBIT_CSV=1 "}) {
    SCOPED_TRACE(csv);
    std::remove(path_.c_str());
    ASSERT_EQ(runShell("env " + env_ + csv + "ONEBIT_STORE=" + path_ + " " +
                       dir_ + "/" + driver() + " > " + out_ + " 2>/dev/null"),
              0);
    ASSERT_EQ(runShell("env " + env_ + csv + dir_ + "/report --figure " + id +
                       " " + path_ + " > " + out_ + ".2 2>/dev/null"),
              0);
    const std::string driverText = readFile(out_);
    EXPECT_NE(driverText.find("Paper check"), std::string::npos);
    EXPECT_EQ(driverText, readFile(out_ + ".2"));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Figures, FigureIdentityTest,
    ::testing::Values(FigureCase{"fig1", "bench_fig1_single_bit", 20},
                      FigureCase{"fig2", "bench_fig2_same_register", 8},
                      FigureCase{"fig3", "bench_fig3_activated_errors", 8},
                      FigureCase{"fig4", "bench_fig4_fig5_table3", 4}),
    [](const ::testing::TestParamInfo<FigureCase>& info) {
      return std::string(info.param.id);
    });

TEST_F(FigureIdentityFixture, IncompleteStoreExitsThreeWithMarkers) {
  // Cap the driver at one shard per cell: the store ends up partial, the
  // way a live or interrupted campaign would. The capped driver still
  // exits 0 and prints the same marked-up figure report renders.
  ASSERT_EQ(runShell("env " + env_ +
                     "ONEBIT_SHARD_SIZE=8 ONEBIT_MAX_SHARDS=1 ONEBIT_STORE=" +
                     path_ + " " + dir_ + "/bench_fig1_single_bit > " + out_ +
                     ".2 2>/dev/null"),
            0);
  EXPECT_EQ(runShell("env " + env_ + dir_ + "/report --figure fig1 " +
                     path_ + " > " + out_ + " 2>/dev/null"),
            3);
  const std::string text = readFile(out_);
  EXPECT_NE(text.find("incomplete("), std::string::npos);
  // No unmarked percentage sneaks into the partial table rows.
  EXPECT_EQ(text.find("20.0%"), std::string::npos);
  EXPECT_EQ(readFile(out_ + ".2"), text);
}

TEST_F(FigureIdentityFixture, MissingCampaignRendersMissingMarker) {
  // Empty store: every cell is absent.
  { std::ofstream out(path_, std::ios::trunc); }
  EXPECT_EQ(runShell("env " + env_ + dir_ + "/report --figure fig1 " +
                     path_ + " > " + out_ + " 2>/dev/null"),
            3);
  EXPECT_NE(readFile(out_).find("missing"), std::string::npos);
}

// A bad knob ends the driver with status 2 before any work: one stderr line
// naming the knob, nothing on stdout, no store written.
TEST_F(FigureIdentityFixture, BadKnobExitsTwoBeforeAnyWork) {
  const std::pair<const char*, const char*> cases[] = {
      {"ONEBIT_EXPERIMENTS=5x", "ONEBIT_EXPERIMENTS"},
      {"ONEBIT_EXPERIMENTS=-3", "ONEBIT_EXPERIMENTS"},
      {"ONEBIT_PROGRAMS=qsrot", "ONEBIT_PROGRAMS"},
      {"ONEBIT_SNAPSHOT_INTERVAL=abc", "ONEBIT_SNAPSHOT_INTERVAL"},
      {"ONEBIT_RESUME=yes", "ONEBIT_RESUME"},
      {"ONEBIT_FLIP_WIDTH=65", "ONEBIT_FLIP_WIDTH"},
      {"ONEBIT_SEED=-1", "ONEBIT_SEED"},
      {"ONEBIT_EXPERIMENT=5", "ONEBIT_EXPERIMENT"},
      {"ONEBIT_SNAPSHOT_BUDGET=0", "ONEBIT_SNAPSHOT_BUDGET"},
      {"ONEBIT_T4_MBF_READ=2", "ONEBIT_T4_MBF_READ"},
  };
  const std::string err = out_ + ".2";
  for (const auto& [setting, knob] : cases) {
    SCOPED_TRACE(setting);
    std::remove(path_.c_str());
    EXPECT_EQ(runShell("env " + env_ + setting + " ONEBIT_STORE=" + path_ +
                       " " + dir_ + "/" + driver() + " > " + out_ + " 2> " +
                       err),
              2);
    EXPECT_EQ(readFile(out_), "");
    const std::string text = readFile(err);
    EXPECT_NE(text.find(knob), std::string::npos) << text;
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1) << text;
    EXPECT_EQ(::access(path_.c_str(), F_OK), -1) << "a store was written";
  }
}

}  // namespace
}  // namespace onebit::analytics
