// Checkpoint/resume tests for CampaignStore + CampaignEngine: round-trip
// through the JSONL store, torn-last-line tolerance, campaign-key mismatch
// isolation, and the headline guarantee — a campaign interrupted after k
// shards and resumed from its store is bit-identical to an uninterrupted
// run, across thread counts (the ISSUE 2 acceptance criterion).
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fi/campaign.hpp"
#include "fi/campaign_store.hpp"
#include "fi/shard_line.hpp"
#include "lang/compile.hpp"

namespace onebit::fi {
namespace {

const char* const kGuineaPig = R"MC(
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

void writeFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

std::string readFile(const std::string& path) {
  std::string bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

constexpr std::size_t kExperiments = 240;
constexpr std::size_t kShardSize = 24;  // 10 shards

class CampaignStoreFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    workload_ = std::make_unique<Workload>(lang::compileMiniC(kGuineaPig));
    path_ = ::testing::TempDir() + "campaign_store_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".jsonl";
    std::remove(path_.c_str());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  static CampaignConfig baseConfig() {
    CampaignConfig config;
    config.model = FaultModel::multiBitTemporal(FaultDomain::RegisterWrite, 3, WinSize::fixed(2));
    config.experiments = kExperiments;
    config.seed = 0xd5e7e2414157ULL;
    config.shardSize = kShardSize;
    return config;
  }

  CampaignResult uninterrupted(std::size_t threads = 1) const {
    CampaignConfig config = baseConfig();
    config.threads = threads;
    return CampaignEngine(config).run(*workload_);
  }

  std::unique_ptr<Workload> workload_;
  std::string path_;
};

TEST_F(CampaignStoreFixture, RecordedShardsRoundTripThroughDisk) {
  {
    CampaignStore store(path_);
    CampaignConfig config = baseConfig();
    CampaignEngine engine(config);
    engine.recordTo(store, "guinea-pig");
    engine.run(*workload_);
  }
  CampaignStore reopened(path_);
  const CampaignStore::LoadStats stats = reopened.load();
  EXPECT_EQ(stats.shardRecords, kExperiments / kShardSize);
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(stats.duplicates, 0u);

  // Resuming from the reopened store must execute nothing and reproduce the
  // full result from records alone.
  CampaignEngine resumed(baseConfig());
  resumed.resumeFrom(reopened);
  const CampaignResult r = resumed.run(*workload_);
  const CampaignResult ref = uninterrupted();
  EXPECT_EQ(r.resumedExperiments, kExperiments);
  EXPECT_EQ(r.completedExperiments, kExperiments);
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(r.counts, ref.counts);
  EXPECT_EQ(r.activationHist, ref.activationHist);
}

TEST_F(CampaignStoreFixture, ResumeEqualsUninterruptedAcrossThreads) {
  // The acceptance criterion: interrupt after k shards, resume, compare —
  // for interrupted/resumed thread counts in {1, 8}.
  const CampaignResult ref = uninterrupted();
  for (const std::size_t interruptThreads : {1u, 8u}) {
    for (const std::size_t resumeThreads : {1u, 8u}) {
      const std::string path =
          path_ + "." + std::to_string(interruptThreads) + "-" +
          std::to_string(resumeThreads);
      std::remove(path.c_str());
      {
        CampaignStore store(path);
        CampaignConfig capped = baseConfig();
        capped.threads = interruptThreads;
        capped.maxShards = 4;  // "killed" after 4 of 10 shards
        CampaignEngine engine(capped);
        engine.recordTo(store);
        const CampaignResult partial = engine.run(*workload_);
        EXPECT_FALSE(partial.complete());
        EXPECT_EQ(partial.completedExperiments, 4 * kShardSize);
      }
      CampaignStore store(path);
      store.load();
      CampaignConfig config = baseConfig();
      config.threads = resumeThreads;
      CampaignEngine engine(config);
      engine.resumeFrom(store).recordTo(store);
      const CampaignResult resumed = engine.run(*workload_);
      std::remove(path.c_str());

      EXPECT_TRUE(resumed.complete());
      EXPECT_EQ(resumed.resumedExperiments, 4 * kShardSize);
      EXPECT_EQ(resumed.counts, ref.counts)
          << "interruptThreads=" << interruptThreads
          << " resumeThreads=" << resumeThreads;
      EXPECT_EQ(resumed.activationHist, ref.activationHist)
          << "interruptThreads=" << interruptThreads
          << " resumeThreads=" << resumeThreads;
    }
  }
}

TEST_F(CampaignStoreFixture, RepeatedCappedRunsDrainTheCampaign) {
  // Checkpoint in 4-shard slices until done, like a preemptible batch job.
  CampaignStore store(path_);
  store.load();
  CampaignResult last;
  for (int round = 0; round < 3; ++round) {
    CampaignConfig config = baseConfig();
    config.maxShards = 4;
    CampaignEngine engine(config);
    engine.resumeFrom(store).recordTo(store);
    last = engine.run(*workload_);
  }
  EXPECT_TRUE(last.complete());  // 4 + 4 + 2 shards
  const CampaignResult ref = uninterrupted();
  EXPECT_EQ(last.counts, ref.counts);
  EXPECT_EQ(last.activationHist, ref.activationHist);
}

TEST_F(CampaignStoreFixture, TruncatedLastLineIsToleratedOnResume) {
  {
    CampaignStore store(path_);
    CampaignConfig capped = baseConfig();
    capped.maxShards = 4;
    CampaignEngine engine(capped);
    engine.recordTo(store);
    engine.run(*workload_);
  }
  {
    // Kill-mid-write: append half a record with no trailing newline.
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"v\":1,\"kind\":\"shard\",\"key\":\"0x00", f);
    std::fclose(f);
  }
  CampaignStore store(path_);
  const CampaignStore::LoadStats stats = store.load();
  EXPECT_EQ(stats.shardRecords, 4u);
  EXPECT_EQ(stats.malformed, 1u);

  CampaignEngine engine(baseConfig());
  engine.resumeFrom(store);
  const CampaignResult resumed = engine.run(*workload_);
  const CampaignResult ref = uninterrupted();
  EXPECT_EQ(resumed.resumedExperiments, 4 * kShardSize);
  EXPECT_EQ(resumed.counts, ref.counts);
  EXPECT_EQ(resumed.activationHist, ref.activationHist);
}

TEST_F(CampaignStoreFixture, IntegrityFailingRecordsAreRejected) {
  {
    // A parseable record whose outcome counts do not tally its experiment
    // count must be dropped at load, not merged.
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "{\"v\":1,\"kind\":\"shard\",\"key\":\"0x0000000000000001\","
        "\"spec\":\"x\",\"seed\":1,\"experiments\":100,\"shard\":0,"
        "\"first\":0,\"count\":10,\"outcomes\":[1,1,1,1,1],\"hist\":"
        "[[0,0,5]]}\n",
        f);
    std::fclose(f);
  }
  CampaignStore store(path_);
  const CampaignStore::LoadStats stats = store.load();
  EXPECT_EQ(stats.shardRecords, 0u);
  EXPECT_EQ(stats.malformed, 1u);
  EXPECT_EQ(store.findShard(1, 0, 10), nullptr);
}

TEST_F(CampaignStoreFixture, CampaignKeyMismatchResumesNothing) {
  {
    CampaignStore store(path_);
    CampaignEngine engine(baseConfig());
    engine.recordTo(store);
    engine.run(*workload_);  // full campaign recorded under seed A
  }
  CampaignStore store(path_);
  EXPECT_EQ(store.load().shardRecords, kExperiments / kShardSize);

  // Same geometry, different seed: the campaign key differs, so nothing is
  // resumable and the fresh campaign computes its own (different-seed)
  // result from scratch.
  CampaignConfig other = baseConfig();
  other.seed ^= 1;
  CampaignEngine engine(other);
  engine.resumeFrom(store);
  const CampaignResult r = engine.run(*workload_);
  EXPECT_EQ(r.resumedExperiments, 0u);
  EXPECT_TRUE(r.complete());
  const CampaignResult ref = CampaignEngine(other).run(*workload_);
  EXPECT_EQ(r.counts, ref.counts);

  // Changing the fault spec (flip width) must also change the key.
  CampaignConfig narrower = baseConfig();
  narrower.model.flipWidth = 32;
  CampaignEngine narrowEngine(narrower);
  narrowEngine.resumeFrom(store);
  EXPECT_EQ(narrowEngine.run(*workload_).resumedExperiments, 0u);
}

TEST_F(CampaignStoreFixture, DifferentShardGeometryIsIgnoredSafely) {
  {
    CampaignStore store(path_);
    CampaignEngine engine(baseConfig());  // shardSize 24
    engine.recordTo(store);
    engine.run(*workload_);
  }
  CampaignStore store(path_);
  store.load();
  CampaignConfig other = baseConfig();
  other.shardSize = 60;  // ranges never line up with the recorded ones
  CampaignEngine engine(other);
  engine.resumeFrom(store);
  const CampaignResult r = engine.run(*workload_);
  EXPECT_EQ(r.resumedExperiments, 0u);  // no partial/overlapping reuse
  const CampaignResult ref = uninterrupted();
  EXPECT_EQ(r.counts, ref.counts);
  EXPECT_EQ(r.activationHist, ref.activationHist);
}

TEST_F(CampaignStoreFixture, ProgressReportsResumedShardsFirst) {
  {
    CampaignStore store(path_);
    CampaignConfig capped = baseConfig();
    capped.maxShards = 4;
    CampaignEngine engine(capped);
    engine.recordTo(store);
    engine.run(*workload_);
  }
  CampaignStore store(path_);
  store.load();
  CampaignEngine engine(baseConfig());
  engine.resumeFrom(store);
  std::size_t resumedSeen = 0;
  std::size_t executedSeen = 0;
  bool executedBeforeResumed = false;
  engine.onShardDone([&](const ShardProgress& p) {
    if (p.resumed) {
      ++resumedSeen;
      if (executedSeen != 0) executedBeforeResumed = true;
    } else {
      ++executedSeen;
    }
    EXPECT_EQ(p.shardCount, kExperiments / kShardSize);
  });
  engine.run(*workload_);
  EXPECT_EQ(resumedSeen, 4u);
  EXPECT_EQ(executedSeen, kExperiments / kShardSize - 4);
  EXPECT_FALSE(executedBeforeResumed);
}

TEST_F(CampaignStoreFixture, SameInstanceReRecordSkipsKnownShards) {
  CampaignStore store(path_);
  CampaignConfig capped = baseConfig();
  capped.maxShards = 2;
  CampaignEngine(capped).recordTo(store).run(*workload_);
  // Re-running without resume re-executes the shards, but the store knows
  // them already and must not append duplicate lines.
  CampaignEngine(capped).recordTo(store).run(*workload_);

  CampaignStore reopened(path_);
  const CampaignStore::LoadStats stats = reopened.load();
  EXPECT_EQ(stats.shardRecords, 2u);
  EXPECT_EQ(stats.duplicates, 0u);
}

TEST_F(CampaignStoreFixture, DuplicateRecordsOnDiskAreCountedAndFirstWins) {
  {
    // Two writers that never saw each other's index (separate processes in
    // real life): the file ends up with duplicate shard lines.
    CampaignConfig capped = baseConfig();
    capped.maxShards = 2;
    CampaignStore first(path_);
    CampaignEngine(capped).recordTo(first).run(*workload_);
    CampaignStore second(path_);  // not load()ed — blind to first's records
    CampaignEngine(capped).recordTo(second).run(*workload_);
  }
  CampaignStore store(path_);
  const CampaignStore::LoadStats stats = store.load();
  EXPECT_EQ(stats.shardRecords, 2u);
  EXPECT_EQ(stats.duplicates, 2u);

  CampaignEngine engine(baseConfig());
  engine.resumeFrom(store);
  const CampaignResult r = engine.run(*workload_);
  const CampaignResult ref = uninterrupted();
  EXPECT_EQ(r.resumedExperiments, 2 * kShardSize);
  EXPECT_EQ(r.counts, ref.counts);
}

TEST_F(CampaignStoreFixture, WorkloadRecordsRoundTrip) {
  {
    CampaignStore store(path_);
    CampaignStore::WorkloadRecord rec;
    rec.name = "qsort";
    rec.suite = "MiBench";
    rec.package = "automotive";
    rec.sourceHash = 0xabcdef0123456789ULL;
    rec.minicLoc = 61;
    rec.irInstrs = 158;
    rec.dynInstrs = 43370;
    rec.candRead = 37017;
    rec.candWrite = 30369;
    ASSERT_TRUE(store.appendWorkload(rec));
  }
  CampaignStore store(path_);
  const CampaignStore::LoadStats stats = store.load();
  EXPECT_EQ(stats.workloadRecords, 1u);
  const CampaignStore::WorkloadRecord* rec = store.findWorkload("qsort");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->suite, "MiBench");
  EXPECT_EQ(rec->candRead, 37017u);
  // The staleness binding survives the round trip with full 64-bit
  // precision (consumers compare it against the current source hash).
  EXPECT_EQ(rec->sourceHash, 0xabcdef0123456789ULL);
  EXPECT_EQ(store.findWorkload("missing"), nullptr);
}

TEST_F(CampaignStoreFixture, DifferentWorkloadNeverResumesForeignShards) {
  // Same spec/seed/experiments, different program: the workload fingerprint
  // differs, so the second workload must not inherit the first's records.
  {
    CampaignStore store(path_);
    CampaignEngine(baseConfig()).recordTo(store).run(*workload_);
  }
  const Workload other(lang::compileMiniC(R"MC(
int main() { print_s("other\n"); return 0; }
)MC"));
  ASSERT_NE(other.fingerprint(), workload_->fingerprint());
  CampaignStore store(path_);
  store.load();
  CampaignEngine engine(baseConfig());
  engine.resumeFrom(store);
  EXPECT_EQ(engine.run(other).resumedExperiments, 0u);

  // A different hang budget changes outcome classification, so it must
  // also change the fingerprint (and therefore the campaign key).
  const Workload tightBudget(lang::compileMiniC(kGuineaPig),
                             /*hangFactor=*/2);
  ASSERT_NE(tightBudget.fingerprint(), workload_->fingerprint());
  CampaignEngine budgetEngine(baseConfig());
  budgetEngine.resumeFrom(store);
  EXPECT_EQ(budgetEngine.run(tightBudget).resumedExperiments, 0u);
}

TEST_F(CampaignStoreFixture, CompactDropsDuplicatesAndTornLines) {
  {
    // Two blind writers produce duplicate shard lines (as in the duplicate
    // test above), then the second writer dies mid-record.
    CampaignConfig capped = baseConfig();
    capped.maxShards = 3;
    CampaignStore first(path_);
    CampaignEngine(capped).recordTo(first).run(*workload_);
    CampaignStore second(path_);
    CampaignEngine(capped).recordTo(second).run(*workload_);
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"v\":1,\"kind\":\"shard\",\"key\":\"0x12", f);
    std::fclose(f);
  }
  const auto stats = CampaignStore::compact(path_);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->shardRecords, 3u);
  EXPECT_EQ(stats->droppedDuplicates, 3u);
  EXPECT_EQ(stats->droppedMalformed, 1u);
  EXPECT_TRUE(stats->rewritten);

  // The compacted store loads clean and resumes exactly like the original.
  CampaignStore store(path_);
  const CampaignStore::LoadStats loaded = store.load();
  EXPECT_EQ(loaded.shardRecords, 3u);
  EXPECT_EQ(loaded.duplicates, 0u);
  EXPECT_EQ(loaded.malformed, 0u);
  const CampaignResult r =
      CampaignEngine(baseConfig()).resumeFrom(store).run(*workload_);
  const CampaignResult ref = uninterrupted();
  EXPECT_EQ(r.resumedExperiments, 3 * kShardSize);
  EXPECT_EQ(r.counts, ref.counts);
  EXPECT_EQ(r.activationHist, ref.activationHist);
}

TEST_F(CampaignStoreFixture, CompactLeavesCanonicalFilesUntouched) {
  {
    CampaignStore store(path_);
    CampaignEngine(baseConfig()).recordTo(store, "guinea-pig").run(*workload_);
  }
  std::string before;
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) before.append(buf, n);
    std::fclose(f);
  }
  const auto stats = CampaignStore::compact(path_);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->shardRecords, kExperiments / kShardSize);
  EXPECT_EQ(stats->droppedDuplicates, 0u);
  EXPECT_EQ(stats->droppedMalformed, 0u);
  EXPECT_FALSE(stats->rewritten);
  std::string after;
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) after.append(buf, n);
    std::fclose(f);
  }
  EXPECT_EQ(before, after);  // byte-identical: no gratuitous rewrite
}

TEST_F(CampaignStoreFixture, CompactKeepsTheFirstRecordPerShardAsLoadDoes) {
  // Two hand-written records for the SAME (key, shard range) with
  // different (both integrity-valid) aggregates: load() indexes the first,
  // so compaction must keep the first too, or compacting would change the
  // tally the store reports.
  const std::string first =
      "{\"v\":1,\"kind\":\"shard\",\"key\":\"0x00000000000000ab\","
      "\"spec\":\"read/single\",\"seed\":\"0x0000000000000001\","
      "\"experiments\":8,\"candidates\":10,\"shard\":0,\"first\":0,"
      "\"count\":4,\"outcomes\":[4,0,0,0,0],\"hist\":[[0,0,4]]}";
  const std::string second =
      "{\"v\":1,\"kind\":\"shard\",\"key\":\"0x00000000000000ab\","
      "\"spec\":\"read/single\",\"seed\":\"0x0000000000000001\","
      "\"experiments\":8,\"candidates\":10,\"shard\":0,\"first\":0,"
      "\"count\":4,\"outcomes\":[0,4,0,0,0],\"hist\":[[1,0,4]]}";
  writeFile(path_, first + "\n" + second + "\n");
  const auto expectBenign = [&](std::size_t duplicates) {
    CampaignStore store(path_);
    const CampaignStore::LoadStats loaded = store.load();
    EXPECT_EQ(loaded.shardRecords, 1u);
    EXPECT_EQ(loaded.duplicates, duplicates);
    const CampaignStore::ShardAggregate* agg = store.findShard(0xab, 0, 4);
    ASSERT_NE(agg, nullptr);
    EXPECT_EQ(agg->counts.count(stats::Outcome::Benign), 4u);
    EXPECT_EQ(agg->counts.count(stats::Outcome::Detected), 0u);
  };
  expectBenign(1);
  const auto stats = CampaignStore::compact(path_);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->shardRecords, 1u);
  EXPECT_EQ(stats->droppedDuplicates, 1u);
  EXPECT_TRUE(stats->rewritten);
  EXPECT_EQ(readFile(path_), first + "\n");
  expectBenign(0);
}

/// Every record a snapshot indexes, compared field by field.
void expectSameIndex(const CampaignStore::Snapshot& want,
                     const CampaignStore::Snapshot& got) {
  EXPECT_EQ(got.workloads, want.workloads);
  ASSERT_EQ(got.campaigns.size(), want.campaigns.size());
  for (const auto& [key, w] : want.campaigns) {
    ASSERT_EQ(got.campaigns.count(key), 1u) << key;
    const CampaignStore::Snapshot::Campaign& g = got.campaigns.at(key);
    EXPECT_EQ(g.meta.workload, w.meta.workload) << key;
    EXPECT_EQ(g.meta.specLabel, w.meta.specLabel) << key;
    EXPECT_EQ(g.meta.seed, w.meta.seed) << key;
    EXPECT_EQ(g.meta.experiments, w.meta.experiments) << key;
    EXPECT_EQ(g.meta.candidates, w.meta.candidates) << key;
    EXPECT_EQ(g.cell, w.cell) << key;
    EXPECT_EQ(g.leases, w.leases) << key;
    EXPECT_EQ(g.quarantines, w.quarantines) << key;
    ASSERT_EQ(g.shards.size(), w.shards.size()) << key;
    for (const auto& [range, agg] : w.shards) {
      ASSERT_EQ(g.shards.count(range), 1u) << key;
      EXPECT_EQ(g.shards.at(range).counts, agg.counts) << key;
      EXPECT_EQ(g.shards.at(range).hist, agg.hist) << key;
    }
  }
}

TEST_F(CampaignStoreFixture, CompactKeepsWhatLoadIndexesForEveryKind) {
  const auto shard = [](std::size_t first, const char* outcomes,
                        const char* hist) {
    return "{\"v\":1,\"kind\":\"shard\",\"key\":\"0x00000000000000a1\","
           "\"spec\":\"read/single\",\"seed\":\"0x0000000000000001\","
           "\"experiments\":16,\"candidates\":10,\"shard\":" +
           std::to_string(first / 4) + ",\"first\":" + std::to_string(first) +
           ",\"count\":4,\"outcomes\":[" + outcomes + "],\"hist\":[" + hist +
           "]}";
  };
  const auto lease = [](const char* key, std::size_t first,
                        const char* worker, int epoch, int deadline) {
    return std::string("{\"v\":1,\"kind\":\"lease\",\"key\":\"") + key +
           "\",\"first\":" + std::to_string(first) +
           ",\"count\":4,\"worker\":\"" + worker +
           "\",\"epoch\":" + std::to_string(epoch) +
           ",\"deadline\":" + std::to_string(deadline) + "}";
  };
  const auto cell = [](int shardSize) {
    return "{\"v\":1,\"kind\":\"cell\",\"key\":\"0x00000000000000a1\","
           "\"workload\":\"w\",\"spec\":\"read/single\",\"flip_width\":32,"
           "\"experiments\":16,\"seed\":\"0x0000000000000001\","
           "\"shard_size\":" +
           std::to_string(shardSize) + ",\"hang_factor\":50,\"dyn_instrs\":0}";
  };
  const auto workload = [](int dynInstrs) {
    return "{\"v\":1,\"kind\":\"workload\",\"name\":\"qsort\","
           "\"suite\":\"MiBench\",\"dyn_instrs\":" +
           std::to_string(dynInstrs) + "}";
  };
  const auto quarantine = [](std::size_t first, int crashes) {
    return "{\"v\":1,\"kind\":\"quarantine\",\"key\":\"0x00000000000000a1\","
           "\"first\":" +
           std::to_string(first) + ",\"count\":4,\"crashes\":" +
           std::to_string(crashes) + ",\"worker\":\"1:aa\",\"reason\":\"x\"}";
  };
  const char* const a1 = "0x00000000000000a1";
  const std::vector<std::string> lines = {
      cell(4),                                         // 0: re-submitted by 9
      workload(100),                                   // 1: re-recorded by 12
      shard(0, "4,0,0,0,0", "[0,0,4]"),                // 2: kept
      shard(0, "4,0,0,0,0", "[0,0,4]"),                // 3: byte-identical
      shard(4, "0,4,0,0,0", "[1,2,4]"),                // 4: kept, held
      lease(a1, 8, "2:bb", 2, 5000),                   // 5: kept, held
      lease(a1, 12, "1:aa", 1, 1000),                  // 6: renewed by 8
      lease(a1, 8, "1:aa", 1, 9000),                   // 7: lower epoch
      lease(a1, 12, "1:aa", 1, 6000),                  // 8: kept
      cell(8),                                         // 9: kept
      shard(4, "0,0,0,0,4", "[4,2,4]"),                // 10: conflicts with 4
      lease(a1, 0, "1:aa", 1, 9999),                   // 11: shard 2 is done
      workload(200),                                   // 12: kept
      lease("0x00000000000000a2", 0, "3:cc", 1, 1500),  // 13: expired
      quarantine(12, 2),                               // 14: escalated by 15
      quarantine(12, 3),                               // 15: kept
      quarantine(4, 2),                                // 16: shard 4 is done
      "{\"v\":1,\"kind\":\"outcome\",\"key\":\"0x0000000000000001\"}",
      "{\"v\":2,\"kind\":\"shard\",\"key\":\"0x00000000000000a1\"}",
  };
  std::string bytes;
  for (const std::string& line : lines) bytes += line + "\n";
  bytes += "{\"v\":1,\"kind\":\"lease\",\"key\":\"0x00";  // torn tail
  writeFile(path_, bytes);

  CampaignStore original(path_);
  original.load();
  CampaignStore::Snapshot want = original.snapshot();
  ASSERT_EQ(want.campaigns.at(0xa1).shards.at({4, 4}).counts.count(
                stats::Outcome::Detected),
            4u);  // the held record of the conflicting pair
  const auto stats = CampaignStore::compact(path_, /*nowMs=*/2000);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->shardRecords, 2u);
  EXPECT_EQ(stats->workloadRecords, 1u);
  EXPECT_EQ(stats->cellRecords, 1u);
  EXPECT_EQ(stats->leaseRecords, 2u);
  EXPECT_EQ(stats->quarantineRecords, 1u);
  EXPECT_EQ(stats->droppedDuplicates, 4u);   // lines 0, 1, 3, 10
  EXPECT_EQ(stats->droppedLeases, 4u);       // lines 6, 7, 11, 13
  EXPECT_EQ(stats->droppedQuarantines, 2u);  // lines 14, 16
  EXPECT_EQ(stats->droppedMalformed, 3u);    // outcome, v2, torn tail
  EXPECT_TRUE(stats->rewritten);
  // Survivors verbatim, each at its identity's first-seen position.
  std::string survivors;
  for (const std::size_t i : {9, 12, 2, 4, 5, 8, 15}) {
    survivors += lines[i] + "\n";
  }
  EXPECT_EQ(readFile(path_), survivors);

  // load() indexes the same record for every kept identity; only the
  // superseded and expired scheduling records are gone.
  CampaignStore compacted(path_);
  const CampaignStore::LoadStats loaded = compacted.load();
  EXPECT_EQ(loaded.malformed, 0u);
  EXPECT_EQ(loaded.duplicates, 0u);
  want.campaigns.at(0xa1).leases.erase({0, 4});
  want.campaigns.at(0xa1).quarantines.erase({4, 4});
  want.campaigns.erase(0xa2);
  expectSameIndex(want, compacted.snapshot());

  const auto again = CampaignStore::compact(path_, /*nowMs=*/2000);
  ASSERT_TRUE(again.has_value());
  EXPECT_FALSE(again->rewritten);  // compaction is idempotent
  const auto fsck = CampaignStore::fsck(path_, /*repair=*/false);
  ASSERT_TRUE(fsck.has_value());
  EXPECT_TRUE(fsck->clean());
}

TEST_F(CampaignStoreFixture, CompactIgnoresAStaleTempFromAKilledRun) {
  {
    // Duplicates (so compact() actually rewrites) plus a stale temp file
    // left by a compaction killed before its rename: the stale lines must
    // NOT leak into the rewritten store (JsonlWriter appends).
    CampaignConfig capped = baseConfig();
    capped.maxShards = 2;
    CampaignStore first(path_);
    CampaignEngine(capped).recordTo(first).run(*workload_);
    CampaignStore second(path_);
    CampaignEngine(capped).recordTo(second).run(*workload_);
    std::FILE* f = std::fopen((path_ + ".compact.tmp").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"v\":1,\"kind\":\"workload\",\"name\":\"stale-ghost\"}\n", f);
    std::fclose(f);
  }
  const auto stats = CampaignStore::compact(path_);
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->rewritten);
  CampaignStore store(path_);
  const CampaignStore::LoadStats loaded = store.load();
  EXPECT_EQ(loaded.shardRecords, 2u);
  EXPECT_EQ(loaded.workloadRecords, 0u);  // the ghost record must be gone
  EXPECT_EQ(store.findWorkload("stale-ghost"), nullptr);
  std::remove((path_ + ".compact.tmp").c_str());
}

TEST_F(CampaignStoreFixture, CellAndLeaseRecordsRoundTripThroughDisk) {
  CampaignStore::CellRecord cell;
  cell.key = 0xfeed;
  cell.workload = "qsort";
  cell.spec = "read/single";
  cell.flipWidth = 32;
  cell.experiments = 400;
  cell.seed = 0xabc;
  cell.shardSize = 16;
  cell.hangFactor = 50;
  cell.dynInstrs = 51234;
  {
    CampaignStore store(path_);
    ASSERT_TRUE(store.appendCell(cell));
    // Identical resubmission: succeeds but writes nothing (the load stats
    // below prove only one line exists).
    ASSERT_TRUE(store.appendCell(cell));
    ASSERT_TRUE(store.appendLease(0xfeed, {96, 32, "1234:3f2a", 1, 777}));
    // Heartbeat renewal: same epoch, pushed-out deadline — always recorded.
    ASSERT_TRUE(store.appendLease(0xfeed, {96, 32, "1234:3f2a", 1, 999}));
    ASSERT_TRUE(store.appendLease(0xfeed, {0, 32, "77:aa", 2, 500}));
    // Invalid leases are refused outright, never written.
    EXPECT_FALSE(store.appendLease(0xfeed, {0, 0, "77:aa", 1, 500}));
    EXPECT_FALSE(store.appendLease(0xfeed, {0, 32, "77:aa", 0, 500}));
  }
  CampaignStore store(path_);
  const CampaignStore::LoadStats stats = store.load();
  EXPECT_EQ(stats.cellRecords, 1u);
  EXPECT_EQ(stats.leaseRecords, 3u);
  EXPECT_EQ(stats.malformed, 0u);
  const CampaignStore::CellRecord* found = store.findCell(0xfeed);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, cell);  // every field survives the round trip
  EXPECT_EQ(store.findCell(0xdead), nullptr);
  ASSERT_EQ(store.cells().size(), 1u);
  const auto renewed = store.latestLease(0xfeed, 96, 32);
  ASSERT_TRUE(renewed.has_value());
  EXPECT_EQ(renewed->epoch, 1u);
  EXPECT_EQ(renewed->deadlineMs, 999u);  // the later renewal is the live one
  EXPECT_EQ(renewed->worker, "1234:3f2a");
  const auto other = store.latestLease(0xfeed, 0, 32);
  ASSERT_TRUE(other.has_value());
  EXPECT_EQ(other->epoch, 2u);
  EXPECT_FALSE(store.latestLease(0xfeed, 5, 32).has_value());
  std::size_t visited = 0;
  store.forEachLease(0xfeed,
                     [&](const CampaignStore::LeaseRecord&) { ++visited; });
  EXPECT_EQ(visited, 2u);  // one live lease per leased range
}

TEST_F(CampaignStoreFixture, StaleEpochOrderedLateNeverWinsTheLease) {
  {
    CampaignStore store(path_);
    ASSERT_TRUE(store.appendLease(0xfeed, {0, 8, "2:bb", 2, 5000}));
  }
  {
    // A resurrected worker's epoch-1 renewal lands AFTER the epoch-2
    // re-lease in the file; the index must keep epoch 2.
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "{\"v\":1,\"kind\":\"lease\",\"key\":\"0x000000000000feed\","
        "\"first\":0,\"count\":8,\"worker\":\"1:aa\",\"epoch\":1,"
        "\"deadline\":9000}\n",
        f);
    std::fclose(f);
  }
  CampaignStore store(path_);
  store.load();
  const auto lease = store.latestLease(0xfeed, 0, 8);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->epoch, 2u);
  EXPECT_EQ(lease->worker, "2:bb");
}

TEST_F(CampaignStoreFixture, RefreshIndexesOnlyNewRecordsAndLeavesTheTail) {
  CampaignStore reader(path_);
  reader.load();
  {
    // A foreign writer process (modeled by a second instance) appends.
    CampaignStore writer(path_);
    writer.load();
    ASSERT_TRUE(writer.appendLease(0xab, {0, 4, "1:aa", 1, 1000}));
  }
  const CampaignStore::LoadStats first = reader.refresh();
  EXPECT_EQ(first.leaseRecords, 1u);
  EXPECT_TRUE(reader.latestLease(0xab, 0, 4).has_value());
  // Nothing new: the incremental read indexes nothing (and re-counts
  // nothing — the offset moved past the already-seen records).
  const CampaignStore::LoadStats second = reader.refresh();
  EXPECT_EQ(second.leaseRecords, 0u);
  EXPECT_EQ(second.malformed, 0u);

  // A record mid-append (no newline yet) must be left for the NEXT refresh,
  // not counted malformed and lost.
  const char* const line =
      "{\"v\":1,\"kind\":\"lease\",\"key\":\"0x00000000000000ab\","
      "\"first\":4,\"count\":4,\"worker\":\"1:aa\",\"epoch\":1,"
      "\"deadline\":2000}";
  {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fwrite(line, 1, 20, f);  // half the record, torn
    std::fclose(f);
  }
  const CampaignStore::LoadStats torn = reader.refresh();
  EXPECT_EQ(torn.leaseRecords, 0u);
  EXPECT_EQ(torn.malformed, 0u);  // pending, not poisoned
  {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs(line + 20, f);  // the rest of the record
    std::fputc('\n', f);
    std::fclose(f);
  }
  const CampaignStore::LoadStats completed = reader.refresh();
  EXPECT_EQ(completed.leaseRecords, 1u);
  EXPECT_TRUE(reader.latestLease(0xab, 4, 4).has_value());

  // The file shrank underneath the reader (someone compacted it): refresh
  // must fall back to a full, fresh re-read instead of reading garbage at a
  // stale offset.
  {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "{\"v\":1,\"kind\":\"lease\",\"key\":\"0x00000000000000cd\","
        "\"first\":0,\"count\":4,\"worker\":\"2:bb\",\"epoch\":3,"
        "\"deadline\":3000}\n",
        f);
    std::fclose(f);
  }
  const CampaignStore::LoadStats shrunk = reader.refresh();
  EXPECT_EQ(shrunk.leaseRecords, 1u);
  EXPECT_TRUE(reader.latestLease(0xcd, 0, 4).has_value());
  EXPECT_FALSE(reader.latestLease(0xab, 0, 4).has_value());  // index rebuilt
}

TEST_F(CampaignStoreFixture, RefreshFromMidFileReadsAcrossBlockBoundaries) {
  // Enough shard records that the store spans several read blocks, so the
  // lines a refresh() reads from a mid-file offset straddle block edges.
  const auto metaOf = [](std::size_t i) {
    CampaignStore::CampaignMeta meta;
    meta.key = 0x1000 + i % 7;
    meta.workload = "w" + std::to_string(i % 7);
    meta.specLabel = "read/single";
    meta.seed = 42;
    meta.experiments = 1u << 20;
    meta.candidates = 99;
    return meta;
  };
  const auto aggOf = [](std::size_t i) {
    CampaignStore::ShardAggregate agg;
    agg.counts = stats::OutcomeCounts::fromRaw({0, 1, 0, 0, 0});
    agg.hist[1][i % (kMaxActivationBucket + 1)] = 1;
    return agg;
  };
  constexpr std::size_t kRecords = 800;
  CampaignStore writer(path_);
  for (std::size_t i = 0; i < kRecords / 2; ++i) {
    ASSERT_TRUE(writer.appendShard(metaOf(i), i, i, 1, aggOf(i)));
  }
  CampaignStore reader(path_);
  EXPECT_EQ(reader.load().shardRecords, kRecords / 2);
  for (std::size_t i = kRecords / 2; i < kRecords; ++i) {
    ASSERT_TRUE(writer.appendShard(metaOf(i), i, i, 1, aggOf(i)));
  }
  std::string last;
  detail::encodeShardLine(last, metaOf(kRecords), kRecords, kRecords, 1,
                          aggOf(kRecords));
  {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fwrite(last.data(), 1, last.size() / 2, f);  // mid-append
    std::fclose(f);
  }
  const CampaignStore::LoadStats fresh = reader.refresh();
  EXPECT_EQ(fresh.shardRecords, kRecords / 2);
  EXPECT_EQ(fresh.malformed, 0u);
  {
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs(last.c_str() + last.size() / 2, f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  EXPECT_EQ(reader.refresh().shardRecords, 1u);
  for (std::size_t i = 0; i <= kRecords; ++i) {
    const CampaignStore::ShardAggregate* agg =
        reader.findShard(metaOf(i).key, i, 1);
    ASSERT_NE(agg, nullptr) << i;
    EXPECT_EQ(agg->hist, aggOf(i).hist) << i;
  }
  CampaignStore whole(path_);
  const CampaignStore::LoadStats all = whole.load();
  EXPECT_EQ(all.shardRecords, kRecords + 1);
  EXPECT_EQ(all.malformed, 0u);
  EXPECT_EQ(whole.snapshot().campaigns.at(metaOf(3).key).meta.workload, "w3");
}

TEST_F(CampaignStoreFixture, CompactKeepsLiveLeasesDropsExpiredAndSuperseded) {
  {
    CampaignStore store(path_);
    CampaignStore::CellRecord cell;
    cell.key = 0xab;
    cell.workload = "w";
    cell.spec = "read/single";
    cell.flipWidth = 32;
    cell.experiments = 12;
    cell.seed = 1;
    cell.shardSize = 4;
    ASSERT_TRUE(store.appendCell(cell));
    // (0,4): will be superseded by the shard record below.
    ASSERT_TRUE(store.appendLease(0xab, {0, 4, "1:aa", 1, 9999}));
    // (4,4): expires at nowMs = 2000.
    ASSERT_TRUE(store.appendLease(0xab, {4, 4, "1:aa", 1, 1000}));
    // (8,4): abandoned epoch 1, then re-leased — only epoch 2 is live.
    ASSERT_TRUE(store.appendLease(0xab, {8, 4, "1:aa", 1, 1000}));
    ASSERT_TRUE(store.appendLease(0xab, {8, 4, "2:bb", 2, 5000}));
  }
  {
    // The shard record superseding lease (0,4), written by hand so the
    // test needs no campaign run.
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "{\"v\":1,\"kind\":\"shard\",\"key\":\"0x00000000000000ab\","
        "\"spec\":\"read/single\",\"seed\":\"0x0000000000000001\","
        "\"experiments\":12,\"candidates\":10,\"shard\":0,\"first\":0,"
        "\"count\":4,\"outcomes\":[4,0,0,0,0],\"hist\":[[0,0,4]]}\n",
        f);
    std::fclose(f);
  }
  const auto stats = CampaignStore::compact(path_, /*nowMs=*/2000);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->cellRecords, 1u);
  EXPECT_EQ(stats->shardRecords, 1u);
  EXPECT_EQ(stats->leaseRecords, 1u);   // only (8,4) at epoch 2 survives
  // One superseded-by-shard + one expired + the stale epoch-1 of (8,4).
  EXPECT_EQ(stats->droppedLeases, 3u);
  EXPECT_TRUE(stats->rewritten);

  CampaignStore store(path_);
  const CampaignStore::LoadStats loaded = store.load();
  EXPECT_EQ(loaded.cellRecords, 1u);
  EXPECT_EQ(loaded.leaseRecords, 1u);
  EXPECT_EQ(loaded.malformed, 0u);
  ASSERT_NE(store.findCell(0xab), nullptr);
  const auto live = store.latestLease(0xab, 8, 4);
  ASSERT_TRUE(live.has_value());
  EXPECT_EQ(live->epoch, 2u);
  EXPECT_FALSE(store.latestLease(0xab, 0, 4).has_value());
  EXPECT_FALSE(store.latestLease(0xab, 4, 4).has_value());

  // nowMs = 0 is the time-independent mode: the surviving lease is kept no
  // matter its deadline, so the file is already canonical.
  const auto again = CampaignStore::compact(path_, /*nowMs=*/0);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->leaseRecords, 1u);
  EXPECT_FALSE(again->rewritten);
}

TEST_F(CampaignStoreFixture, AtomicModeConcurrentAppendersNeverCorrupt) {
  // Two writer PROCESSES share one Atomic-mode store (the fleet's whole
  // premise): every record must arrive whole and loadable — zero torn or
  // interleaved lines.
  constexpr int kProcs = 2;
  constexpr int kLeases = 50;
  std::vector<pid_t> children;
  for (int p = 0; p < kProcs; ++p) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      CampaignStore store(path_, CampaignStore::WriteMode::Atomic);
      store.load();
      bool ok = true;
      for (int i = 0; ok && i < kLeases; ++i) {
        const std::size_t range =
            static_cast<std::size_t>(p * kLeases + i) * 4;
        ok = store.appendLease(
            0xf1ee7, {range, 4, std::to_string(p) + ":cc", 1,
                      static_cast<std::uint64_t>(1000 + i)});
      }
      std::_Exit(ok ? 0 : 1);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  CampaignStore store(path_, CampaignStore::WriteMode::Atomic);
  const CampaignStore::LoadStats stats = store.load();
  EXPECT_EQ(stats.leaseRecords,
            static_cast<std::size_t>(kProcs) * kLeases);
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(stats.duplicates, 0u);
  std::remove((path_ + ".lock").c_str());
}

TEST(CampaignStoreCompact, MissingFileIsANoOp) {
  const std::string path = ::testing::TempDir() + "no_such_store.jsonl";
  std::remove(path.c_str());
  const auto stats = CampaignStore::compact(path);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->shardRecords, 0u);
  EXPECT_EQ(stats->droppedMalformed, 0u);
  EXPECT_FALSE(stats->rewritten);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr);  // compaction must not create the file
  if (f != nullptr) std::fclose(f);
}

TEST_F(CampaignStoreFixture, QuarantineRecordsRoundTripNewestWins) {
  CampaignStore::QuarantineRecord q;
  q.first = 96;
  q.count = 32;
  q.crashes = 3;
  q.worker = "1234:3f2a";
  q.reason = "worker died 3 times mid-lease on 'qsort'";
  {
    CampaignStore store(path_);
    ASSERT_TRUE(store.appendQuarantine(0xfeed, q));
    // Identical re-append: succeeds without writing a second line.
    ASSERT_TRUE(store.appendQuarantine(0xfeed, q));
    // Escalated verdict: newest wins.
    CampaignStore::QuarantineRecord more = q;
    more.crashes = 5;
    ASSERT_TRUE(store.appendQuarantine(0xfeed, more));
    // Invalid (empty range) is refused outright.
    EXPECT_FALSE(store.appendQuarantine(0xfeed, {96, 0, 1, "", ""}));
  }
  CampaignStore store(path_);
  const CampaignStore::LoadStats stats = store.load();
  EXPECT_EQ(stats.quarantineRecords, 2u);
  EXPECT_EQ(stats.malformed, 0u);
  const auto found = store.findQuarantine(0xfeed, 96, 32);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->crashes, 5u);
  EXPECT_EQ(found->worker, "1234:3f2a");
  EXPECT_EQ(found->reason, q.reason);
  EXPECT_FALSE(store.findQuarantine(0xfeed, 0, 32).has_value());
  EXPECT_FALSE(store.findQuarantine(0xdead, 96, 32).has_value());
  std::size_t visited = 0;
  store.forEachQuarantine(
      0xfeed, [&](const CampaignStore::QuarantineRecord&) { ++visited; });
  EXPECT_EQ(visited, 1u);  // one live verdict per range
}

TEST_F(CampaignStoreFixture, CompactKeepsLiveQuarantinesDropsSuperseded) {
  {
    CampaignStore store(path_);
    ASSERT_TRUE(store.appendQuarantine(0xab, {0, 4, 3, "1:aa", "poison"}));
    ASSERT_TRUE(store.appendQuarantine(0xab, {0, 4, 4, "1:aa", "poison"}));
    ASSERT_TRUE(store.appendQuarantine(0xab, {4, 4, 3, "1:aa", "poison"}));
  }
  {
    // A --force pass recorded shard (0,4): its quarantine is superseded.
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "{\"v\":1,\"kind\":\"shard\",\"key\":\"0x00000000000000ab\","
        "\"spec\":\"read/single\",\"seed\":\"0x0000000000000001\","
        "\"experiments\":12,\"candidates\":10,\"shard\":0,\"first\":0,"
        "\"count\":4,\"outcomes\":[4,0,0,0,0],\"hist\":[[0,0,4]]}\n",
        f);
    std::fclose(f);
  }
  const auto stats = CampaignStore::compact(path_);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->quarantineRecords, 1u);  // only the live (4,4) verdict
  // The stale crashes=3 line of (0,4) plus its superseded survivor.
  EXPECT_EQ(stats->droppedQuarantines, 2u);
  EXPECT_TRUE(stats->rewritten);

  CampaignStore store(path_);
  EXPECT_EQ(store.load().quarantineRecords, 1u);
  EXPECT_FALSE(store.findQuarantine(0xab, 0, 4).has_value());
  const auto live = store.findQuarantine(0xab, 4, 4);
  ASSERT_TRUE(live.has_value());
  EXPECT_EQ(live->crashes, 3u);
}

TEST_F(CampaignStoreFixture, LeaseCostSurvivesTheRoundTripOnlyWhenStamped) {
  {
    CampaignStore store(path_);
    ASSERT_TRUE(store.appendLease(0xfeed, {0, 32, "1:aa", 1, 500}));
    ASSERT_TRUE(store.appendLease(0xfeed, {32, 32, "1:aa", 1, 777, 1234}));
  }
  {
    // Plain claims must serialize exactly as pre-cost writers did: no
    // cost_ms field at all, so old and new fleet binaries interoperate.
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string bytes(4096, '\0');
    bytes.resize(std::fread(bytes.data(), 1, bytes.size(), f));
    std::fclose(f);
    const std::size_t firstLineEnd = bytes.find('\n');
    ASSERT_NE(firstLineEnd, std::string::npos);
    EXPECT_EQ(bytes.substr(0, firstLineEnd).find("cost_ms"),
              std::string::npos);
    EXPECT_NE(bytes.find("\"cost_ms\":1234"), std::string::npos);
  }
  CampaignStore store(path_);
  store.load();
  const auto plain = store.latestLease(0xfeed, 0, 32);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->costMs, 0u);
  const auto stamped = store.latestLease(0xfeed, 32, 32);
  ASSERT_TRUE(stamped.has_value());
  EXPECT_EQ(stamped->costMs, 1234u);
}

TEST_F(CampaignStoreFixture, FsckLeavesACleanStoreUntouched) {
  {
    CampaignStore store(path_);
    CampaignEngine(baseConfig()).recordTo(store, "guinea-pig").run(*workload_);
  }
  std::string before;
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) before.append(buf, n);
    std::fclose(f);
  }
  const auto stats = CampaignStore::fsck(path_, /*repair=*/true);
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->clean());
  EXPECT_FALSE(stats->corrupt());
  EXPECT_FALSE(stats->rewritten);
  EXPECT_EQ(stats->validRecords, kExperiments / kShardSize);  // shard lines
  std::string after;
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) after.append(buf, n);
    std::fclose(f);
  }
  EXPECT_EQ(before, after);
}

class CampaignStoreFsckFixture : public CampaignStoreFixture {
 protected:
  void TearDown() override {
    std::remove((path_ + ".quarantined").c_str());
    CampaignStoreFixture::TearDown();
  }

  /// Record the full campaign, then rewrite the store file through
  /// `mutate(lines)` to inject mid-file damage.
  void recordAndMutate(
      const std::function<void(std::vector<std::string>&)>& mutate) {
    {
      CampaignStore store(path_);
      CampaignEngine(baseConfig()).recordTo(store).run(*workload_);
    }
    std::vector<std::string> lines;
    {
      std::FILE* f = std::fopen(path_.c_str(), "rb");
      ASSERT_NE(f, nullptr);
      std::string line;
      int c = 0;
      while ((c = std::fgetc(f)) != EOF) {
        if (c == '\n') {
          lines.push_back(line);
          line.clear();
        } else {
          line += static_cast<char>(c);
        }
      }
      std::fclose(f);
    }
    ASSERT_EQ(lines.size(), kExperiments / kShardSize);
    mutate(lines);
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    for (const std::string& l : lines) {
      std::fwrite(l.data(), 1, l.size(), f);
      std::fputc('\n', f);
    }
    std::fclose(f);
  }

  /// Post-repair: the store loads clean and resumes bit-identically, with
  /// `intactShards` shards' worth of records surviving the damage.
  void expectRepairedResume(std::size_t intactShards) {
    CampaignStore store(path_);
    const CampaignStore::LoadStats loaded = store.load();
    EXPECT_EQ(loaded.shardRecords, intactShards);
    EXPECT_EQ(loaded.malformed, 0u);
    EXPECT_EQ(loaded.duplicates, 0u);
    CampaignEngine engine(baseConfig());
    engine.resumeFrom(store);
    const CampaignResult r = engine.run(*workload_);
    const CampaignResult ref = uninterrupted();
    EXPECT_EQ(r.resumedExperiments, intactShards * kShardSize);
    EXPECT_EQ(r.counts, ref.counts);
    EXPECT_EQ(r.activationHist, ref.activationHist);
  }
};

TEST_F(CampaignStoreFsckFixture, ByteFlippedRecordIsQuarantinedAndRepaired) {
  // Flip one outcome digit of a mid-file record: it still parses as JSON
  // but fails the shard tally integrity check.
  recordAndMutate([](std::vector<std::string>& lines) {
    std::string& victim = lines[4];
    const std::size_t at = victim.find("\"outcomes\":[");
    ASSERT_NE(at, std::string::npos);
    const std::size_t digit = at + std::strlen("\"outcomes\":[");
    victim[digit] = victim[digit] == '9' ? '8' : '9';
  });
  // load() skips the mangled record rather than merging garbage.
  {
    CampaignStore store(path_);
    const CampaignStore::LoadStats loaded = store.load();
    EXPECT_EQ(loaded.shardRecords, kExperiments / kShardSize - 1);
    EXPECT_EQ(loaded.malformed, 1u);
  }
  const auto check = CampaignStore::fsck(path_, /*repair=*/false);
  ASSERT_TRUE(check.has_value());
  EXPECT_EQ(check->integrityFailures, 1u);
  EXPECT_TRUE(check->corrupt());
  EXPECT_FALSE(check->rewritten);

  const auto repaired = CampaignStore::fsck(path_, /*repair=*/true);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(repaired->integrityFailures, 1u);
  EXPECT_EQ(repaired->quarantinedLines, 1u);
  EXPECT_TRUE(repaired->rewritten);
  // The mangled line is preserved in the sidecar, not destroyed.
  std::FILE* sidecar = std::fopen((path_ + ".quarantined").c_str(), "rb");
  ASSERT_NE(sidecar, nullptr);
  std::fclose(sidecar);

  expectRepairedResume(kExperiments / kShardSize - 1);
  const auto again = CampaignStore::fsck(path_, /*repair=*/true);
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->clean());  // repair converges in one pass
}

TEST_F(CampaignStoreFsckFixture, DuplicatedLineIsBenignButRepairable) {
  recordAndMutate([](std::vector<std::string>& lines) {
    lines.insert(lines.begin() + 3, lines[2]);  // byte-identical re-record
  });
  const auto check = CampaignStore::fsck(path_, /*repair=*/false);
  ASSERT_TRUE(check.has_value());
  EXPECT_EQ(check->duplicateLines, 1u);
  EXPECT_FALSE(check->corrupt());  // expected on fleet stores
  EXPECT_FALSE(check->clean());    // but worth compacting away

  const auto repaired = CampaignStore::fsck(path_, /*repair=*/true);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(repaired->duplicateLines, 1u);
  EXPECT_EQ(repaired->quarantinedLines, 0u);  // dropped, not quarantined
  EXPECT_TRUE(repaired->rewritten);
  expectRepairedResume(kExperiments / kShardSize);
}

TEST_F(CampaignStoreFsckFixture, GarbageBetweenValidRecordsIsQuarantined) {
  recordAndMutate([](std::vector<std::string>& lines) {
    lines.insert(lines.begin() + 2, "\x01\x02 not json at all");
    lines.insert(lines.begin() + 6, "{\"v\":1,\"kind\":\"shard\",\"key");
  });
  {
    CampaignStore store(path_);
    const CampaignStore::LoadStats loaded = store.load();
    EXPECT_EQ(loaded.shardRecords, kExperiments / kShardSize);
    EXPECT_EQ(loaded.malformed, 2u);  // skipped, remaining records intact
  }
  const auto repaired = CampaignStore::fsck(path_, /*repair=*/true);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(repaired->garbage, 2u);
  EXPECT_EQ(repaired->tornTail, 0u);  // mid-file, not a torn tail
  EXPECT_EQ(repaired->quarantinedLines, 2u);
  EXPECT_TRUE(repaired->corrupt());
  EXPECT_TRUE(repaired->rewritten);
  expectRepairedResume(kExperiments / kShardSize);
}

TEST_F(CampaignStoreFsckFixture, LegacyOutcomeLinesLoadAsUnknownKinds) {
  // Stores written by older pruning builds carry "outcome" records of a
  // since-deleted outcome cache (including ones that build rejected as
  // malformed). They are an unknown kind now: never damage, never results.
  const std::vector<std::string> legacy = {
      R"({"v":1,"kind":"outcome","key":"0x0000000000000001","boundary":64,"hash":"0x0000000000000002","outcome":0,"trap":0,"instructions":10})",
      R"({"v":1,"kind":"outcome","key":"0x0000000000000001","boundary":64,"hash":"0x0000000000000003","outcome":99,"trap":0,"instructions":10})",
      R"({"v":1,"kind":"outcome","key":"0x0000000000000001","boundary":64,"hash":"0x0000000000000004","outcome":0,"trap":77,"instructions":10})",
      R"({"v":1,"kind":"outcome","key":"0x0000000000000001","boundary":64,"outcome":0,"trap":0,"instructions":10})",
      R"({"v":1,"kind":"outcome","key":"0x0000000000000001","boundary":0,"hash":"0x0000000000000005","outcome":0,"trap":0,"instructions":10})",
  };
  recordAndMutate([&](std::vector<std::string>& lines) {
    for (std::size_t i = 0; i < legacy.size(); ++i) {
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(2 * i + 1),
                   legacy[i]);
    }
  });
  {
    CampaignStore store(path_);
    const CampaignStore::LoadStats loaded = store.load();
    EXPECT_EQ(loaded.shardRecords, kExperiments / kShardSize);
    EXPECT_EQ(loaded.unknownKinds, legacy.size());
    EXPECT_EQ(loaded.malformed, legacy.size());  // unknown kinds, nothing else
    CampaignEngine engine(baseConfig());
    engine.resumeFrom(store);
    const CampaignResult r = engine.run(*workload_);
    const CampaignResult ref = uninterrupted();
    EXPECT_EQ(r.resumedExperiments, kExperiments);
    EXPECT_EQ(r.counts, ref.counts);
    EXPECT_EQ(r.activationHist, ref.activationHist);
  }
  const auto check = CampaignStore::fsck(path_, /*repair=*/true);
  ASSERT_TRUE(check.has_value());
  EXPECT_TRUE(check->clean());  // preserved as a possibly-future kind
  EXPECT_EQ(check->unknownKinds, legacy.size());
  EXPECT_FALSE(check->rewritten);

  const auto compacted = CampaignStore::compact(path_);
  ASSERT_TRUE(compacted.has_value());
  EXPECT_EQ(compacted->droppedMalformed, legacy.size());
  EXPECT_EQ(compacted->shardRecords, kExperiments / kShardSize);
  EXPECT_TRUE(compacted->rewritten);
  // Loads with nothing malformed left: compact() dropped every legacy line.
  expectRepairedResume(kExperiments / kShardSize);
}

TEST_F(CampaignStoreFsckFixture, MalformedSeedWorkloadOrSpecFailsTheRecord) {
  // Analytics matches campaigns by seed, workload and spec, and takes a
  // campaign's meta from its first record: a present but malformed field
  // must fail that record, not read as 0 or "" and hide the campaign.
  recordAndMutate([](std::vector<std::string>& lines) {
    const std::size_t seed = lines[0].find("\"seed\":\"0x") + 10;
    lines[0][seed] = static_cast<char>(lines[0][seed] ^ 0x40);  // not hex
    lines[1].insert(lines[1].find(",\"spec\""), ",\"workload\":7");
    const std::size_t spec = lines[2].find("\"spec\":") + 7;
    lines[2].replace(spec, lines[2].find('"', spec + 1) + 1 - spec, "null");
  });
  {
    CampaignStore store(path_);
    const CampaignStore::LoadStats loaded = store.load();
    EXPECT_EQ(loaded.shardRecords, kExperiments / kShardSize - 3);
    EXPECT_EQ(loaded.malformed, 3u);
    const CampaignStore::Snapshot snap = store.snapshot();
    ASSERT_EQ(snap.campaigns.size(), 1u);
    EXPECT_EQ(snap.campaigns.begin()->second.meta.seed, baseConfig().seed);
  }
  const auto repaired = CampaignStore::fsck(path_, /*repair=*/true);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(repaired->integrityFailures, 3u);
  EXPECT_EQ(repaired->quarantinedLines, 3u);
  EXPECT_TRUE(repaired->corrupt());
  EXPECT_TRUE(repaired->rewritten);
  expectRepairedResume(kExperiments / kShardSize - 3);
}

TEST_F(CampaignStoreFsckFixture, TornTailAndConflictAreToldApart) {
  recordAndMutate([](std::vector<std::string>& lines) {
    // A conflicting rewrite of some record: same identity, different bytes.
    // Swap two unequal outcome buckets — the tally still balances, so the
    // imposter is integrity-valid and only the conflict check can catch it.
    for (const std::string& line : lines) {
      std::string imposter = line;
      const std::size_t at = imposter.find("\"outcomes\":[");
      ASSERT_NE(at, std::string::npos);
      const std::size_t open = at + std::strlen("\"outcomes\":[");
      const std::size_t comma = imposter.find(',', open);
      const std::size_t comma2 = imposter.find(',', comma + 1);
      const std::string a = imposter.substr(open, comma - open);
      const std::string b = imposter.substr(comma + 1, comma2 - comma - 1);
      if (a == b) continue;
      imposter.replace(open, comma2 - open, b + "," + a);
      lines.push_back(std::move(imposter));
      return;
    }
    FAIL() << "no record with two unequal outcome buckets";
  });
  {
    // Kill-mid-write on top: half a record, no newline.
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"v\":1,\"kind\":\"shard\",\"key\":\"0x00", f);
    std::fclose(f);
  }
  const auto repaired = CampaignStore::fsck(path_, /*repair=*/true);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(repaired->tornTail, 1u);
  EXPECT_EQ(repaired->conflicts, 1u);
  EXPECT_EQ(repaired->garbage, 0u);
  EXPECT_EQ(repaired->quarantinedLines, 2u);
  EXPECT_TRUE(repaired->rewritten);
  // First wins on conflict — exactly what load() indexes — so the repaired
  // store resumes bit-identically to the undamaged one.
  expectRepairedResume(kExperiments / kShardSize);
}

TEST(CampaignStoreFsck, MissingFileIsCleanAndNotCreated) {
  const std::string path = ::testing::TempDir() + "no_such_store_fsck.jsonl";
  std::remove(path.c_str());
  const auto stats = CampaignStore::fsck(path, /*repair=*/true);
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->clean());
  EXPECT_FALSE(stats->rewritten);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

TEST(CampaignKey, DistinguishesEveryContractField) {
  const FaultModel base = FaultModel::multiBitTemporal(FaultDomain::RegisterWrite, 3,
                                             WinSize::fixed(2));
  const std::uint64_t key = CampaignStore::campaignKey(base, 100, 7, 999);

  FaultModel spec = base;
  spec.domain = FaultDomain::RegisterRead;
  EXPECT_NE(CampaignStore::campaignKey(spec, 100, 7, 999), key);
  spec = base;
  spec.pattern = BitPattern::multiBitTemporal(4);
  EXPECT_NE(CampaignStore::campaignKey(spec, 100, 7, 999), key);
  spec = base;
  spec.spread = WinSize::random(2, 2);
  EXPECT_NE(CampaignStore::campaignKey(spec, 100, 7, 999), key);
  spec = base;
  spec.flipWidth = 32;
  EXPECT_NE(CampaignStore::campaignKey(spec, 100, 7, 999), key);
  EXPECT_NE(CampaignStore::campaignKey(base, 101, 7, 999), key);
  EXPECT_NE(CampaignStore::campaignKey(base, 100, 8, 999), key);
  EXPECT_NE(CampaignStore::campaignKey(base, 100, 7, 998), key);
  EXPECT_EQ(CampaignStore::campaignKey(base, 100, 7, 999), key);
}

}  // namespace
}  // namespace onebit::fi
