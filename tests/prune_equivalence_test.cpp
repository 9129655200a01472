// Differential equivalence harness for outcome-equivalence pruning: the
// "pure speedup" contract of a Workload built with the default PrunePolicy,
// held to the same Workload built with PrunePolicy::off().
//
//  * a Workload with default arguments prunes, and a campaign on it equals
//    the PrunePolicy::off() campaign; without snapshots it never prunes;
//  * a bench-style cell mix (two workloads × all four fault domains ×
//    single-bit / multi-bit / burst patterns) produces bit-identical
//    OutcomeCounts and activation histograms on pruning and plain
//    workloads, for thread counts {1, 8} and several shard sizes — while
//    actually short-circuiting a nonzero share of experiments — and the
//    per-cell PruneStats do not depend on threads or shard size;
//  * a store written under pruning is byte-identical (as a sorted set of
//    lines) to the unpruned one;
//  * capped checkpoint runs (maxShards) resumed across fresh store loads
//    converge to the exact uninterrupted unpruned result;
//  * a fault that grows the heap with zeros is not pruned as masked: single
//    experiments pinned to each of the first 40 read and write candidates
//    of a program whose later allocation fits only beside the golden heap
//    return the same ExperimentResult pruned and unpruned.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fi/campaign.hpp"
#include "fi/campaign_store.hpp"
#include "fi/experiment.hpp"
#include "fi/suite.hpp"
#include "lang/compile.hpp"

namespace onebit::fi {
namespace {

const char* const kMixer = R"MC(
int a[48];
int seed = 7;
int rnd() { seed = (seed * 1103515245 + 12345) & 2147483647; return seed; }
int main() {
  for (int i = 0; i < 48; i++) { a[i] = rnd() % 601; }
  int s = 0;
  for (int round = 0; round < 12; round++) {
    for (int i = 0; i < 48; i++) { s = (s * 29 + a[i] + round) & 1048575; }
  }
  print_s("s=");
  print_i(s);
  print_c(10);
  return 0;
}
)MC";

const char* const kBranchy = R"MC(
int h[32];
int main() {
  int* heap = alloc_int(16);
  for (int i = 0; i < 16; i++) { heap[i] = (i * 37 + 11) % 23; }
  int odd = 0;
  int even = 0;
  for (int round = 0; round < 10; round++) {
    for (int i = 0; i < 32; i++) {
      h[i] = (h[(i + round) % 32] + heap[i % 16] * 3 + i) % 97;
      if (h[i] % 2 == 1) { odd = odd + h[i]; } else { even = even + h[i]; }
    }
  }
  print_i(odd);
  print_c(32);
  print_i(even);
  print_c(10);
  return odd % 5;
}
)MC";

/// The bench-style model mix: every fault domain, single-bit, multi-bit
/// temporal, and burst patterns.
std::vector<FaultModel> modelMix() {
  return {
      FaultModel::singleBit(FaultDomain::RegisterRead),
      FaultModel::singleBit(FaultDomain::RegisterWrite),
      FaultModel::singleBit(FaultDomain::MemoryData),
      FaultModel::singleBit(FaultDomain::RandomValue),
      FaultModel::multiBitTemporal(FaultDomain::RegisterRead, 3,
                                   WinSize::fixed(2)),
      FaultModel::multiBitTemporal(FaultDomain::RegisterWrite, 2,
                                   WinSize::fixed(3)),
      FaultModel::burstAdjacent(FaultDomain::RegisterWrite, 3),
  };
}

struct Bench {
  std::unique_ptr<Workload> plain[2];   ///< PrunePolicy::off()
  std::unique_ptr<Workload> pruned[2];  ///< default arguments
};

Bench buildBench() {
  Bench b;
  const char* const srcs[2] = {kMixer, kBranchy};
  for (int i = 0; i < 2; ++i) {
    b.plain[i] = std::make_unique<Workload>(
        lang::compileMiniC(srcs[i]), Workload::kDefaultHangFactor,
        SnapshotPolicy{}, PrunePolicy::off());
    b.pruned[i] = std::make_unique<Workload>(lang::compileMiniC(srcs[i]));
  }
  return b;
}

constexpr std::size_t kPerCell = 160;

/// Queue the full (workload × model) cross-product on a suite.
void addCells(CampaignSuite& suite, std::unique_ptr<Workload> const (&w)[2]) {
  const std::vector<FaultModel> models = modelMix();
  for (int p = 0; p < 2; ++p) {
    for (std::size_t m = 0; m < models.size(); ++m) {
      suite.addCell("cell", *w[p], models[m], kPerCell,
                    0x5eed0000 + p * 100 + m,
                    p == 0 ? "mixer" : "branchy");
    }
  }
}

void expectSameResults(const std::vector<CampaignResult>& got,
                       const std::vector<CampaignResult>& want,
                       const char* context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t c = 0; c < got.size(); ++c) {
    EXPECT_EQ(got[c].counts, want[c].counts) << context << " cell " << c;
    EXPECT_EQ(got[c].activationHist, want[c].activationHist)
        << context << " cell " << c;
    EXPECT_EQ(got[c].completedExperiments, want[c].completedExperiments)
        << context << " cell " << c;
  }
}

std::size_t totalShortCircuited(const std::vector<CampaignResult>& results) {
  std::size_t total = 0;
  for (const CampaignResult& r : results) total += r.prune.goldenHits;
  return total;
}

TEST(PruneEquivalence, DefaultWorkloadPrunes) {
  const Workload byDefault(lang::compileMiniC(kMixer));
  const Workload off(lang::compileMiniC(kMixer), Workload::kDefaultHangFactor,
                     SnapshotPolicy{}, PrunePolicy::off());
  const Workload noSnapshots(lang::compileMiniC(kMixer),
                             Workload::kDefaultHangFactor,
                             SnapshotPolicy::disabled());
  ASSERT_GT(byDefault.snapshotCount(), 0u);
  EXPECT_TRUE(byDefault.pruningEnabled());
  EXPECT_FALSE(off.pruningEnabled());
  EXPECT_FALSE(noSnapshots.pruningEnabled());

  CampaignConfig config;
  config.model = FaultModel::singleBit(FaultDomain::RegisterRead);
  config.experiments = 200;
  config.seed = 0xde7a;
  config.threads = 2;
  const CampaignResult pruned = runCampaign(byDefault, config);
  const CampaignResult plain = runCampaign(off, config);
  EXPECT_GT(pruned.prune.goldenHits, 0u);
  EXPECT_EQ(plain.prune, PruneStats{});
  EXPECT_EQ(pruned.counts, plain.counts);
  EXPECT_EQ(pruned.activationHist, plain.activationHist);
}

TEST(PruneEquivalence, SuiteBitIdenticalAcrossThreadsAndShardSizes) {
  const Bench bench = buildBench();

  SuiteConfig offCfg;
  offCfg.threads = 1;
  CampaignSuite off(offCfg);
  addCells(off, bench.plain);
  const std::vector<CampaignResult> baseline = off.run();
  ASSERT_EQ(totalShortCircuited(baseline), 0u);

  std::vector<PruneStats> firstStats;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    for (const std::size_t shardSize : {std::size_t{0}, std::size_t{17}}) {
      SuiteConfig onCfg;
      onCfg.threads = threads;
      onCfg.shardSize = shardSize;
      CampaignSuite on(onCfg);
      addCells(on, bench.pruned);
      std::size_t lastShortCircuited = 0;
      on.onProgress([&](const SuiteProgress& p) {
        lastShortCircuited = p.suiteShortCircuited;
      });
      const std::vector<CampaignResult> pruned = on.run();
      const std::string context =
          "threads=" + std::to_string(threads) +
          " shardSize=" + std::to_string(shardSize);
      expectSameResults(pruned, baseline, context.c_str());
      // The harness must prove pruning actually fired, or "identical" is
      // vacuous.
      EXPECT_GT(totalShortCircuited(pruned), 0u) << context;
      EXPECT_EQ(lastShortCircuited, totalShortCircuited(pruned)) << context;
      // Each experiment's prune event depends on its plan alone, so the
      // per-cell counters are scheduling-independent.
      if (firstStats.empty()) {
        for (const CampaignResult& r : pruned) firstStats.push_back(r.prune);
      }
      ASSERT_EQ(pruned.size(), firstStats.size()) << context;
      for (std::size_t c = 0; c < pruned.size(); ++c) {
        EXPECT_EQ(pruned[c].prune, firstStats[c]) << context << " cell " << c;
      }
    }
  }
}

std::vector<std::string> sortedLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> out;
  for (std::string line; std::getline(in, line);) out.push_back(line);
  std::sort(out.begin(), out.end());
  return out;
}

std::string tempStorePath(const char* tag) {
  const std::string path = ::testing::TempDir() + "prune_equiv_" + tag + "_" +
                           ::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name() +
                           ".jsonl";
  std::remove(path.c_str());
  return path;
}

TEST(PruneEquivalence, StoreByteIdenticalToTheUnprunedStore) {
  const Bench bench = buildBench();
  const std::string offPath = tempStorePath("off");
  const std::string onPath = tempStorePath("on");
  {
    CampaignStore store(offPath);
    SuiteConfig cfg;
    cfg.threads = 4;
    cfg.record = &store;
    CampaignSuite suite(cfg);
    addCells(suite, bench.plain);
    (void)suite.run();
  }
  {
    CampaignStore store(onPath);
    SuiteConfig cfg;
    cfg.threads = 4;
    cfg.record = &store;
    CampaignSuite suite(cfg);
    addCells(suite, bench.pruned);
    const std::vector<CampaignResult> pruned = suite.run();
    ASSERT_GT(totalShortCircuited(pruned), 0u);
  }

  // The whole files must match (shard completion order is thread timing,
  // so compare as sorted sets of lines) — pruning writes nothing of its own.
  const std::vector<std::string> offLines = sortedLines(offPath);
  const std::vector<std::string> onLines = sortedLines(onPath);
  ASSERT_FALSE(offLines.empty());
  EXPECT_EQ(onLines, offLines);
  for (const std::string& line : onLines) {
    EXPECT_EQ(line.find("\"kind\":\"outcome\""), std::string::npos) << line;
  }

  CampaignStore reload(onPath);
  const CampaignStore::LoadStats stats = reload.load();
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(stats.shardRecords, onLines.size());

  std::remove(offPath.c_str());
  std::remove(onPath.c_str());
}

TEST(PruneEquivalence, CappedResumeCyclesConverge) {
  const Bench bench = buildBench();

  SuiteConfig offCfg;
  offCfg.threads = 2;
  CampaignSuite off(offCfg);
  addCells(off, bench.plain);
  const std::vector<CampaignResult> baseline = off.run();

  const std::string path = tempStorePath("cycle");
  std::vector<CampaignResult> merged;
  // Each cycle reopens the store cold — shards resume from disk — and
  // executes at most one fresh shard per cell, like a repeatedly killed
  // campaign.
  for (int cycle = 0; cycle < 64; ++cycle) {
    CampaignStore store(path);
    const CampaignStore::LoadStats loaded = store.load();
    EXPECT_EQ(loaded.malformed, 0u) << "cycle " << cycle;
    SuiteConfig cfg;
    cfg.threads = 2;
    cfg.maxShards = 1;
    cfg.record = &store;
    cfg.resume = &store;
    CampaignSuite suite(cfg);
    addCells(suite, bench.pruned);
    merged = suite.run();
    bool complete = true;
    for (const CampaignResult& r : merged) complete = complete && r.complete();
    if (complete) break;
  }
  for (const CampaignResult& r : merged) ASSERT_TRUE(r.complete());
  expectSameResults(merged, baseline, "capped resume cycles");
  std::remove(path.c_str());
}

/// The first allocation's size is live in a register until the loop, and
/// the second allocation fits the 32 MiB heap budget only next to the
/// golden 16-byte heap: a flip that grows the first block leaves the loop's
/// state golden except for zero heap bytes, and traps later.
const char* const kHeapGrowth = R"MC(
int main() {
  int n = 2;
  int* p = alloc_int(n);
  p[0] = 3; p[1] = 4;
  int s = 0;
  for (int i = 0; i < 400; i++) { s = s + p[i % 2]; }
  char* big = alloc_char(33554400);
  big[0] = 1;
  print_i(s); print_c(10);
  return 0;
}
)MC";

TEST(PruneEquivalence, GrownHeapIsNotPrunedAsGolden) {
  const Workload plain(lang::compileMiniC(kHeapGrowth),
                       Workload::kDefaultHangFactor, {}, PrunePolicy::off());
  const Workload pruned(lang::compileMiniC(kHeapGrowth));
  ASSERT_TRUE(pruned.pruningEnabled());
  // Every run that gets past the second allocation zero-fills 32 MiB of
  // fresh heap (milliseconds of page faults), so each location takes 8 plan
  // seeds. At 32-bit flips, 6 of the 8 at read candidate 1 grow the first
  // block within the budget: their state differs from the golden one only
  // in the heap's size, and they trap at the second allocation.
  constexpr std::uint64_t kSeeds = 8;
  std::size_t matches = 0;
  std::size_t detected = 0;
  for (const FaultDomain d :
       {FaultDomain::RegisterRead, FaultDomain::RegisterWrite}) {
    FaultModel model = FaultModel::singleBit(d);
    model.flipWidth = 32;
    for (std::uint64_t first = 0; first < 40; ++first) {
      for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const FaultPlan plan = FaultPlan::atLocation(model, first, 7, seed);
        const ExperimentResult want = runExperiment(plain, plan);
        const ExperimentResult got = runExperiment(pruned, plan);
        const std::string context = "domain " +
                                    std::to_string(static_cast<int>(d)) +
                                    " first " + std::to_string(first) +
                                    " seed " + std::to_string(seed);
        EXPECT_EQ(got.outcome, want.outcome) << context;
        EXPECT_EQ(got.trap, want.trap) << context;
        EXPECT_EQ(got.activations, want.activations) << context;
        EXPECT_EQ(got.instructions, want.instructions) << context;
        matches += got.prune == PruneEvent::GoldenMatch ? 1 : 0;
        detected += want.outcome == stats::Outcome::Detected ? 1 : 0;
      }
    }
  }
  // Both must occur, or the check proves less than it claims.
  EXPECT_GT(matches, 0u);
  EXPECT_GT(detected, 0u);
}

}  // namespace
}  // namespace onebit::fi
