// Campaign-level equivalence for the dispatch backends: fig1-style cells
// must be bit-identical between DispatchBackend::Switch and ::Threaded
// across every orthogonal execution knob —
//
//  * thread counts {1, 8} × snapshots {on, off} × pruning {on, off}: equal
//    OutcomeCounts, activation histograms, and completion counts per cell;
//  * store shard records written under the threaded backend are
//    byte-identical to the reference backend's;
//  * capped record/resume cycles that CROSS backends — record some shards
//    with the reference backend, kill, resume the rest threaded — converge
//    to the exact single-backend result, which requires (and checks) that
//    the workload fingerprint does not depend on the backend.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fi/campaign.hpp"
#include "fi/campaign_store.hpp"
#include "fi/suite.hpp"
#include "lang/compile.hpp"

namespace onebit::fi {
namespace {

const char* const kChurn = R"MC(
int a[40];
int seed = 13;
int rnd() { seed = (seed * 1103515245 + 12345) & 2147483647; return seed; }
int main() {
  for (int i = 0; i < 40; i++) { a[i] = rnd() % 503; }
  int s = 0;
  double d = 1.0;
  for (int round = 0; round < 10; round++) {
    for (int i = 0; i < 40; i++) {
      s = (s * 31 + a[(i + round) % 40] + i) & 1048575;
      a[i] = (a[i] + s) % 911;
    }
    d = d + sqrt((double)(s % 89 + 1));
  }
  print_i(s);
  print_c(32);
  print_f(d);
  print_c(10);
  return s % 9;
}
)MC";

const char* const kCalls = R"MC(
int h[24];
int mix(int x, int y) { return (x * 17 + y) % 65521; }
int main() {
  int* heap = alloc_int(12);
  for (int i = 0; i < 12; i++) { heap[i] = mix(i, i * 7 + 3); }
  int odd = 0;
  int even = 0;
  for (int round = 0; round < 9; round++) {
    for (int i = 0; i < 24; i++) {
      h[i] = mix(h[(i + round) % 24], heap[i % 12] + i);
      if (h[i] % 2 == 1) { odd = odd + h[i] % 101; }
      else { even = even + h[i] % 103; }
    }
  }
  print_i(odd);
  print_c(32);
  print_i(even);
  print_c(10);
  return odd % 5;
}
)MC";

std::vector<FaultModel> modelMix() {
  return {
      FaultModel::singleBit(FaultDomain::RegisterRead),
      FaultModel::singleBit(FaultDomain::RegisterWrite),
      FaultModel::singleBit(FaultDomain::MemoryData),
      FaultModel::singleBit(FaultDomain::RandomValue),
      FaultModel::multiBitTemporal(FaultDomain::RegisterRead, 3,
                                   WinSize::fixed(2)),
  };
}

constexpr std::size_t kPerCell = 120;

struct WorkloadSet {
  std::unique_ptr<Workload> w[2];
};

WorkloadSet buildWorkloads(vm::DispatchBackend backend, bool snapshots,
                           bool prune) {
  WorkloadSet set;
  const char* const srcs[2] = {kChurn, kCalls};
  for (int i = 0; i < 2; ++i) {
    set.w[i] = std::make_unique<Workload>(
        lang::compileMiniC(srcs[i]), Workload::kDefaultHangFactor,
        snapshots ? SnapshotPolicy{} : SnapshotPolicy::disabled(),
        prune ? PrunePolicy{} : PrunePolicy::off(), backend);
  }
  return set;
}

void addCells(CampaignSuite& suite, const WorkloadSet& set) {
  const std::vector<FaultModel> models = modelMix();
  for (int p = 0; p < 2; ++p) {
    for (std::size_t m = 0; m < models.size(); ++m) {
      suite.addCell("cell", *set.w[p], models[m], kPerCell,
                    0xD15B0000 + p * 100 + m, p == 0 ? "churn" : "calls");
    }
  }
}

void expectSameResults(const std::vector<CampaignResult>& got,
                       const std::vector<CampaignResult>& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t c = 0; c < got.size(); ++c) {
    EXPECT_EQ(got[c].counts, want[c].counts) << context << " cell " << c;
    EXPECT_EQ(got[c].activationHist, want[c].activationHist)
        << context << " cell " << c;
    EXPECT_EQ(got[c].completedExperiments, want[c].completedExperiments)
        << context << " cell " << c;
  }
}

TEST(DispatchEquivalence, CellsBitIdenticalAcrossBackendThreadsSnapshotsPrune) {
  SuiteConfig baseCfg;
  baseCfg.threads = 1;
  CampaignSuite base(baseCfg);
  const WorkloadSet baseSet =
      buildWorkloads(vm::DispatchBackend::Switch, true, false);
  addCells(base, baseSet);
  const std::vector<CampaignResult> baseline = base.run();

  for (const vm::DispatchBackend backend :
       {vm::DispatchBackend::Switch, vm::DispatchBackend::Threaded}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      for (const bool snapshots : {true, false}) {
        for (const bool prune : {true, false}) {
          // The baseline itself (switch/1/on/off) re-runs as a self-check.
          const WorkloadSet set = buildWorkloads(backend, snapshots, prune);
          SuiteConfig cfg;
          cfg.threads = threads;
          CampaignSuite suite(cfg);
          addCells(suite, set);
          const std::vector<CampaignResult> got = suite.run();
          const std::string context =
              std::string(backend == vm::DispatchBackend::Threaded
                              ? "threaded"
                              : "switch") +
              " threads=" + std::to_string(threads) +
              " snapshots=" + (snapshots ? "on" : "off") +
              " prune=" + (prune ? "on" : "off");
          expectSameResults(got, baseline, context);
        }
      }
    }
  }
}

std::vector<std::string> shardLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> out;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"kind\":\"shard\"") != std::string::npos) {
      out.push_back(line);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string tempStorePath(const char* tag) {
  const std::string path = ::testing::TempDir() + "dispatch_equiv_" + tag +
                           "_" +
                           ::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name() +
                           ".jsonl";
  std::remove(path.c_str());
  return path;
}

TEST(DispatchEquivalence, StoreShardRecordsByteIdenticalAcrossBackends) {
  const std::string swPath = tempStorePath("sw");
  const std::string thPath = tempStorePath("th");
  for (int b = 0; b < 2; ++b) {
    const vm::DispatchBackend backend =
        b == 0 ? vm::DispatchBackend::Switch : vm::DispatchBackend::Threaded;
    CampaignStore store(b == 0 ? swPath : thPath);
    SuiteConfig cfg;
    cfg.threads = 4;
    cfg.record = &store;
    CampaignSuite suite(cfg);
    const WorkloadSet set = buildWorkloads(backend, true, false);
    addCells(suite, set);
    (void)suite.run();
  }
  const std::vector<std::string> sw = shardLines(swPath);
  const std::vector<std::string> th = shardLines(thPath);
  ASSERT_FALSE(sw.empty());
  EXPECT_EQ(th, sw);
  std::remove(swPath.c_str());
  std::remove(thPath.c_str());
}

TEST(DispatchEquivalence, CappedResumeCyclesCrossingBackendsConverge) {
  SuiteConfig baseCfg;
  baseCfg.threads = 2;
  CampaignSuite base(baseCfg);
  const WorkloadSet baseSet =
      buildWorkloads(vm::DispatchBackend::Switch, true, false);
  addCells(base, baseSet);
  const std::vector<CampaignResult> baseline = base.run();

  // The store keys shards by the workload fingerprint; cross-backend resume
  // only works because the backend is NOT part of it.
  const WorkloadSet thSet =
      buildWorkloads(vm::DispatchBackend::Threaded, true, false);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(thSet.w[i]->fingerprint(), baseSet.w[i]->fingerprint());
    EXPECT_EQ(thSet.w[i]->golden().output, baseSet.w[i]->golden().output);
  }

  const std::string path = tempStorePath("cross");
  std::vector<CampaignResult> merged;
  // Alternate backends across kill/resume cycles: even cycles record shards
  // with the reference loop, odd cycles with the threaded one, one fresh
  // shard per cell per cycle.
  for (int cycle = 0; cycle < 64; ++cycle) {
    CampaignStore store(path);
    const CampaignStore::LoadStats loaded = store.load();
    ASSERT_EQ(loaded.malformed, 0u) << "cycle " << cycle;
    SuiteConfig cfg;
    cfg.threads = 2;
    cfg.maxShards = 1;
    cfg.record = &store;
    cfg.resume = &store;
    CampaignSuite suite(cfg);
    addCells(suite, cycle % 2 == 0 ? baseSet : thSet);
    merged = suite.run();
    bool complete = true;
    for (const CampaignResult& r : merged) complete = complete && r.complete();
    if (complete) break;
  }
  for (const CampaignResult& r : merged) ASSERT_TRUE(r.complete());
  expectSameResults(merged, baseline, "cross-backend resume cycles");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace onebit::fi
