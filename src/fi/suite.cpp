#include "fi/suite.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <utility>

#include "util/bitops.hpp"
#include "util/thread_pool.hpp"

namespace onebit::fi {

namespace {

/// Per-cell execution plan: geometry, store metadata, shard slots, and the
/// resumed/pending partition. Identical to what a solo CampaignEngine run
/// computes for the same (spec, experiments, seed) — that is the whole
/// suite-vs-solo bit-identity argument.
struct CellPlan {
  const SuiteCell* cell = nullptr;
  std::uint64_t candidates = 0;
  std::size_t shardSize = 1;
  std::size_t shards = 0;
  CampaignStore::CampaignMeta meta;
  std::vector<ShardTally> partial;  ///< one per shard, one writer each
  std::vector<unsigned char> resumed;
  std::vector<unsigned char> executed;
  std::vector<std::size_t> pending;
  std::size_t resumedExperiments = 0;
  // Progress-side counters, guarded by the suite's progress mutex.
  std::size_t completedShards = 0;
  std::size_t completedExperiments = 0;

  [[nodiscard]] std::size_t first(std::size_t s) const noexcept {
    return s * shardSize;
  }
  [[nodiscard]] std::size_t count(std::size_t s) const noexcept {
    return std::min(cell->experiments, first(s) + shardSize) - first(s);
  }
};

}  // namespace

CampaignSuite::CampaignSuite(SuiteConfig config) : config_(config) {}

std::size_t CampaignSuite::addCell(SuiteCell cell) {
  cells_.push_back(std::move(cell));
  return cells_.size() - 1;
}

std::size_t CampaignSuite::addCell(std::string label, const Workload& workload,
                                   FaultModel spec, std::size_t experiments,
                                   std::uint64_t seed, std::string storeName) {
  return addCell(SuiteCell{std::move(label), &workload, spec, experiments,
                           seed, std::move(storeName)});
}

CampaignSuite& CampaignSuite::onProgress(ProgressCallback cb) {
  progress_ = std::move(cb);
  return *this;
}

CampaignSuite& CampaignSuite::onShardDone(
    CampaignEngine::ProgressCallback cb) {
  shardProgress_ = std::move(cb);
  return *this;
}

std::size_t CampaignSuite::totalExperiments() const noexcept {
  std::size_t total = 0;
  for (const SuiteCell& cell : cells_) total += cell.experiments;
  return total;
}

std::vector<CampaignResult> CampaignSuite::run() const {
  const std::size_t nCells = cells_.size();
  const std::size_t threads = resolveThreads(config_.threads);
  const bool useStore = config_.record != nullptr || config_.resume != nullptr;

  // Plan every cell up front: geometry, the resume partition (consulting the
  // store index once per shard), and the per-cell checkpoint cap.
  std::vector<CellPlan> plans(nCells);
  std::size_t suiteTotal = 0;
  for (std::size_t c = 0; c < nCells; ++c) {
    const SuiteCell& cell = cells_[c];
    CellPlan& plan = plans[c];
    plan.cell = &cell;
    const std::size_t n = cell.experiments;
    suiteTotal += n;
    if (n == 0) continue;  // trivially complete; zero shards
    plan.candidates = cell.workload->candidates(cell.model.domain);
    plan.shardSize = resolveShardSize(n, config_.shardSize);
    plan.shards = util::ceilDiv(n, plan.shardSize);
    plan.partial.resize(plan.shards);
    plan.resumed.assign(plan.shards, 0);
    plan.executed.assign(plan.shards, 0);
    plan.pending.reserve(plan.shards);
    if (useStore) {
      plan.meta.key = CampaignStore::campaignKey(
          cell.model, n, cell.seed, cell.workload->fingerprintFor(cell.model));
      plan.meta.workload = cell.storeName;
      plan.meta.specLabel = cell.model.label();
      plan.meta.seed = cell.seed;
      plan.meta.experiments = n;
      plan.meta.candidates = plan.candidates;
    }
    for (std::size_t s = 0; s < plan.shards; ++s) {
      if (config_.resume != nullptr) {
        if (const CampaignStore::ShardAggregate* agg =
                config_.resume->findShard(plan.meta.key, plan.first(s),
                                          plan.count(s))) {
          plan.partial[s].counts = agg->counts;
          plan.partial[s].hist = agg->hist;
          plan.resumed[s] = 1;
          plan.resumedExperiments += plan.count(s);
          continue;
        }
      }
      plan.pending.push_back(s);
    }
    // The checkpoint cap: execute at most maxShards fresh shards per cell
    // this run (lowest shard indices first, so repeated capped runs make
    // monotonic progress through each campaign).
    if (config_.maxShards != 0 && plan.pending.size() > config_.maxShards) {
      plan.pending.resize(config_.maxShards);
    }
    // Shard-geometry foot-gun diagnostic: the store has experiments recorded
    // under this cell's campaign key, yet none matched the current shard
    // ranges — almost always a shardSize change between the recording and
    // resuming runs. The cell still computes correctly; it just re-runs.
    if (config_.resume != nullptr && plan.resumedExperiments == 0) {
      const std::size_t recorded =
          config_.resume->recordedExperiments(plan.meta.key);
      if (recorded != 0) {
        std::fprintf(stderr,
                     "warning: campaign store has %zu experiment(s) recorded "
                     "for campaign '%s', but none match the current shard "
                     "geometry (shardSize=%zu); re-running them\n",
                     recorded, cell.label.c_str(), plan.shardSize);
      }
    }
  }

  std::mutex progressMutex;
  std::size_t suiteCompleted = 0;
  std::size_t suiteShortCircuited = 0;
  std::size_t completedCells = 0;
  for (const SuiteCell& cell : cells_) {
    if (cell.experiments == 0) ++completedCells;
  }
  std::atomic<bool> storeWriteFailed{false};
  const bool reporting = progress_ != nullptr || shardProgress_ != nullptr;

  // Advance counters and fire both callbacks for one tallied shard.
  // Callers hold progressMutex, so callbacks are serialized and the
  // counters are consistent.
  auto report = [&](std::size_t c, std::size_t s, bool resumedShard) {
    CellPlan& plan = plans[c];
    const std::size_t cnt = plan.count(s);
    ++plan.completedShards;
    plan.completedExperiments += cnt;
    suiteCompleted += cnt;
    if (!resumedShard) {
      suiteShortCircuited += plan.partial[s].prune.goldenHits;
    }
    if (plan.completedExperiments == plan.cell->experiments) ++completedCells;
    if (shardProgress_ != nullptr) {
      shardProgress_(ShardProgress{s, plan.shards, plan.first(s), cnt,
                                   plan.completedShards,
                                   plan.completedExperiments,
                                   plan.cell->experiments,
                                   plan.partial[s].counts, resumedShard});
    }
    if (progress_ != nullptr) {
      progress_(SuiteProgress{c, plan.cell->label, plan.completedExperiments,
                              plan.cell->experiments, completedCells, nCells,
                              suiteCompleted, suiteTotal, resumedShard,
                              suiteShortCircuited});
    }
  };

  // Report resumed shards before starting fresh work: cell order, then
  // shard order within the cell (the solo-engine convention).
  if (reporting) {
    std::lock_guard lock(progressMutex);
    for (std::size_t c = 0; c < nCells; ++c) {
      for (std::size_t s = 0; s < plans[c].shards; ++s) {
        if (plans[c].resumed[s] != 0) report(c, s, /*resumed=*/true);
      }
    }
  }

  // Cost-ordered enqueue (longest-processing-time-first): cells are queued
  // in descending order of estimated remaining work — golden dynamic
  // instructions × pending experiments — so the sweep's long pole starts
  // the moment the pool spins up and the short cells fill the tail of the
  // schedule instead of delaying it. Scheduling order can never change
  // results (each shard writes its own slot and the per-cell merge is in
  // shard order); ties keep addCell order so the task sequence is
  // deterministic.
  std::vector<std::pair<std::size_t, std::size_t>> tasks;
  std::size_t taskCount = 0;
  std::vector<std::uint64_t> cost(nCells, 0);
  for (std::size_t c = 0; c < nCells; ++c) {
    const CellPlan& plan = plans[c];
    taskCount += plan.pending.size();
    // Cells with nothing pending keep cost 0 without touching the workload
    // (a zero-experiment cell never had its workload dereferenced anywhere).
    if (plan.pending.empty()) continue;
    std::size_t pendingExperiments = 0;
    for (const std::size_t s : plan.pending) pendingExperiments += plan.count(s);
    cost[c] = plan.cell->workload->golden().instructions *
              static_cast<std::uint64_t>(pendingExperiments);
  }
  std::vector<std::size_t> order(nCells);
  for (std::size_t c = 0; c < nCells; ++c) order[c] = c;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return cost[a] > cost[b]; });
  tasks.reserve(taskCount);
  for (const std::size_t c : order) {
    for (const std::size_t s : plans[c].pending) tasks.emplace_back(c, s);
  }

  auto runTask = [&](std::size_t t) {
    const auto [c, s] = tasks[t];
    CellPlan& plan = plans[c];
    const SuiteCell& cell = *plan.cell;
    const std::size_t first = plan.first(s);
    const std::size_t last = first + plan.count(s);
    ShardTally& acc = plan.partial[s];
    for (std::size_t i = first; i < last; ++i) {
      const FaultPlan fp =
          FaultPlan::forExperiment(cell.model, plan.candidates, cell.seed, i);
      acc.add(runExperiment(*cell.workload, fp));
    }
    if (config_.record != nullptr &&
        !config_.record->appendShard(plan.meta, s, first, last - first,
                                     {acc.counts, acc.hist}) &&
        !storeWriteFailed.exchange(true)) {
      // Warn once per run: a silently unwritable store would let the user
      // kill the run believing its shards are persisted.
      std::fprintf(stderr,
                   "warning: campaign store '%s' is not recording (write "
                   "failed); this run will NOT be resumable\n",
                   config_.record->path().c_str());
    }
    if (reporting) {
      std::lock_guard lock(progressMutex);
      report(c, s, /*resumed=*/false);
    }
  };

  if (threads > 1 && tasks.size() > 1) {
    util::ThreadPool pool(threads);
    pool.parallelFor(tasks.size(), runTask);
  } else {
    for (std::size_t t = 0; t < tasks.size(); ++t) runTask(t);
  }

  // Assemble per-cell results, merging in shard order (resumed and executed
  // shards alike; shards skipped by a capped run stay zero). Order does not
  // affect the result — integer adds commute — but it is fixed anyway so
  // intermediate states are reproducible.
  std::vector<CampaignResult> results(nCells);
  for (std::size_t c = 0; c < nCells; ++c) {
    const SuiteCell& cell = cells_[c];
    CellPlan& plan = plans[c];
    CampaignResult& result = results[c];
    result.config.model = cell.model;
    result.config.experiments = cell.experiments;
    result.config.seed = cell.seed;
    result.config.threads = config_.threads;
    result.config.shardSize = config_.shardSize;
    result.config.maxShards = config_.maxShards;
    result.resumedExperiments = plan.resumedExperiments;
    for (const std::size_t s : plan.pending) plan.executed[s] = 1;
    for (std::size_t s = 0; s < plan.shards; ++s) {
      if (plan.resumed[s] == 0 && plan.executed[s] == 0) continue;
      result.completedExperiments += plan.count(s);
      result.counts.merge(plan.partial[s].counts);
      mergeHistogram(result.activationHist, plan.partial[s].hist);
      result.prune += plan.partial[s].prune;  // zeros on resumed shards
    }
  }
  return results;
}

}  // namespace onebit::fi
