// Campaign suites: N campaigns ("cells") scheduled as ONE unit.
//
// The paper's artifacts are cross-products — every Table II workload × every
// fault model × sweep axes like flip width and hang factor (§III-E,
// Figs. 1–5) — not single campaigns. Running such a sweep as a sequence of
// CampaignEngine::run() calls puts a thread-pool drain barrier after every
// campaign: while the tail shards of campaign k finish, every other worker
// idles instead of starting campaign k+1. A CampaignSuite takes the whole
// sweep declaratively — one cell per campaign — and interleaves *all* shards
// from *all* cells onto a single shared util::ThreadPool, so the only
// barrier is the one at the end of the suite.
//
// Determinism contract (extends fi/campaign.hpp): a cell's outcome counts
// and activation histogram depend ONLY on its (model, experiments, seed).
// Cells share the pool but no state; shard aggregates land in per-cell
// per-shard slots and are merged in shard order per cell. Suite-mode output
// is therefore bit-identical to running each campaign alone through
// runCampaign()/CampaignEngine — for any thread count, shard size, cell
// order, and cell mix. Store records are unchanged as well (each cell keeps
// its own campaign key), so a store written in suite mode resumes in solo
// mode and vice versa.
//
// Scheduling: cells are enqueued longest-estimated-first (estimated cost =
// the workload's golden dynamic instruction count × the cell's pending
// experiments — the classic LPT makespan heuristic), so the most expensive
// cell starts the moment the pool spins up regardless of addCell order, and
// cheap cells pack the tail of the schedule instead of delaying the long
// pole. Ties keep addCell order; scheduling order never affects results.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fi/campaign.hpp"
#include "fi/campaign_store.hpp"

namespace onebit::fi {

/// One campaign of a suite: a fault-model cell of the sweep cross-product.
/// `workload` must outlive CampaignSuite::run().
struct SuiteCell {
  std::string label;  ///< shown by progress callbacks; free-form
  const Workload* workload = nullptr;
  FaultModel model;
  std::size_t experiments = 0;
  std::uint64_t seed = 0;
  /// Workload name stamped into store records (the `workload` field of
  /// shard records); keep it equal to what solo-mode callers pass to
  /// CampaignEngine::recordTo so records are identical across modes.
  std::string storeName;
};

/// The tally of one shard, kept by every shard loop: CampaignSuite's and each
/// FleetWorker's, so a fleet shard record is field for field what a solo run
/// writes. `counts` and `hist` are the record; the prune counters never
/// enter it.
struct ShardTally {
  stats::OutcomeCounts counts;
  ActivationHistogram hist{};
  PruneStats prune;

  void add(const ExperimentResult& r) noexcept {
    counts.add(r.outcome);
    const unsigned bucket = std::min(r.activations, kMaxActivationBucket);
    ++hist[static_cast<std::size_t>(r.outcome)][bucket];
    switch (r.prune) {
      case PruneEvent::None: break;
      case PruneEvent::GoldenMatch: ++prune.goldenHits; break;
      case PruneEvent::Miss: ++prune.misses; break;
    }
    if (r.hangProof) ++prune.hangProofs;
  }
};

/// Suite-level progress snapshot, delivered once per tallied shard (fresh or
/// resumed). Callbacks are serialized; `cellLabel` is only valid for the
/// duration of the callback.
struct SuiteProgress {
  std::size_t cellIndex;         ///< which cell the shard belongs to
  const std::string& cellLabel;  ///< that cell's label
  std::size_t cellCompletedExperiments;
  std::size_t cellTotalExperiments;
  std::size_t completedCells;  ///< cells fully tallied so far
  std::size_t cellCount;       ///< cells in the suite
  std::size_t suiteCompletedExperiments;
  std::size_t suiteTotalExperiments;
  bool resumed;  ///< this shard was merged from the results store
  /// Experiments short-circuited by outcome-equivalence pruning so far
  /// (across the whole suite, fresh shards only; 0 without a pruning
  /// workload).
  std::size_t suiteShortCircuited;
};

/// Knobs shared by every cell of a suite. Per-cell geometry (shard size,
/// shard count) is still resolved per cell from `shardSize` and the cell's
/// experiment count, exactly as CampaignEngine would, so store geometry is
/// identical across modes.
struct SuiteConfig {
  std::size_t threads = 0;    ///< shared pool size; 0 = hardware concurrency
  std::size_t shardSize = 0;  ///< experiments per shard; 0 = per-cell auto
  std::size_t maxShards = 0;  ///< per-cell cap on freshly executed shards
  CampaignStore* record = nullptr;        ///< append completed shards here
  const CampaignStore* resume = nullptr;  ///< merge recorded shards from here

  /// Apply a StoreBinding: record to binding.store and, when binding.resume,
  /// resume from it. Inert on a null binding. (binding.workload is ignored —
  /// suites stamp each cell's own storeName into records.)
  SuiteConfig& withStore(const StoreBinding& binding) {
    if (binding.store == nullptr) return *this;
    record = binding.store;
    if (binding.resume) resume = binding.store;
    return *this;
  }
};

/// Declarative multi-campaign scheduler. Add cells, then run() once: every
/// cell's shards execute interleaved on one pool, and each cell yields the
/// same CampaignResult a solo CampaignEngine run would.
class CampaignSuite {
 public:
  using ProgressCallback = std::function<void(const SuiteProgress&)>;

  explicit CampaignSuite(SuiteConfig config = {});

  /// Queue one campaign cell; returns its index into run()'s result vector.
  std::size_t addCell(SuiteCell cell);
  std::size_t addCell(std::string label, const Workload& workload,
                      FaultModel model, std::size_t experiments,
                      std::uint64_t seed, std::string storeName = {});

  /// Install the suite-level progress callback (serialized; one call per
  /// tallied shard). Returns *this.
  CampaignSuite& onProgress(ProgressCallback cb);

  /// Install a per-shard callback receiving cell-local ShardProgress — the
  /// same snapshot a solo CampaignEngine would deliver for that cell.
  /// Serialized together with onProgress. Returns *this.
  CampaignSuite& onShardDone(CampaignEngine::ProgressCallback cb);

  [[nodiscard]] std::size_t cellCount() const noexcept {
    return cells_.size();
  }
  [[nodiscard]] std::size_t totalExperiments() const noexcept;
  [[nodiscard]] const SuiteCell& cell(std::size_t idx) const {
    return cells_[idx];
  }

  /// Run every cell and return one CampaignResult per cell, in addCell()
  /// order. Callable repeatedly (results are recomputed each time).
  [[nodiscard]] std::vector<CampaignResult> run() const;

 private:
  SuiteConfig config_;
  std::vector<SuiteCell> cells_;
  ProgressCallback progress_;
  CampaignEngine::ProgressCallback shardProgress_;
};

}  // namespace onebit::fi
