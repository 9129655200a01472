// Campaigns: N independent experiments under one fault model (§III-E),
// executed as fixed-size shards of experiments batched onto a thread pool.
//
// Determinism contract: the outcome counts and activation histogram of a
// campaign depend ONLY on (model, experiments, seed). Experiment i derives its
// fault plan — and therefore its entire RNG stream — from (seed, i) alone, and
// shard aggregates are merged with commutative integer additions, so `threads`
// and `shardSize` affect scheduling and progress granularity but never the
// result. runCampaign(w, c) is bit-identical for every threads/shardSize
// combination.
//
// Checkpoint/resume rides on the shard boundary: bind a CampaignStore
// (fi/campaign_store.hpp) with recordTo()/resumeFrom() and every completed
// shard is persisted, while shards already in the store are merged from it
// instead of re-executed. Because a shard's aggregates depend only on
// (model, seed, experiment range), a campaign interrupted after k shards and
// resumed later is bit-identical to an uninterrupted run.
//
// Multi-campaign sweeps should not call run() in a loop — that puts a
// thread-pool drain barrier after every campaign. Declare the whole sweep
// as a fi::CampaignSuite (fi/suite.hpp) instead; CampaignEngine::run() is
// itself a single-cell suite, so both paths share one scheduler and one
// determinism contract.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "fi/experiment.hpp"

namespace onebit::fi {

class CampaignStore;
struct StoreBinding;

struct CampaignConfig {
  FaultModel model;
  std::size_t experiments = 1000;
  std::uint64_t seed = 0x0b17f11e;  ///< campaign master seed
  std::size_t threads = 0;          ///< 0 = hardware concurrency
  std::size_t shardSize = 0;        ///< experiments per shard; 0 = auto
  /// Stop after this many freshly executed shards (0 = run to completion).
  /// A capped run yields a partial result (complete() == false); with a
  /// bound store it checkpoints exactly the shards it ran — the knob that
  /// makes interruption testable without killing the process.
  std::size_t maxShards = 0;
};

/// Resolve a requested worker-thread count: 0 picks hardware concurrency;
/// the result is clamped to [1, util::ThreadPool::kMaxThreads].
std::size_t resolveThreads(std::size_t requested) noexcept;

/// Resolve the per-campaign shard size. A nonzero request is clamped to
/// [1, experiments]; 0 selects the auto heuristic (~64 shards per campaign,
/// floor 16, ceiling 4096). Deliberately independent of the thread count so
/// store shard geometry is stable across machines.
std::size_t resolveShardSize(std::size_t experiments,
                             std::size_t requested) noexcept;

/// Histogram of activation counts by outcome (rows: outcome, cols: number of
/// activated errors, saturating at kMaxActivationBucket).
inline constexpr unsigned kMaxActivationBucket = 31;

/// hist[outcome][k] = experiments with that outcome that activated k errors
/// (k saturates at kMaxActivationBucket).
using ActivationHistogram =
    std::array<std::array<std::uint32_t, kMaxActivationBucket + 1>,
               stats::kOutcomeCount>;

/// Element-wise accumulate `from` into `into`.
void mergeHistogram(ActivationHistogram& into,
                    const ActivationHistogram& from) noexcept;

/// How outcome-equivalence pruning resolved the freshly executed experiments
/// of a campaign (resumed shards contribute nothing — they never ran). Each
/// experiment's event depends only on its plan and workload, so the counts
/// do not depend on threads or shard size. They never enter store records:
/// a shard record must not depend on whether its workload prunes.
struct PruneStats {
  std::size_t goldenHits = 0;  ///< short-circuited by a golden-snapshot match
  std::size_t misses = 0;      ///< compared with no match, ran to completion
  /// Ended by a hang proof (ExperimentResult::hangProof). Counted with or
  /// without pruning: a run that reaches a proof checkpoint was never
  /// pruned.
  std::size_t hangProofs = 0;
  /// Ended FuelExhausted (a Hang) without a proof: the run interpreted its
  /// whole budget.
  std::size_t hangsUnproven = 0;
  PruneStats& operator+=(const PruneStats& o) noexcept {
    goldenHits += o.goldenHits;
    misses += o.misses;
    hangProofs += o.hangProofs;
    hangsUnproven += o.hangsUnproven;
    return *this;
  }
  bool operator==(const PruneStats&) const = default;
};

struct CampaignResult {
  CampaignConfig config;
  stats::OutcomeCounts counts;
  ActivationHistogram activationHist{};
  PruneStats prune;  ///< zeros unless the workload prunes
  /// Experiments tallied into `counts` — executed this run plus resumed
  /// from the store. Less than config.experiments after a capped run.
  std::size_t completedExperiments = 0;
  /// Of `completedExperiments`, how many were merged from a store record
  /// instead of executed.
  std::size_t resumedExperiments = 0;

  /// True when every experiment of the campaign is tallied (a partial,
  /// shard-capped checkpoint run returns false).
  [[nodiscard]] bool complete() const noexcept {
    return completedExperiments == config.experiments;
  }

  [[nodiscard]] stats::Proportion sdc() const {
    return counts.proportion(stats::Outcome::SDC);
  }
};

/// Snapshot delivered to the progress callback when a shard finishes.
/// `shardCounts` references the finished shard's local tally and is only
/// valid for the duration of the callback. Callbacks are serialized (never
/// concurrent), but shards complete in scheduling order, so `shardIndex` is
/// not monotonic; use `completedExperiments`/`totalExperiments` for progress.
struct ShardProgress {
  std::size_t shardIndex;            ///< which shard finished
  std::size_t shardCount;            ///< total shards in the campaign
  std::size_t firstExperiment;       ///< first experiment index of the shard
  std::size_t shardExperiments;      ///< experiments in this shard
  std::size_t completedShards;       ///< shards finished so far (inclusive)
  std::size_t completedExperiments;  ///< experiments finished so far
  std::size_t totalExperiments;      ///< config.experiments
  const stats::OutcomeCounts& shardCounts;  ///< this shard's local tally
  bool resumed = false;  ///< merged from the results store, not executed
};

/// Runs a campaign as shards: experiments are partitioned into contiguous
/// fixed-size shards, each shard executes as one thread-pool task and
/// aggregates its own OutcomeCounts/activation histogram locally, and the
/// per-shard aggregates are merged once at the end — no shared per-experiment
/// buffer and no serial post-hoc reduction over N experiments.
class CampaignEngine {
 public:
  using ProgressCallback = std::function<void(const ShardProgress&)>;

  explicit CampaignEngine(CampaignConfig config);

  /// Install a callback invoked after each shard completes (from worker
  /// threads, serialized under an internal mutex). Returns *this.
  CampaignEngine& onShardDone(ProgressCallback cb);

  /// Persist every freshly completed shard to `store` (one flushed JSONL
  /// record per shard; see fi/campaign_store.hpp). `workloadName` is
  /// stamped into the records for human readers and plotting scripts.
  /// The store must outlive run(). Returns *this.
  CampaignEngine& recordTo(CampaignStore& store, std::string workloadName = {});

  /// Resume from `store`: shards whose (campaign key, experiment range)
  /// are already recorded are merged from the store instead of executed.
  /// Combined with recordTo() on the same store, an interrupted campaign
  /// picks up exactly where it stopped. The store must outlive run().
  /// Returns *this.
  CampaignEngine& resumeFrom(const CampaignStore& store);

  /// Apply a StoreBinding: recordTo(binding.store) and, when
  /// binding.resume, resumeFrom(binding.store). Inert on a null binding.
  CampaignEngine& withStore(const StoreBinding& binding);

  /// Worker threads used by run() (resolved, always >= 1).
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }
  /// Experiments per shard (resolved, always >= 1).
  [[nodiscard]] std::size_t shardSize() const noexcept { return shardSize_; }
  /// Number of shards run() will execute.
  [[nodiscard]] std::size_t shardCount() const noexcept;

  CampaignResult run(const Workload& workload) const;

 private:
  CampaignConfig config_;
  std::size_t threads_ = 1;
  std::size_t shardSize_ = 1;
  ProgressCallback progress_;
  CampaignStore* record_ = nullptr;
  const CampaignStore* resume_ = nullptr;
  std::string recordWorkload_;
};

/// Run a campaign with the default engine (no progress callback). See the
/// determinism contract at the top of this header.
CampaignResult runCampaign(const Workload& workload,
                           const CampaignConfig& config);

}  // namespace onebit::fi
