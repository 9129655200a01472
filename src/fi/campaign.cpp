#include "fi/campaign.hpp"

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "fi/campaign_store.hpp"
#include "fi/suite.hpp"
#include "util/bitops.hpp"
#include "util/thread_pool.hpp"

namespace onebit::fi {

void mergeHistogram(ActivationHistogram& into,
                    const ActivationHistogram& from) noexcept {
  for (std::size_t o = 0; o < stats::kOutcomeCount; ++o) {
    for (std::size_t k = 0; k <= kMaxActivationBucket; ++k) {
      into[o][k] += from[o][k];
    }
  }
}

std::size_t resolveThreads(std::size_t requested) noexcept {
  const std::size_t threads =
      requested != 0
          ? requested
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return std::min(threads, util::ThreadPool::kMaxThreads);
}

std::size_t resolveShardSize(std::size_t experiments,
                             std::size_t requested) noexcept {
  if (requested != 0) {
    // Clamp so a shard count can never overflow to 0 while experiments > 0
    // (e.g. requested == SIZE_MAX making `experiments + requested - 1` wrap).
    return std::clamp<std::size_t>(requested, 1,
                                   std::max<std::size_t>(1, experiments));
  }
  // Auto geometry must be a function of the campaign alone — NOT of the
  // thread count — or a store recorded on one machine would silently fail
  // to resume on another (shard records match by exact experiment range).
  // ~64 shards per campaign balances load across shards of uneven cost on
  // any sane core count; the floor keeps tiny campaigns from paying
  // per-task overhead per experiment, the ceiling keeps progress
  // callbacks flowing on huge ones.
  constexpr std::size_t kTargetShards = 64;
  return std::clamp<std::size_t>(util::ceilDiv(experiments, kTargetShards),
                                 16, 4096);
}

CampaignEngine::CampaignEngine(CampaignConfig config)
    : config_(std::move(config)) {
  threads_ = resolveThreads(config_.threads);
  shardSize_ = resolveShardSize(config_.experiments, config_.shardSize);
}

CampaignEngine& CampaignEngine::onShardDone(ProgressCallback cb) {
  progress_ = std::move(cb);
  return *this;
}

CampaignEngine& CampaignEngine::recordTo(CampaignStore& store,
                                         std::string workloadName) {
  record_ = &store;
  recordWorkload_ = std::move(workloadName);
  return *this;
}

CampaignEngine& CampaignEngine::resumeFrom(const CampaignStore& store) {
  resume_ = &store;
  return *this;
}

CampaignEngine& CampaignEngine::withStore(const StoreBinding& binding) {
  if (binding.store == nullptr) return *this;
  recordTo(*binding.store, binding.workload);
  if (binding.resume) resumeFrom(*binding.store);
  return *this;
}

std::size_t CampaignEngine::shardCount() const noexcept {
  return util::ceilDiv(config_.experiments, shardSize_);
}

CampaignResult CampaignEngine::run(const Workload& workload) const {
  // A campaign is a single-cell suite: fi/suite.cpp owns the scheduler, the
  // resume partition, and the shard execution loop, so solo and suite mode
  // cannot drift apart.
  SuiteConfig cfg;
  cfg.threads = config_.threads;
  cfg.shardSize = config_.shardSize;
  cfg.maxShards = config_.maxShards;
  cfg.record = record_;
  cfg.resume = resume_;
  CampaignSuite suite(cfg);
  suite.addCell(SuiteCell{config_.model.label(), &workload, config_.model,
                          config_.experiments, config_.seed, recordWorkload_});
  if (progress_ != nullptr) suite.onShardDone(progress_);
  std::vector<CampaignResult> results = suite.run();
  CampaignResult result = std::move(results.front());
  result.config = config_;  // preserve the caller's exact config verbatim
  return result;
}

CampaignResult runCampaign(const Workload& workload,
                           const CampaignConfig& config) {
  return CampaignEngine(config).run(workload);
}

}  // namespace onebit::fi
