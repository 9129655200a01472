#include "analytics/dataset.hpp"

namespace onebit::analytics {

std::size_t CampaignTable::recordedExperiments() const {
  std::size_t total = 0;
  for (const auto& [range, agg] : shards) total += range.second;
  return total;
}

stats::OutcomeCounts CampaignTable::totals() const {
  stats::OutcomeCounts counts;
  for (const auto& [range, agg] : shards) counts.merge(agg.counts);
  return counts;
}

fi::ActivationHistogram CampaignTable::histogram() const {
  fi::ActivationHistogram hist{};
  for (const auto& [range, agg] : shards) fi::mergeHistogram(hist, agg.hist);
  return hist;
}

bool CampaignTable::complete() const {
  const std::size_t expected = expectedExperiments();
  return expected != 0 && recordedExperiments() == expected;
}

std::size_t CampaignTable::expectedExperiments() const {
  if (meta.experiments != 0) return meta.experiments;
  return submitted ? cell.experiments : 0;
}

const std::string& CampaignTable::workload() const {
  if (!meta.workload.empty()) return meta.workload;
  return submitted ? cell.workload : meta.workload;
}

const std::string& CampaignTable::specLabel() const {
  if (!meta.specLabel.empty()) return meta.specLabel;
  return submitted ? cell.spec : meta.specLabel;
}

std::uint64_t CampaignTable::seed() const {
  if (meta.experiments != 0) return meta.seed;
  return submitted ? cell.seed : meta.seed;
}

Dataset::Dataset() = default;
Dataset::~Dataset() = default;

std::size_t Dataset::addStore(const std::string& path) {
  // Buffered mode on purpose: a Dataset never appends, so no writer stream
  // is opened and no ".lock" sibling is created — reading a store a live
  // fleet is appending to cannot block or interfere with the workers.
  auto store = std::make_unique<fi::CampaignStore>(
      path, fi::CampaignStore::WriteMode::Buffered);
  sources_.push_back(Source{path, store->load()});
  ingest(store->snapshot());
  stores_.push_back(std::move(store));
  storeSource_.push_back(sources_.size() - 1);
  return sources_.size() - 1;
}

std::size_t Dataset::addSnapshot(const fi::CampaignStore::Snapshot& snap,
                                 std::string label) {
  fi::CampaignStore::LoadStats stats;
  for (const auto& [key, campaign] : snap.campaigns) {
    stats.shardRecords += campaign.shards.size();
    stats.cellRecords += campaign.cell.has_value() ? 1 : 0;
    stats.leaseRecords += campaign.leases.size();
    stats.quarantineRecords += campaign.quarantines.size();
  }
  stats.workloadRecords = snap.workloads.size();
  sources_.push_back(Source{std::move(label), stats});
  ingest(snap);
  return sources_.size() - 1;
}

void Dataset::poll() {
  for (std::size_t i = 0; i < stores_.size(); ++i) {
    const fi::CampaignStore::LoadStats delta = stores_[i]->refresh();
    sources_[storeSource_[i]].stats += delta;
    if (delta.lines() != 0) ingest(stores_[i]->snapshot());
  }
}

std::size_t Dataset::recordLines() const {
  std::size_t total = 0;
  for (const Source& src : sources_) total += src.stats.lines();
  return total;
}

std::vector<const CampaignTable*> Dataset::match(
    std::string_view workload, std::string_view specLabel, std::uint64_t seed,
    std::size_t experiments) const {
  std::vector<const CampaignTable*> out;
  for (const auto& [key, table] : campaigns_) {
    if (table.expectedExperiments() != experiments) continue;
    if (table.workload() != workload) continue;
    if (table.specLabel() != specLabel) continue;
    if (table.seed() != seed) continue;
    out.push_back(&table);
  }
  return out;
}

void Dataset::ingest(const fi::CampaignStore::Snapshot& snap) {
  for (const auto& [key, campaign] : snap.campaigns) {
    CampaignTable& table = campaigns_[key];
    table.meta.key = key;
    // Meta: first source with a real shard record wins; a key known so far
    // only through scheduling records adopts the first meta that arrives.
    if (table.meta.experiments == 0 && campaign.meta.experiments != 0) {
      table.meta = campaign.meta;
    }
    if (campaign.cell && !table.submitted) {
      table.submitted = true;
      table.cell = *campaign.cell;
    }
    // Shards: first-wins per range — the store's own load() rule, so a
    // compacted store, a re-polled store, and N shard-overlapping stores
    // all merge to the same table.
    for (const auto& [range, agg] : campaign.shards) {
      table.shards.try_emplace(range, agg);
    }
    // Leases: newest-wins per range by (epoch, deadline); on a full tie
    // prefer the record carrying an observed cost. Idempotent: re-ingesting
    // an identical record changes nothing.
    for (const auto& [range, lease] : campaign.leases) {
      auto [it, inserted] = table.leases.try_emplace(range, lease);
      if (inserted) continue;
      fi::CampaignStore::LeaseRecord& cur = it->second;
      if (lease.epoch > cur.epoch ||
          (lease.epoch == cur.epoch && lease.deadlineMs > cur.deadlineMs) ||
          (lease.epoch == cur.epoch && lease.deadlineMs == cur.deadlineMs &&
           cur.costMs == 0 && lease.costMs != 0)) {
        cur = lease;
      }
    }
    // Quarantines: the higher cumulative crash count is the newer verdict.
    for (const auto& [range, quarantine] : campaign.quarantines) {
      auto [it, inserted] = table.quarantines.try_emplace(range, quarantine);
      if (!inserted && quarantine.crashes > it->second.crashes) {
        it->second = quarantine;
      }
    }
  }
  for (const auto& [name, record] : snap.workloads) {
    workloads_.try_emplace(name, record);
  }
}

}  // namespace onebit::analytics
