#include "analytics/dataset.hpp"

#include <algorithm>

namespace onebit::analytics {

namespace {

using ShardEntry =
    std::map<Range, fi::CampaignStore::ShardAggregate>::value_type;

std::size_t endOf(const ShardEntry* e) {
  return e->first.first + e->first.second;
}

/// The shard records a campaign's tallies count: records whose ranges do
/// not overlap, covering as many experiments as any such set can. Records
/// under one campaign key may overlap — a resume under another shard size
/// re-runs its own ranges and records them beside the old ones — so summing
/// them all would count experiments twice. Every range lies inside
/// [0, experiments), so a set covering all experiments tiles that interval
/// exactly, and by the shard determinism contract every tiling tallies the
/// same.
std::vector<const ShardEntry*> tiling(
    const std::map<Range, fi::CampaignStore::ShardAggregate>& shards) {
  // Weighted interval scheduling, the weight being a record's experiments.
  std::vector<const ShardEntry*> byEnd;
  for (const ShardEntry& e : shards) byEnd.push_back(&e);
  std::stable_sort(byEnd.begin(), byEnd.end(),
                   [](const ShardEntry* a, const ShardEntry* b) {
                     return endOf(a) < endOf(b);
                   });
  // best[i]: most experiments the first i records cover without overlap;
  // before[i]: how many records end at or before record i-1 begins.
  std::vector<std::size_t> best(byEnd.size() + 1, 0);
  std::vector<std::size_t> before(byEnd.size() + 1, 0);
  for (std::size_t i = 1; i <= byEnd.size(); ++i) {
    const Range& r = byEnd[i - 1]->first;
    before[i] = static_cast<std::size_t>(
        std::upper_bound(byEnd.begin(), byEnd.begin() + (i - 1), r.first,
                         [](std::size_t first, const ShardEntry* e) {
                           return first < endOf(e);
                         }) -
        byEnd.begin());
    best[i] = std::max(best[i - 1], best[before[i]] + r.second);
  }
  std::vector<const ShardEntry*> out;
  for (std::size_t i = byEnd.size(); i > 0;) {
    if (best[i] == best[i - 1]) {
      --i;
    } else {
      out.push_back(byEnd[i - 1]);
      i = before[i];
    }
  }
  return out;
}

}  // namespace

std::size_t CampaignTable::recordedExperiments() const {
  std::size_t total = 0;
  for (const ShardEntry* e : tiling(shards)) total += e->first.second;
  return total;
}

stats::OutcomeCounts CampaignTable::totals() const {
  stats::OutcomeCounts counts;
  for (const ShardEntry* e : tiling(shards)) counts.merge(e->second.counts);
  return counts;
}

fi::ActivationHistogram CampaignTable::histogram() const {
  fi::ActivationHistogram hist{};
  for (const ShardEntry* e : tiling(shards)) {
    fi::mergeHistogram(hist, e->second.hist);
  }
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
