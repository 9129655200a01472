// Aggregation over a Dataset: group-by rollups across campaign tables,
// per-campaign progress (leases, quarantines, completion), and the
// per-worker throughput rollup — plus text/CSV/JSON emitters. Everything
// here is a pure function of the Dataset (and, where lease liveness
// matters, an explicit `nowMs`), so reports are reproducible from a store
// file alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analytics/dataset.hpp"
#include "util/jsonl.hpp"
#include "util/table.hpp"

namespace onebit::analytics {

/// Which identity fields a group-by folds on. All off = one grand-total
/// row. Campaign keys always collapse (that is the point of grouping).
struct GroupAxes {
  bool workload = true;
  bool spec = true;
  bool flipWidth = false;
};

/// One group-by row. `totals` sums recorded shards only — when
/// `campaigns != completeCampaigns` the row is PARTIAL and consumers must
/// say so (figure renderers mark such cells "incomplete").
struct GroupRow {
  std::string workload;   ///< "*" when not grouped on
  std::string spec;       ///< "*" when not grouped on
  unsigned flipWidth = 0;  ///< 0 = unknown or not grouped on
  std::size_t campaigns = 0;
  std::size_t completeCampaigns = 0;
  std::size_t recorded = 0;   ///< experiments recorded across the group
  std::size_t expected = 0;   ///< summed campaign sizes (0s excluded)
  stats::OutcomeCounts totals;
  fi::ActivationHistogram hist{};

  [[nodiscard]] bool complete() const noexcept {
    return campaigns != 0 && campaigns == completeCampaigns;
  }
};

/// Fold the Dataset's campaigns on the requested axes. Rows come out
/// sorted by (workload, spec, flipWidth).
std::vector<GroupRow> groupBy(const Dataset& ds, const GroupAxes& axes);

/// Per-campaign live progress, derived the way the store summary always
/// has: a lease superseded by a shard record attributes the shard to its
/// worker; an unsuperseded lease is active (deadline > nowMs) or expired;
/// a quarantine blocks only while no shard record covers its range.
struct CampaignProgress {
  std::uint64_t key = 0;
  std::size_t activeLeases = 0;
  std::size_t expiredLeases = 0;
  std::uint64_t oldestOverdueMs = 0;  ///< max(nowMs - deadline) of expired
  std::size_t blockingQuarantines = 0;
};

CampaignProgress progressOf(const CampaignTable& table, std::uint64_t nowMs);

/// One row of the per-worker rollup, accumulated across all campaigns.
struct WorkerRow {
  std::string worker;             ///< "-" for leases with no worker id
  std::uint64_t shards = 0;       ///< completed shards stamped by the worker
  std::uint64_t experiments = 0;  ///< experiments inside those shards
  std::uint64_t costMs = 0;       ///< summed observed shard cost
  std::size_t activeLeases = 0;
  std::size_t expiredLeases = 0;
};

/// Fold every campaign's leases into per-worker rows, sorted by worker id
/// (same attribution rules as CampaignProgress).
std::vector<WorkerRow> workerRollup(const Dataset& ds, std::uint64_t nowMs);

/// Emitters. renderTable picks text or CSV; the JSON shapes mirror the row
/// structs field for field (64-bit keys as "0x<16 hex>" strings, like the
/// store format, so jq/JS consumers cannot round them).
std::string renderTable(const util::TextTable& table, bool csv);
util::TextTable groupTable(const std::vector<GroupRow>& rows);
util::Json groupJson(const std::vector<GroupRow>& rows);
util::TextTable workerTable(const std::vector<WorkerRow>& rows,
                            std::uint64_t nowMs);
util::Json workerJson(const std::vector<WorkerRow>& rows, std::uint64_t nowMs);

/// printf-append onto a std::string (the figure renderers rebuild driver
/// stdout byte for byte, so they format with the same printf semantics).
void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace onebit::analytics
