#include "analytics/aggregate.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <tuple>

#include "stats/serialize.hpp"

namespace onebit::analytics {

namespace {

std::string fmtSize(std::size_t v) { return std::to_string(v); }

std::string fmtU64(std::uint64_t v) { return std::to_string(v); }

/// "12.3%" with the 95% CI, or "-" when the denominator is empty.
std::string sdcCell(const stats::OutcomeCounts& totals) {
  if (totals.total() == 0) return "-";
  const stats::Proportion p = totals.proportion(stats::Outcome::SDC);
  return util::fmtPercent(p.fraction) + " +/-" +
         util::fmtPercent(p.ciHalfWidth);
}

/// Sparse [outcome, bucket, count] triples — the store's "hist" shape.
util::Json sparseHist(const fi::ActivationHistogram& hist) {
  util::Json arr = util::Json::array();
  for (std::size_t o = 0; o < stats::kOutcomeCount; ++o) {
    for (std::size_t k = 0; k <= fi::kMaxActivationBucket; ++k) {
      if (hist[o][k] == 0) continue;
      util::Json cell = util::Json::array();
      cell.push(util::Json::number(static_cast<std::uint64_t>(o)));
      cell.push(util::Json::number(static_cast<std::uint64_t>(k)));
      cell.push(util::Json::number(static_cast<std::uint64_t>(hist[o][k])));
      arr.push(std::move(cell));
    }
  }
  return arr;
}

}  // namespace

void appendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[512];
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n <= 0) return;
  if (static_cast<std::size_t>(n) < sizeof buf) {
    out.append(buf, static_cast<std::size_t>(n));
    return;
  }
  std::string big(static_cast<std::size_t>(n) + 1, '\0');
  va_start(args, fmt);
  std::vsnprintf(big.data(), big.size(), fmt, args);
  va_end(args);
  big.resize(static_cast<std::size_t>(n));
  out += big;
}

std::vector<GroupRow> groupBy(const Dataset& ds, const GroupAxes& axes) {
  std::map<std::tuple<std::string, std::string, unsigned>, GroupRow> groups;
  for (const auto& [key, table] : ds.campaigns()) {
    const std::string workload = axes.workload ? table.workload() : "*";
    const std::string spec = axes.spec ? table.specLabel() : "*";
    const unsigned width = axes.flipWidth ? table.flipWidth() : 0;
    GroupRow& row = groups[{workload, spec, width}];
    row.workload = workload.empty() ? "-" : workload;
    row.spec = spec.empty() ? "-" : spec;
    row.flipWidth = width;
    ++row.campaigns;
    if (table.complete()) ++row.completeCampaigns;
    row.recorded += table.recordedExperiments();
    row.expected += table.expectedExperiments();
    row.totals.merge(table.totals());
    fi::mergeHistogram(row.hist, table.histogram());
  }
  std::vector<GroupRow> rows;
  rows.reserve(groups.size());
  for (auto& [key, row] : groups) rows.push_back(std::move(row));
  return rows;
}

CampaignProgress progressOf(const CampaignTable& table, std::uint64_t nowMs) {
  CampaignProgress p;
  p.key = table.meta.key;
  for (const auto& [range, lease] : table.leases) {
    if (table.shards.count(range) != 0) continue;  // superseded by a shard
    if (lease.deadlineMs > nowMs) {
      ++p.activeLeases;
    } else {
      ++p.expiredLeases;
      p.oldestOverdueMs = std::max(p.oldestOverdueMs, nowMs - lease.deadlineMs);
    }
  }
  for (const auto& [range, quarantine] : table.quarantines) {
    if (table.shards.count(range) == 0) ++p.blockingQuarantines;
  }
  return p;
}

std::vector<WorkerRow> workerRollup(const Dataset& ds, std::uint64_t nowMs) {
  std::map<std::string, WorkerRow> workers;
  for (const auto& [key, table] : ds.campaigns()) {
    for (const auto& [range, lease] : table.leases) {
      if (table.shards.count(range) != 0) {
        // Superseded by a shard record: a completion stamp carrying an
        // observed cost attributes the shard to the worker that ran it.
        if (lease.costMs != 0 && !lease.worker.empty()) {
          WorkerRow& w = workers[lease.worker];
          ++w.shards;
          w.experiments += range.second;
          w.costMs += lease.costMs;
        }
        continue;
      }
      WorkerRow& w = workers[lease.worker.empty() ? "-" : lease.worker];
      if (lease.deadlineMs > nowMs) {
        ++w.activeLeases;
      } else {
        ++w.expiredLeases;
      }
    }
  }
  std::vector<WorkerRow> rows;
  rows.reserve(workers.size());
  for (auto& [id, row] : workers) {
    row.worker = id;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string renderTable(const util::TextTable& table, bool csv) {
  return csv ? table.renderCsv() : table.render();
}

util::TextTable groupTable(const std::vector<GroupRow>& rows) {
  util::TextTable table({"workload", "spec", "width", "campaigns", "complete",
                         "recorded", "expected", "Benign", "Detected", "Hang",
                         "NoOutput", "SDC", "SDC%"});
  for (const GroupRow& row : rows) {
    table.addRow({row.workload, row.spec,
                  row.flipWidth == 0 ? "-" : std::to_string(row.flipWidth),
                  fmtSize(row.campaigns), fmtSize(row.completeCampaigns),
                  fmtSize(row.recorded), fmtSize(row.expected),
                  fmtSize(row.totals.count(stats::Outcome::Benign)),
                  fmtSize(row.totals.count(stats::Outcome::Detected)),
                  fmtSize(row.totals.count(stats::Outcome::Hang)),
                  fmtSize(row.totals.count(stats::Outcome::NoOutput)),
                  fmtSize(row.totals.count(stats::Outcome::SDC)),
                  row.complete() ? sdcCell(row.totals)
                                 : sdcCell(row.totals) + " (partial)"});
  }
  return table;
}

util::Json groupJson(const std::vector<GroupRow>& rows) {
  util::Json out = util::Json::array();
  for (const GroupRow& row : rows) {
    util::Json obj = util::Json::object();
    obj.set("workload", util::Json::string(row.workload));
    obj.set("spec", util::Json::string(row.spec));
    obj.set("flip_width",
            util::Json::number(static_cast<std::uint64_t>(row.flipWidth)));
    obj.set("campaigns",
            util::Json::number(static_cast<std::uint64_t>(row.campaigns)));
    obj.set("complete_campaigns",
            util::Json::number(
                static_cast<std::uint64_t>(row.completeCampaigns)));
    obj.set("recorded",
            util::Json::number(static_cast<std::uint64_t>(row.recorded)));
    obj.set("expected",
            util::Json::number(static_cast<std::uint64_t>(row.expected)));
    obj.set("complete", util::Json::boolean(row.complete()));
    obj.set("outcomes", stats::toJson(row.totals));
    obj.set("hist", sparseHist(row.hist));
    out.push(std::move(obj));
  }
  return out;
}

util::TextTable workerTable(const std::vector<WorkerRow>& rows,
                            std::uint64_t nowMs) {
  (void)nowMs;  // liveness was resolved when the rows were built
  util::TextTable table({"worker", "shards", "experiments", "observed ms",
                         "active leases", "expired leases"});
  for (const WorkerRow& row : rows) {
    table.addRow({row.worker, fmtU64(row.shards), fmtU64(row.experiments),
                  fmtU64(row.costMs), fmtSize(row.activeLeases),
                  fmtSize(row.expiredLeases)});
  }
  return table;
}

util::Json workerJson(const std::vector<WorkerRow>& rows,
                      std::uint64_t nowMs) {
  util::Json out = util::Json::object();
  out.set("now_ms", util::Json::number(nowMs));
  util::Json arr = util::Json::array();
  for (const WorkerRow& row : rows) {
    util::Json obj = util::Json::object();
    obj.set("worker", util::Json::string(row.worker));
    obj.set("shards", util::Json::number(row.shards));
    obj.set("experiments", util::Json::number(row.experiments));
    obj.set("cost_ms", util::Json::number(row.costMs));
    obj.set("active_leases",
            util::Json::number(static_cast<std::uint64_t>(row.activeLeases)));
    obj.set("expired_leases",
            util::Json::number(static_cast<std::uint64_t>(row.expiredLeases)));
    arr.push(std::move(obj));
  }
  out.set("workers", std::move(arr));
  return out;
}

}  // namespace onebit::analytics
