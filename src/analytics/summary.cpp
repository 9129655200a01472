#include "analytics/summary.hpp"

#include <cinttypes>

#include "analytics/aggregate.hpp"
#include "fi/shard_line.hpp"
#include "stats/serialize.hpp"

namespace onebit::analytics {

namespace {

void appendHeader(std::string& out, const Dataset::Source& src,
                  std::size_t campaigns, bool merged) {
  const fi::CampaignStore::LoadStats& s = src.stats;
  if (merged) {
    // Per-source line of a multi-store report: per-source record counts
    // (the campaign tables are merged across sources, so a per-source
    // campaign count would be a lie).
    appendf(out,
            "%s: %zu shard record(s), %zu workload profile(s), %zu "
            "quarantine record(s), %zu malformed, %zu unknown\n",
            src.path.c_str(), s.shardRecords, s.workloadRecords,
            s.quarantineRecords, s.malformed - s.unknownKinds,
            s.unknownKinds);
    return;
  }
  appendf(out,
          "%s: %zu campaign(s), %zu workload profile(s), %zu quarantine "
          "record(s), %zu malformed, %zu unknown\n",
          src.path.c_str(), campaigns, s.workloadRecords, s.quarantineRecords,
          s.malformed - s.unknownKinds, s.unknownKinds);
}

void appendCampaign(std::string& out, const CampaignTable& table,
                    std::uint64_t nowMs) {
  const std::uint64_t recorded = table.recordedExperiments();
  const std::uint64_t expected = table.expectedExperiments();
  const stats::OutcomeCounts totals = table.totals();
  const CampaignProgress progress = progressOf(table, nowMs);
  const double pct = expected != 0 ? 100.0 * static_cast<double>(recorded) /
                                         static_cast<double>(expected)
                                   : 0.0;
  const std::string& workload = table.workload();
  const std::string& spec = table.specLabel();
  appendf(out,
          "  0x%016" PRIx64 " %-14s %-24s %6" PRIu64 "/%-6" PRIu64
          " (%5.1f%%)%s%s",
          table.meta.key, workload.empty() ? "-" : workload.c_str(),
          spec.empty() ? "-" : spec.c_str(), recorded, expected, pct,
          table.submitted ? " [cell]" : "",
          table.complete() ? " [complete]" : "");
  if (progress.activeLeases != 0 || progress.expiredLeases != 0) {
    appendf(out, "  leases: %zu active, %zu expired", progress.activeLeases,
            progress.expiredLeases);
    if (progress.expiredLeases != 0) {
      appendf(out, " (oldest %" PRIu64 " ms overdue)",
              progress.oldestOverdueMs);
    }
  }
  if (progress.blockingQuarantines != 0) {
    appendf(out, "  quarantined: %zu shard(s)", progress.blockingQuarantines);
  }
  out += "\n    ";
  for (std::size_t o = 0; o < stats::kOutcomeCount; ++o) {
    const std::string_view name =
        stats::outcomeName(static_cast<stats::Outcome>(o));
    appendf(out, "%s%.*s=%zu", o == 0 ? "" : " ",
            static_cast<int>(name.size()), name.data(),
            totals.count(static_cast<stats::Outcome>(o)));
  }
  out += "\n";
}

}  // namespace

std::string renderSummaryText(const Dataset& ds, std::uint64_t nowMs) {
  std::string out;
  const bool merged = ds.sources().size() > 1;
  for (const Dataset::Source& src : ds.sources()) {
    if (src.stats.lines() == 0) {
      appendf(out, "%s: empty or missing store\n", src.path.c_str());
      continue;
    }
    appendHeader(out, src, ds.campaigns().size(), merged);
  }
  if (ds.recordLines() == 0) return out;
  if (merged) {
    appendf(out, "merged: %zu campaign(s) across %zu store(s)\n",
            ds.campaigns().size(), ds.sources().size());
  }
  for (const auto& [key, table] : ds.campaigns()) {
    appendCampaign(out, table, nowMs);
  }
  const std::vector<WorkerRow> workers = workerRollup(ds, nowMs);
  if (!workers.empty()) {
    out += "  workers:\n";
    for (const WorkerRow& w : workers) {
      appendf(out,
              "    %-24s %4" PRIu64 " shard(s)  %6" PRIu64
              " experiment(s)  %8" PRIu64 " ms observed",
              w.worker.c_str(), w.shards, w.experiments, w.costMs);
      if (w.activeLeases != 0 || w.expiredLeases != 0) {
        appendf(out, "  leases: %zu active, %zu expired", w.activeLeases,
                w.expiredLeases);
      }
      out += "\n";
    }
  }
  return out;
}

util::Json summaryJson(const Dataset& ds, std::uint64_t nowMs) {
  util::Json out = util::Json::object();
  out.set("now_ms", util::Json::number(nowMs));
  util::Json sources = util::Json::array();
  for (const Dataset::Source& src : ds.sources()) {
    const fi::CampaignStore::LoadStats& s = src.stats;
    util::Json obj = util::Json::object();
    obj.set("path", util::Json::string(src.path));
    obj.set("lines",
            util::Json::number(static_cast<std::uint64_t>(s.lines())));
    obj.set("shard_records",
            util::Json::number(static_cast<std::uint64_t>(s.shardRecords)));
    obj.set("workload_records",
            util::Json::number(
                static_cast<std::uint64_t>(s.workloadRecords)));
    obj.set("cell_records",
            util::Json::number(static_cast<std::uint64_t>(s.cellRecords)));
    obj.set("lease_records",
            util::Json::number(static_cast<std::uint64_t>(s.leaseRecords)));
    obj.set("quarantine_records",
            util::Json::number(
                static_cast<std::uint64_t>(s.quarantineRecords)));
    obj.set("malformed",
            util::Json::number(
                static_cast<std::uint64_t>(s.malformed - s.unknownKinds)));
    obj.set("unknown",
            util::Json::number(static_cast<std::uint64_t>(s.unknownKinds)));
    obj.set("duplicates",
            util::Json::number(static_cast<std::uint64_t>(s.duplicates)));
    sources.push(std::move(obj));
  }
  out.set("sources", std::move(sources));
  util::Json campaigns = util::Json::array();
  for (const auto& [key, table] : ds.campaigns()) {
    const CampaignProgress progress = progressOf(table, nowMs);
    util::Json obj = util::Json::object();
    obj.set("key", util::Json::string(fi::detail::hex64(key)));
    obj.set("workload", util::Json::string(table.workload()));
    obj.set("spec", util::Json::string(table.specLabel()));
    obj.set("seed", util::Json::string(fi::detail::hex64(table.seed())));
    obj.set("flip_width",
            util::Json::number(static_cast<std::uint64_t>(table.flipWidth())));
    obj.set("recorded",
            util::Json::number(
                static_cast<std::uint64_t>(table.recordedExperiments())));
    obj.set("expected",
            util::Json::number(
                static_cast<std::uint64_t>(table.expectedExperiments())));
    obj.set("complete", util::Json::boolean(table.complete()));
    obj.set("submitted", util::Json::boolean(table.submitted));
    obj.set("outcomes", stats::toJson(table.totals()));
    obj.set("active_leases",
            util::Json::number(
                static_cast<std::uint64_t>(progress.activeLeases)));
    obj.set("expired_leases",
            util::Json::number(
                static_cast<std::uint64_t>(progress.expiredLeases)));
    obj.set("oldest_overdue_ms", util::Json::number(progress.oldestOverdueMs));
    obj.set("blocking_quarantines",
            util::Json::number(
                static_cast<std::uint64_t>(progress.blockingQuarantines)));
    campaigns.push(std::move(obj));
  }
  out.set("campaigns", std::move(campaigns));
  util::Json workers = workerJson(workerRollup(ds, nowMs), nowMs);
  const util::Json* rows = workers.find("workers");
  out.set("workers", rows != nullptr ? *rows : util::Json::array());
  return out;
}

}  // namespace onebit::analytics
