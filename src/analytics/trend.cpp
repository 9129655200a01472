#include "analytics/trend.hpp"

#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "analytics/aggregate.hpp"
#include "analytics/dataset.hpp"
#include "fi/shard_line.hpp"

namespace onebit::analytics {

namespace {

/// One campaign cell's state in one snapshot.
struct TrendPoint {
  std::size_t recorded = 0;
  std::size_t expected = 0;
  bool complete = false;
  double sdc = 0.0;  ///< recorded-shards SDC fraction
};

struct TrendData {
  std::vector<std::string> paths;
  // key → per-snapshot point (nullopt = cell absent from that snapshot).
  std::map<std::uint64_t, std::vector<std::optional<TrendPoint>>> cells;
  std::map<std::uint64_t, std::pair<std::string, std::string>> identity;
};

TrendData collectStores(const std::vector<std::string>& paths) {
  TrendData data;
  data.paths = paths;
  for (std::size_t s = 0; s < paths.size(); ++s) {
    Dataset ds;
    ds.addStore(paths[s]);
    for (const auto& [key, table] : ds.campaigns()) {
      auto [it, inserted] = data.cells.try_emplace(
          key, std::vector<std::optional<TrendPoint>>(paths.size()));
      TrendPoint point;
      point.recorded = table.recordedExperiments();
      point.expected = table.expectedExperiments();
      point.complete = table.complete();
      point.sdc =
          table.totals().proportion(stats::Outcome::SDC).fraction;
      it->second[s] = point;
      auto& id = data.identity[key];
      if (id.first.empty()) id.first = table.workload();
      if (id.second.empty()) id.second = table.specLabel();
    }
  }
  return data;
}

std::string pointCell(const std::optional<TrendPoint>& point) {
  if (!point) return "-";
  if (point->complete) return util::fmtPercent(point->sdc);
  return util::fmtPercent(point->sdc) + " (partial " +
         std::to_string(point->recorded) + "/" +
         std::to_string(point->expected) + ")";
}

/// First and last snapshot where the cell is complete; delta only between
/// two DIFFERENT complete snapshots (comparing a partial tally would
/// manufacture a trend out of missing data).
std::string deltaCell(const std::vector<std::optional<TrendPoint>>& points) {
  const TrendPoint* first = nullptr;
  const TrendPoint* last = nullptr;
  for (const auto& point : points) {
    if (!point || !point->complete) continue;
    if (first == nullptr) {
      first = &*point;
    } else {
      last = &*point;
    }
  }
  if (first == nullptr || last == nullptr) return "-";
  const double delta = (last->sdc - first->sdc) * 100.0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1fpp", delta);
  return buf;
}

/// Slurp and parse one whole (possibly pretty-printed, multi-line) JSON
/// document; nullopt when missing or malformed.
std::optional<util::Json> readJsonFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) != 0) {
    text.append(buf, got);
  }
  std::fclose(f);
  return util::Json::parse(text);
}

void flattenNumbers(const util::Json& value, const std::string& prefix,
                    std::map<std::string, double>& out) {
  if (value.isNumber()) {
    out[prefix] = value.asDouble();
    return;
  }
  if (value.isObject()) {
    for (const auto& [key, member] : value.members()) {
      flattenNumbers(member, prefix.empty() ? key : prefix + "." + key, out);
    }
    return;
  }
  if (value.isArray()) {
    std::size_t i = 0;
    for (const util::Json& item : value.items()) {
      flattenNumbers(item, prefix + "[" + std::to_string(i++) + "]", out);
    }
  }
}

}  // namespace

util::TextTable storeTrendTable(const std::vector<std::string>& paths) {
  const TrendData data = collectStores(paths);
  std::vector<std::string> header = {"key", "workload", "spec"};
  for (const std::string& path : paths) header.push_back(path);
  header.push_back("ΔSDC");
  util::TextTable table(header);
  for (const auto& [key, points] : data.cells) {
    const auto& [workload, spec] = data.identity.at(key);
    std::vector<std::string> row = {fi::detail::hex64(key),
                                    workload.empty() ? "-" : workload,
                                    spec.empty() ? "-" : spec};
    for (const auto& point : points) row.push_back(pointCell(point));
    row.push_back(deltaCell(points));
    table.addRow(std::move(row));
  }
  return table;
}

util::Json storeTrendJson(const std::vector<std::string>& paths) {
  const TrendData data = collectStores(paths);
  util::Json out = util::Json::object();
  util::Json stores = util::Json::array();
  for (const std::string& path : paths) {
    stores.push(util::Json::string(path));
  }
  out.set("stores", std::move(stores));
  util::Json cells = util::Json::array();
  for (const auto& [key, points] : data.cells) {
    const auto& [workload, spec] = data.identity.at(key);
    util::Json cell = util::Json::object();
    cell.set("key", util::Json::string(fi::detail::hex64(key)));
    cell.set("workload", util::Json::string(workload));
    cell.set("spec", util::Json::string(spec));
    util::Json arr = util::Json::array();
    for (const auto& point : points) {
      if (!point) {
        arr.push(util::Json());
        continue;
      }
      util::Json p = util::Json::object();
      p.set("recorded",
            util::Json::number(static_cast<std::uint64_t>(point->recorded)));
      p.set("expected",
            util::Json::number(static_cast<std::uint64_t>(point->expected)));
      p.set("complete", util::Json::boolean(point->complete));
      p.set("sdc", util::Json::number(point->sdc));
      arr.push(std::move(p));
    }
    cell.set("points", std::move(arr));
    cells.push(std::move(cell));
  }
  out.set("cells", std::move(cells));
  return out;
}

util::TextTable benchTrendTable(const std::vector<std::string>& paths) {
  // metric path → per-file value.
  std::map<std::string, std::vector<std::optional<double>>> metrics;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const std::optional<util::Json> doc = readJsonFile(paths[i]);
    if (!doc) continue;
    std::map<std::string, double> flat;
    flattenNumbers(*doc, "", flat);
    for (const auto& [path, value] : flat) {
      auto [it, inserted] = metrics.try_emplace(
          path, std::vector<std::optional<double>>(paths.size()));
      it->second[i] = value;
    }
  }
  std::vector<std::string> header = {"metric"};
  for (const std::string& path : paths) header.push_back(path);
  header.push_back("Δ(last-first)");
  util::TextTable table(header);
  for (const auto& [path, values] : metrics) {
    std::vector<std::string> row = {path};
    for (const auto& value : values) {
      row.push_back(value ? util::fmtDouble(*value) : "-");
    }
    const std::optional<double>* first = nullptr;
    const std::optional<double>* last = nullptr;
    for (const auto& value : values) {
      if (!value) continue;
      if (first == nullptr) {
        first = &value;
      } else {
        last = &value;
      }
    }
    row.push_back(first != nullptr && last != nullptr
                      ? util::fmtDouble(**last - **first)
                      : "-");
    table.addRow(std::move(row));
  }
  return table;
}

}  // namespace onebit::analytics
