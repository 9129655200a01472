// Store-backed analytics CLI: regenerate paper figures, summarize and
// group campaign stores, roll up fleet workers, track trends across store
// snapshots or BENCH_*.json artifacts, and watch a live fleet store.
//
// Everything is read-only over src/analytics/ (see docs/ARCHITECTURE.md,
// "Analytics"): stores are opened without a writer stream or lock file, so
// pointing this tool — including --watch — at a store a fleet is actively
// appending to never blocks a worker. Figure output is byte-identical to
// the corresponding bench driver's stdout when the store holds every cell
// (CI diffs them); otherwise affected cells carry explicit
// "incomplete(recorded/expected)" markers and the exit code is 3.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "analytics/aggregate.hpp"
#include "analytics/dataset.hpp"
#include "analytics/figures.hpp"
#include "analytics/knobs.hpp"
#include "analytics/summary.hpp"
#include "analytics/trend.hpp"
#include "fi/fleet.hpp"
#include "util/file_lock.hpp"

namespace {

using namespace onebit;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [MODE] [OPTIONS] STORE.jsonl...\n"
      "modes (default --summary):\n"
      "  --summary        per-campaign completion, outcomes, leases, workers\n"
      "  --figure ID      regenerate a paper figure from the store(s); IDs:\n"
      "                   %.*s\n"
      "  --group          (workload x spec) roll-up across all stores\n"
      "  --workers        per-worker shard/experiment/cost roll-up\n"
      "  --trend          per-campaign trend across the stores, in arg order\n"
      "  --bench-trend    numeric-leaf trend across BENCH_*.json files\n"
      "  --watch          live dashboard: poll the stores and redraw\n"
      "options:\n"
      "  --csv            CSV tables (equivalent to ONEBIT_CSV=1)\n"
      "  --json           JSON output (summary, group, workers, trend)\n"
      "  --interval MS    watch poll interval, 1 or more (default 2000)\n"
      "  --once           render a single watch frame and exit\n"
      "exit status: 0 ok, 2 usage or bad ONEBIT_* knob, 3 figure incomplete\n"
      "The ONEBIT_SEED/EXPERIMENTS/PROGRAMS/SPECS/FLIP_WIDTH knobs select\n"
      "which campaign cells --figure resolves; set them to what the bench\n"
      "driver ran under.\n",
      argv0, static_cast<int>(analytics::figureIds().size()),
      analytics::figureIds().data());
  return 2;
}

void watchFrame(analytics::Dataset& ds, bool csv) {
  const std::uint64_t nowMs = util::wallClockMs();
  std::printf("=== onebit report --watch (t=%" PRIu64
              " ms, %zu record line(s)) ===\n",
              nowMs, ds.recordLines());
  std::fputs(analytics::renderSummaryText(ds, nowMs).c_str(), stdout);
  const std::vector<analytics::GroupRow> rows =
      analytics::groupBy(ds, analytics::GroupAxes{});
  if (!rows.empty()) {
    std::fputs(
        analytics::renderTable(analytics::groupTable(rows), csv).c_str(),
        stdout);
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  analytics::checkKnobs();
  std::string mode = "--summary";
  std::string figureId;
  bool csv = analytics::csvEnabled();
  bool json = false;
  bool once = false;
  std::uint64_t intervalMs = 2000;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(argv[0]);
    if (arg == "--summary" || arg == "--group" || arg == "--workers" ||
        arg == "--trend" || arg == "--bench-trend" || arg == "--watch") {
      mode = arg;
    } else if (arg == "--figure") {
      if (++i >= argc) return usage(argv[0]);
      mode = arg;
      figureId = argv[i];
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--interval") {
      // Digits only, as the fleet tools read numbers; the sleep takes a
      // signed 64-bit millisecond count.
      if (++i >= argc || !fi::parseCount(argv[i], intervalMs) ||
          intervalMs == 0 ||
          intervalMs > static_cast<std::uint64_t>(
                           std::chrono::milliseconds::max().count())) {
        return usage(argv[0]);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return usage(argv[0]);

  if (mode == "--bench-trend") {
    std::fputs(
        analytics::renderTable(analytics::benchTrendTable(paths), csv)
            .c_str(),
        stdout);
    return 0;
  }
  if (mode == "--trend") {
    if (json) {
      std::printf("%s\n", analytics::storeTrendJson(paths).dump().c_str());
    } else {
      std::fputs(
          analytics::renderTable(analytics::storeTrendTable(paths), csv)
              .c_str(),
          stdout);
    }
    return 0;
  }

  analytics::Dataset ds;
  for (const std::string& path : paths) ds.addStore(path);

  if (mode == "--watch") {
    for (;;) {
      watchFrame(ds, csv);
      if (once) return 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<std::chrono::milliseconds::rep>(intervalMs)));
      ds.poll();
      std::printf("\n");
    }
  }
  if (mode == "--figure") {
    const auto figure = analytics::renderFigure(figureId, ds, csv);
    if (!figure) {
      std::fprintf(stderr, "%s: unknown figure id '%s' (known: %.*s)\n",
                   argv[0], figureId.c_str(),
                   static_cast<int>(analytics::figureIds().size()),
                   analytics::figureIds().data());
      return 2;
    }
    std::fputs(figure->text.c_str(), stdout);
    if (!figure->complete()) {
      std::fprintf(stderr,
                   "%s: %zu/%zu campaign cell(s) incomplete, missing, or "
                   "ambiguous — figure values are partial, not wrong; run "
                   "the driver (or the fleet) to completion and re-render\n",
                   argv[0], figure->incompleteCells, figure->cells);
      return 3;
    }
    return 0;
  }

  const std::uint64_t nowMs = util::wallClockMs();
  if (mode == "--group") {
    const std::vector<analytics::GroupRow> rows =
        analytics::groupBy(ds, analytics::GroupAxes{});
    if (json) {
      std::printf("%s\n", analytics::groupJson(rows).dump().c_str());
    } else {
      std::fputs(analytics::renderTable(analytics::groupTable(rows), csv)
                     .c_str(),
                 stdout);
    }
    return 0;
  }
  if (mode == "--workers") {
    const std::vector<analytics::WorkerRow> rows =
        analytics::workerRollup(ds, nowMs);
    if (json) {
      std::printf("%s\n",
                  analytics::workerJson(rows, nowMs).dump().c_str());
    } else {
      std::fputs(
          analytics::renderTable(analytics::workerTable(rows, nowMs), csv)
              .c_str(),
          stdout);
    }
    return 0;
  }
  // --summary
  if (json) {
    std::printf("%s\n", analytics::summaryJson(ds, nowMs).dump().c_str());
  } else {
    std::fputs(analytics::renderSummaryText(ds, nowMs).c_str(), stdout);
  }
  return 0;
}
