// The classic store-summary report (`report --summary`) and its JSON twin
// (`report --summary --json`): per-campaign completion, outcome totals,
// fleet lease status, quarantined shard ranges, and the per-worker progress
// rollup.
//
// For a single-source Dataset the text output is byte-stable against the
// historical store_stats format — scripts that parse it keep working. A
// multi-source Dataset gets one header line per source plus a merged
// campaign listing.
#pragma once

#include <cstdint>
#include <string>

#include "analytics/dataset.hpp"
#include "util/jsonl.hpp"

namespace onebit::analytics {

/// Render the summary as text. `nowMs` (util::wallClockMs) decides lease
/// liveness; pass a fixed value for reproducible output in tests.
std::string renderSummaryText(const Dataset& ds, std::uint64_t nowMs);

/// The same report as one JSON object: {"now_ms", "sources": [...],
/// "campaigns": [...], "workers": [...]}. 64-bit keys/seeds are "0x<16
/// hex>" strings, like the store format.
util::Json summaryJson(const Dataset& ds, std::uint64_t nowMs);

}  // namespace onebit::analytics
