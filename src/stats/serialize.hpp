// JSON serialization of the stats aggregates for exported reports. Kept in
// src/stats so the wire order of the outcome counters is defined next to the
// Outcome enum it depends on (shard records use the same order; see
// fi/shard_line.hpp).
#pragma once

#include "stats/outcome_counts.hpp"
#include "util/jsonl.hpp"

namespace onebit::stats {

/// Encode as a 5-element array in Outcome declaration order:
/// [Benign, Detected, Hang, NoOutput, SDC].
util::Json toJson(const OutcomeCounts& counts);

/// Encode a proportion with its confidence interval, e.g. for exported
/// summary records: {"fraction":..,"ci":..,"successes":..,"n":..}.
util::Json toJson(const Proportion& p);

}  // namespace onebit::stats
