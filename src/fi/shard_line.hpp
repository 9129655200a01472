// The shard record's line format, owned in one place.
//
// Every shard line CampaignStore writes has one layout, the canonical line:
//
//   {"v":1,"kind":"shard","key":"0x<16 hex>","workload":"<name>",
//    "spec":"<label>","seed":"0x<16 hex>","experiments":N,"candidates":N,
//    "shard":N,"first":N,"count":N,"outcomes":[b,d,h,n,s],
//    "hist":[[o,k,c],...]}
//
// on one line, with "workload" omitted when empty, integers in plain
// decimal, and strings escaped by util::appendJsonString — byte for byte
// what util::Json::dump() gives for the same record tree, so the format of
// stores on disk is unchanged. encodeShardLine() formats that line field by
// field. decodeShardLine() reads exactly that layout in one pass and
// declines every other line (another kind, another key order, whitespace,
// escapes, `2.0`-style numbers, overflow, failed integrity); a declined line
// takes the generic path, util::Json::parse + parseShardRecord(), which
// accepts any JSON layout of the record. Both paths apply the same
// integrity rules, so a line the decoder accepts yields exactly what the
// generic path yields for it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "fi/campaign_store.hpp"
#include "util/jsonl.hpp"

namespace onebit::fi::detail {

/// One decoded-and-validated shard record.
struct ParsedShard {
  std::uint64_t key = 0;
  std::size_t first = 0;
  std::size_t count = 0;
  CampaignStore::ShardAggregate agg;
  CampaignStore::CampaignMeta meta;
};

/// "0x" + 16 lowercase hex digits: how full-range 64-bit fields (key, seed,
/// src_hash) are written, so double-based JSON consumers cannot round them.
std::string hex64(std::uint64_t v);

/// Inverse of hex64(); nullopt for anything else (uppercase included).
std::optional<std::uint64_t> parseHex64(std::string_view s);

/// `record[field]` as an unsigned integer; `fallback` when the field is
/// absent or not one (Json::asUint). Every record kind reads counts with it.
std::uint64_t getUint(const util::Json& record, std::string_view field,
                      std::uint64_t fallback);

/// Append the canonical shard line (without '\n') to `out`.
void encodeShardLine(std::string& out, const CampaignStore::CampaignMeta& meta,
                     std::size_t shardIndex, std::size_t first,
                     std::size_t count,
                     const CampaignStore::ShardAggregate& aggregate);

/// Decode a canonical shard line into `out`. Returns false — declining, with
/// `out` unspecified — for every line that is not a canonical shard line
/// passing the integrity rules.
bool decodeShardLine(std::string_view line, ParsedShard& out);

/// Decode a parsed "shard" record of any JSON layout (the generic path).
/// Integrity: the shard range lies inside the campaign, `outcomes` and
/// `hist` each tally exactly `count` (without wrapping 2^64), hist cells are
/// in range, listed once each, with counts in 1..2^32 - 1, and a present
/// `workload`, `spec` or `seed` is well formed (a string; for `seed`,
/// hex64()). Returns false when any rule fails.
bool parseShardRecord(const util::Json& record, ParsedShard& out);

}  // namespace onebit::fi::detail
