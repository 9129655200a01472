#include "fi/shard_line.hpp"

#include <array>
#include <charconv>

namespace onebit::fi::detail {

namespace {

/// What the generic path reads for a count that is absent or not an
/// unsigned integer (Json::asUint's fallback). The rules below reject it
/// wherever they need a count, so a literal 18446744073709551615 fails both
/// paths alike.
constexpr std::uint64_t kBad = ~0ULL;

using RawOutcomes = std::array<std::uint64_t, stats::kOutcomeCount>;

/// Hist cell rule: outcome and bucket in range, count in 1..2^32 - 1, and
/// each cell listed once — the encoder writes every nonzero cell once, and
/// a repeated cell would wrap the 32-bit count it adds to.
bool addHistCell(ActivationHistogram& hist, std::uint64_t o, std::uint64_t k,
                 std::uint64_t c) {
  if (o >= stats::kOutcomeCount || k > kMaxActivationBucket || c == 0 ||
      c > 0xffffffffULL || hist[o][k] != 0) {
    return false;
  }
  hist[o][k] = static_cast<std::uint32_t>(c);
  return true;
}

std::uint64_t histTotal(const ActivationHistogram& hist) noexcept {
  std::uint64_t t = 0;
  for (const auto& row : hist) {
    for (const std::uint32_t c : row) t += c;
  }
  return t;
}

/// Range and tally rules — a mangled record is worth less than a re-run
/// shard: [first, first + count) lies inside the campaign, and the outcome
/// counts and the (already filled) histogram each tally exactly `count`.
/// Fills the range, the outcome counts and meta.experiments of `out`.
bool checkShard(std::uint64_t first, std::uint64_t count,
                std::uint64_t experiments, const RawOutcomes& outcomes,
                ParsedShard& out) {
  if (first == kBad || count == kBad || count == 0 || experiments == kBad ||
      count > experiments ||
      first > experiments - count) {  // first + count could wrap 2^64
    return false;
  }
  // Each outcome takes at most what is left of `count`, so the sum cannot
  // wrap 2^64 into a false match (and kBad, above any count, fails).
  std::array<std::size_t, stats::kOutcomeCount> raw{};
  std::uint64_t left = count;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (outcomes[i] > left) return false;
    left -= outcomes[i];
    raw[i] = static_cast<std::size_t>(outcomes[i]);
  }
  if (left != 0 || histTotal(out.agg.hist) != count) return false;
  out.agg.counts = stats::OutcomeCounts::fromRaw(raw);
  out.first = static_cast<std::size_t>(first);
  out.count = static_cast<std::size_t>(count);
  out.meta.experiments = static_cast<std::size_t>(experiments);
  return true;
}

void appendUint(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, end);
}

void appendHex64(std::string& out, std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  char buf[18] = {'0', 'x'};
  for (int i = 17; i >= 2; --i, v >>= 4) buf[i] = kDigits[v & 0xf];
  out.append(buf, sizeof buf);
}

/// A cursor over one line for decodeShardLine. Every reader consumes only
/// on success; the decoder gives up at the first failure anyway.
class Cursor {
 public:
  explicit Cursor(std::string_view s) : s_(s) {}

  [[nodiscard]] bool done() const { return pos_ == s_.size(); }

  bool literal(std::string_view lit) {
    if (s_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  /// Plain decimal: digits only, no leading zero, fitting 64 bits.
  bool uint(std::uint64_t& v) {
    const char* const begin = s_.data() + pos_;
    const char* const end = s_.data() + s_.size();
    if (begin == end || *begin < '0' || *begin > '9') return false;
    const auto [stop, ec] = std::from_chars(begin, end, v);
    if (ec != std::errc() || (*begin == '0' && stop - begin != 1)) {
      return false;
    }
    pos_ += static_cast<std::size_t>(stop - begin);
    return true;
  }

  /// A quoted hex64() string.
  bool hex(std::uint64_t& v) {
    if (s_.size() - pos_ < 20 || s_[pos_] != '"' || s_[pos_ + 19] != '"') {
      return false;
    }
    const std::optional<std::uint64_t> parsed =
        parseHex64(s_.substr(pos_ + 1, 18));
    if (!parsed) return false;
    v = *parsed;
    pos_ += 20;
    return true;
  }

  /// A quoted string with no escape and no control byte: its bytes are
  /// its value.
  bool string(std::string& out) {
    if (pos_ == s_.size() || s_[pos_] != '"') return false;
    for (std::size_t i = pos_ + 1; i < s_.size(); ++i) {
      const unsigned char c = static_cast<unsigned char>(s_[i]);
      if (c == '"') {
        out.assign(s_.substr(pos_ + 1, i - pos_ - 1));
        pos_ = i + 1;
        return true;
      }
      if (c == '\\' || c < 0x20) return false;
    }
    return false;
  }

 private:
  std::string_view s_;
  std::size_t pos_ = 0;
};

/// A present field must be a string; an absent one reads as "".
bool stringField(const util::Json& record, std::string_view field,
                 std::string& out) {
  out.clear();
  const util::Json* f = record.find(field);
  if (f == nullptr) return true;
  if (!f->isString()) return false;
  out = f->asString();
  return true;
}

}  // namespace

std::uint64_t getUint(const util::Json& record, std::string_view field,
                      std::uint64_t fallback) {
  const util::Json* v = record.find(field);
  return v != nullptr ? v->asUint(fallback) : fallback;
}

std::string hex64(std::uint64_t v) {
  std::string out;
  appendHex64(out, v);
  return out;
}

std::optional<std::uint64_t> parseHex64(std::string_view s) {
  if (s.size() != 18 || s[0] != '0' || s[1] != 'x') return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s.substr(2)) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else return std::nullopt;
  }
  return v;
}

void encodeShardLine(std::string& out, const CampaignStore::CampaignMeta& meta,
                     std::size_t shardIndex, std::size_t first,
                     std::size_t count,
                     const CampaignStore::ShardAggregate& aggregate) {
  out += "{\"v\":";
  appendUint(out, CampaignStore::kFormatVersion);
  out += ",\"kind\":\"shard\",\"key\":\"";
  appendHex64(out, meta.key);
  out += '"';
  if (!meta.workload.empty()) {
    out += ",\"workload\":";
    util::appendJsonString(out, meta.workload);
  }
  out += ",\"spec\":";
  util::appendJsonString(out, meta.specLabel);
  out += ",\"seed\":\"";
  appendHex64(out, meta.seed);
  out += "\",\"experiments\":";
  appendUint(out, meta.experiments);
  out += ",\"candidates\":";
  appendUint(out, meta.candidates);
  out += ",\"shard\":";
  appendUint(out, shardIndex);
  out += ",\"first\":";
  appendUint(out, first);
  out += ",\"count\":";
  appendUint(out, count);
  out += ",\"outcomes\":[";
  for (std::size_t i = 0; i < stats::kOutcomeCount; ++i) {
    if (i != 0) out += ',';
    appendUint(out, aggregate.counts.raw()[i]);
  }
  out += "],\"hist\":[";
  bool firstCell = true;
  for (std::size_t o = 0; o < stats::kOutcomeCount; ++o) {
    for (std::size_t k = 0; k <= kMaxActivationBucket; ++k) {
      if (aggregate.hist[o][k] == 0) continue;
      out += firstCell ? "[" : ",[";
      firstCell = false;
      appendUint(out, o);
      out += ',';
      appendUint(out, k);
      out += ',';
      appendUint(out, aggregate.hist[o][k]);
      out += ']';
    }
  }
  out += "]}";
}

bool decodeShardLine(std::string_view line, ParsedShard& out) {
  Cursor in(line);
  std::uint64_t version = 0;
  if (!in.literal("{\"v\":") || !in.uint(version) ||
      version != CampaignStore::kFormatVersion ||
      !in.literal(",\"kind\":\"shard\",\"key\":") || !in.hex(out.key)) {
    return false;
  }
  out.meta.key = out.key;
  if (in.literal(",\"workload\":")) {
    // The encoder omits an empty workload.
    if (!in.string(out.meta.workload) || out.meta.workload.empty()) {
      return false;
    }
  } else {
    out.meta.workload.clear();
  }
  std::uint64_t first = 0;
  std::uint64_t count = 0;
  std::uint64_t experiments = 0;
  std::uint64_t shard = 0;  // the shard index is informational
  RawOutcomes outcomes{};
  if (!in.literal(",\"spec\":") || !in.string(out.meta.specLabel) ||
      !in.literal(",\"seed\":") || !in.hex(out.meta.seed) ||
      !in.literal(",\"experiments\":") || !in.uint(experiments) ||
      !in.literal(",\"candidates\":") || !in.uint(out.meta.candidates) ||
      !in.literal(",\"shard\":") || !in.uint(shard) ||
      !in.literal(",\"first\":") || !in.uint(first) ||
      !in.literal(",\"count\":") || !in.uint(count) ||
      !in.literal(",\"outcomes\":[")) {
    return false;
  }
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if ((i != 0 && !in.literal(",")) || !in.uint(outcomes[i])) return false;
  }
  if (!in.literal("],\"hist\":[")) return false;
  out.agg.hist = {};
  if (!in.literal("]")) {
    do {
      std::uint64_t o = 0;
      std::uint64_t k = 0;
      std::uint64_t c = 0;
      if (!in.literal("[") || !in.uint(o) || !in.literal(",") ||
          !in.uint(k) || !in.literal(",") || !in.uint(c) ||
          !in.literal("]") || !addHistCell(out.agg.hist, o, k, c)) {
        return false;
      }
    } while (in.literal(","));
    if (!in.literal("]")) return false;
  }
  return in.literal("}") && in.done() &&
         checkShard(first, count, experiments, outcomes, out);
}

bool parseShardRecord(const util::Json& record, ParsedShard& out) {
  const util::Json* keyField = record.find("key");
  const std::optional<std::uint64_t> key =
      keyField != nullptr ? parseHex64(keyField->asString()) : std::nullopt;
  const util::Json* outcomes = record.find("outcomes");
  const util::Json* hist = record.find("hist");
  if (!key || outcomes == nullptr ||
      outcomes->items().size() != stats::kOutcomeCount || hist == nullptr ||
      !hist->isArray()) {
    return false;
  }
  RawOutcomes raw{};
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = outcomes->items()[i].asUint(kBad);
  }
  out.agg.hist = {};
  for (const util::Json& cell : hist->items()) {
    const util::Json::Array& triple = cell.items();
    if (triple.size() != 3 ||
        !addHistCell(out.agg.hist, triple[0].asUint(kBad),
                     triple[1].asUint(kBad), triple[2].asUint(kBad))) {
      return false;
    }
  }
  if (!checkShard(getUint(record, "first", kBad),
                  getUint(record, "count", kBad),
                  getUint(record, "experiments", kBad), raw, out)) {
    return false;
  }
  out.key = *key;
  out.meta.key = *key;
  // Dataset::match selects campaigns by these fields: a present but
  // malformed one must fail the record, not read as 0 or "".
  if (!stringField(record, "workload", out.meta.workload) ||
      !stringField(record, "spec", out.meta.specLabel)) {
    return false;
  }
  out.meta.seed = 0;
  if (const util::Json* f = record.find("seed")) {
    const std::optional<std::uint64_t> seed = parseHex64(f->asString());
    if (!seed) return false;
    out.meta.seed = *seed;
  }
  out.meta.candidates = getUint(record, "candidates", 0);
  return true;
}

}  // namespace onebit::fi::detail
