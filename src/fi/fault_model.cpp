#include "fi/fault_model.hpp"

namespace onebit::fi {

namespace {

std::string_view domainPrefix(FaultDomain d) noexcept {
  switch (d) {
    case FaultDomain::RegisterRead: return "read";
    case FaultDomain::RegisterWrite: return "write";
    case FaultDomain::MemoryData: return "mem";
    case FaultDomain::RandomValue: return "rand";
  }
  return "read";
}

std::optional<FaultDomain> domainFromPrefix(std::string_view s) noexcept {
  if (s == "read") return FaultDomain::RegisterRead;
  if (s == "write") return FaultDomain::RegisterWrite;
  if (s == "mem") return FaultDomain::MemoryData;
  if (s == "rand") return FaultDomain::RandomValue;
  return std::nullopt;
}

/// Parse a nonempty all-digit prefix of `s`, consuming it. Rejects values
/// that overflow 64 bits.
std::optional<std::uint64_t> eatUint(std::string_view& s) noexcept {
  if (s.empty() || s.front() < '0' || s.front() > '9') return std::nullopt;
  std::uint64_t v = 0;
  std::size_t i = 0;
  for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
    const std::uint64_t digit = static_cast<std::uint64_t>(s[i] - '0');
    if (v > (~0ULL - digit) / 10) return std::nullopt;
    v = v * 10 + digit;
  }
  s.remove_prefix(i);
  return v;
}

bool eat(std::string_view& s, std::string_view prefix) noexcept {
  if (s.substr(0, prefix.size()) != prefix) return false;
  s.remove_prefix(prefix.size());
  return true;
}

/// Parse a full win-size spelling: "<uint>" or "RND(<lo>-<hi>)".
std::optional<TemporalSpread> parseSpread(std::string_view& s) noexcept {
  if (eat(s, "RND(")) {
    const auto lo = eatUint(s);
    if (!lo || !eat(s, "-")) return std::nullopt;
    const auto hi = eatUint(s);
    if (!hi || !eat(s, ")") || *lo > *hi) return std::nullopt;
    return TemporalSpread::random(*lo, *hi);
  }
  const auto v = eatUint(s);
  if (!v) return std::nullopt;
  return TemporalSpread::fixed(*v);
}

/// Canonical form for matches(): a temporal pattern whose flip budget never
/// spreads (count <= 1) is the single-bit model, and its spread is inert.
FaultModel canonical(FaultModel m) noexcept {
  if (m.isSingleBit()) {
    m.pattern = BitPattern::singleBit();
    m.spread = {};
  }
  return m;
}

}  // namespace

std::string_view domainName(FaultDomain d) noexcept {
  switch (d) {
    case FaultDomain::RegisterRead: return "inject-on-read";
    case FaultDomain::RegisterWrite: return "inject-on-write";
    case FaultDomain::MemoryData: return "memory-data";
    case FaultDomain::RandomValue: return "random-value";
  }
  return "inject-on-read";
}

std::uint64_t TemporalSpread::sample(util::Rng& rng) const {
  if (kind == Kind::Fixed) return value;
  // [0, 2^64 - 1] has 2^64 values, a span that wraps to 0: draw all bits.
  const std::uint64_t span = hi - lo + 1;
  return span == 0 ? rng.next() : lo + rng.below(span);
}

std::string TemporalSpread::label() const {
  if (kind == Kind::Fixed) return std::to_string(value);
  return "RND(" + std::to_string(lo) + "-" + std::to_string(hi) + ")";
}

std::string FaultModel::label() const {
  const std::string dom{domainPrefix(domain)};
  if (pattern.kind == BitPattern::Kind::BurstAdjacent) {
    return dom + "/burst=" + std::to_string(pattern.count);
  }
  if (isSingleBit()) return dom + "/single";
  return dom + "/m=" + std::to_string(pattern.count) + ",w=" + spread.label();
}

std::optional<FaultModel> FaultModel::parse(std::string_view label) {
  const std::size_t slash = label.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto domain = domainFromPrefix(label.substr(0, slash));
  if (!domain) return std::nullopt;
  std::string_view rest = label.substr(slash + 1);
  if (rest == "single") return singleBit(*domain);
  if (eat(rest, "burst=")) {
    const auto k = eatUint(rest);
    if (!k || *k == 0 || *k > 64 || !rest.empty()) return std::nullopt;
    return burstAdjacent(*domain, static_cast<unsigned>(*k));
  }
  if (eat(rest, "m=")) {
    const auto m = eatUint(rest);
    if (!m || *m < 2 || *m > ~0U || !eat(rest, ",w=")) return std::nullopt;
    const auto w = parseSpread(rest);
    if (!w || !rest.empty()) return std::nullopt;
    return multiBitTemporal(*domain, static_cast<unsigned>(*m), *w);
  }
  return std::nullopt;
}

bool FaultModel::matches(const FaultModel& other) const noexcept {
  const FaultModel a = canonical(*this);
  const FaultModel b = canonical(other);
  return a.domain == b.domain && a.pattern == b.pattern && a.spread == b.spread;
}

const std::vector<unsigned>& FaultModel::paperMaxMbf() {
  static const std::vector<unsigned> values = {2, 3, 4, 5, 6, 7, 8, 9, 10, 30};
  return values;
}

const std::vector<TemporalSpread>& FaultModel::paperWinSizes() {
  static const std::vector<TemporalSpread> values = {
      TemporalSpread::fixed(0),          TemporalSpread::fixed(1),
      TemporalSpread::fixed(4),          TemporalSpread::random(2, 10),
      TemporalSpread::fixed(10),         TemporalSpread::random(11, 100),
      TemporalSpread::fixed(100),        TemporalSpread::random(101, 1000),
      TemporalSpread::fixed(1000),
  };
  return values;
}

}  // namespace onebit::fi
