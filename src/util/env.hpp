// Environment-variable helpers used to scale benchmark harnesses.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace onebit::util {

/// Read an integer environment variable; returns fallback when unset, not an
/// integer, or outside the int64 range.
std::int64_t envInt(const std::string& name, std::int64_t fallback);

/// Read a non-negative size knob. Unset/invalid values return `fallback`;
/// negative values clamp to 0 ("auto" for every ONEBIT_* size knob), so a
/// stray `-1` can never be cast into a 2^64-scale request.
std::size_t envSize(const std::string& name, std::size_t fallback = 0);

/// Read a string environment variable; returns fallback when unset.
std::string envStr(const std::string& name, const std::string& fallback);

/// Split `list` at `sep` into its items, exactly: "a,,b" has an empty middle
/// item, "a," a trailing one. The empty string splits into no items.
std::vector<std::string> splitList(std::string_view list, char sep = ',');

}  // namespace onebit::util
