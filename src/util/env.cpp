#include "util/env.hpp"

#include <cerrno>
#include <cstdlib>

namespace onebit::util {

std::int64_t envInt(const std::string& name, std::int64_t fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0' || errno == ERANGE) return fallback;
  return v;
}

std::size_t envSize(const std::string& name, std::size_t fallback) {
  const std::int64_t v = envInt(name, static_cast<std::int64_t>(fallback));
  return v < 0 ? 0 : static_cast<std::size_t>(v);
}

std::string envStr(const std::string& name, const std::string& fallback) {
  const char* raw = std::getenv(name.c_str());
  return (raw != nullptr && *raw != '\0') ? std::string(raw) : fallback;
}

std::vector<std::string> splitList(std::string_view list, char sep) {
  std::vector<std::string> items;
  if (list.empty()) return items;
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = list.find(sep, pos);
    if (next == std::string_view::npos) {
      items.emplace_back(list.substr(pos));
      return items;
    }
    items.emplace_back(list.substr(pos, next - pos));
    pos = next + 1;
  }
}

}  // namespace onebit::util
