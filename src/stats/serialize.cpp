#include "stats/serialize.hpp"

namespace onebit::stats {

util::Json toJson(const OutcomeCounts& counts) {
  util::Json arr = util::Json::array();
  for (const std::size_t c : counts.raw()) {
    arr.push(util::Json::number(static_cast<std::uint64_t>(c)));
  }
  return arr;
}

util::Json toJson(const Proportion& p) {
  util::Json obj = util::Json::object();
  obj.set("fraction", util::Json::number(p.fraction));
  obj.set("ci", util::Json::number(p.ciHalfWidth));
  obj.set("successes",
          util::Json::number(static_cast<std::uint64_t>(p.successes)));
  obj.set("n", util::Json::number(static_cast<std::uint64_t>(p.n)));
  return obj;
}

}  // namespace onebit::stats
