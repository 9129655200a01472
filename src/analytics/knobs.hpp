// The ONEBIT_* knob table: every environment variable the bench drivers,
// `report` and the examples read, with its kind, range, default and one doc
// line. The environment is parsed once, against the table, into a Knobs
// value; nothing else in the program reads an ONEBIT_* variable.
//
// Every byte of the environment is hostile until parsed. A malformed or
// out-of-range value, an unknown program or fault-model label, or an
// ONEBIT_* name that is not in the table ends the process with status 2 and
// one stderr line naming the knob, before any work: a typo never quietly
// runs a different campaign. An empty value means unset.
//
// The selection knobs (seed, scale, program and spec filters, flip width)
// decide which campaign cells an artifact covers; the drivers and
// `report --figure` resolve cells through the same accessors below, so the
// two can never drift apart. The execution knobs (threads, shards,
// snapshots, store, fleet) never change a result by the determinism
// contract; bench/bench_common.hpp applies them.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fi/fault_model.hpp"

namespace onebit::analytics {

/// Every knob, in table order.
enum class Knob : std::uint8_t {
  Experiments,
  Seed,
  Programs,
  Specs,
  Csv,
  FlipWidth,
  Threads,
  ShardSize,
  Progress,
  Store,
  Resume,
  MaxShards,
  SnapshotInterval,
  FleetWorkers,
  FleetLeaseMs,
  FleetKillAfter,
  PoisonRetries,
  FleetPoison,
  FleetChaosKillMs,
};
inline constexpr std::size_t kKnobCount =
    static_cast<std::size_t>(Knob::FleetChaosKillMs) + 1;

enum class KnobKind : std::uint8_t {
  Count,     ///< decimal digits only, within [min, max]
  Flag,      ///< 0 or 1
  Programs,  ///< comma list of Table II program names (progs registry)
  Specs,     ///< semicolon list of FaultModel labels (FaultModel::parse)
  Path,      ///< any text
  Poison,    ///< "NAME[:SHARD]" (fi::parsePoison)
};

struct KnobInfo {
  Knob knob;
  std::string_view name;
  KnobKind kind;
  std::uint64_t min = 0;       ///< Count: smallest accepted value
  std::uint64_t max = 0;       ///< Count: largest accepted value
  std::uint64_t fallback = 0;  ///< Count, Flag: the value when unset
  /// The documented default when it is not `fallback` ("all", "none", ...);
  /// empty for Count and Flag knobs whose default is `fallback`.
  std::string_view unsetText;
  std::string_view doc;
};

/// The table, indexed by Knob.
const std::array<KnobInfo, kKnobCount>& knobTable();

/// Parsed values of every knob.
class Knobs {
 public:
  /// Every knob unset.
  Knobs();

  /// Parse "NAME=value" entries (the form `environ` holds) against the
  /// table; entries without the ONEBIT_ prefix are ignored. Returns nullopt
  /// and sets `error` to one line naming the knob on the first malformed or
  /// out-of-range value, unknown program or spec, or unknown ONEBIT_ name.
  static std::optional<Knobs> parse(const std::vector<std::string>& entries,
                                    std::string& error);

  [[nodiscard]] bool set(Knob k) const noexcept {
    return !text_[index(k)].empty();
  }
  /// Count and Flag knobs: the value, or the table's fallback when unset.
  [[nodiscard]] std::uint64_t count(Knob k) const noexcept {
    return counts_[index(k)];
  }
  [[nodiscard]] bool flag(Knob k) const noexcept { return count(k) != 0; }
  /// The value as set ("" when unset).
  [[nodiscard]] const std::string& text(Knob k) const noexcept {
    return text_[index(k)];
  }
  /// ONEBIT_PROGRAMS items (empty = every program).
  [[nodiscard]] const std::vector<std::string>& programs() const noexcept {
    return programs_;
  }
  /// ONEBIT_SPECS items, parsed (empty = every model).
  [[nodiscard]] const std::vector<fi::FaultModel>& specs() const noexcept {
    return specs_;
  }

  /// "[knobs] NAME=value(set) NAME=value(default) ..." over the whole table:
  /// each knob's effective value and whether it was set.
  [[nodiscard]] std::string describe() const;

 private:
  static std::size_t index(Knob k) noexcept {
    return static_cast<std::size_t>(k);
  }
  /// Parse a nonempty `value` of `info`'s knob into this. Returns why it
  /// is rejected, or "" when it was taken.
  std::string take(const KnobInfo& info, std::string_view value);

  std::array<std::string, kKnobCount> text_;
  std::array<std::uint64_t, kKnobCount> counts_{};
  std::vector<std::string> programs_;
  std::vector<fi::FaultModel> specs_;
};

/// The process's knobs, parsed from the environment on first use. A bad
/// ONEBIT_* variable prints one stderr line naming it and exits with
/// status 2.
const Knobs& knobs();

/// Check the environment against the table, as the first statement of
/// every driver's, `report`'s and each knob-reading example's main: a bad
/// knob exits 2 there, before any work and before any store line. At
/// ONEBIT_PROGRESS >= 1 prints the [knobs] line (Knobs::describe) on stderr.
void checkKnobs();

/// Re-read the environment into knobs(), for tests that set ONEBIT_*
/// variables in-process (no other thread may read knobs() meanwhile).
/// Returns the error line, leaving knobs() as it was, instead of exiting.
std::optional<std::string> reloadKnobs();

/// ONEBIT_SEED.
std::uint64_t masterSeed();

/// ONEBIT_EXPERIMENTS, or the artifact's own default when unset.
std::size_t experimentsPerCampaign(std::size_t fallback);

/// True when `name` passes the ONEBIT_PROGRAMS filter.
bool programSelected(const std::string& name);

/// The Table II program names passing ONEBIT_PROGRAMS, in registry order —
/// the row axis of every per-program figure. Derived from the registry
/// WITHOUT compiling any workload, so analytics can resolve figure cells
/// against a store in microseconds.
std::vector<std::string> selectedPrograms();

/// True when the model passes the ONEBIT_SPECS filter: it matches one of
/// the parsed items as a MODEL (FaultModel::matches), not as a string.
bool specSelected(const fi::FaultModel& model);

/// ONEBIT_FLIP_WIDTH (32 = the paper's i32 registers; 64 = raw VM width).
unsigned flipWidth();

/// ONEBIT_CSV: emit tables as CSV instead of aligned text.
bool csvEnabled();

}  // namespace onebit::analytics
