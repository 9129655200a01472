#include "analytics/knobs.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include <unistd.h>

#include "fi/fleet.hpp"
#include "progs/registry.hpp"
#include "util/thread_pool.hpp"

namespace onebit::analytics {

namespace {

constexpr std::uint64_t kAny = std::numeric_limits<std::uint64_t>::max();

// The defaults of SNAPSHOT_INTERVAL, FLEET_LEASE_MS and POISON_RETRIES are
// the library's own (fi::SnapshotPolicy, fi::FleetConfig,
// fi::FleetSupervisorConfig); knobs_test holds them equal.
constexpr std::array<KnobInfo, kKnobCount> kTable{{
    {Knob::Experiments, "ONEBIT_EXPERIMENTS", KnobKind::Count, 1,
     1'000'000'000, 0, "artifact",
     "experiments per campaign; unset = the artifact's own default"},
    {Knob::Seed, "ONEBIT_SEED", KnobKind::Count, 0, kAny, 2017, "",
     "master seed; every campaign's seed derives from it"},
    {Knob::Programs, "ONEBIT_PROGRAMS", KnobKind::Programs, 0, 0, 0, "all",
     "comma-separated Table II programs, e.g. qsort,crc32; drops program "
     "rows"},
    {Knob::Specs, "ONEBIT_SPECS", KnobKind::Specs, 0, 0, 0, "all",
     "semicolon-separated fault-model labels, e.g. read/single;write/m=3,w=1, "
     "matched as models; drops model rows, columns and sections"},
    {Knob::Csv, "ONEBIT_CSV", KnobKind::Flag, 0, 1, 0, "",
     "1 = print tables as CSV"},
    {Knob::FlipWidth, "ONEBIT_FLIP_WIDTH", KnobKind::Count, 1, 64, 32, "",
     "integer flip-model width; 32 = the paper's i32 registers, 64 = raw VM "
     "registers"},
    {Knob::Threads, "ONEBIT_THREADS", KnobKind::Count, 0,
     util::ThreadPool::kMaxThreads, 0, "",
     "worker threads shared by the whole sweep; 0 = all cores"},
    {Knob::ShardSize, "ONEBIT_SHARD_SIZE", KnobKind::Count, 0, kAny, 0, "",
     "experiments per shard (progress and checkpoint grain); 0 = auto"},
    {Knob::Progress, "ONEBIT_PROGRESS", KnobKind::Count, 0, 2, 0, "",
     "1 = per-campaign progress and the [knobs] and [prune] lines on stderr; "
     "2 = per-shard lines too"},
    {Knob::Store, "ONEBIT_STORE", KnobKind::Path, 0, 0, 0, "none",
     "JSONL results store; every completed shard is appended and flushed "
     "there"},
    {Knob::Resume, "ONEBIT_RESUME", KnobKind::Flag, 0, 1, 0, "",
     "1 = merge shards already recorded in ONEBIT_STORE instead of re-running "
     "them"},
    {Knob::MaxShards, "ONEBIT_MAX_SHARDS", KnobKind::Count, 0, kAny, 0, "",
     "stop each campaign after this many fresh shards (a deterministic "
     "interruption); 0 = no cap"},
    {Knob::SnapshotInterval, "ONEBIT_SNAPSHOT_INTERVAL", KnobKind::Count, 0,
     kAny, 1024, "",
     "dynamic instructions between golden-run snapshots, doubled as the "
     "16 MiB budget needs; 0 = no snapshots and no pruning"},
    {Knob::FleetWorkers, "ONEBIT_FLEET_WORKERS", KnobKind::Count, 0,
     util::ThreadPool::kMaxThreads, 0, "",
     "run the sweep as this many supervised worker processes over the store; "
     "0 = in process"},
    {Knob::FleetLeaseMs, "ONEBIT_FLEET_LEASE_MS", KnobKind::Count, 1,
     86'400'000, 30'000, "",
     "fleet shard lease in ms; a worker heartbeats every third of it"},
    {Knob::FleetKillAfter, "ONEBIT_FLEET_KILL_AFTER", KnobKind::Count, 0,
     kAny, 0, "",
     "crash test: the first fleet worker SIGKILLs itself after its k-th "
     "claim, once; 0 = off"},
    {Knob::PoisonRetries, "ONEBIT_POISON_RETRIES", KnobKind::Count, 1, kAny,
     3, "", "mid-lease worker deaths on one shard before it is quarantined"},
    {Knob::FleetPoison, "ONEBIT_FLEET_POISON", KnobKind::Poison, 0, 0, 0,
     "none",
     "chaos test: a worker that claims shard SHARD of workload NAME (any "
     "shard without :SHARD) SIGKILLs itself"},
    {Knob::FleetChaosKillMs, "ONEBIT_FLEET_CHAOS_KILL_MS", KnobKind::Count, 0,
     kAny, 0, "",
     "chaos test: SIGKILL a random live fleet worker about this often, in "
     "ms; 0 = off"},
}};

static_assert([] {
  for (std::size_t i = 0; i < kTable.size(); ++i) {
    if (static_cast<std::size_t>(kTable[i].knob) != i) return false;
  }
  return true;
}(), "kTable must list the knobs in Knob order");

/// Split at `sep`, keeping empty items ("a,,b" has three).
std::vector<std::string_view> splitItems(std::string_view list, char sep) {
  std::vector<std::string_view> items;
  for (std::size_t pos = 0;;) {
    const std::size_t next = list.find(sep, pos);
    items.push_back(list.substr(pos, next - pos));
    if (next == std::string_view::npos) return items;
    pos = next + 1;
  }
}

std::vector<std::string> environment() {
  std::vector<std::string> entries;
  for (char** e = ::environ; e != nullptr && *e != nullptr; ++e) {
    entries.emplace_back(*e);
  }
  return entries;
}

Knobs parseEnvironmentOrExit() {
  std::string error;
  std::optional<Knobs> parsed = Knobs::parse(environment(), error);
  if (!parsed) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    std::exit(2);
  }
  return std::move(*parsed);
}

Knobs& current() {
  static Knobs knobs = parseEnvironmentOrExit();
  return knobs;
}

}  // namespace

const std::array<KnobInfo, kKnobCount>& knobTable() { return kTable; }

Knobs::Knobs() {
  for (const KnobInfo& info : kTable) counts_[index(info.knob)] = info.fallback;
}

std::optional<Knobs> Knobs::parse(const std::vector<std::string>& entries,
                                  std::string& error) {
  Knobs out;
  for (const std::string& entry : entries) {
    const std::string_view e = entry;
    if (!e.starts_with("ONEBIT_")) continue;
    const std::size_t eq = e.find('=');
    const std::string_view name = e.substr(0, eq);
    const std::string_view value =
        eq == std::string_view::npos ? std::string_view() : e.substr(eq + 1);
    const auto info =
        std::find_if(kTable.begin(), kTable.end(),
                     [&](const KnobInfo& k) { return k.name == name; });
    if (info == kTable.end()) {
      error = std::string(name) +
              " is not a knob (docs/REPRODUCING.md lists all of them)";
      return std::nullopt;
    }
    if (value.empty()) continue;  // empty = unset
    const std::string why = out.take(*info, value);
    if (!why.empty()) {
      error = std::string(e) + ": " + why;
      return std::nullopt;
    }
  }
  return out;
}

std::string Knobs::take(const KnobInfo& info, std::string_view value) {
  const std::size_t i = index(info.knob);
  switch (info.kind) {
    case KnobKind::Count:
    case KnobKind::Flag: {
      std::uint64_t v = 0;
      if (!fi::parseCount(value, v) || v < info.min || v > info.max) {
        return info.kind == KnobKind::Flag
                   ? "not 0 or 1"
                   : "not a count in " + std::to_string(info.min) + ".." +
                         std::to_string(info.max);
      }
      counts_[i] = v;
      break;
    }
    case KnobKind::Programs: {
      std::vector<std::string> programs;
      for (const std::string_view item : splitItems(value, ',')) {
        if (item.empty()) return "empty list item";
        if (progs::findProgram(item) == nullptr) {
          return "unknown program '" + std::string(item) + "'";
        }
        programs.emplace_back(item);
      }
      programs_ = std::move(programs);
      break;
    }
    case KnobKind::Specs: {
      std::vector<fi::FaultModel> specs;
      for (const std::string_view item : splitItems(value, ';')) {
        if (item.empty()) return "empty list item";
        const std::optional<fi::FaultModel> model = fi::FaultModel::parse(item);
        if (!model) return "unknown fault model '" + std::string(item) + "'";
        specs.push_back(*model);
      }
      specs_ = std::move(specs);
      break;
    }
    case KnobKind::Path: break;
    case KnobKind::Poison: {
      fi::FleetConfig config;
      if (!fi::parsePoison(value, config)) return "not NAME[:SHARD]";
      break;
    }
  }
  text_[i] = value;
  return {};
}

std::string Knobs::describe() const {
  std::string out = "[knobs]";
  for (const KnobInfo& info : kTable) {
    out += ' ';
    out += info.name;
    out += '=';
    const bool isSet = set(info.knob);
    if (!isSet && !info.unsetText.empty()) {
      out += info.unsetText;
    } else if (info.kind == KnobKind::Count || info.kind == KnobKind::Flag) {
      out += std::to_string(count(info.knob));
    } else {
      out += text(info.knob);
    }
    out += isSet ? "(set)" : "(default)";
  }
  return out;
}

const Knobs& knobs() { return current(); }

void checkKnobs() {
  const Knobs& k = knobs();
  if (k.count(Knob::Progress) >= 1) {
    std::fprintf(stderr, "%s\n", k.describe().c_str());
  }
}

std::optional<std::string> reloadKnobs() {
  std::string error;
  std::optional<Knobs> parsed = Knobs::parse(environment(), error);
  if (!parsed) return error;
  current() = std::move(*parsed);
  return std::nullopt;
}

std::uint64_t masterSeed() { return knobs().count(Knob::Seed); }

std::size_t experimentsPerCampaign(std::size_t fallback) {
  const Knobs& k = knobs();
  return k.set(Knob::Experiments)
             ? static_cast<std::size_t>(k.count(Knob::Experiments))
             : fallback;
}

bool programSelected(const std::string& name) {
  const std::vector<std::string>& programs = knobs().programs();
  return programs.empty() ||
         std::find(programs.begin(), programs.end(), name) != programs.end();
}

std::vector<std::string> selectedPrograms() {
  std::vector<std::string> out;
  for (const auto& info : progs::allPrograms()) {
    if (programSelected(info.name)) out.push_back(info.name);
  }
  return out;
}

bool specSelected(const fi::FaultModel& model) {
  const std::vector<fi::FaultModel>& specs = knobs().specs();
  return specs.empty() ||
         std::any_of(specs.begin(), specs.end(),
                     [&](const fi::FaultModel& s) { return s.matches(model); });
}

unsigned flipWidth() {
  return static_cast<unsigned>(knobs().count(Knob::FlipWidth));
}

bool csvEnabled() { return knobs().flag(Knob::Csv); }

}  // namespace onebit::analytics
