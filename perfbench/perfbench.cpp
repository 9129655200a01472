// Campaign-runner benchmark: throughput of fig1- and fig4-shaped sweeps, a
// results-store round-trip, and a traced run that splits every experiment
// into its layers. README.md in this directory describes the workloads and
// metrics; run.py builds this program and runs it.
//
//   perfbench --workload fig1|fig4|store --seed N --seconds S --trace 0|1
//             --scratch DIR
//
// The last line on stdout is one JSON object: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Everything else goes to
// stderr. Store files are written under DIR only.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <sched.h>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fi/campaign.hpp"
#include "fi/campaign_store.hpp"
#include "fi/experiment.hpp"
#include "fi/grid.hpp"
#include "fi/injector_hook.hpp"
#include "fi/suite.hpp"
#include "progs/registry.hpp"
#include "util/rng.hpp"
#include "vm/machine.hpp"

namespace {

using namespace onebit;
using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ------------------------------------------------------------------ inputs

/// Integer flip width the bench/ figure programs default to (LLVM i32
/// registers).
constexpr unsigned kFlipWidth = 32;
/// Set-ups per run at most (one before the first round, then one after
/// each round); setup_s is their median.
constexpr std::size_t kMaxSetups = 64;
/// Distinct round contents of a fig1/fig4 run. Rounds cycle through them,
/// so every content is timed many times: load from a neighbour on a shared
/// machine slows some repeats of a content, not its lower quartile.
constexpr std::size_t kContents = 16;
/// fig1 round: single-bit read + write campaigns of this size per program.
constexpr std::size_t kFig1Experiments = 16;
/// fig4 round: this many multi-bit grid models per program and technique...
constexpr std::size_t kFig4Models = 9;
/// ...each a campaign of this size.
constexpr std::size_t kFig4Experiments = 2;
/// store source: single-bit + this many multi-bit models per program and
/// technique, with campaigns of kStoreExperiments cut into shards of
/// kStoreShardSize, so every campaign leaves many shard records.
constexpr std::size_t kStoreMultiBitModels = 2;
constexpr std::size_t kStoreExperiments = 64;
constexpr std::size_t kStoreShardSize = 2;

enum class Kind { Fig1, Fig4, Store };

struct Options {
  Kind kind = Kind::Fig1;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::filesystem::path scratch;
};

/// One compiled and profiled Table II program.
struct Program {
  std::string name;
  fi::Workload workload;
};

/// One campaign of a round.
struct Cell {
  std::size_t program = 0;
  fi::FaultModel model;
  std::size_t experiments = 0;
  std::uint64_t seed = 0;
};

/// `count` distinct multi-bit models of the Fig. 4/5 grid for `tech`.
std::vector<fi::FaultModel> sampleMultiBit(fi::FaultDomain tech,
                                           std::size_t count, util::Rng& rng) {
  std::vector<fi::FaultModel> grid = fi::multiRegisterCampaigns(tech);
  grid.erase(grid.begin());  // the single-bit baseline
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(grid[i], grid[i + rng.below(grid.size() - i)]);
  }
  grid.resize(count);
  return grid;
}

/// The campaigns of round `round` of a workload; everything random about
/// them derives from (seed, round).
std::vector<Cell> makeCells(Kind kind, std::size_t programs, std::uint64_t seed,
                            std::uint64_t round) {
  const std::uint64_t roundSeed = util::hashCombine(seed, round);
  util::Rng rng(roundSeed);
  std::vector<Cell> cells;
  for (const fi::FaultDomain tech :
       {fi::FaultDomain::RegisterRead, fi::FaultDomain::RegisterWrite}) {
    for (std::size_t p = 0; p < programs; ++p) {
      std::vector<fi::FaultModel> models;
      std::size_t n = 0;
      switch (kind) {
        case Kind::Fig1:
          models = {fi::FaultModel::singleBit(tech)};
          n = kFig1Experiments;
          break;
        case Kind::Fig4:
          models = sampleMultiBit(tech, kFig4Models, rng);
          n = kFig4Experiments;
          break;
        case Kind::Store:
          models = sampleMultiBit(tech, kStoreMultiBitModels, rng);
          models.insert(models.begin(), fi::FaultModel::singleBit(tech));
          n = kStoreExperiments;
          break;
      }
      for (fi::FaultModel& model : models) {
        model.flipWidth = kFlipWidth;
        cells.push_back(
            {p, model, n, util::hashCombine(roundSeed, cells.size())});
      }
    }
  }
  return cells;
}

std::size_t experimentsOf(const std::vector<Cell>& cells) {
  std::size_t n = 0;
  for (const Cell& c : cells) n += c.experiments;
  return n;
}

// ------------------------------------------------------------------- trace

/// Per-layer accounting of a traced run: seconds and counts summed over the
/// run.
struct Trace {
  double planS = 0, selectS = 0, restoreS = 0, prefixS = 0, suffixS = 0,
         classifyS = 0;
  std::uint64_t experiments = 0, resumed = 0, exhausted = 0;
  std::uint64_t skippedInstr = 0, prefixInstr = 0, suffixInstr = 0;

  double appendS = 0, loadS = 0, resumeS = 0;
  std::uint64_t records = 0, bytes = 0;
};

/// Forwards every callback to the plan's InjectorHook and notes when it
/// exhausts: that instant splits the hooked prefix from the hook-free
/// suffix. The machine sees the same mutations and detaches at the same
/// instruction as with the bare InjectorHook.
class SplitHook final : public vm::ExecHook {
 public:
  explicit SplitHook(const fi::FaultPlan& plan) : inner_(plan) {
    if (inner_.exhausted()) markExhausted();
  }

  void onRead(std::uint64_t readIndex, std::uint64_t instrIndex,
              const ir::Instr& instr, std::span<std::uint64_t> values,
              std::span<const bool> isReg) override {
    inner_.onRead(readIndex, instrIndex, instr, values, isReg);
    noteExhaustion(instrIndex);
  }
  void onWrite(std::uint64_t writeIndex, std::uint64_t instrIndex,
               const ir::Instr& instr, std::uint64_t& value) override {
    inner_.onWrite(writeIndex, instrIndex, instr, value);
    noteExhaustion(instrIndex);
  }
  void onStore(std::uint64_t storeIndex, std::uint64_t instrIndex,
               const ir::Instr& instr, std::uint64_t addr,
               vm::Memory& mem) override {
    inner_.onStore(storeIndex, instrIndex, instr, addr, mem);
    noteExhaustion(instrIndex);
  }

  [[nodiscard]] unsigned activations() const noexcept {
    return inner_.activations();
  }
  /// When and at which dynamic instruction the hook exhausted mid-run.
  [[nodiscard]] const std::optional<Clock::time_point>& exhaustedAt() const {
    return at_;
  }
  [[nodiscard]] std::uint64_t exhaustedInstr() const noexcept {
    return instr_;
  }

 private:
  void noteExhaustion(std::uint64_t instrIndex) {
    if (!exhausted() && inner_.exhausted()) {
      markExhausted();
      at_ = Clock::now();
      instr_ = instrIndex;
    }
  }

  fi::InjectorHook inner_;
  std::optional<Clock::time_point> at_;
  std::uint64_t instr_ = 0;
};

std::uint64_t saturatingSub(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : 0;
}

/// fi::runExperiment, step by step, with a span around each layer:
/// snapshot select, restore (machine construction), hooked prefix,
/// hook-free suffix, classification.
fi::ExperimentResult tracedExperiment(const fi::Workload& w,
                                      const fi::FaultPlan& plan, Trace& t) {
  const Clock::time_point t0 = Clock::now();
  SplitHook hook(plan);
  const vm::ExecLimits& limits = w.faultyLimits();
  const vm::Snapshot* snap =
      w.snapshotAtOrBefore(plan.domain, plan.firstIndex, limits.maxInstructions);
  const Clock::time_point t1 = Clock::now();
  std::optional<vm::Machine> machine;
  if (snap != nullptr) {
    machine.emplace(w.module(), *snap, limits, &hook);
  } else {
    machine.emplace(w.module(), limits, &hook);
  }
  const Clock::time_point t2 = Clock::now();
  const vm::ExecResult faulty = machine->run();
  const Clock::time_point t3 = Clock::now();
  fi::ExperimentResult result;
  result.outcome = fi::classify(faulty, w.golden());
  result.trap = faulty.trap;
  result.activations = hook.activations();
  result.instructions = faulty.instructions;
  const Clock::time_point t4 = Clock::now();

  const std::uint64_t start = snap != nullptr ? snap->instructions : 0;
  t.selectS += seconds(t0, t1);
  t.restoreS += seconds(t1, t2);
  t.classifyS += seconds(t3, t4);
  ++t.experiments;
  if (snap != nullptr) ++t.resumed;
  t.skippedInstr += start;
  if (hook.exhaustedAt()) {
    ++t.exhausted;
    t.prefixS += seconds(t2, *hook.exhaustedAt());
    t.suffixS += seconds(*hook.exhaustedAt(), t3);
    t.prefixInstr += saturatingSub(hook.exhaustedInstr(), start);
    t.suffixInstr += saturatingSub(faulty.instructions, hook.exhaustedInstr());
  } else if (hook.exhausted()) {  // nothing to inject: all of it is suffix
    t.suffixS += seconds(t2, t3);
    t.suffixInstr += saturatingSub(faulty.instructions, start);
  } else {  // the run ended before the flip budget was spent
    t.prefixS += seconds(t2, t3);
    t.prefixInstr += saturatingSub(faulty.instructions, start);
  }
  return result;
}

// ----------------------------------------------------------------- results

/// What a campaign's result is compared on.
struct Tally {
  stats::OutcomeCounts counts;
  fi::ActivationHistogram hist{};
  std::size_t experiments = 0;

  void add(const fi::ExperimentResult& r) {
    counts.add(r.outcome);
    const unsigned bucket = std::min(r.activations, fi::kMaxActivationBucket);
    ++hist[static_cast<std::size_t>(r.outcome)][bucket];
    ++experiments;
  }
  void merge(const Tally& o) {
    counts.merge(o.counts);
    fi::mergeHistogram(hist, o.hist);
    experiments += o.experiments;
  }
  static Tally of(const fi::CampaignResult& r) {
    return {r.counts, r.activationHist, r.completedExperiments};
  }
  bool operator==(const Tally&) const = default;
};

/// One shard of a campaign, as the results store records it.
struct ShardRecord {
  fi::CampaignStore::CampaignMeta meta;
  std::size_t shard = 0;
  std::size_t first = 0;
  std::size_t count = 0;
  fi::CampaignStore::ShardAggregate agg;
};

fi::CampaignStore::CampaignMeta metaOf(const Program& p, const Cell& c) {
  fi::CampaignStore::CampaignMeta meta;
  meta.key = fi::CampaignStore::campaignKey(
      c.model, c.experiments, c.seed, p.workload.fingerprintFor(c.model));
  meta.workload = p.name;
  meta.specLabel = c.model.label();
  meta.seed = c.seed;
  meta.experiments = c.experiments;
  meta.candidates = p.workload.candidates(c.model.domain);
  return meta;
}

/// Run `cells` through the campaign runner (one fi::CampaignSuite).
std::vector<fi::CampaignResult> runSuite(const std::vector<Program>& programs,
                                         const std::vector<Cell>& cells,
                                         const fi::SuiteConfig& config) {
  fi::CampaignSuite suite(config);
  for (const Cell& c : cells) {
    const Program& p = programs[c.program];
    suite.addCell(p.name + " " + c.model.label(), p.workload, c.model,
                  c.experiments, c.seed, p.name);
  }
  return suite.run();
}

/// Run one campaign experiment by experiment through tracedExperiment,
/// tallied per shard in the geometry the suite would use. Appends the
/// shards to `records` and returns the campaign's tally.
Tally runTracedCell(const Program& p, const Cell& c, std::size_t shardSize,
                    Trace& t, std::vector<ShardRecord>& records) {
  const fi::CampaignStore::CampaignMeta meta = metaOf(p, c);
  const std::size_t size = fi::resolveShardSize(c.experiments, shardSize);
  Tally total;
  for (std::size_t first = 0; first < c.experiments; first += size) {
    const std::size_t last = std::min(c.experiments, first + size);
    Tally shard;
    for (std::size_t i = first; i < last; ++i) {
      const Clock::time_point t0 = Clock::now();
      const fi::FaultPlan plan =
          fi::FaultPlan::forExperiment(c.model, meta.candidates, c.seed, i);
      t.planS += seconds(t0, Clock::now());
      shard.add(tracedExperiment(p.workload, plan, t));
    }
    records.push_back(
        {meta, first / size, first, last - first, {shard.counts, shard.hist}});
    total.merge(shard);
  }
  return total;
}

/// Run a round's cells: through the suite, or traced experiment by
/// experiment (then the shards also land in `records`).
std::vector<Tally> runRound(const std::vector<Program>& programs,
                            const std::vector<Cell>& cells,
                            const fi::SuiteConfig& config, Trace* trace,
                            std::vector<ShardRecord>& records) {
  std::vector<Tally> out;
  out.reserve(cells.size());
  if (trace == nullptr) {
    for (const fi::CampaignResult& r : runSuite(programs, cells, config)) {
      out.push_back(Tally::of(r));
    }
  } else {
    for (const Cell& c : cells) {
      out.push_back(runTracedCell(programs[c.program], c, config.shardSize,
                                  *trace, records));
    }
  }
  return out;
}

/// Write `records` to a fresh store at `path`, load them into a second
/// store instance, and resume `cells` from it. nullopt when the store did
/// not read back exactly what was written or a campaign was not wholly
/// resumed from it.
std::optional<std::vector<Tally>> roundTrip(
    const std::vector<Program>& programs, const std::vector<Cell>& cells,
    std::size_t shardSize, const std::vector<ShardRecord>& records,
    const std::filesystem::path& path, Trace* trace) {
  std::filesystem::remove(path);
  bool ok = true;
  const Clock::time_point t0 = Clock::now();
  {
    fi::CampaignStore out(path.string());
    for (const ShardRecord& r : records) {
      ok = out.appendShard(r.meta, r.shard, r.first, r.count, r.agg) && ok;
    }
  }
  const Clock::time_point t1 = Clock::now();
  fi::CampaignStore in(path.string());
  const fi::CampaignStore::LoadStats stats = in.load();
  const Clock::time_point t2 = Clock::now();
  fi::SuiteConfig config;
  config.threads = 1;
  config.shardSize = shardSize;
  config.resume = &in;
  const std::vector<fi::CampaignResult> results =
      runSuite(programs, cells, config);
  const Clock::time_point t3 = Clock::now();
  if (trace != nullptr) {
    trace->appendS += seconds(t0, t1);
    trace->loadS += seconds(t1, t2);
    trace->resumeS += seconds(t2, t3);
    trace->records += records.size();
    trace->bytes += std::filesystem::file_size(path);
  }
  ok = ok && stats.shardRecords == records.size() && stats.malformed == 0 &&
       stats.duplicates == 0;
  std::vector<Tally> out;
  for (const fi::CampaignResult& r : results) {
    ok = ok && r.resumedExperiments == r.config.experiments;
    out.push_back(Tally::of(r));
  }
  if (!ok) return std::nullopt;
  return out;
}

// ------------------------------------------------------------------ set-up

/// Times set-ups: compiling and profiling every Table II program (golden
/// run with snapshot capture), the way the bench/ figure programs load
/// their workloads. The run uses the programs of the first set-up; later ones,
/// taken between rounds, only add samples, so set-up time is sampled across
/// the whole run instead of in one burst at its start.
class SetUps {
 public:
  std::vector<Program> first() { return setUp(); }
  void again() {
    if (totalS_.size() < kMaxSetups) setUp();
  }

  [[nodiscard]] const std::vector<double>& totalS() const { return totalS_; }
  [[nodiscard]] const std::vector<double>& compileS() const {
    return compileS_;
  }
  [[nodiscard]] const std::vector<double>& goldenS() const { return goldenS_; }

 private:
  std::vector<Program> setUp() {
    std::vector<Program> out;
    double compileS = 0, goldenS = 0;
    for (const progs::ProgramInfo& info : progs::allPrograms()) {
      const Clock::time_point t0 = Clock::now();
      ir::Module mod = progs::compileProgram(info);
      const Clock::time_point t1 = Clock::now();
      // The bench/ figure programs' default backend for hook-free segments.
      out.push_back(
          {info.name,
           fi::Workload(std::move(mod), fi::Workload::kDefaultHangFactor, {},
                        {}, vm::DispatchBackend::Threaded)});
      const Clock::time_point t2 = Clock::now();
      compileS += seconds(t0, t1);
      goldenS += seconds(t1, t2);
    }
    totalS_.push_back(compileS + goldenS);
    compileS_.push_back(compileS);
    goldenS_.push_back(goldenS);
    return out;
  }

  std::vector<double> totalS_, compileS_, goldenS_;
};

/// The slow oracle: every program profiled without snapshots on the
/// library's default backend, so each experiment is interpreted from
/// scratch on the reference loop.
std::vector<fi::Workload> oracleWorkloads() {
  std::vector<fi::Workload> out;
  for (const progs::ProgramInfo& info : progs::allPrograms()) {
    out.emplace_back(progs::compileProgram(info),
                     fi::Workload::kDefaultHangFactor,
                     fi::SnapshotPolicy::disabled());
  }
  return out;
}

Tally oracleCell(const fi::Workload& w, const Cell& c) {
  Tally t;
  for (std::size_t i = 0; i < c.experiments; ++i) {
    t.add(fi::runExperiment(w, fi::FaultPlan::forExperiment(
                                   c.model, w.candidates(c.model.domain),
                                   c.seed, i)));
  }
  return t;
}

/// Campaigns of `cells` whose tally disagrees with the oracle (only the
/// cells `pick` selects are checked).
template <class Pick>
std::size_t oracleMismatches(const std::vector<fi::Workload>& oracle,
                             const std::vector<Cell>& cells,
                             const std::vector<Tally>& tallies, Pick pick) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!pick(i)) continue;
    if (!(oracleCell(oracle[cells[i].program], cells[i]) == tallies[i])) ++bad;
  }
  return bad;
}

// ----------------------------------------------------------------- measure

/// Keeps the process on the allowed CPU that currently runs a fixed probe
/// loop fastest. On a shared host one vCPU at a time often shares its core
/// with a busy neighbour and runs ~1.6x slower, and which one moves every
/// few tens of seconds; re-picking between rounds keeps the measured rounds
/// off it. A no-op where the affinity calls fail or one CPU is allowed.
class CpuPicker {
 public:
  CpuPicker() {
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) {
      CPU_ZERO(&allowed_);
    }
  }

  void pick() {
    if (CPU_COUNT(&allowed_) < 2) return;
    int best = -1;
    double bestS = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed_) || !pin(cpu)) continue;
      const double s = std::min({probe(), probe(), probe()});
      if (best < 0 || s < bestS) {
        best = cpu;
        bestS = s;
      }
    }
    if (best >= 0) pin(best);
  }

 private:
  static bool pin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0;
  }

  static double probe() {
    volatile std::uint64_t acc = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t i = 0; i < 1'000'000; ++i) acc = acc + i * i;
    return seconds(t0, Clock::now());
  }

  cpu_set_t allowed_{};
};

struct Measurement {
  /// Wall-clock of each measured round, per round content.
  std::vector<std::vector<double>> contentS;
  std::uint64_t experiments = 0;  ///< delivered by the measured rounds
  std::size_t attempted = 0;      ///< campaigns run in measured rounds
  std::size_t failed = 0;         ///< of those, incomplete or wrong
  bool correct = true;

  [[nodiscard]] std::vector<double> roundS() const {
    std::vector<double> all;
    for (const std::vector<double>& s : contentS) {
      all.insert(all.end(), s.begin(), s.end());
    }
    return all;
  }
};

/// fig1 / fig4: sweep rounds through the campaign runner until the time is
/// up, cycling through kContents round contents and sampling one more
/// set-up after each round; a separate content warms up. Every repeat of a
/// content must reproduce its first tallies exactly, and the first and last
/// content are checked against the oracle. Traced runs also round-trip the
/// shards of every content through the store and check the resumed results.
Measurement measureSweeps(const Options& o, const std::vector<Program>& programs,
                          SetUps& setUps, CpuPicker& cpus, Trace* trace) {
  fi::SuiteConfig config;
  config.threads = 1;
  std::vector<ShardRecord> records, repeatRecords;
  Trace warmUp;
  runRound(programs, makeCells(o.kind, programs.size(), o.seed, 0), config,
           trace != nullptr ? &warmUp : nullptr, records);
  records.clear();

  std::vector<std::vector<Cell>> contents;
  for (std::size_t c = 0; c < kContents; ++c) {
    contents.push_back(makeCells(o.kind, programs.size(), o.seed, c + 1));
  }
  std::vector<std::vector<Tally>> firstTallies(kContents);
  Measurement m;
  m.contentS.resize(kContents);
  const Clock::time_point start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    const std::size_t c = round % kContents;
    const std::vector<Cell>& cells = contents[c];
    const bool first = round < kContents;
    const Clock::time_point t0 = Clock::now();
    std::vector<Tally> tallies = runRound(programs, cells, config, trace,
                                          first ? records : repeatRecords);
    const Clock::time_point t1 = Clock::now();
    repeatRecords.clear();
    m.contentS[c].push_back(seconds(t0, t1));
    m.experiments += experimentsOf(cells);
    m.attempted += cells.size();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (first ? tallies[i].experiments != cells[i].experiments
                : !(tallies[i] == firstTallies[c][i])) {
        ++m.failed;
      }
    }
    if (first) firstTallies[c] = std::move(tallies);
    setUps.again();
    if (c + 1 == kContents) cpus.pick();
    if (seconds(start, Clock::now()) >= o.seconds) break;
  }
  const std::size_t reached = std::min(kContents, m.roundS().size());

  const std::vector<fi::Workload> oracle = oracleWorkloads();
  const auto all = [](std::size_t) { return true; };
  m.failed += oracleMismatches(oracle, contents[0], firstTallies[0], all);
  if (reached > 1) {
    m.failed += oracleMismatches(oracle, contents[reached - 1],
                                 firstTallies[reached - 1], all);
  }
  if (trace != nullptr) {
    std::vector<Cell> cells;
    std::vector<Tally> tallies;
    for (std::size_t c = 0; c < reached; ++c) {
      cells.insert(cells.end(), contents[c].begin(), contents[c].end());
      tallies.insert(tallies.end(), firstTallies[c].begin(),
                     firstTallies[c].end());
    }
    const std::optional<std::vector<Tally>> resumed =
        roundTrip(programs, cells, config.shardSize, records,
                  o.scratch / "trace.jsonl", trace);
    if (!resumed || *resumed != tallies) m.correct = false;
  }
  return m;
}

/// store: run the source campaigns once (recording their shards), then
/// round-trip those shard records through a fresh store — write, load,
/// resume — until the time is up, sampling one more set-up after each round.
/// Every resumed result must equal what the source run computed; a sample of
/// the source campaigns is checked against the oracle.
Measurement measureStore(const Options& o, const std::vector<Program>& programs,
                         SetUps& setUps, CpuPicker& cpus, Trace* trace) {
  const std::vector<Cell> cells =
      makeCells(Kind::Store, programs.size(), o.seed, 0);
  fi::SuiteConfig config;
  config.threads = 1;
  config.shardSize = kStoreShardSize;
  std::vector<ShardRecord> records;
  std::vector<Tally> reference;
  if (trace != nullptr) {
    reference = runRound(programs, cells, config, trace, records);
  } else {
    const std::filesystem::path sourcePath = o.scratch / "source.jsonl";
    std::filesystem::remove(sourcePath);
    fi::CampaignStore source(sourcePath.string());
    config.record = &source;
    reference = runRound(programs, cells, config, nullptr, records);
    config.record = nullptr;
    for (const auto& [key, campaign] : source.snapshot().campaigns) {
      const std::size_t size =
          fi::resolveShardSize(campaign.meta.experiments, kStoreShardSize);
      for (const auto& [range, agg] : campaign.shards) {
        records.push_back(
            {campaign.meta, range.first / size, range.first, range.second, agg});
      }
    }
  }

  Measurement m;
  m.contentS.resize(1);
  const std::vector<fi::Workload> oracle = oracleWorkloads();
  m.failed += oracleMismatches(oracle, cells, reference,
                               [](std::size_t i) { return i % 5 == 0; });
  for (const Tally& t : reference) {
    if (t.experiments != kStoreExperiments) m.correct = false;
  }

  const std::filesystem::path path = o.scratch / "roundtrip.jsonl";
  if (!roundTrip(programs, cells, kStoreShardSize, records, path, nullptr)) {
    m.correct = false;
  }
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point t0 = Clock::now();
    const std::optional<std::vector<Tally>> resumed =
        roundTrip(programs, cells, kStoreShardSize, records, path, trace);
    const Clock::time_point t1 = Clock::now();
    m.contentS[0].push_back(seconds(t0, t1));
    m.experiments += experimentsOf(cells);
    m.attempted += cells.size();
    setUps.again();
    if (m.contentS[0].size() % kContents == 0) cpus.pick();
    if (!resumed) {
      m.failed += cells.size();
      continue;
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!((*resumed)[i] == reference[i])) ++m.failed;
    }
  } while (seconds(start, Clock::now()) < o.seconds);
  return m;
}

// ------------------------------------------------------------------ report

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void printResult(const Measurement& m, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += m.correct && m.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(m.attempted);
  json += ", \"failed\": " + std::to_string(m.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name, metrics[i].value,
                  metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// The mean over round contents of each content's q-quantile round time:
/// on a shared machine a low quantile of repeats of identical work tracks
/// the program's speed, a median or mean over varying work also tracks the
/// neighbours' load.
double contentQuantile(const Measurement& m, double q) {
  double total = 0;
  std::size_t n = 0;
  for (const std::vector<double>& s : m.contentS) {
    if (s.empty()) continue;
    total += quantile(s, q);
    ++n;
  }
  return total / static_cast<double>(n);
}

std::vector<Metric> endToEnd(const Measurement& m, const SetUps& setUps) {
  const double roundS = contentQuantile(m, 0.25);
  const double perRound = static_cast<double>(m.experiments) /
                          static_cast<double>(m.roundS().size());
  return {
      {"exp_per_s", perRound / roundS, "1/s"},
      {"round_ms", roundS * 1e3, "ms"},
      {"setup_s", quantile(setUps.totalS(), 0.5), "s"},
  };
}

std::vector<Metric> perLayer(const Measurement& m, const SetUps& setUps,
                             const std::vector<Program>& programs,
                             const Trace& t) {
  std::size_t snapshots = 0;
  for (const Program& p : programs) snapshots += p.workload.snapshotCount();
  const double exps = static_cast<double>(std::max<std::uint64_t>(1, t.experiments));
  const double recs = static_cast<double>(std::max<std::uint64_t>(1, t.records));
  const auto mips = [](std::uint64_t instr, double s) {
    return s > 0 ? static_cast<double>(instr) / s / 1e6 : 0.0;
  };
  return {
      {"compile_ms", quantile(setUps.compileS(), 0.5) * 1e3, "ms"},
      {"golden_ms", quantile(setUps.goldenS(), 0.5) * 1e3, "ms"},
      {"snapshots", static_cast<double>(snapshots), "count"},
      {"experiments", static_cast<double>(t.experiments), "count"},
      {"traced_exp_per_s", static_cast<double>(m.experiments) / sum(m.roundS()),
       "1/s"},
      {"plan_ns", t.planS / exps * 1e9, "ns"},
      {"snapshot_select_ns", t.selectS / exps * 1e9, "ns"},
      {"restore_us", t.restoreS / exps * 1e6, "us"},
      {"hooked_prefix_us", t.prefixS / exps * 1e6, "us"},
      {"suffix_us", t.suffixS / exps * 1e6, "us"},
      {"classify_ns", t.classifyS / exps * 1e9, "ns"},
      {"snapshot_hit_pct", 100.0 * static_cast<double>(t.resumed) / exps, "%"},
      {"hook_exhausted_pct", 100.0 * static_cast<double>(t.exhausted) / exps,
       "%"},
      {"skipped_instr_per_exp", static_cast<double>(t.skippedInstr) / exps,
       "count"},
      {"prefix_instr_per_exp", static_cast<double>(t.prefixInstr) / exps,
       "count"},
      {"suffix_instr_per_exp", static_cast<double>(t.suffixInstr) / exps,
       "count"},
      {"prefix_minstr_per_s", mips(t.prefixInstr, t.prefixS), "Minstr/s"},
      {"suffix_minstr_per_s", mips(t.suffixInstr, t.suffixS), "Minstr/s"},
      {"store_records", static_cast<double>(t.records), "count"},
      {"store_bytes_per_record", static_cast<double>(t.bytes) / recs, "B"},
      {"store_append_us", t.appendS / recs * 1e6, "us"},
      {"store_load_us", t.loadS / recs * 1e6, "us"},
      {"store_resume_us", t.resumeS / recs * 1e6, "us"},
  };
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload fig1|fig4|store "
               "--seed N --seconds S --trace 0|1 --scratch DIR\n",
               msg);
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options o;
  bool haveWorkload = false, haveScratch = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      haveWorkload = true;
      if (value == "fig1") {
        o.kind = Kind::Fig1;
      } else if (value == "fig4") {
        o.kind = Kind::Fig4;
      } else if (value == "store") {
        o.kind = Kind::Store;
      } else {
        usage(("unknown workload '" + value + "'").c_str());
      }
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed takes an integer");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.seconds > 0)) {
        usage("--seconds takes a positive number");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (arg == "--scratch") {
      haveScratch = true;
      o.scratch = value;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (!haveWorkload || !haveScratch || o.seconds <= 0) {
    usage("--workload, --seconds and --scratch are required");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parseArgs(argc, argv);
  try {
    std::filesystem::create_directories(o.scratch);
    CpuPicker cpus;
    cpus.pick();
    SetUps setUps;
    const std::vector<Program> programs = setUps.first();
    Trace trace;
    Trace* tracing = o.trace ? &trace : nullptr;
    const Measurement m = o.kind == Kind::Store
                              ? measureStore(o, programs, setUps, cpus, tracing)
                              : measureSweeps(o, programs, setUps, cpus, tracing);
    const std::vector<double> roundS = m.roundS();
    std::fprintf(stderr,
                 "perfbench: %zu rounds, %llu experiments, %zu campaigns, "
                 "%zu failed; round median %.3f ms, p90 %.3f ms; set-up "
                 "median %.3f ms of %zu\n",
                 roundS.size(), static_cast<unsigned long long>(m.experiments),
                 m.attempted, m.failed, quantile(roundS, 0.5) * 1e3,
                 quantile(roundS, 0.9) * 1e3,
                 quantile(setUps.totalS(), 0.5) * 1e3, setUps.totalS().size());
    printResult(m, o.trace ? perLayer(m, setUps, programs, trace)
                           : endToEnd(m, setUps));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
