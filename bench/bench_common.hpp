// Shared helpers for the paper-artifact bench harnesses.
//
// Every binary prints the rows/series of one table or figure from the paper.
// Scale knobs (all optional):
//   ONEBIT_EXPERIMENTS  experiments per campaign (default varies per bench)
//   ONEBIT_SEED         master seed (default 2017, the paper's year)
//   ONEBIT_PROGRAMS     comma-separated subset of Table II program names
//   ONEBIT_SPECS        semicolon-separated subset of fault-spec labels,
//                       e.g. "read/single;write/m=3,w=1" (semicolons
//                       because multi-bit labels contain commas); matches
//                       whole FaultModel::label() strings
//   ONEBIT_CSV          1 = emit tables as CSV (for plotting scripts)
//   ONEBIT_FLIP_WIDTH   integer-register width of the flip model
//                       (default 32 = paper-faithful; 64 = raw VM width)
//   ONEBIT_THREADS      worker threads shared by the whole sweep
//                       (default: all cores)
//   ONEBIT_SHARD_SIZE   experiments per shard (default: auto)
//   ONEBIT_PROGRESS     1 = per-campaign suite progress lines on stderr,
//                       plus one [prune] line with the golden-snapshot
//                       matches; 2 = per-shard lines as well
//
// Golden-prefix fast-forward knobs (see docs/ARCHITECTURE.md). The golden
// snapshots also drive outcome-equivalence pruning, which every driver
// runs: a faulty run whose state matches a snapshot ends there with the
// golden outcome. Both are pure speedups: outputs are bit-identical
// whatever these knobs say.
//   ONEBIT_SNAPSHOT_INTERVAL  dynamic instructions between golden-run
//                       snapshot captures (coarsened on the fly by the
//                       budget); 0 = no snapshots and no pruning (every
//                       experiment interprets from scratch to its end),
//                       unset/negative = the default of 1024
//   ONEBIT_SNAPSHOT_BUDGET    per-workload byte budget for kept snapshots
//                       (default 16 MiB); 0 = same as interval 0
//
// Every driver runs its hook-free segments (golden runs with their
// snapshot captures, and each experiment's suffix once its faults are
// spent) on the direct-threaded loop, which the differential fuzzer and
// the DispatchEquivalence suite hold bit-identical to the reference loop
// (see "Dispatch backends" in docs/ARCHITECTURE.md).
//
// Results-store knobs (checkpoint/resume; see docs/ARCHITECTURE.md):
//   ONEBIT_STORE        path of a JSONL campaign store; every completed
//                       shard is appended (and flushed) there
//   ONEBIT_RESUME       1 = skip shards already recorded in ONEBIT_STORE
//                       and merge their stored aggregates instead
//   ONEBIT_MAX_SHARDS   stop each campaign after this many fresh shards
//                       (checkpoint cap; partial results, for testing
//                       interruption without killing the process)
//
// Campaign-fleet knobs (multi-process execution; see fi/fleet.hpp,
// fi/supervisor.hpp and the "Campaign fleet" and "Self-healing fleet"
// sections of docs/ARCHITECTURE.md):
//   ONEBIT_FLEET_WORKERS      fork this many fleet worker processes under a
//                       FleetSupervisor and run the sweep through the lease
//                       broker instead of the in-process thread pool
//                       (0/unset = off). Crashed workers are respawned with
//                       capped exponential backoff, shards that repeatedly
//                       kill their workers are quarantined, and a final
//                       in-process pass finishes whatever remains, so output
//                       is bit-identical to the in-process run. Uses
//                       ONEBIT_STORE when set (the store doubles as the
//                       fleet's work queue and makes the run resumable);
//                       otherwise a temporary store is created and removed.
//                       ONEBIT_MAX_SHARDS caps only that final pass.
//   ONEBIT_FLEET_LEASE_MS     shard lease duration (default 30000)
//   ONEBIT_FLEET_HEARTBEAT_MS lease heartbeat period (default lease/3)
//   ONEBIT_FLEET_KILL_AFTER   crash injection: the first worker SIGKILLs
//                       itself right after its Nth lease claim, once (its
//                       respawn does not); the others re-lease its shard
//                       (tests fault tolerance without changing any output;
//                       0/unset = off)
//   ONEBIT_POISON_RETRIES     mid-lease worker deaths on one shard range
//                       before the supervisor quarantines it (default 3)
//   ONEBIT_LEASE_QUANTILE     adaptive lease deadlines: quantile of
//                       observed per-shard cost the deadline tracks
//                       (default 0.9; 0 = fixed deadlines)
//   ONEBIT_FLEET_POISON       test hook "NAME[:SHARD]": a worker SIGKILLs
//                       itself right after claiming that shard (any shard
//                       of NAME when :SHARD is omitted) — the fleet
//                       quarantines it and still converges
//   ONEBIT_FLEET_CHAOS_KILL_MS  chaos hook: the supervisor SIGKILLs one
//                       random live worker roughly this often (never
//                       counted toward poison detection; 0/unset = off)
//
// Drivers that sweep several campaigns should not loop over campaign();
// they should declare every (workload × spec) cell on a SweepBuilder and
// run() it once: the whole sweep executes as ONE fi::CampaignSuite, shards
// from all campaigns interleaved on a single thread pool, with results
// bit-identical to the one-at-a-time loop (see fi/suite.hpp). The fig1–fig4
// drivers are one runFigure() call each: the figure itself lives in
// analytics/figures.cpp, shared with `report --figure`.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analytics/aggregate.hpp"
#include "analytics/figures.hpp"
#include "analytics/knobs.hpp"
#include "fi/campaign.hpp"
#include "fi/campaign_store.hpp"
#include "fi/fleet.hpp"
#include "fi/suite.hpp"
#include "fi/supervisor.hpp"
#include "progs/registry.hpp"
#include "util/env.hpp"
#include "util/file_lock.hpp"
#include "util/table.hpp"

namespace onebit::bench {

struct NamedWorkload {
  std::string name;
  fi::Workload workload;
};

// The selection knobs (seed, scale, program/spec filters, flip width) live
// in analytics/knobs.hpp so the drivers and the figure-regenerating
// `report` tool resolve the same campaign cells from the same environment —
// re-exported here under the historical names every driver already uses.
using analytics::masterSeed;
using analytics::experimentsPerCampaign;
using analytics::programSelected;
using analytics::specSelected;

/// The golden-prefix snapshot policy selected by the environment knobs.
/// ONEBIT_SNAPSHOT_INTERVAL: 0 disables the cache, a positive value sets the
/// initial capture spacing in instructions, unset/negative keeps the default.
/// ONEBIT_SNAPSHOT_BUDGET: per-workload byte budget (0 disables).
inline fi::SnapshotPolicy snapshotPolicyFromEnv() {
  fi::SnapshotPolicy policy;
  const std::int64_t interval = util::envInt("ONEBIT_SNAPSHOT_INTERVAL", -1);
  if (interval >= 0) policy.interval = static_cast<std::uint64_t>(interval);
  policy.budgetBytes = util::envSize("ONEBIT_SNAPSHOT_BUDGET",
                                     policy.budgetBytes);
  return policy;
}

/// Profile `mod` as every driver's campaigns run it: the snapshot knobs from
/// the environment, pruning on, and the direct-threaded loop for hook-free
/// segments (as fleet workers rebuild it, fi/fleet.cpp).
inline fi::Workload makeWorkload(
    ir::Module mod,
    std::uint64_t hangFactor = fi::Workload::kDefaultHangFactor) {
  return fi::Workload(std::move(mod), hangFactor, snapshotPolicyFromEnv(),
                      fi::PrunePolicy{}, vm::DispatchBackend::Threaded);
}

/// Compile and profile all (selected) Table II workloads.
inline std::vector<NamedWorkload> loadWorkloads() {
  std::vector<NamedWorkload> out;
  for (const auto& info : progs::allPrograms()) {
    if (!programSelected(info.name)) continue;
    out.push_back({info.name, makeWorkload(progs::compileProgram(info))});
  }
  return out;
}

/// Integer flip width used by the paper-artifact harnesses. Defaults to 32
/// (the paper's LLVM i32 registers); ONEBIT_FLIP_WIDTH=64 selects the raw
/// VM register width instead.
using analytics::flipWidth;

/// The process-wide campaign store named by ONEBIT_STORE, loaded once on
/// first use; nullptr when the knob is unset.
inline fi::CampaignStore* sharedStore() {
  static const std::unique_ptr<fi::CampaignStore> store = [] {
    const std::string path = util::envStr("ONEBIT_STORE", "");
    if (path.empty()) return std::unique_ptr<fi::CampaignStore>();
    auto s = std::make_unique<fi::CampaignStore>(path);
    const fi::CampaignStore::LoadStats stats = s->load();
    std::fprintf(stderr,
                 "[store] %s: %zu shard record(s), %zu workload record(s)",
                 path.c_str(), stats.shardRecords, stats.workloadRecords);
    // Unknown kinds (e.g. the "outcome" lines of older pruning builds) are
    // not damage; count them apart, as `report --summary` does.
    if (stats.malformed != stats.unknownKinds) {
      std::fprintf(stderr, ", %zu malformed line(s) skipped",
                   stats.malformed - stats.unknownKinds);
    }
    if (stats.unknownKinds != 0) {
      std::fprintf(stderr, ", %zu unknown-kind line(s) skipped",
                   stats.unknownKinds);
    }
    std::fputc('\n', stderr);
    return s;
  }();
  return store.get();
}

inline bool resumeEnabled() {
  const bool enabled = util::envInt("ONEBIT_RESUME", 0) != 0;
  if (enabled && sharedStore() == nullptr) {
    static const bool warned = [] {
      std::fprintf(stderr,
                   "warning: ONEBIT_RESUME is set but ONEBIT_STORE is not; "
                   "nothing to resume from\n");
      return true;
    }();
    (void)warned;
    return false;
  }
  return enabled;
}

/// The store binding bench campaigns run under: records to ONEBIT_STORE when
/// set, resumes when ONEBIT_RESUME=1. Inert when no store is configured.
inline fi::StoreBinding storeBinding(std::string workloadName) {
  fi::StoreBinding binding;
  binding.store = sharedStore();
  binding.resume = resumeEnabled();
  binding.workload = std::move(workloadName);
  return binding;
}

/// Worker processes requested by ONEBIT_FLEET_WORKERS (0 = run in-process).
inline std::size_t fleetWorkers() {
  return util::envSize("ONEBIT_FLEET_WORKERS");
}

/// The fleet options the ONEBIT_FLEET_* knobs select: workers, poison
/// retries, chaos kills, the crash hook, lease, heartbeat, the
/// adaptive-deadline quantile (ONEBIT_LEASE_QUANTILE; 0 disables
/// adaptation), and the ONEBIT_FLEET_POISON "NAME[:SHARD]" test hook (a
/// malformed spec is ignored, as every env knob ignores garbage).
inline fi::FleetSupervisorConfig supervisorOptionsFromEnv() {
  fi::FleetSupervisorConfig opts;
  opts.workers = fleetWorkers();
  opts.poisonRetries = util::envSize("ONEBIT_POISON_RETRIES",
                                     opts.poisonRetries);
  opts.chaosKillMs = static_cast<std::uint64_t>(
      util::envSize("ONEBIT_FLEET_CHAOS_KILL_MS"));
  opts.killFirstWorkerAfterClaims = util::envSize("ONEBIT_FLEET_KILL_AFTER");
  fi::FleetConfig& config = opts.fleet;
  config.leaseMs = static_cast<std::uint64_t>(
      util::envSize("ONEBIT_FLEET_LEASE_MS", config.leaseMs));
  config.heartbeatMs = static_cast<std::uint64_t>(
      util::envSize("ONEBIT_FLEET_HEARTBEAT_MS", config.heartbeatMs));
  const std::string quantile = util::envStr("ONEBIT_LEASE_QUANTILE", "");
  if (!quantile.empty()) {
    char* end = nullptr;
    const double q = std::strtod(quantile.c_str(), &end);
    if (end != quantile.c_str() && *end == '\0') {
      if (q > 0.0 && q <= 1.0) {
        config.leaseQuantile = q;
      } else {
        config.adaptiveLease = false;
      }
    }
  }
  (void)fi::parsePoison(util::envStr("ONEBIT_FLEET_POISON", ""), config);
  return opts;
}

/// The suite configuration every bench sweep runs under, resolved from the
/// environment knobs once per builder.
inline fi::SuiteConfig suiteConfigFromEnv() {
  fi::SuiteConfig cfg;
  cfg.threads = util::envSize("ONEBIT_THREADS");
  cfg.shardSize = util::envSize("ONEBIT_SHARD_SIZE");
  cfg.maxShards = util::envSize("ONEBIT_MAX_SHARDS");
  cfg.withStore(storeBinding({}));
  return cfg;
}

/// Declarative bench sweep: queue (workload × spec) campaign cells with
/// add(), then run() once — the whole sweep executes as ONE
/// fi::CampaignSuite honoring every env knob campaign() honors. Results come
/// back in add() order; each cell is bit-identical to what a solo
/// bench::campaign() call with the same arguments returns.
class SweepBuilder {
 public:
  SweepBuilder() : suite_(suiteConfigFromEnv()) {
    const std::int64_t level = util::envInt("ONEBIT_PROGRESS", 0);
    if (level >= 1) {
      suite_.onProgress([](const fi::SuiteProgress& p) {
        std::fprintf(stderr,
                     "  [%s] %s %zu/%zu experiments (suite %zu/%zu, "
                     "%zu/%zu campaigns done)\n",
                     p.cellLabel.c_str(), p.resumed ? "resumed" : "at",
                     p.cellCompletedExperiments, p.cellTotalExperiments,
                     p.suiteCompletedExperiments, p.suiteTotalExperiments,
                     p.completedCells, p.cellCount);
      });
    }
    if (level >= 2) {
      suite_.onShardDone([](const fi::ShardProgress& p) {
        std::fprintf(stderr, "    shard %zu/%zu %s (%zu/%zu experiments)\n",
                     p.completedShards, p.shardCount,
                     p.resumed ? "resumed" : "done", p.completedExperiments,
                     p.totalExperiments);
      });
    }
  }

  /// Queue one campaign cell. The master seed and flip width are applied
  /// here, exactly as campaign() applies them. Returns the cell's index
  /// into the run() result vector.
  std::size_t add(const std::string& workloadName, const fi::Workload& w,
                  fi::FaultModel spec, std::size_t n, std::uint64_t seedSalt) {
    spec.flipWidth = flipWidth();
    std::string label = spec.label();
    if (!workloadName.empty()) label = workloadName + " " + label;
    return suite_.addCell(std::move(label), w, spec, n,
                          util::hashCombine(masterSeed(), seedSalt),
                          workloadName);
  }

  /// Queue a pre-built campaign config, taking spec (flip width included),
  /// experiment count, and seed verbatim — for pruning-layer plans
  /// (pruning::gridCampaigns, pruning::activationCampaigns, ...) that derive
  /// their own per-campaign seeds.
  std::size_t addConfig(const std::string& workloadName, const fi::Workload& w,
                        const fi::CampaignConfig& config) {
    std::string label = config.model.label();
    if (!workloadName.empty()) label = workloadName + " " + label;
    return suite_.addCell(std::move(label), w, config.model,
                          config.experiments, config.seed, workloadName);
  }

  [[nodiscard]] std::size_t cellCount() const noexcept {
    return suite_.cellCount();
  }

  /// Run every queued cell as one suite. Idempotent: the first call
  /// executes, later calls return the cached results.
  const std::vector<fi::CampaignResult>& run() {
    if (!ran_) {
      results_ = fleetWorkers() != 0 ? runAsFleet() : suite_.run();
      ran_ = true;
      std::size_t incomplete = 0;
      for (const fi::CampaignResult& r : results_) {
        if (!r.complete()) ++incomplete;
      }
      if (incomplete != 0) {
        std::fprintf(stderr,
                     "warning: %zu/%zu campaigns incomplete "
                     "(ONEBIT_MAX_SHARDS checkpoint cap?) — %s\n",
                     incomplete, results_.size(),
                     sharedStore() != nullptr
                         ? "resume with ONEBIT_RESUME=1 to finish"
                         : "nothing was recorded; set ONEBIT_STORE to make "
                           "partial runs resumable");
      }
      // Pruning summary. Stderr, not stdout: bench stdout must not depend
      // on whether a run prunes.
      if (util::envInt("ONEBIT_PROGRESS", 0) >= 1) {
        fi::PruneStats total;
        for (const fi::CampaignResult& r : results_) total += r.prune;
        std::fprintf(stderr,
                     "[prune] golden_hits=%zu misses=%zu hang_proofs=%zu\n",
                     total.goldenHits, total.misses, total.hangProofs);
      }
    }
    return results_;
  }

  /// The result of the cell add() returned this index for. run() first.
  const fi::CampaignResult& operator[](std::size_t idx) {
    return run()[idx];
  }

 private:
  /// ONEBIT_FLEET_WORKERS path: run the queued cells as a forked local
  /// fleet over ONEBIT_STORE (or a temporary store, removed afterwards).
  /// Bit-identical to suite_.run() by the fleet's determinism contract.
  std::vector<fi::CampaignResult> runAsFleet() {
    std::string storePath = util::envStr("ONEBIT_STORE", "");
    const bool temporary = storePath.empty();
    if (temporary) {
      storePath = util::envStr("TMPDIR", "/tmp") + "/onebit_fleet_" +
                  std::to_string(util::currentPid()) + ".jsonl";
    }
    fi::FleetSupervisor::Report report;
    std::vector<fi::CampaignResult> results = fi::runSupervisedFleet(
        suite_, suiteConfigFromEnv(), storePath, supervisorOptionsFromEnv(),
        &report);
    std::fprintf(stderr,
                 "[fleet] supervised: %zu spawned, %zu restarts, "
                 "%zu crashes (%zu chaos), %zu quarantined shard(s)%s\n",
                 report.spawned, report.restarts, report.crashes,
                 report.chaosKills, report.quarantined.size(),
                 report.converged ? "" : " — did not converge");
    if (temporary) {
      std::remove(storePath.c_str());
      std::remove((storePath + ".lock").c_str());
    }
    return results;
  }

  fi::CampaignSuite suite_;
  std::vector<fi::CampaignResult> results_;
  bool ran_ = false;
};

/// Run one campaign under the env knobs — a single-cell SweepBuilder. Kept
/// for drivers and examples that genuinely have one campaign; anything
/// iterating workloads or specs should batch cells on a SweepBuilder.
inline fi::CampaignResult campaign(const fi::Workload& w,
                                   const fi::FaultModel& spec, std::size_t n,
                                   std::uint64_t seedSalt,
                                   std::string workloadName = {}) {
  SweepBuilder sweep;
  const std::size_t idx = sweep.add(workloadName, w, spec, n, seedSalt);
  return sweep[idx];
}

/// Print a table as aligned text, or CSV when ONEBIT_CSV=1 (for plotting).
inline void emitTable(const util::TextTable& table) {
  std::fputs(analytics::renderTable(table, analytics::csvEnabled()).c_str(),
             stdout);
}

inline void printHeaderNote(const char* artifact, std::size_t n) {
  std::fputs(analytics::headerNote(artifact, n).c_str(), stdout);
}

/// Run paper figure `id` ("fig1".."fig4", see analytics/figures.hpp) and
/// print it. Each batch of cells the figure asks for runs as ONE
/// SweepBuilder sweep: one for fig1–fig3; two for fig4 (the grids, then the
/// validation campaigns of the complete grids). A capped run
/// (ONEBIT_MAX_SHARDS) prints incomplete(recorded/expected) markers where
/// values would be.
inline int runFigure(std::string_view id) {
  const std::vector<NamedWorkload> workloads = loadWorkloads();
  const auto runBatch = [&](const std::vector<analytics::CellKey>& cells) {
    SweepBuilder sweep;
    for (const analytics::CellKey& cell : cells) {
      const auto w = std::find_if(
          workloads.begin(), workloads.end(),
          [&](const NamedWorkload& nw) { return nw.name == cell.workload; });
      fi::CampaignConfig config;
      config.model = cell.model;
      config.experiments = cell.experiments;
      config.seed = cell.seed;
      sweep.addConfig(cell.workload, w->workload, config);
    }
    using State = analytics::CellResolution::State;
    std::vector<analytics::CellResolution> out;
    for (const fi::CampaignResult& r : sweep.run()) {
      analytics::CellResolution& res = out.emplace_back();
      res.state = r.complete() ? State::Complete : State::Partial;
      res.counts = r.counts;
      res.hist = r.activationHist;
      res.recorded = r.completedExperiments;
      res.expected = r.config.experiments;
    }
    return out;
  };
  std::fputs(analytics::runFigure(id, runBatch).value().text.c_str(), stdout);
  return 0;
}

}  // namespace onebit::bench
