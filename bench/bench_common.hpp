// Shared helpers for the paper-artifact bench harnesses.
//
// Every binary prints the rows/series of one table or figure from the paper.
// Its main() calls analytics::checkKnobs() first; the ONEBIT_* knobs, their
// ranges and defaults are the one table in src/analytics/knobs.cpp (listed
// in docs/REPRODUCING.md). The helpers below apply them.
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
#include <functional>
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
#include "util/file_lock.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

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
using analytics::Knob;
using analytics::knobs;

/// The golden-prefix snapshot policy: ONEBIT_SNAPSHOT_INTERVAL sets the
/// initial capture spacing in instructions, and 0 disables the cache.
inline fi::SnapshotPolicy snapshotPolicyFromEnv() {
  fi::SnapshotPolicy policy;
  policy.interval = knobs().count(Knob::SnapshotInterval);
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
    const std::string& path = knobs().text(Knob::Store);
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
  const bool enabled = knobs().flag(Knob::Resume);
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
  return static_cast<std::size_t>(knobs().count(Knob::FleetWorkers));
}

/// The fleet options the ONEBIT_FLEET_* and ONEBIT_POISON_RETRIES knobs
/// select. The heartbeat stays lease/3 and lease deadlines adapt at the
/// library's quantile; fleet_worker's flags tune both for real fleets.
inline fi::FleetSupervisorConfig supervisorOptionsFromEnv() {
  const analytics::Knobs& k = knobs();
  fi::FleetSupervisorConfig opts;
  opts.workers = fleetWorkers();
  opts.poisonRetries = static_cast<std::size_t>(k.count(Knob::PoisonRetries));
  opts.chaosKillMs = k.count(Knob::FleetChaosKillMs);
  opts.killFirstWorkerAfterClaims =
      static_cast<std::size_t>(k.count(Knob::FleetKillAfter));
  opts.fleet.leaseMs = k.count(Knob::FleetLeaseMs);
  // The table accepted the spec through the same parser.
  if (k.set(Knob::FleetPoison)) {
    fi::parsePoison(k.text(Knob::FleetPoison), opts.fleet);
  }
  return opts;
}

/// The suite configuration every bench sweep runs under, resolved from the
/// environment knobs once per builder.
inline fi::SuiteConfig suiteConfigFromEnv() {
  fi::SuiteConfig cfg;
  const analytics::Knobs& k = knobs();
  cfg.threads = static_cast<std::size_t>(k.count(Knob::Threads));
  cfg.shardSize = static_cast<std::size_t>(k.count(Knob::ShardSize));
  cfg.maxShards = static_cast<std::size_t>(k.count(Knob::MaxShards));
  cfg.withStore(storeBinding({}));
  return cfg;
}

/// Run fn(i) for every i in [0, n) on a util::ThreadPool of ONEBIT_THREADS
/// workers (0: one per core), for the driver loops that run experiments
/// outside a campaign suite. fn(i) must depend on i alone and write only
/// its own slot, so the output does not depend on the thread count. Such
/// loops record nothing in ONEBIT_STORE.
inline void parallelFor(std::size_t n,
                        const std::function<void(std::size_t)>& fn) {
  const std::size_t threads = fi::resolveThreads(
      static_cast<std::size_t>(knobs().count(Knob::Threads)));
  util::ThreadPool pool(std::min(threads, std::max<std::size_t>(n, 1)));
  pool.parallelFor(n, fn);
}

/// Declarative bench sweep: queue (workload × spec) campaign cells with
/// add(), then run() once — the whole sweep executes as ONE
/// fi::CampaignSuite honoring every env knob campaign() honors. Results come
/// back in add() order; each cell is bit-identical to what a solo
/// bench::campaign() call with the same arguments returns.
class SweepBuilder {
 public:
  SweepBuilder() : suite_(suiteConfigFromEnv()) {
    const std::uint64_t level = knobs().count(Knob::Progress);
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
      if (knobs().count(Knob::Progress) >= 1) {
        fi::PruneStats total;
        for (const fi::CampaignResult& r : results_) total += r.prune;
        std::fprintf(stderr,
                     "[prune] golden_hits=%zu misses=%zu hang_proofs=%zu "
                     "hangs_unproven=%zu\n",
                     total.goldenHits, total.misses, total.hangProofs,
                     total.hangsUnproven);
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
    std::string storePath = knobs().text(Knob::Store);
    const bool temporary = storePath.empty();
    if (temporary) {
      const char* tmpdir = std::getenv("TMPDIR");
      storePath = std::string(tmpdir != nullptr && *tmpdir != '\0' ? tmpdir
                                                                   : "/tmp") +
                  "/onebit_fleet_" + std::to_string(util::currentPid()) +
                  ".jsonl";
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
  std::fputs(analytics::runFigure(id, runBatch, analytics::csvEnabled())
                 .value()
                 .text.c_str(),
             stdout);
  return 0;
}

}  // namespace onebit::bench
