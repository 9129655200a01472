// Fleet self-healing: a supervisor that keeps a local worker fleet alive.
//
// FleetWorker processes fail for three very different reasons, and the
// supervisor is what tells them apart:
//
//   transient crash — OOM kill, operator mistake, chaos testing. The
//     supervisor reaps the child and respawns it with capped exponential
//     backoff + jitter; the dead worker's lease expires (or its pid
//     vanishes) and the shard is simply re-run.
//   poison shard — a shard whose execution reliably kills its host process
//     (a workload bug, a resource bomb). Respawning forever would crash-loop
//     the whole fleet on one shard. The supervisor attributes each mid-lease
//     death to the shard range its worker had claimed (the lease records
//     name the worker, whose id carries the pid the supervisor just reaped);
//     after `poisonRetries` deaths on the same range it appends a durable
//     `quarantine` record, which every healthy worker skips — the fleet
//     converges on everything else and reports the quarantined ranges at
//     the end. A `--force` pass (FleetConfig::ignoreQuarantine, or the
//     in-process remainder pass of runSupervisedFleet) finishes them.
//   planned exit — Done / Stalled / Quarantined, distinguished by exit
//     code; none is respawned.
//
// Chaos kills the supervisor itself injects (chaosKillMs) are reaped like
// crashes but never attributed to a shard: the supervisor knows which pids
// it shot, so a chaos run quarantines exactly the genuinely poisonous
// shards and nothing else.
//
// Determinism contract unchanged: supervision is pure scheduling. Any mix
// of crashes, restarts, and quarantines yields the same shard records, and
// runSupervisedFleet's final in-process pass makes its results bit-identical
// to a solo CampaignSuite::run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fi/fleet.hpp"

namespace onebit::fi {

/// Knobs for one supervised local fleet.
struct FleetSupervisorConfig {
  std::size_t workers = 2;  ///< worker processes to keep alive
  /// Mid-lease deaths on one shard range before it is quarantined.
  std::size_t poisonRetries = 3;
  /// Restart backoff: min(backoffCapMs, backoffBaseMs << restarts) plus
  /// uniform jitter of up to backoffBaseMs, per worker slot.
  std::uint64_t backoffBaseMs = 50;
  std::uint64_t backoffCapMs = 2'000;
  /// Hard stop: a worker slot that crashed (or failed to fork) this many
  /// times stops being respawned (quarantine should normally end the loop
  /// much earlier).
  std::size_t maxRestartsPerWorker = 100;
  /// Chaos hook: when nonzero, SIGKILL one random live worker roughly this
  /// often (wall clock). Chaos victims are respawned immediately and never
  /// count toward poison detection.
  std::uint64_t chaosKillMs = 0;
  /// Crash injection: when nonzero, the first worker incarnation spawned
  /// SIGKILLs itself right after its Nth successful claim (after any
  /// fleet.onClaim the caller set). Respawns do not inherit it, so the
  /// crash happens once and is attributed once — the re-lease test.
  std::size_t killFirstWorkerAfterClaims = 0;
  FleetConfig fleet;  ///< forwarded to every worker incarnation
};

/// One quarantined shard range, for end-of-run reporting.
struct QuarantinedRange {
  std::uint64_t key = 0;
  std::string workload;
  std::size_t first = 0;
  std::size_t count = 0;
  std::uint64_t crashes = 0;
};

/// Spawns, restarts, and quarantines for a fleet of local FleetWorker
/// processes over one store. See the file header for the state machine.
class FleetSupervisor {
 public:
  struct Report {
    std::size_t spawned = 0;   ///< worker processes forked, total
    std::size_t restarts = 0;  ///< respawns after a crash or error exit
    std::size_t crashes = 0;   ///< children reaped dead on a signal
    std::size_t chaosKills = 0;  ///< of which: shot by the chaos timer
    std::size_t quarantinedShards = 0;  ///< quarantine records written
    std::vector<QuarantinedRange> quarantined;  ///< final quarantine set
    /// Every submitted shard is recorded or quarantined: nothing is left
    /// that another worker incarnation could still make progress on.
    bool converged = false;
  };

  FleetSupervisor(std::string storePath, FleetSupervisorConfig config);

  /// Run the fleet to convergence: fork workers, reap/respawn/quarantine
  /// until every slot reached a terminal exit, then report. POSIX-only; on
  /// other platforms returns a default Report (converged = false) without
  /// spawning anything.
  Report run();

 private:
  std::string storePath_;
  FleetSupervisorConfig config_;
};

/// Run `suite`'s cells as a local fleet over the store at `storePath`:
/// submit every expressible cell, run a FleetSupervisor fleet over it, then
/// finish ANY remainder — cells makeCell() refused, shards lost to crashes,
/// and quarantined shards (the built-in `--force` pass) — with a
/// resume-bound CampaignSuite over the same store that also performs the
/// merge. By the suite's resume contract the results are bit-identical to
/// `suite.run()` for any worker count and any crash, chaos or poison
/// pattern. Unless options.fleet sets a workloadResolver, the forked
/// workers run each cell on the suite cell's own Workload (inherited across
/// fork), so they use the caller's snapshot, prune and dispatch policies.
/// Without fork(), the whole suite runs in-process (results unchanged).
///
/// `config` must be the SuiteConfig `suite` was built with (it fixes the
/// shard geometry); its record/resume stores are ignored in favor of the
/// fleet store. The report (when non-null) receives the supervisor's Report
/// so callers can surface restarts and quarantined ranges.
std::vector<CampaignResult> runSupervisedFleet(
    const CampaignSuite& suite, SuiteConfig config,
    const std::string& storePath, const FleetSupervisorConfig& options = {},
    FleetSupervisor::Report* report = nullptr);

}  // namespace onebit::fi
