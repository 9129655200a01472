#include "fi/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#if !defined(_WIN32)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "util/file_lock.hpp"
#include "util/rng.hpp"

namespace onebit::fi {

FleetSupervisor::FleetSupervisor(std::string storePath,
                                 FleetSupervisorConfig config)
    : storePath_(std::move(storePath)), config_(std::move(config)) {}

#if !defined(_WIN32)

namespace {

/// Child exit codes of one worker incarnation: the public codes the
/// fleet_worker CLI also uses.
enum WorkerExit : int {
  kExitDone = 0,
  kExitError = 1,
  kExitStalled = 3,
  kExitQuarantined = 4,
};

pid_t spawnWorker(const std::string& storePath, const FleetConfig& config) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;  // parent (or fork failure, pid < 0)
  int exitCode = kExitError;
  try {
    FleetWorker worker(storePath, {}, config);
    // Uncapped, run() returns only Done, Stalled or Quarantined.
    switch (worker.run()) {
      case FleetWorker::Step::Done: exitCode = kExitDone; break;
      case FleetWorker::Step::Stalled: exitCode = kExitStalled; break;
      case FleetWorker::Step::Quarantined:
        exitCode = kExitQuarantined;
        break;
      case FleetWorker::Step::Ran:
      case FleetWorker::Step::Idle: exitCode = kExitError; break;
    }
  } catch (...) {
    exitCode = kExitError;
  }
  // _Exit: no atexit handlers, no double-flush of inherited stdio buffers.
  std::_Exit(exitCode);
}

}  // namespace

FleetSupervisor::Report FleetSupervisor::run() {
  Report report;
  struct Slot {
    pid_t pid = -1;           ///< live child, or -1
    bool finished = false;    ///< reached a terminal exit
    std::size_t restarts = 0;
    std::uint64_t respawnAtMs = 0;  ///< backoff gate for the next spawn
  };
  std::vector<Slot> slots(std::max<std::size_t>(1, config_.workers));
  // (key, first, count) → mid-lease deaths observed; the poison detector.
  std::map<std::tuple<std::uint64_t, std::size_t, std::size_t>, std::uint64_t>
      crashCounts;
  std::unordered_set<pid_t> chaosVictims;  ///< shot by us: never attributed
  CampaignStore store(storePath_, CampaignStore::WriteMode::Atomic);
  store.load();
  util::SplitMix64 rng(util::hashCombine(util::wallClockMs(),
                                         util::currentPid()));
  std::uint64_t lastChaosMs = util::wallClockMs();
  // The first incarnation's config: the crash hook, if any, rides on it.
  FleetConfig firstFleet = config_.fleet;
  if (config_.killFirstWorkerAfterClaims != 0) {
    firstFleet.onClaim = [killAfter = config_.killFirstWorkerAfterClaims,
                          onClaim = config_.fleet.onClaim](std::size_t claims) {
      if (onClaim) onClaim(claims);
      if (claims >= killAfter) ::raise(SIGKILL);
    };
  }

  // Attribute a crashed child's death to the shard ranges it still held:
  // live leases naming its pid with no shard record are work it died inside.
  // Fresh pids per incarnation make the attribution exact.
  auto attributeCrash = [&](pid_t pid) {
    store.refresh();
    struct Held {
      std::uint64_t key = 0;
      CampaignStore::LeaseRecord lease;
      std::string workload;
    };
    std::vector<Held> held;
    for (const CampaignStore::CellRecord& cell : store.cells()) {
      std::vector<CampaignStore::LeaseRecord> leases;
      store.forEachLease(cell.key,
                         [&](const CampaignStore::LeaseRecord& l) {
                           leases.push_back(l);
                         });
      for (CampaignStore::LeaseRecord& l : leases) {
        const std::optional<std::uint64_t> leasePid = workerPid(l.worker);
        if (!leasePid || *leasePid != static_cast<std::uint64_t>(pid)) {
          continue;
        }
        if (store.findShard(cell.key, l.first, l.count) != nullptr) {
          continue;  // completed: the death happened after the record
        }
        held.push_back({cell.key, std::move(l), cell.workload});
      }
    }
    for (const Held& h : held) {
      const std::uint64_t crashes =
          ++crashCounts[{h.key, h.lease.first, h.lease.count}];
      if (crashes < config_.poisonRetries) continue;
      CampaignStore::QuarantineRecord q;
      q.first = h.lease.first;
      q.count = h.lease.count;
      q.crashes = crashes;
      q.worker = h.lease.worker;
      q.reason = "worker died " + std::to_string(crashes) +
                 " times mid-lease on '" + h.workload + "'";
      const bool fresh = !store.findQuarantine(h.key, q.first, q.count);
      if (store.appendQuarantine(h.key, q) && fresh) {
        ++report.quarantinedShards;
        std::fprintf(stderr,
                     "fleet supervisor: quarantined shard [%zu, +%zu) of "
                     "'%s' after %llu worker deaths\n",
                     q.first, q.count, h.workload.c_str(),
                     static_cast<unsigned long long>(crashes));
      }
    }
  };

  for (;;) {
    const std::uint64_t nowMs = util::wallClockMs();
    bool anyLive = false;
    bool anyPending = false;
    for (Slot& slot : slots) {
      if (slot.finished) continue;
      if (slot.pid < 0) {
        // Between incarnations: spawn once the backoff gate opens.
        anyPending = true;
        if (nowMs < slot.respawnAtMs) continue;
        slot.pid = spawnWorker(storePath_, report.spawned == 0
                                               ? firstFleet
                                               : config_.fleet);
        if (slot.pid < 0) {
          // Fork pressure: retry later, within the slot's restart budget,
          // so a fork that keeps failing cannot hold the fleet forever (the
          // final in-process pass finishes whatever is left).
          slot.pid = -1;
          slot.finished = slot.restarts++ >= config_.maxRestartsPerWorker;
          slot.respawnAtMs = nowMs + config_.backoffCapMs;
          continue;
        }
        ++report.spawned;
        anyLive = true;
        continue;
      }
      int status = 0;
      const pid_t reaped = ::waitpid(slot.pid, &status, WNOHANG);
      if (reaped == 0) {
        anyLive = true;
        continue;  // still running
      }
      if (reaped < 0) {  // lost to an external reaper: treat as terminal
        slot.finished = true;
        continue;
      }
      const pid_t pid = slot.pid;
      slot.pid = -1;
      if (WIFEXITED(status)) {
        const int code = WEXITSTATUS(status);
        if (code == kExitDone || code == kExitStalled ||
            code == kExitQuarantined) {
          slot.finished = true;
          continue;
        }
        // Error exit: restart with backoff like a crash, but nothing to
        // attribute (the worker chose to exit; it held no claim mid-run
        // worth quarantining on the strength of a clean exit).
      } else if (WIFSIGNALED(status)) {
        ++report.crashes;
        if (chaosVictims.erase(pid) != 0) {
          ++report.chaosKills;  // our own bullet: respawn, never attribute
        } else {
          attributeCrash(pid);
        }
      }
      if (slot.restarts >= config_.maxRestartsPerWorker) {
        std::fprintf(stderr,
                     "fleet supervisor: worker slot exhausted %zu restarts; "
                     "giving it up\n",
                     slot.restarts);
        slot.finished = true;
        continue;
      }
      ++slot.restarts;
      ++report.restarts;
      // Capped exponential backoff + jitter: crash loops decay to a calm
      // retry cadence instead of hammering fork() and the store lock.
      const std::uint64_t shift =
          std::min<std::size_t>(slot.restarts, 20);
      const std::uint64_t backoff =
          std::min(config_.backoffCapMs,
                   config_.backoffBaseMs << shift) +
          (config_.backoffBaseMs != 0
               ? rng.next() % config_.backoffBaseMs
               : 0);
      slot.respawnAtMs = nowMs + backoff;
      anyPending = true;
    }
    if (!anyLive && !anyPending) break;
    // Chaos monkey: shoot a random live worker on the timer.
    if (config_.chaosKillMs != 0 &&
        nowMs - lastChaosMs >= config_.chaosKillMs) {
      std::vector<pid_t> live;
      for (const Slot& slot : slots) {
        if (slot.pid > 0) live.push_back(slot.pid);
      }
      if (!live.empty()) {
        const pid_t victim =
            live[static_cast<std::size_t>(rng.next() % live.size())];
        if (::kill(victim, SIGKILL) == 0) chaosVictims.insert(victim);
      }
      lastChaosMs = nowMs;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Final accounting against the store: converged means no shard is left
  // that a healthy worker could still run — everything is recorded or
  // carries a quarantine verdict.
  store.refresh();
  report.converged = true;
  for (const CampaignStore::CellRecord& cell : store.cells()) {
    std::vector<CampaignStore::QuarantineRecord> quarantines;
    store.forEachQuarantine(cell.key,
                            [&](const CampaignStore::QuarantineRecord& q) {
                              quarantines.push_back(q);
                            });
    for (const CampaignStore::QuarantineRecord& q : quarantines) {
      if (store.findShard(cell.key, q.first, q.count) != nullptr) {
        continue;  // finished after all (a --force pass got it)
      }
      report.quarantined.push_back(
          {cell.key, cell.workload, q.first, q.count, q.crashes});
    }
    for (std::size_t s = 0; s < cell.shardCount(); ++s) {
      const std::size_t first = cell.shardFirst(s);
      const std::size_t count = cell.shardExperiments(s);
      if (store.findShard(cell.key, first, count) == nullptr &&
          !store.findQuarantine(cell.key, first, count)) {
        report.converged = false;
      }
    }
  }
  return report;
}

#else  // !_WIN32

FleetSupervisor::Report FleetSupervisor::run() { return {}; }

#endif

std::vector<CampaignResult> runSupervisedFleet(
    const CampaignSuite& suite, SuiteConfig config,
    const std::string& storePath, const FleetSupervisorConfig& options,
    FleetSupervisor::Report* report) {
  if (report != nullptr) *report = {};
#if !defined(_WIN32)
  // Submit every expressible cell. A cell makeCell() refuses (unnamed, or
  // a degenerate model whose label does not round-trip) is left for the
  // final pass.
  std::unordered_map<std::uint64_t, const Workload*> workloads;
  {
    FleetBroker broker(storePath);
    for (std::size_t c = 0; c < suite.cellCount(); ++c) {
      const SuiteCell& cell = suite.cell(c);
      if (cell.workload == nullptr || cell.experiments == 0) continue;
      const std::optional<CampaignStore::CellRecord> rec =
          FleetBroker::makeCell(
              cell.storeName, *cell.workload, cell.model, cell.experiments,
              cell.seed, resolveShardSize(cell.experiments, config.shardSize));
      if (rec && broker.submit(*rec)) {
        workloads.emplace(rec->key, cell.workload);
      }
    }
  }
  if (!workloads.empty() && options.workers != 0) {
    FleetSupervisorConfig supervised = options;
    if (!supervised.fleet.workloadResolver) {
      // Forked workers inherit the suite's workloads: running those skips
      // the recompile and re-profile, and keeps the caller's snapshot, prune
      // and dispatch policies. The parent owns them, hence the non-owning
      // (aliasing, empty-owner) shared_ptr.
      supervised.fleet.workloadResolver =
          [workloads = std::move(workloads)](
              const CampaignStore::CellRecord& cell)
          -> std::shared_ptr<const Workload> {
        const auto it = workloads.find(cell.key);
        if (it == workloads.end()) return nullptr;
        return std::shared_ptr<const Workload>(std::shared_ptr<void>(),
                                               it->second);
      };
    }
    FleetSupervisor::Report r =
        FleetSupervisor(storePath, std::move(supervised)).run();
    if (report != nullptr) *report = std::move(r);
  }
#else
  (void)options;
#endif
  // The final pass: a resume-bound suite over the fleet store runs whatever
  // is left (cells never submitted, shards lost to crashes, quarantined
  // shards — which makes it the built-in --force pass) and performs the
  // cell-order merge. By the suite's resume contract its results are
  // bit-identical to suite.run(): no lease interleaving can change the
  // answer, only how much work this pass still has to do.
  CampaignStore store(storePath, CampaignStore::WriteMode::Atomic);
  store.load();
  config.record = &store;
  config.resume = &store;
  CampaignSuite remainder(config);
  for (std::size_t c = 0; c < suite.cellCount(); ++c) {
    remainder.addCell(suite.cell(c));
  }
  return remainder.run();
}

}  // namespace onebit::fi
