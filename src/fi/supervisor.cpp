#include "fi/supervisor.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>

#if !defined(_WIN32)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "util/file_lock.hpp"
#include "util/rng.hpp"

namespace onebit::fi {

namespace {

/// Child exit codes of one worker incarnation. 0/3/4 are the public codes
/// the fleet_worker CLI also uses; the recycle code is supervisor-internal.
enum WorkerExit : int {
  kExitDone = 0,
  kExitError = 1,
  kExitStalled = 3,
  kExitQuarantined = 4,
  kExitCapReached = 6,  ///< maxShardsPerWorker recycle: respawn, no penalty
};

/// The pid prefix of a "<pid>:<hex>" worker id (the fleet's id format);
/// nullopt for foreign formats.
std::optional<std::uint64_t> workerPidOf(const std::string& worker) {
  std::uint64_t pid = 0;
  std::size_t i = 0;
  for (; i < worker.size() && worker[i] >= '0' && worker[i] <= '9'; ++i) {
    pid = pid * 10 + static_cast<std::uint64_t>(worker[i] - '0');
  }
  if (i == 0 || i >= worker.size() || worker[i] != ':') return std::nullopt;
  return pid;
}

}  // namespace

FleetSupervisor::FleetSupervisor(std::string storePath,
                                 FleetSupervisorConfig config)
    : storePath_(std::move(storePath)), config_(std::move(config)) {}

#if !defined(_WIN32)

namespace {

pid_t spawnWorker(const std::string& storePath,
                  const FleetSupervisorConfig& config) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;  // parent (or fork failure, pid < 0)
  int exitCode = kExitError;
  try {
    FleetWorker worker(storePath, {}, config.fleet);
    switch (worker.run(config.maxShardsPerWorker)) {
      case FleetWorker::Step::Done: exitCode = kExitDone; break;
      case FleetWorker::Step::Stalled: exitCode = kExitStalled; break;
      case FleetWorker::Step::Quarantined:
        exitCode = kExitQuarantined;
        break;
      // run() only returns Ran when the shard cap stopped it mid-fleet.
      case FleetWorker::Step::Ran: exitCode = kExitCapReached; break;
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
        const std::optional<std::uint64_t> leasePid = workerPidOf(l.worker);
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
        slot.pid = spawnWorker(storePath_, config_);
        if (slot.pid < 0) {
          // Fork pressure: retry later rather than losing the slot.
          slot.pid = -1;
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
        if (code == kExitCapReached) {
          // Planned checkpoint recycle: respawn immediately, no penalty.
          anyPending = true;
          slot.respawnAtMs = nowMs;
          continue;
        }
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
#if !defined(_WIN32)
  FleetSupervisorConfig supervised = options;
  if (detail::submitSuite(suite, config, storePath, supervised.fleet) != 0 &&
      options.workers != 0) {
    FleetSupervisor supervisor(storePath, std::move(supervised));
    FleetSupervisor::Report r = supervisor.run();
    if (report != nullptr) *report = std::move(r);
  }
#else
  (void)options;
  if (report != nullptr) *report = {};
#endif
  // The remainder pass finishes quarantined shards too, which makes it the
  // built-in --force pass.
  return detail::finishInProcess(suite, std::move(config), storePath);
}

}  // namespace onebit::fi
