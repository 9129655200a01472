// Campaign fleet: a durable lease broker and multi-process workers that
// cooperate through the JSONL campaign store (fi/campaign_store.hpp).
//
// A CampaignSuite scales a sweep across the THREADS of one process; the
// fleet scales it across PROCESSES (and, via a shared filesystem, hosts).
// The store file is the only coordination channel — there is no server, no
// socket, no shared memory:
//
//   broker  — turns suite cells into "cell" records (FleetBroker::makeCell +
//             submit()), then watches shard records accumulate until every
//             cell is fully recorded.
//   worker  — FleetWorker::run(): repeatedly claims the cheapest-available
//             shard by appending a "lease" record under the store's file
//             lock, executes its experiments through the exact per-shard
//             loop CampaignSuite uses, appends the "shard" record, and
//             heartbeats the lease while it computes.
//
// Fault tolerance is lease-expiry based. A worker that dies (SIGKILL, OOM,
// host loss) simply stops renewing its lease; once the heartbeat deadline
// passes — or, on the same host, as soon as the recorded pid is gone — any
// other worker re-leases the shard at epoch+1 and runs it again.
//
// Determinism contract (extends fi/suite.hpp): a shard's aggregate record
// depends ONLY on (model, experiments, seed, workload, shard range) — never
// on which worker ran it, when, or how many times. Duplicate shard records
// from racing or resurrected workers are therefore byte-identical, and the
// store's first-wins dedup makes every crash/re-lease interleaving converge
// to the same record set. Fleet output is bit-identical to a solo
// CampaignSuite run of the same cells for ANY worker count, crash pattern,
// and lease timing: leases schedule work, they never gate correctness.
//
// The broker never trusts a label blindly: makeCell() round-trips the fault
// model through label()/parse() and recomputes the campaign key; a cell
// whose spelling does not reproduce its key (possible for degenerate
// models) is refused at submission instead of stalling the fleet.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fi/campaign_store.hpp"
#include "fi/suite.hpp"

namespace onebit::fi {

/// Knobs shared by brokers and workers of one fleet.
struct FleetConfig {
  /// Lease duration: a claim or heartbeat extends the lease this far into
  /// the future. A shard whose experiments outlast it is fine as long as
  /// heartbeats keep landing. 0 resolves to this default when a FleetWorker
  /// takes the config (a zero lease would expire at its own claim).
  std::uint64_t leaseMs = 30'000;
  /// Heartbeat period; 0 resolves to leaseMs / 3. A worker renews its claim
  /// at this period or at a third of the claim's own lease, whichever is
  /// shorter (an adaptive lease can be far shorter than leaseMs), but never
  /// more often than once per ms: three missed beats lose the lease.
  std::uint64_t heartbeatMs = 0;
  /// Base idle poll period for FleetWorker::run() when every pending shard
  /// is actively leased by someone else. Workers sleep with decorrelated
  /// jitter around this (uniform in [pollMs, 3 × previous sleep], capped at
  /// 16 × pollMs), so N workers sharing one store spread out instead of
  /// convoying on the flock every pollMs.
  std::uint64_t pollMs = 50;
  /// Adapt lease deadlines to observed per-shard cost: when completion
  /// leases with cost_ms exist for a cell, a new claim's lease duration is
  /// adaptiveLeaseMs(costs, leaseQuantile, leaseMs) instead of the fixed
  /// leaseMs — slow cells stop being falsely stolen, fast cells recover
  /// quickly. Scheduling-only; never affects results.
  bool adaptiveLease = true;
  /// The cost quantile adaptive deadlines budget for (0 < q <= 1). The
  /// default 0.9 tolerates the occasional slow shard without letting one
  /// outlier set every deadline.
  double leaseQuantile = 0.9;
  /// Out-of-space park budget: when recording a computed shard fails with
  /// ENOSPC/EDQUOT, the worker keeps its lease warm and retries the append
  /// for this long before giving the shard up (it re-runs later), instead
  /// of exiting — the disk may drain without any code change. 0 resolves
  /// to 2 × leaseMs.
  std::uint64_t parkMs = 0;
  /// Claim shards that carry a quarantine record anyway — the `--force`
  /// finishing pass. Off, workers skip them so a crash-looping shard cannot
  /// take the whole fleet down with it.
  bool ignoreQuarantine = false;
  /// Chaos/poison hook: when nonempty, this worker SIGKILLs itself
  /// immediately after claiming a shard of the named workload (any shard,
  /// or only `poisonShard` when that is not npos) — a deterministic stand-in
  /// for a shard that reliably kills its host process, used by the
  /// supervisor tests and the chaos smoke script. parsePoison() sets both
  /// fields from one "NAME[:SHARD]" spec.
  std::string poisonWorkload;
  std::size_t poisonShard = static_cast<std::size_t>(-1);
  /// Re-lease immediately when the lease holder's pid (the prefix of its
  /// worker id) no longer exists on THIS host — a fast path for single-host
  /// fleets; expiry alone is always sufficient. Disable for fleets spanning
  /// hosts, where foreign pids are meaningless.
  bool sameHostLiveness = true;
  /// The fleet clock, milliseconds. Null uses util::wallClockMs. Tests
  /// inject a fake clock to make lease expiry deterministic.
  std::function<std::uint64_t()> clock;
  /// Test hook: called after each successful lease append, BEFORE the shard
  /// runs, with the number of claims made so far (1-based). Throwing (or
  /// raising a signal) here models a worker crashing right after claiming.
  std::function<void(std::size_t)> onClaim;
  /// Maps a cell record to the workload to run. Null uses the default
  /// resolver: compile the progs registry program named by the record with
  /// the record's hang factor, default snapshots, pruning on, and the
  /// threaded backend (runSupervisedFleet instead hands its forked workers
  /// the suite cells' own workloads). A resolver returning null marks the
  /// cell unrunnable for this worker.
  std::function<std::shared_ptr<const Workload>(
      const CampaignStore::CellRecord&)>
      workloadResolver;

  [[nodiscard]] std::uint64_t resolvedHeartbeatMs() const noexcept {
    return heartbeatMs != 0 ? heartbeatMs : leaseMs / 3;
  }
  [[nodiscard]] std::uint64_t resolvedParkMs() const noexcept {
    return parkMs != 0 ? parkMs : 2 * leaseMs;
  }
};

/// Parse a count: digits only in `base` (no sign, space or prefix) that fit
/// in 64 bits. On failure returns false and leaves `out` untouched. Every
/// numeric fleet CLI argument goes through it, so "-1" or 2^64 is rejected
/// instead of wrapping into a huge value.
bool parseCount(std::string_view s, std::uint64_t& out, int base = 10);

/// Parse the poison hook spec "NAME" or "NAME:SHARD" into
/// config.poisonWorkload / config.poisonShard. NAME must be nonempty; SHARD,
/// when present, must be a parseCount() count below npos (which means
/// "every shard"). On failure returns false and leaves `config` untouched.
bool parsePoison(std::string_view spec, FleetConfig& config);

/// The pid prefix of a "<pid>:<hex>" worker id; nullopt for foreign formats.
std::optional<std::uint64_t> workerPid(const std::string& worker);

/// The adaptive lease duration for a cell: the `quantile`-th observed
/// per-shard cost (from completion leases' cost_ms) times a 4× headroom
/// factor, clamped to [baseMs / 8, baseMs × 64] so a wild sample can never
/// drive deadlines to zero or infinity. No samples → baseMs (the fixed
/// default). Pure; exposed for unit testing.
std::uint64_t adaptiveLeaseMs(std::vector<std::uint64_t> costsMs,
                              double quantile, std::uint64_t baseMs);

/// Submits work to a fleet store and reports on its progress. Stateless
/// beyond the store handle: every query re-reads the file, so a broker can
/// be started, killed, and restarted freely.
class FleetBroker {
 public:
  /// Per-cell progress snapshot.
  struct CellStatus {
    CampaignStore::CellRecord cell;
    std::size_t recordedExperiments = 0;
    std::size_t recordedShards = 0;
    std::size_t activeLeases = 0;   ///< live leases on unrecorded shards
    std::size_t expiredLeases = 0;  ///< lapsed leases on unrecorded shards
    std::size_t quarantinedShards = 0;  ///< unrecorded, quarantine verdict
    [[nodiscard]] bool complete() const noexcept {
      return recordedExperiments >= cell.experiments;
    }
  };

  explicit FleetBroker(const std::string& storePath, FleetConfig config = {});

  /// The most shards one cell may have. status(), the supervisor and every
  /// worker walk a cell's shards one by one (a store lookup each), so a
  /// cell with vastly more — a count near 2^64 has ~4.5e15 at the largest
  /// automatic shard size — would hang them; 2^20 shards already hold
  /// ~4e9 experiments at that size.
  static constexpr std::size_t kMaxCellShards = std::size_t{1} << 20;

  /// Build the cell record a worker needs to reproduce `(workload, model,
  /// experiments, seed)` exactly: stamps the resolved shard size, the
  /// workload's hang factor and golden cost, and validates that
  /// parse(model.label()) + flipWidth reproduces the same campaign key.
  /// Returns nullopt when it cannot (empty name, degenerate model whose
  /// label re-parses to different semantics, zero experiments, a count or
  /// flip width the store's loader would drop as malformed, or more than
  /// kMaxCellShards shards) — such cells must run in-process instead of
  /// being submitted.
  static std::optional<CampaignStore::CellRecord> makeCell(
      const std::string& name, const Workload& workload,
      const FaultModel& model, std::size_t experiments, std::uint64_t seed,
      std::size_t resolvedShardSize);

  /// Append a cell submission (idempotent: resubmitting the identical cell
  /// writes nothing). Returns false on I/O failure.
  bool submit(const CampaignStore::CellRecord& cell);

  /// Re-read the store and report every submitted cell's progress, in
  /// submission order.
  [[nodiscard]] std::vector<CellStatus> status();

  /// True when every submitted cell is fully recorded.
  [[nodiscard]] bool complete();

  [[nodiscard]] CampaignStore& store() noexcept { return store_; }

 private:
  CampaignStore store_;
  FleetConfig config_;
  bool loaded_ = false;
};

/// One worker process's engine: claim, run, record, repeat. Single-threaded
/// by design — process-level parallelism is the fleet's whole point, and a
/// worker wanting thread-level parallelism can simply be started N times.
class FleetWorker {
 public:
  /// What one step() accomplished.
  enum class Step {
    Ran,      ///< claimed a shard, ran it, recorded it
    Idle,     ///< pending work exists but is all actively leased by others
    Done,     ///< every shard of every submitted cell is recorded
    Stalled,  ///< only unrunnable-here cells remain, none actively leased
    Quarantined,  ///< only quarantined shards remain (finish with a
                  ///< `--force` / ignoreQuarantine pass)
  };

  /// `workerId` must be unique per worker process; empty derives
  /// "<pid>:<hex>" automatically (the pid prefix powers same-host liveness).
  explicit FleetWorker(const std::string& storePath,
                       std::string workerId = {}, FleetConfig config = {});
  ~FleetWorker();

  FleetWorker(const FleetWorker&) = delete;
  FleetWorker& operator=(const FleetWorker&) = delete;

  /// Claim and run at most one shard. Cost-ordered: cells by descending
  /// (golden instructions × pending experiments), shards ascending within a
  /// cell — the LPT order CampaignSuite uses, so the fleet finishes the
  /// long pole first too.
  Step step();

  /// step() until Done, Stalled, or Quarantined (or until `maxShards` fresh
  /// shards ran, when nonzero — the worker-side checkpoint cap), sleeping
  /// with decorrelated jitter around pollMs between Idle polls. Returns the
  /// final step state.
  Step run(std::size_t maxShards = 0);

  [[nodiscard]] const std::string& workerId() const noexcept { return id_; }
  [[nodiscard]] std::size_t shardsRun() const noexcept { return shardsRun_; }

 private:
  struct CellExec;  ///< resolved workload + shard metadata (fleet.cpp)

  [[nodiscard]] std::uint64_t now() const;
  [[nodiscard]] bool leaseActive(const CampaignStore::LeaseRecord& lease,
                                 std::uint64_t nowMs) const;
  CellExec* resolve(const CampaignStore::CellRecord& cell);
  [[nodiscard]] std::uint64_t leaseDurationFor(std::uint64_t cellKey);

  CampaignStore store_;
  FleetConfig config_;
  std::string id_;
  std::size_t shardsRun_ = 0;
  std::size_t claims_ = 0;
  bool loaded_ = false;
  std::uint64_t jitterState_ = 0;  ///< decorrelated-jitter RNG state
  std::uint64_t prevSleepMs_ = 0;  ///< previous idle sleep (jitter input)
  std::unordered_map<std::uint64_t, std::unique_ptr<CellExec>> execs_;
  std::unordered_set<std::uint64_t> unrunnable_;
};

}  // namespace onebit::fi
