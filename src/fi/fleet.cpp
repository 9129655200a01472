#include "fi/fleet.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "fi/fault_plan.hpp"
#include "progs/registry.hpp"
#include "util/bitops.hpp"
#include "util/file_lock.hpp"
#include "util/rng.hpp"

namespace onebit::fi {

namespace {

/// Is this lease still holding its shard? Expired leases are dead; on a
/// single host, so are leases whose recorded pid no longer exists (an early
/// re-lease accelerator — expiry alone is always sufficient).
bool leaseAlive(const CampaignStore::LeaseRecord& lease, std::uint64_t nowMs,
                bool sameHostLiveness) {
  if (lease.deadlineMs <= nowMs) return false;
  if (sameHostLiveness) {
    if (const std::optional<std::uint64_t> pid = workerPid(lease.worker)) {
      if (!util::processAlive(*pid)) return false;
    }
  }
  return true;
}

std::uint64_t clockOf(const FleetConfig& config) {
  return config.clock ? config.clock() : util::wallClockMs();
}

std::shared_ptr<const Workload> defaultResolve(
    const CampaignStore::CellRecord& cell) {
  const progs::ProgramInfo* info = progs::findProgram(cell.workload);
  if (info == nullptr) return nullptr;
  const std::uint64_t hangFactor =
      cell.hangFactor != 0 ? cell.hangFactor : Workload::kDefaultHangFactor;
  try {
    return std::make_shared<const Workload>(
        progs::compileProgram(*info), hangFactor, SnapshotPolicy{},
        PrunePolicy{}, vm::DispatchBackend::Threaded);
  } catch (const std::invalid_argument&) {
    return nullptr;  // a hang factor whose budget overflows
  }
}

}  // namespace

bool parseCount(std::string_view s, std::uint64_t& out, int base) {
  // from_chars takes no sign, space or prefix for an unsigned type, and
  // fails on overflow.
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v, base);
  if (ec != std::errc() || ptr != end) return false;
  out = v;
  return true;
}

bool parsePoison(std::string_view spec, FleetConfig& config) {
  const std::size_t colon = spec.rfind(':');
  const std::string_view name = spec.substr(0, colon);
  if (name.empty()) return false;
  std::uint64_t shard = std::numeric_limits<std::size_t>::max();
  // npos itself is the "every shard" sentinel, not a shard.
  if (colon != std::string_view::npos &&
      (!parseCount(spec.substr(colon + 1), shard) ||
       shard >= std::numeric_limits<std::size_t>::max())) {
    return false;
  }
  config.poisonWorkload = std::string(name);
  config.poisonShard = static_cast<std::size_t>(shard);
  return true;
}

std::optional<std::uint64_t> workerPid(const std::string& worker) {
  std::uint64_t pid = 0;
  std::size_t i = 0;
  for (; i < worker.size() && worker[i] >= '0' && worker[i] <= '9'; ++i) {
    pid = pid * 10 + static_cast<std::uint64_t>(worker[i] - '0');
  }
  if (i == 0 || i >= worker.size() || worker[i] != ':') return std::nullopt;
  return pid;
}

std::uint64_t adaptiveLeaseMs(std::vector<std::uint64_t> costsMs,
                              double quantile, std::uint64_t baseMs) {
  if (costsMs.empty() || !(quantile > 0.0) || quantile > 1.0 || baseMs == 0) {
    return baseMs;
  }
  std::sort(costsMs.begin(), costsMs.end());
  // Nearest-rank quantile: the smallest sample with at least `quantile` of
  // the distribution at or below it.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(quantile * static_cast<double>(costsMs.size())));
  rank = std::clamp<std::size_t>(rank, 1, costsMs.size());
  const std::uint64_t q = costsMs[rank - 1];
  // 4× headroom: a lease must comfortably outlive a typical shard, or the
  // fleet steals work it should have waited for. The clamp keeps one wild
  // sample from driving deadlines to zero or to forever.
  const std::uint64_t headroom = q > ~0ULL / 4 ? ~0ULL : q * 4;
  const std::uint64_t lo = std::max<std::uint64_t>(1, baseMs / 8);
  const std::uint64_t hi = baseMs * 64;
  return std::clamp(headroom, lo, hi);
}

// ---------------------------------------------------------------- FleetBroker

FleetBroker::FleetBroker(const std::string& storePath, FleetConfig config)
    : store_(storePath, CampaignStore::WriteMode::Atomic),
      config_(std::move(config)) {}

std::optional<CampaignStore::CellRecord> FleetBroker::makeCell(
    const std::string& name, const Workload& workload,
    const FaultModel& model, std::size_t experiments, std::uint64_t seed,
    std::size_t resolvedShardSize) {
  // The store's loader drops a cell whose counts are 0 or its 2^64 − 1
  // "malformed" sentinel, or whose flip width is outside 1..64.
  constexpr std::size_t kBad = std::numeric_limits<std::size_t>::max();
  if (name.empty() || experiments == 0 || experiments == kBad ||
      resolvedShardSize == 0 || resolvedShardSize == kBad ||
      util::ceilDiv(experiments, resolvedShardSize) > kMaxCellShards ||
      model.flipWidth == 0 || model.flipWidth > 64) {
    return std::nullopt;
  }
  CampaignStore::CellRecord rec;
  rec.key = CampaignStore::campaignKey(model, experiments, seed,
                                       workload.fingerprintFor(model));
  rec.workload = name;
  rec.spec = model.label();
  rec.flipWidth = model.flipWidth;
  rec.experiments = experiments;
  rec.seed = seed;
  rec.shardSize = resolvedShardSize;
  rec.hangFactor = workload.hangFactor();
  rec.dynInstrs = workload.golden().instructions;
  // The record carries the model as its label; a worker will re-parse it.
  // Verify the round trip reproduces both the spelling and the campaign key
  // — a degenerate model that re-parses to different semantics must run
  // in-process, not stall the fleet as a cell nobody can validate.
  std::optional<FaultModel> parsed = FaultModel::parse(rec.spec);
  if (!parsed) return std::nullopt;
  parsed->flipWidth = model.flipWidth;
  if (parsed->label() != rec.spec ||
      CampaignStore::campaignKey(*parsed, experiments, seed,
                                 workload.fingerprintFor(*parsed)) !=
          rec.key) {
    return std::nullopt;
  }
  return rec;
}

bool FleetBroker::submit(const CampaignStore::CellRecord& cell) {
  if (!loaded_) {
    store_.load();
    loaded_ = true;
  }
  return store_.appendCell(cell);
}

std::vector<FleetBroker::CellStatus> FleetBroker::status() {
  if (!loaded_) {
    store_.load();
    loaded_ = true;
  } else {
    store_.refresh();
  }
  const std::uint64_t nowMs = clockOf(config_);
  std::vector<CellStatus> out;
  for (const CampaignStore::CellRecord& cell : store_.cells()) {
    CellStatus st;
    st.cell = cell;
    for (std::size_t s = 0; s < cell.shardCount(); ++s) {
      if (store_.findShard(cell.key, cell.shardFirst(s),
                           cell.shardExperiments(s)) != nullptr) {
        ++st.recordedShards;
        st.recordedExperiments += cell.shardExperiments(s);
      } else if (store_.findQuarantine(cell.key, cell.shardFirst(s),
                                       cell.shardExperiments(s))) {
        ++st.quarantinedShards;
      }
    }
    // Snapshot first: forEachLease holds the store mutex across the
    // callback, so calling findShard from inside it would self-deadlock.
    std::vector<CampaignStore::LeaseRecord> leases;
    store_.forEachLease(cell.key, [&](const CampaignStore::LeaseRecord& l) {
      leases.push_back(l);
    });
    for (const CampaignStore::LeaseRecord& l : leases) {
      if (store_.findShard(cell.key, l.first, l.count) != nullptr) {
        continue;  // superseded: the shard is done, the lease is history
      }
      if (leaseAlive(l, nowMs, config_.sameHostLiveness)) {
        ++st.activeLeases;
      } else {
        ++st.expiredLeases;
      }
    }
    out.push_back(std::move(st));
  }
  return out;
}

bool FleetBroker::complete() {
  const std::vector<CellStatus> cells = status();
  if (cells.empty()) return false;
  return std::all_of(cells.begin(), cells.end(),
                     [](const CellStatus& c) { return c.complete(); });
}

// ---------------------------------------------------------------- FleetWorker

/// A cell this worker has resolved and key-validated: the rebuilt workload,
/// the re-parsed model, and the store metadata every shard record stamps.
struct FleetWorker::CellExec {
  std::shared_ptr<const Workload> workload;
  FaultModel model;
  std::uint64_t candidates = 0;
  CampaignStore::CampaignMeta meta;
};

FleetWorker::FleetWorker(const std::string& storePath, std::string workerId,
                         FleetConfig config)
    : store_(storePath, CampaignStore::WriteMode::Atomic),
      config_(std::move(config)),
      id_(std::move(workerId)) {
  if (config_.leaseMs == 0) config_.leaseMs = FleetConfig{}.leaseMs;
  if (id_.empty()) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%llu:%04llx",
                  static_cast<unsigned long long>(util::currentPid()),
                  static_cast<unsigned long long>(
                      util::hashCombine(util::wallClockMs(),
                                        util::currentPid()) &
                      0xffff));
    id_ = buf;
  }
  // Per-worker jitter stream: scheduling-only, so seeding from the id and
  // the wall clock costs no determinism.
  jitterState_ = util::hashCombine(util::hashBytes(id_),
                                   util::wallClockMs());
}

FleetWorker::~FleetWorker() = default;

std::uint64_t FleetWorker::now() const { return clockOf(config_); }

bool FleetWorker::leaseActive(const CampaignStore::LeaseRecord& lease,
                              std::uint64_t nowMs) const {
  // Our own lease never blocks us: this worker is single-threaded, so a
  // lease under our id with no shard record is the residue of an earlier
  // claim we abandoned (e.g. a cell that failed to resolve) — re-claimable.
  if (lease.worker == id_) return false;
  return leaseAlive(lease, nowMs, config_.sameHostLiveness);
}

FleetWorker::CellExec* FleetWorker::resolve(
    const CampaignStore::CellRecord& cell) {
  const auto it = execs_.find(cell.key);
  if (it != execs_.end()) return it->second.get();
  auto fail = [&](const char* why) -> CellExec* {
    std::fprintf(stderr,
                 "fleet worker %s: cell '%s' (%s) is unrunnable here: %s\n",
                 id_.c_str(), cell.workload.c_str(), cell.spec.c_str(), why);
    unrunnable_.insert(cell.key);
    return nullptr;
  };
  std::optional<FaultModel> model = FaultModel::parse(cell.spec);
  if (!model) return fail("unparseable fault spec");
  model->flipWidth = cell.flipWidth;
  const std::shared_ptr<const Workload> workload =
      config_.workloadResolver ? config_.workloadResolver(cell)
                               : defaultResolve(cell);
  if (workload == nullptr) return fail("workload did not resolve");
  // The submitting broker's campaign key must be reproduced bit for bit —
  // a mismatch means our rebuilt workload behaves differently (source
  // drift, wrong hang factor, version skew) and any shard we ran would be
  // recorded under a key it does not belong to.
  const std::uint64_t key = CampaignStore::campaignKey(
      *model, cell.experiments, cell.seed, workload->fingerprintFor(*model));
  if (key != cell.key) return fail("campaign key mismatch (version skew?)");
  auto exec = std::make_unique<CellExec>();
  exec->workload = workload;
  exec->model = *model;
  exec->candidates = workload->candidates(model->domain);
  exec->meta.key = cell.key;
  exec->meta.workload = cell.workload;
  exec->meta.specLabel = cell.spec;
  exec->meta.seed = cell.seed;
  exec->meta.experiments = cell.experiments;
  exec->meta.candidates = exec->candidates;
  return execs_.emplace(cell.key, std::move(exec)).first->second.get();
}

std::uint64_t FleetWorker::leaseDurationFor(std::uint64_t cellKey) {
  if (!config_.adaptiveLease) return config_.leaseMs;
  // Completion leases carry the observed wall-clock of their shard; the
  // deadline becomes a quantile of those costs (see adaptiveLeaseMs).
  // Snapshot first — forEachLease holds the store mutex.
  std::vector<std::uint64_t> costs;
  store_.forEachLease(cellKey, [&](const CampaignStore::LeaseRecord& l) {
    if (l.costMs != 0) costs.push_back(l.costMs);
  });
  return adaptiveLeaseMs(std::move(costs), config_.leaseQuantile,
                         config_.leaseMs);
}

FleetWorker::Step FleetWorker::step() {
  struct Claim {
    CampaignStore::CellRecord cell;
    std::size_t shard = 0;
    std::uint64_t epoch = 0;
    std::uint64_t leaseMs = 0;  ///< adaptive duration fixed at claim time
  };
  std::optional<Claim> claim;
  bool allRecorded = true;
  bool activeElsewhere = false;
  bool quarantinedPending = false;

  {
    // The whole read-decide-append sequence is one cross-process critical
    // section; individual appends inside re-enter the same lock.
    util::FileLock* fileLock = store_.fileLock();
    std::lock_guard<util::FileLock> guard(*fileLock);
    if (!loaded_) {
      store_.load();
      loaded_ = true;
    } else {
      store_.refresh();
    }
    const std::uint64_t nowMs = now();

    // Cost-ordered scan: cells by descending estimated remaining work
    // (golden instructions × pending experiments — the suite's LPT
    // heuristic), shards ascending within a cell. Ties keep submission
    // order. Claim order never affects results, only makespan.
    const std::vector<CampaignStore::CellRecord> cells = store_.cells();
    std::vector<std::size_t> pendingExperiments(cells.size(), 0);
    std::vector<std::size_t> order(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      order[c] = c;
      for (std::size_t s = 0; s < cells[c].shardCount(); ++s) {
        if (store_.findShard(cells[c].key, cells[c].shardFirst(s),
                             cells[c].shardExperiments(s)) == nullptr) {
          pendingExperiments[c] += cells[c].shardExperiments(s);
        }
      }
      if (pendingExperiments[c] != 0) allRecorded = false;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return cells[a].dynInstrs * pendingExperiments[a] >
                              cells[b].dynInstrs * pendingExperiments[b];
                     });
    for (const std::size_t c : order) {
      if (claim) break;
      const CampaignStore::CellRecord& cell = cells[c];
      if (pendingExperiments[c] == 0) continue;
      for (std::size_t s = 0; s < cell.shardCount(); ++s) {
        const std::size_t first = cell.shardFirst(s);
        const std::size_t count = cell.shardExperiments(s);
        if (store_.findShard(cell.key, first, count) != nullptr) continue;
        if (!config_.ignoreQuarantine &&
            store_.findQuarantine(cell.key, first, count)) {
          // Poison verdict from the supervisor: skip, so the fleet
          // converges on everything else instead of crash-looping here.
          quarantinedPending = true;
          continue;
        }
        const std::optional<CampaignStore::LeaseRecord> lease =
            store_.latestLease(cell.key, first, count);
        if (lease && leaseActive(*lease, nowMs)) {
          activeElsewhere = true;
          continue;
        }
        if (unrunnable_.count(cell.key) != 0) continue;
        Claim c2;
        c2.cell = cell;
        c2.shard = s;
        c2.epoch = lease ? lease->epoch + 1 : 1;
        c2.leaseMs = leaseDurationFor(cell.key);
        store_.appendLease(cell.key,
                           {first, count, id_, c2.epoch,
                            nowMs + c2.leaseMs});
        claim = std::move(c2);
        break;
      }
    }
  }

  if (!claim) {
    if (allRecorded) return Step::Done;
    if (activeElsewhere) return Step::Idle;
    return quarantinedPending ? Step::Quarantined : Step::Stalled;
  }
  ++claims_;
  if (config_.onClaim) config_.onClaim(claims_);
#if !defined(_WIN32)
  if (!config_.poisonWorkload.empty() &&
      claim->cell.workload == config_.poisonWorkload &&
      (config_.poisonShard == static_cast<std::size_t>(-1) ||
       config_.poisonShard == claim->shard)) {
    // Artificial poison shard: die the way a real one kills its host —
    // uncleanly, mid-lease, right after claiming.
    ::raise(SIGKILL);
  }
#endif

  CellExec* exec = resolve(claim->cell);
  if (exec == nullptr) {
    // The claim is burned; our own lease never blocks us and lapses for
    // everyone else. The next step() skips this cell via unrunnable_.
    return Step::Idle;
  }

  const CampaignStore::CellRecord& cell = claim->cell;
  const std::size_t first = cell.shardFirst(claim->shard);
  const std::size_t count = cell.shardExperiments(claim->shard);
  ShardTally acc;
  // Beat at least three times per lease of THIS claim: an adaptive lease can
  // be far shorter than the base lease the heartbeat period derives from.
  const std::uint64_t beatMs = std::max<std::uint64_t>(
      1, std::min(config_.resolvedHeartbeatMs(), claim->leaseMs / 3));
  const std::uint64_t startedMs = now();
  std::uint64_t lastBeat = startedMs;
  for (std::size_t i = first; i < first + count; ++i) {
    const FaultPlan fp = FaultPlan::forExperiment(exec->model,
                                                  exec->candidates,
                                                  cell.seed, i);
    acc.add(runExperiment(*exec->workload, fp));
    const std::uint64_t t = now();
    if (t - lastBeat >= beatMs) {
      // Renew within our epoch: same claim, pushed-out deadline.
      store_.appendLease(cell.key, {first, count, id_, claim->epoch,
                                    t + claim->leaseMs});
      lastBeat = t;
    }
  }
  bool recorded = store_.appendShard(exec->meta, claim->shard, first, count,
                                     {acc.counts, acc.hist});
  if (!recorded && store_.lastWriteOutOfSpace()) {
    // Out of space is a pause-and-retry state, not a verdict: the computed
    // shard is too expensive to throw away while the disk may drain (log
    // rotation, a compaction elsewhere). Park on our heartbeat — keep the
    // lease warm so nobody re-runs the shard under us — and keep retrying
    // until the park budget runs out.
    const std::uint64_t parkDeadline = now() + config_.resolvedParkMs();
    std::fprintf(stderr,
                 "fleet worker %s: store '%s' is out of space; parking "
                 "shard %zu of '%s' for up to %llu ms\n",
                 id_.c_str(), store_.path().c_str(), claim->shard,
                 cell.workload.c_str(),
                 static_cast<unsigned long long>(config_.resolvedParkMs()));
    while (now() < parkDeadline) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::min<std::uint64_t>(beatMs, 1000)));
      const std::uint64_t t = now();
      store_.appendLease(cell.key, {first, count, id_, claim->epoch,
                                    t + claim->leaseMs});  // best-effort
      recorded = store_.appendShard(exec->meta, claim->shard, first, count,
                                    {acc.counts, acc.hist});
      if (recorded || !store_.lastWriteOutOfSpace()) break;
    }
  }
  if (recorded) {
    // Completion renewal: stamp the shard's observed wall-clock into the
    // lease stream (never the shard record — wall-clock is nondeterministic
    // and shard records must stay byte-identical across runs). The deadline
    // is already `now`: the shard record supersedes the lease anyway.
    const std::uint64_t t = now();
    const std::uint64_t cost = std::max<std::uint64_t>(1, t - startedMs);
    store_.appendLease(cell.key, {first, count, id_, claim->epoch, t, cost});
  } else {
    std::fprintf(stderr,
                 "fleet worker %s: store '%s' is not recording (write "
                 "failed); shard %zu of '%s' was computed but lost\n",
                 id_.c_str(), store_.path().c_str(), claim->shard,
                 cell.workload.c_str());
  }
  ++shardsRun_;
  return Step::Ran;
}

FleetWorker::Step FleetWorker::run(std::size_t maxShards) {
  for (;;) {
    const Step step = this->step();
    if (step == Step::Done || step == Step::Stalled ||
        step == Step::Quarantined) {
      return step;
    }
    if (step == Step::Ran) {
      prevSleepMs_ = 0;  // work found: restart the jitter ramp
      if (maxShards != 0 && shardsRun_ >= maxShards) return step;
    }
    if (step == Step::Idle) {
      // Decorrelated jitter (not fixed pollMs): uniform in
      // [pollMs, 3 × previous sleep], capped at 16 × pollMs. N idle workers
      // polling one store spread out instead of convoying on the flock at
      // the same instant every period.
      const std::uint64_t base = std::max<std::uint64_t>(1, config_.pollMs);
      const std::uint64_t cap = base * 16;
      const std::uint64_t prev = std::max(prevSleepMs_, base);
      std::uint64_t sleep = base;
      if (const std::uint64_t span = prev * 3 - base; span != 0) {
        sleep = base + util::SplitMix64(jitterState_++).next() % span;
      }
      sleep = std::min(sleep, cap);
      prevSleepMs_ = sleep;
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep));
    }
  }
}

}  // namespace onebit::fi
