// Workload (golden-run cache) and single fault-injection experiments.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fi/fault_plan.hpp"
#include "fi/injector_hook.hpp"
#include "ir/module.hpp"
#include "stats/outcome_counts.hpp"
#include "vm/interpreter.hpp"
#include "vm/snapshot.hpp"

namespace onebit::fi {

/// Golden-prefix fast-forward knobs: how densely a Workload checkpoints its
/// golden run, and how much memory those checkpoints may hold. Every faulty
/// run's prefix before its first injection is identical to the golden run,
/// so runExperiment() resumes from the densest snapshot at-or-before the
/// plan's first injection index instead of re-interpreting the prefix.
/// Snapshots never change results — resumed continuation is bit-identical
/// to from-scratch execution (the vm/snapshot.hpp contract) — they only
/// change how fast experiments run.
struct SnapshotPolicy {
  /// Dynamic instructions between captures, at the start of the golden run;
  /// the retention bounds below coarsen it on the fly (drop every other
  /// snapshot, double the spacing). 0 disables the snapshot cache entirely.
  std::uint64_t interval = vm::SnapshotCapturePolicy{}.interval;
  /// Per-workload byte budget for kept snapshots (0 disables the cache).
  std::size_t budgetBytes = 16 << 20;
  /// Upper bound on kept snapshots (0 = bounded by budgetBytes alone).
  std::size_t maxSnapshots = 64;

  [[nodiscard]] bool enabled() const noexcept {
    return interval != 0 && budgetBytes != 0;
  }

  /// The cache-off policy (every experiment interprets from scratch).
  static SnapshotPolicy disabled() noexcept {
    SnapshotPolicy p;
    p.interval = 0;
    return p;
  }
};

/// Outcome-equivalence pruning. When enabled on a workload that keeps
/// golden-run snapshots, runExperiment runs each faulty run, once its
/// injector hook is exhausted, to every later snapshot's exact instruction
/// count and compares the machine with it (vm::Machine::compare): an exact
/// match means the fault was masked, and the run ends there with the golden
/// outcome. Like SnapshotPolicy, pruning is a pure speedup — it must never
/// change results — and is therefore NOT part of the workload fingerprint.
/// It is on by default: every workload that keeps snapshots prunes.
struct PrunePolicy {
  bool enabled = true;

  /// The unpruned policy, for differential tests that hold pruning to an
  /// unpruned arm; production code keeps the default.
  static PrunePolicy off() noexcept {
    PrunePolicy p;
    p.enabled = false;
    return p;
  }
};

/// A program + input pair (the paper's "workload"), with its fault-free
/// profile: golden output, dynamic instruction count, and per-domain
/// candidate counts (Table II's "candidate instructions for fault
/// injection", plus the store-event stream of the MemoryData domain).
class Workload {
 public:
  /// Default faulty-run budget factor (LLFI uses one to two orders of
  /// magnitude above the fault-free runtime).
  static constexpr std::uint64_t kDefaultHangFactor = 50;

  /// Takes ownership of the module and runs the golden execution once.
  /// `hangFactor` scales the faulty-run instruction budget relative to the
  /// golden run: golden instructions × hangFactor + 10,000 (throws
  /// std::invalid_argument when that does not fit 64 bits). `snapshots`
  /// controls the golden-prefix snapshot cache
  /// captured during that same golden run (on by default; pass
  /// SnapshotPolicy::disabled() to interpret every experiment from scratch).
  /// `prune` makes runExperiment compare faulty runs with those snapshots
  /// (on by default; PrunePolicy::off() is for differential tests, and a
  /// workload without snapshots never prunes).
  /// `dispatch` selects the execution backend for every hook-free segment
  /// this workload runs — the golden pass, snapshot captures included, and
  /// every stretch an experiment's injector sleeps through or outlives.
  /// Like the snapshot and
  /// prune policies it is a pure speedup (bit-identical results, pinned by
  /// tests/dispatch_differential_test and tests/dispatch_equivalence_test)
  /// and is NOT part of the fingerprint.
  explicit Workload(ir::Module mod,
                    std::uint64_t hangFactor = kDefaultHangFactor,
                    SnapshotPolicy snapshots = {}, PrunePolicy prune = {},
                    vm::DispatchBackend dispatch = vm::DispatchBackend::Switch);

  [[nodiscard]] const ir::Module& module() const noexcept { return mod_; }
  [[nodiscard]] const vm::ExecResult& golden() const noexcept {
    return golden_;
  }
  /// Size of a fault domain's candidate stream over the golden run:
  /// read/write candidates for the register domains, committed store events
  /// for MemoryData, and dynamic instructions for RandomValue (the blind
  /// model addresses points in time).
  [[nodiscard]] std::uint64_t candidates(FaultDomain d) const noexcept {
    switch (d) {
      case FaultDomain::RegisterRead: return golden_.readCandidates;
      case FaultDomain::RegisterWrite: return golden_.writeCandidates;
      case FaultDomain::MemoryData: return golden_.storeCandidates;
      case FaultDomain::RandomValue: return golden_.instructions;
    }
    return golden_.readCandidates;
  }
  [[nodiscard]] const vm::ExecLimits& faultyLimits() const noexcept {
    return faultyLimits_;
  }
  /// The hang budget factor this workload was built with. Fleet brokers
  /// stamp it into cell records so worker processes rebuild the workload
  /// with the identical faulty-run budget (and thus fingerprint).
  [[nodiscard]] std::uint64_t hangFactor() const noexcept {
    return hangFactor_;
  }
  /// Stable 64-bit identity of this workload's observable behavior: a hash
  /// of the golden output, dynamic instruction count, both register
  /// candidate counts, and the faulty-run instruction budget (hangFactor).
  /// Two workloads that differ in any of these cannot share persisted
  /// campaign results (see fi/campaign_store.hpp). Snapshot policy is
  /// deliberately NOT part of the fingerprint — it cannot affect results.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }

  /// The fingerprint campaign keys should bind for `model`: the legacy
  /// fingerprint() for paper cells (so pre-FaultModel store records still
  /// resume), and an extended fingerprint additionally chaining the
  /// store-event candidate count for extension cells — MemoryData plans
  /// draw their first index from that stream, so its size is part of the
  /// result contract there.
  [[nodiscard]] std::uint64_t fingerprintFor(
      const FaultModel& model) const noexcept {
    return model.isPaperModel() ? fingerprint_ : extendedFingerprint_;
  }

  /// The densest golden-run snapshot usable for a faulty run whose first
  /// injection is at candidate `firstIndex` of domain `d`'s stream: the
  /// latest snapshot whose stream position is <= firstIndex (strictly
  /// before it for RandomValue, whose stream is the instruction counter
  /// itself: the arming callback at instruction `firstIndex` must still
  /// fire in the resumed run) and whose instruction count fits
  /// `maxInstructions` (so a from-scratch run would reach the snapshot
  /// point without exhausting fuel). nullptr when the cache is empty or no
  /// snapshot qualifies.
  [[nodiscard]] const vm::Snapshot* snapshotAtOrBefore(
      FaultDomain d, std::uint64_t firstIndex,
      std::uint64_t maxInstructions) const noexcept;

  [[nodiscard]] std::size_t snapshotCount() const noexcept {
    return snapshots_.size();
  }
  /// Total byteSize() of the kept snapshots (<= the policy's budget).
  [[nodiscard]] std::size_t snapshotBytes() const noexcept;

  /// The kept snapshots captured after `restored` (all of them when it is
  /// null), in capture order: the points a pruned run is compared at.
  [[nodiscard]] std::span<const vm::Snapshot> snapshotsAfter(
      const vm::Snapshot* restored) const noexcept;

  /// True when runExperiment prunes: the workload was built with
  /// PrunePolicy.enabled and keeps at least one snapshot.
  [[nodiscard]] bool pruningEnabled() const noexcept { return prune_; }

 private:
  ir::Module mod_;
  vm::ExecResult golden_;
  vm::ExecLimits faultyLimits_;
  std::uint64_t hangFactor_ = kDefaultHangFactor;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t extendedFingerprint_ = 0;
  std::vector<vm::Snapshot> snapshots_;
  bool prune_ = false;
};

/// How outcome-equivalence pruning resolved one experiment.
enum class PruneEvent : unsigned char {
  None,         ///< pruning off, or the run ended before any comparison
  GoldenMatch,  ///< short-circuited: the state matched a golden snapshot
  Miss,         ///< compared with no match; ran to completion
};

/// Result of one fault-injection experiment.
struct ExperimentResult {
  stats::Outcome outcome = stats::Outcome::Benign;
  vm::TrapKind trap = vm::TrapKind::None;  ///< set when outcome == Detected
  unsigned activations = 0;  ///< bit-flip errors actually applied (RQ1)
  std::uint64_t instructions = 0;
  PruneEvent prune = PruneEvent::None;
  /// The run ended as a Hang proven by vm::Machine::provesHang, without
  /// interpreting the rest of its budget.
  bool hangProof = false;
};

/// Classify a faulty run against the golden run (§III-E taxonomy).
stats::Outcome classify(const vm::ExecResult& faulty,
                        const vm::ExecResult& golden) noexcept;

/// Execute one experiment described by `plan` on `workload`, fast-forwarding
/// over the golden prefix via the workload's snapshot cache when possible.
/// On a pruning workload, once the injector hook is exhausted the run is
/// compared with each later golden snapshot at that snapshot's instruction
/// count: an exact match returns the golden outcome without running the
/// rest; a control or output mismatch stops comparing. A run that is still
/// going at 2×, 4×, 8×… the golden instruction count (checkpoints below
/// golden × hangFactor; none at hang factors <= 2), with its hook
/// exhausted, tries vm::Machine::provesHang there: a proof returns Hang
/// with instructions == maxInstructions + 1, as the full run would end.
/// Outcome, trap, activations and instruction count are bit-identical to a
/// from-scratch run for every plan and policy; only `prune`, `hangProof`
/// and wall-clock differ.
ExperimentResult runExperiment(const Workload& workload,
                               const FaultPlan& plan);

/// The slow oracle for runExperiment: the same experiment from scratch (no
/// snapshot, no pruning), every instruction on the reference loop, with the
/// plan's InjectorHook behind a forwarder that never sleeps, so the hook
/// sees every callback until it is exhausted. Outcome, trap, activations
/// and instruction count must equal runExperiment's for every plan and
/// policy.
ExperimentResult runReference(const Workload& workload, const FaultPlan& plan);

/// runReference with a caller-owned, not yet run injector, whose records
/// and observables the caller can read afterwards.
ExperimentResult runReference(const Workload& workload, InjectorHook& hook);

}  // namespace onebit::fi
