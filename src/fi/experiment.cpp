#include "fi/experiment.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"
#include "vm/machine.hpp"
#include "vm/threaded.hpp"

namespace onebit::fi {

Workload::Workload(ir::Module mod, std::uint64_t hangFactor,
                   SnapshotPolicy snapshots, PrunePolicy prune,
                   vm::DispatchBackend dispatch)
    : mod_(std::move(mod)), hangFactor_(hangFactor) {
  vm::ExecLimits goldenLimits;
  // The backend rides on the limits into every run this workload owns: the
  // plain golden pass below executes threaded when selected (the hashing
  // pass and snapshot-capturing runs stay on the reference loop by the
  // eligibility rule in Machine::run — which makes the prune-mode
  // differential self-check below a free cross-backend comparison), and
  // faultyLimits_ carries it into runExperiment's post-exhaustion suffixes.
  goldenLimits.dispatch = dispatch;
  if (dispatch == vm::DispatchBackend::Threaded) {
    // Decode once: every faulty run would otherwise decode the module again
    // (O(module size) — comparable to a short experiment suffix).
    goldenLimits.threadedCode = vm::ThreadedCode::decode(mod_);
  }
  vm::SnapshotCapturePolicy capture;  // default interval = the auto spacing
  if (snapshots.interval != SnapshotPolicy::kAutoInterval) {
    capture.interval = snapshots.interval;
  }
  capture.maxSnapshots = snapshots.maxSnapshots;
  capture.budgetBytes = snapshots.budgetBytes;
  if (!prune.enabled) {
    if (snapshots.enabled()) {
      golden_ =
          vm::executeWithSnapshots(mod_, goldenLimits, capture, snapshots_);
    } else {
      golden_ = vm::execute(mod_, goldenLimits, nullptr);
    }
  } else {
    // Pass 1: the plain golden profile. The auto grid heuristic needs the
    // dynamic instruction count before the hashing pass can place its
    // boundaries, and the plain result doubles as the reference for the
    // differential self-check below.
    golden_ = vm::execute(mod_, goldenLimits, nullptr);
    if (golden_.status == vm::ExecStatus::Ok) {
      hashGrid_ = std::clamp<std::uint64_t>(golden_.instructions / 128, 64,
                                            16384);
      // Pass 2: the hashing golden run records the boundary-hash table and
      // (when snapshots are on) captures the snapshot cache under the same
      // retention policy.
      vm::ExecLimits hashedLimits = goldenLimits;
      hashedLimits.trackStateHash = true;
      vm::Machine machine(mod_, hashedLimits, nullptr);
      if (snapshots.enabled()) {
        machine.captureEvery(capture.interval == 0 ? 1 : capture.interval,
                             vm::makeRetentionSink(capture, snapshots_));
      }
      while (machine.runToBoundary(hashGrid_)) {
        goldenHashes_.push_back(machine.stateHash());
      }
      const vm::ExecResult hashed = machine.run();
      // Differential self-check: state hashing must never change execution.
      if (hashed.status != golden_.status ||
          hashed.instructions != golden_.instructions ||
          hashed.output != golden_.output ||
          hashed.readCandidates != golden_.readCandidates ||
          hashed.writeCandidates != golden_.writeCandidates ||
          hashed.storeCandidates != golden_.storeCandidates) {
        throw std::logic_error(
            "fi::Workload: hashing golden run diverged from the plain golden "
            "run");
      }
    }
  }
  if (golden_.status != vm::ExecStatus::Ok) {
    throw std::runtime_error(
        "workload golden run did not terminate normally (trap: " +
        std::string(vm::trapName(golden_.trap)) + ")");
  }
  faultyLimits_ = goldenLimits;
  faultyLimits_.maxInstructions =
      golden_.instructions * hangFactor + 10'000ULL;
  // The faulty-run instruction budget (hangFactor) decides Hang vs other
  // outcomes, so two workloads differing only in it must not share
  // persisted campaign results — fold it in alongside the golden profile.
  fingerprint_ = util::hashCombine(
      util::hashCombine(util::hashBytes(golden_.output),
                        golden_.instructions),
      util::hashCombine(
          util::hashCombine(golden_.readCandidates, golden_.writeCandidates),
          faultyLimits_.maxInstructions));
  // Extension-cell fingerprint: also bind the store-event stream size
  // (MemoryData's candidate space). Kept separate so paper-cell campaign
  // keys — which predate the store stream — stay stable across the
  // FaultModel redesign.
  extendedFingerprint_ =
      util::hashCombine(fingerprint_, golden_.storeCandidates);
}

const vm::Snapshot* Workload::snapshotAtOrBefore(
    FaultDomain d, std::uint64_t firstIndex,
    std::uint64_t maxInstructions) const noexcept {
  // Snapshots are ordered by capture time, so every candidate counter and
  // the instruction counter are nondecreasing across the vector. Binary
  // search for the last snapshot whose stream position is below `bound`...
  const auto position = [d](const vm::Snapshot& s) noexcept {
    switch (d) {
      case FaultDomain::RegisterRead: return s.readCandidates;
      case FaultDomain::RegisterWrite: return s.writeCandidates;
      case FaultDomain::MemoryData: return s.storeCandidates;
      case FaultDomain::RandomValue: return s.instructions;
    }
    return s.readCandidates;
  };
  // Candidate streams are post-incremented: a snapshot at stream position p
  // precedes the callback with candidate index p, so position <= firstIndex
  // is safe. RandomValue addresses the (pre-incremented) instruction counter
  // itself; the arming callback carries instrIndex == firstIndex only when
  // the snapshot sits strictly before it.
  const std::uint64_t bound =
      d == FaultDomain::RandomValue ? firstIndex : firstIndex + 1;
  auto it = std::upper_bound(
      snapshots_.begin(), snapshots_.end(), bound,
      [&](std::uint64_t v, const vm::Snapshot& s) { return v <= position(s); });
  // ...then walk back over any whose instruction count a from-scratch run
  // could not reach within `maxInstructions` (tiny hang factors only).
  while (it != snapshots_.begin()) {
    const vm::Snapshot& s = *std::prev(it);
    if (s.instructions <= maxInstructions) return &s;
    --it;
  }
  return nullptr;
}

std::size_t Workload::snapshotBytes() const noexcept {
  std::size_t bytes = 0;
  for (const vm::Snapshot& s : snapshots_) bytes += s.byteSize();
  return bytes;
}

std::optional<std::uint64_t> Workload::goldenHashAt(
    std::uint64_t boundary) const noexcept {
  if (hashGrid_ == 0 || boundary == 0 || boundary % hashGrid_ != 0) {
    return std::nullopt;
  }
  const std::uint64_t idx = boundary / hashGrid_ - 1;
  if (idx >= goldenHashes_.size()) return std::nullopt;  // past golden's end
  return goldenHashes_[idx];
}

stats::Outcome classify(const vm::ExecResult& faulty,
                        const vm::ExecResult& golden) noexcept {
  switch (faulty.status) {
    case vm::ExecStatus::Trapped:
      return stats::Outcome::Detected;
    case vm::ExecStatus::FuelExhausted:
      return stats::Outcome::Hang;
    case vm::ExecStatus::Ok:
      break;
  }
  if (faulty.output.empty() && !golden.output.empty()) {
    return stats::Outcome::NoOutput;
  }
  // Bit-wise output comparison (§III-E, SDC definition).
  if (faulty.output == golden.output && !faulty.outputTruncated) {
    return stats::Outcome::Benign;
  }
  return stats::Outcome::SDC;
}

ExperimentResult runExperiment(const Workload& workload,
                               const FaultPlan& plan) {
  InjectorHook hook(plan);
  // Golden-prefix fast-forward: everything before the plan's first injection
  // is bit-identical to the golden run (the hook neither mutates state nor
  // consumes randomness before its first index), so resume from the densest
  // snapshot at-or-before that index instead of re-interpreting the prefix.
  const vm::Snapshot* snap = workload.snapshotAtOrBefore(
      plan.domain, plan.firstIndex, workload.faultyLimits().maxInstructions);
  ExperimentResult result;
  vm::ExecResult faulty;
  if (!workload.pruningEnabled()) {
    faulty = snap != nullptr ? vm::resume(workload.module(), *snap,
                                          workload.faultyLimits(), &hook)
                             : vm::execute(workload.module(),
                                           workload.faultyLimits(), &hook);
  } else {
    vm::ExecLimits limits = workload.faultyLimits();
    limits.trackStateHash = true;
    std::optional<vm::Machine> machine;
    if (snap != nullptr) {
      machine.emplace(workload.module(), *snap, limits, &hook);
    } else {
      machine.emplace(workload.module(), limits, &hook);
    }
    // runToBoundary pauses between instructions with the hook exhausted, so
    // the hash comparison is sound there: no pending injections, and a
    // deterministic hook-free suffix. It returns false when the run ends
    // (halt / trap / fuel) before a boundary, or when the hook never
    // exhausts (unbounded RandomValue windows).
    if (machine->runToBoundary(workload.hashGrid())) {
      if (workload.goldenHashAt(machine->instructions()) ==
              machine->stateHash() &&
          workload.golden().instructions <= limits.maxInstructions) {
        // Masked fault: the state collapsed to the golden state at the same
        // dynamic point, so the hook-free continuation IS the golden
        // continuation — same output, normal termination, golden
        // instruction count. (The budget guard covers degenerate
        // hangFactor < 1 setups where the faulty fuel could not replay the
        // golden suffix.)
        result.activations = hook.activations();
        result.instructions = workload.golden().instructions;
        result.prune = PruneEvent::GoldenHash;
        return result;
      }
      result.prune = PruneEvent::Miss;
    }
    // The decision is made; the hash is dead weight from here on, so run
    // the remainder on the hash-free fast path.
    machine->stopStateHashTracking();
    faulty = machine->run();
  }
  result.outcome = classify(faulty, workload.golden());
  result.trap = faulty.trap;
  result.activations = hook.activations();
  result.instructions = faulty.instructions;
  return result;
}

}  // namespace onebit::fi
