#include "fi/experiment.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

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
  // golden pass below (its captures pause at runUntil() stops, so it keeps
  // the backend throughout), and, through faultyLimits_, runExperiment's
  // sleeping stretches and post-exhaustion suffixes.
  goldenLimits.dispatch = dispatch;
  if (dispatch == vm::DispatchBackend::Threaded) {
    // Decode once: every faulty run would otherwise decode the module again
    // (O(module size) — comparable to a short experiment suffix).
    goldenLimits.threadedCode = vm::ThreadedCode::decode(mod_);
  }
  if (snapshots.enabled()) {
    vm::SnapshotCapturePolicy capture;
    capture.interval = snapshots.interval;
    capture.maxSnapshots = snapshots.maxSnapshots;
    capture.budgetBytes = snapshots.budgetBytes;
    golden_ = vm::executeWithSnapshots(mod_, goldenLimits, capture, snapshots_);
  } else {
    golden_ = vm::execute(mod_, goldenLimits, nullptr);
  }
  prune_ = prune.enabled && !snapshots_.empty();
  if (golden_.status != vm::ExecStatus::Ok) {
    throw std::runtime_error(
        "workload golden run did not terminate normally (trap: " +
        std::string(vm::trapName(golden_.trap)) + ")");
  }
  faultyLimits_ = goldenLimits;
  constexpr std::uint64_t kBudgetSlack = 10'000;
  if (hangFactor != 0 &&
      golden_.instructions > (~std::uint64_t{0} - kBudgetSlack) / hangFactor) {
    throw std::invalid_argument(
        "workload hang factor " + std::to_string(hangFactor) +
        " makes the faulty-run budget overflow 64 bits (golden run: " +
        std::to_string(golden_.instructions) + " instructions)");
  }
  faultyLimits_.maxInstructions =
      golden_.instructions * hangFactor + kBudgetSlack;
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

std::span<const vm::Snapshot> Workload::snapshotsAfter(
    const vm::Snapshot* restored) const noexcept {
  const std::span<const vm::Snapshot> all(snapshots_);
  return restored == nullptr
             ? all
             : all.subspan(static_cast<std::size_t>(restored - all.data()) + 1);
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
  const vm::ExecLimits& limits = workload.faultyLimits();
  const vm::Snapshot* snap = workload.snapshotAtOrBefore(
      plan.domain, plan.firstIndex, limits.maxInstructions);
  std::optional<vm::Machine> machine;
  if (snap != nullptr) {
    machine.emplace(workload.module(), *snap, limits, &hook);
  } else {
    machine.emplace(workload.module(), limits, &hook);
  }
  ExperimentResult result;
  // Pruning. runUntil pauses only once the hook is exhausted, so from a
  // pause on the run is deterministic and hook-free: if its state equals the
  // golden state at the same instruction count, its continuation IS the
  // golden continuation — same output, same end, golden instruction count.
  // (The budget guard covers degenerate hangFactor < 1 setups where the
  // faulty fuel could not replay the golden suffix.) A control or output
  // mismatch stops comparing: such runs almost never converge later (on
  // fig1 and fig4, comparing on finds under 0.5% more matches for two to
  // four times the compares). Register and memory mismatches often heal, so
  // those go on to the next snapshot.
  if (workload.pruningEnabled() &&
      workload.golden().instructions <= limits.maxInstructions) {
    for (const vm::Snapshot& golden : workload.snapshotsAfter(snap)) {
      const vm::Machine::Stop stop = machine->runUntil(golden.instructions);
      if (stop == vm::Machine::Stop::Ended) break;
      if (stop == vm::Machine::Stop::Overshot) continue;
      result.prune = PruneEvent::Miss;
      const vm::StateDiff diff = machine->compare(golden);
      if (diff == vm::StateDiff::Equal) {
        result.outcome = classify(workload.golden(), workload.golden());
        result.activations = hook.activations();
        result.instructions = workload.golden().instructions;
        result.prune = PruneEvent::GoldenMatch;
        return result;
      }
      if (diff == vm::StateDiff::Control || diff == vm::StateDiff::Output) {
        break;
      }
    }
  }
  // Hang proofs. A run still going at twice the golden length is rarely
  // masked and often hangs, in a long finite loop (a flipped counter or
  // bound). At each checkpoint below golden × hangFactor its hook is
  // exhausted (runUntil pauses only then), so the proof starts from a
  // hook-free state, which does not depend on snapshots or pruning: every
  // prune stop lies at or before the golden length. A proof returns what
  // the full run would: FuelExhausted on the instruction after the budget.
  const std::uint64_t goldenLength = workload.golden().instructions;
  const std::uint64_t hangFactor = workload.hangFactor();
  for (std::uint64_t f = 2; f < hangFactor; f *= 2) {
    const vm::Machine::Stop stop = machine->runUntil(goldenLength * f);
    if (stop == vm::Machine::Stop::Ended) break;
    if (stop == vm::Machine::Stop::Paused && machine->provesHang()) {
      result.outcome = stats::Outcome::Hang;
      result.activations = hook.activations();
      result.instructions = limits.maxInstructions + 1;
      result.hangProof = true;
      return result;
    }
    if (f > hangFactor / 2) break;  // the next doubling would overflow
  }
  const vm::ExecResult faulty = machine->run();
  result.outcome = classify(faulty, workload.golden());
  result.trap = faulty.trap;
  result.activations = hook.activations();
  result.instructions = faulty.instructions;
  return result;
}

namespace {

/// Delivers every callback to the wrapped hook and never sleeps; it
/// detaches only when the wrapped hook is exhausted.
class AwakeForwarder final : public vm::ExecHook {
 public:
  explicit AwakeForwarder(InjectorHook& inner) : inner_(inner) { sync(); }

  void onRead(std::uint64_t readIndex, std::uint64_t instrIndex,
              const ir::Instr& instr, std::span<std::uint64_t> values,
              std::span<const bool> isReg) override {
    inner_.onRead(readIndex, instrIndex, instr, values, isReg);
    sync();
  }
  void onWrite(std::uint64_t writeIndex, std::uint64_t instrIndex,
               const ir::Instr& instr, std::uint64_t& value) override {
    inner_.onWrite(writeIndex, instrIndex, instr, value);
    sync();
  }
  void onStore(std::uint64_t storeIndex, std::uint64_t instrIndex,
               const ir::Instr& instr, std::uint64_t addr,
               vm::Memory& mem) override {
    inner_.onStore(storeIndex, instrIndex, instr, addr, mem);
    sync();
  }

 private:
  void sync() noexcept {
    if (inner_.exhausted()) markExhausted();
  }

  InjectorHook& inner_;
};

}  // namespace

ExperimentResult runReference(const Workload& workload, const FaultPlan& plan) {
  InjectorHook hook(plan);
  return runReference(workload, hook);
}

ExperimentResult runReference(const Workload& workload, InjectorHook& hook) {
  AwakeForwarder awake(hook);
  vm::ExecLimits limits = workload.faultyLimits();
  limits.dispatch = vm::DispatchBackend::Switch;
  limits.threadedCode = nullptr;
  const vm::ExecResult faulty = vm::execute(workload.module(), limits, &awake);
  ExperimentResult result;
  result.outcome = classify(faulty, workload.golden());
  result.trap = faulty.trap;
  result.activations = hook.activations();
  result.instructions = faulty.instructions;
  return result;
}

}  // namespace onebit::fi
