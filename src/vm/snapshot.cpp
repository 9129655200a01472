#include "vm/snapshot.hpp"

#include <utility>

#include "vm/machine.hpp"

namespace onebit::vm {

std::size_t Snapshot::byteSize() const noexcept {
  return sizeof(Snapshot) + frames.size() * sizeof(Frame) +
         regs.size() * sizeof(std::uint64_t) + globals.size() + stack.size() +
         heap.size() + output.size();
}

namespace {

/// The snapshot sink executeWithSnapshots drives: snapshots are collected
/// into `out` (cleared first) under `policy`'s retention bounds.
Machine::SnapshotSink retentionSink(const SnapshotCapturePolicy& policy,
                                    std::vector<Snapshot>& out) {
  out.clear();
  return [&out, policy, interval = policy.interval == 0 ? 1 : policy.interval,
          bytes = std::size_t{0}](Snapshot&& snap) mutable -> std::uint64_t {
    bytes += snap.byteSize();
    out.push_back(std::move(snap));
    // Retention: when a bound is exceeded, drop every other kept snapshot
    // (the even positions, so the survivors line up with multiples of the
    // doubled interval) and coarsen the cadence to match. Coverage stays
    // uniform over the run at whatever density the budget affords.
    while ((policy.maxSnapshots != 0 && out.size() > policy.maxSnapshots) ||
           (policy.budgetBytes != 0 && bytes > policy.budgetBytes)) {
      if (out.empty()) break;
      std::vector<Snapshot> kept;
      kept.reserve(out.size() / 2);
      bytes = 0;
      for (std::size_t i = 1; i < out.size(); i += 2) {
        bytes += out[i].byteSize();
        kept.push_back(std::move(out[i]));
      }
      out = std::move(kept);
      interval *= 2;
    }
    return interval;
  };
}

}  // namespace

ExecResult executeWithSnapshots(const ir::Module& mod, const ExecLimits& limits,
                                const SnapshotCapturePolicy& policy,
                                std::vector<Snapshot>& out) {
  Machine m(mod, limits, nullptr);
  m.captureEvery(policy.interval == 0 ? 1 : policy.interval,
                 retentionSink(policy, out));
  return m.run();
}

ExecResult resume(const ir::Module& mod, const Snapshot& snap,
                  const ExecLimits& limits, ExecHook* hook) {
  Machine m(mod, snap, limits, hook);
  return m.run();
}

}  // namespace onebit::vm
