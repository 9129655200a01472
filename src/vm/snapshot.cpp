#include "vm/snapshot.hpp"

#include <utility>

#include "vm/machine.hpp"

namespace onebit::vm {

std::size_t Snapshot::byteSize() const noexcept {
  return sizeof(Snapshot) + frames.size() * sizeof(Frame) +
         regs.size() * sizeof(std::uint64_t) + globals.size() + stack.size() +
         heap.size() + output.size();
}

ExecResult executeWithSnapshots(const ir::Module& mod, const ExecLimits& limits,
                                const SnapshotCapturePolicy& policy,
                                std::vector<Snapshot>& out) {
  out.clear();
  Machine m(mod, limits, nullptr);
  std::uint64_t interval = policy.interval == 0 ? 1 : policy.interval;
  std::size_t bytes = 0;
  // Each capture pauses the hook-free run at the next multiple of the
  // interval (a runUntil() stop: exact, and free per instruction on either
  // loop), snapshots it there, and goes on.
  for (std::uint64_t next = interval;
       m.runUntil(next) == Machine::Stop::Paused;) {
    bytes += out.emplace_back(m.capture()).byteSize();
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
    next = next - next % interval + interval;
  }
  return m.run();
}

ExecResult resume(const ir::Module& mod, const Snapshot& snap,
                  const ExecLimits& limits, ExecHook* hook) {
  Machine m(mod, snap, limits, hook);
  return m.run();
}

}  // namespace onebit::vm
