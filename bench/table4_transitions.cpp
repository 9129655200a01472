// Table IV: likelihood of Transition I (Detection -> SDC) and Transition II
// (Benign -> SDC) when multi-bit experiments replay the first-injection
// locations of single-bit experiments (Fig. 6 / RQ5).
//
// The paper uses each program's Table III best pair; re-deriving that grid
// here would dominate runtime, so we use the paper's aggregate finding
// (read: 2 flips at a large window; write: 3 flips at window 1).
#include "bench_common.hpp"
#include "pruning/transition_study.hpp"
#include "util/table.hpp"

int main() {
  using namespace onebit;
  analytics::checkKnobs();
  const std::size_t n = bench::experimentsPerCampaign(300);
  bench::printHeaderNote("Table IV: Transition I / II likelihoods", n);

  fi::FaultModel readSpec = fi::FaultModel::multiBitTemporal(
      fi::FaultDomain::RegisterRead, 2, fi::WinSize::fixed(100));
  fi::FaultModel writeSpec = fi::FaultModel::multiBitTemporal(
      fi::FaultDomain::RegisterWrite, 3, fi::WinSize::fixed(1));

  readSpec.flipWidth = bench::flipWidth();
  writeSpec.flipWidth = bench::flipWidth();
  std::printf("multi-bit configs: %s and %s (integer flip width %u)\n\n",
              readSpec.label().c_str(), writeSpec.label().c_str(),
              bench::flipWidth());

  const auto workloads = bench::loadWorkloads();
  // One study per (program, spec), each seeded by its place in the table
  // (salts 70000, 70001, ... in row order, read before write), run on
  // ONEBIT_THREADS workers.
  const fi::FaultModel* const specs[] = {&readSpec, &writeSpec};
  std::vector<pruning::TransitionStudyResult> studies(2 * workloads.size());
  bench::parallelFor(studies.size(), [&](std::size_t i) {
    studies[i] = pruning::transitionStudy(
        workloads[i / 2].workload, *specs[i % 2], n,
        util::hashCombine(bench::masterSeed(), 70000 + i));
  });
  util::TextTable table({"program", "read Tran. I", "read Tran. II",
                         "write Tran. I", "write Tran. II"});
  double maxTranIRead = 0;
  double maxTranIWrite = 0;
  for (std::size_t p = 0; p < workloads.size(); ++p) {
    const std::string& name = workloads[p].name;
    const pruning::TransitionStudyResult& r = studies[2 * p];
    const pruning::TransitionStudyResult& wr = studies[2 * p + 1];
    maxTranIRead = std::max(maxTranIRead, r.transitionI());
    maxTranIWrite = std::max(maxTranIWrite, wr.transitionI());
    table.addRow({name, util::fmtPercent(r.transitionI()),
                  util::fmtPercent(r.transitionII()),
                  util::fmtPercent(wr.transitionI()),
                  util::fmtPercent(wr.transitionII())});
  }
  bench::emitTable(table);
  std::printf(
      "\nPaper check (Table IV / RQ5): Transition I stays small (mostly "
      "<~1%%, outliers like sad\nexcepted), while Transition II varies "
      "widely (0-81%%) — so multi-bit injections only need\nto start from "
      "locations whose single-bit outcome was Benign.\n");
  std::printf("max Transition I observed: read %.1f%%, write %.1f%%\n",
              maxTranIRead * 100.0, maxTranIWrite * 100.0);
  return 0;
}
