// Demonstrates the paper's third error-space pruning layer (RQ5):
// replay multi-bit experiments from single-bit experiment locations and
// show the Transition I / Transition II likelihoods, i.e. how rarely
// single-bit Detection locations turn into SDCs under multi-bit errors.
//
//   ./pruning_analysis [program]
#include <cstdio>

#include "analytics/knobs.hpp"
#include "progs/registry.hpp"
#include "pruning/transition_study.hpp"

int main(int argc, char** argv) {
  using namespace onebit;
  const char* progName = argc > 1 ? argv[1] : "qsort";
  const progs::ProgramInfo* info = progs::findProgram(progName);
  if (info == nullptr) {
    std::fprintf(stderr, "unknown program '%s'\n", progName);
    return 1;
  }
  const ir::Module mod = progs::compileProgram(*info);
  const fi::Workload workload(mod);
  const std::size_t n = analytics::experimentsPerCampaign(400);

  for (const fi::FaultDomain domain :
       {fi::FaultDomain::RegisterRead, fi::FaultDomain::RegisterWrite}) {
    // A low win-size, 3-flip configuration — the kind Table III finds
    // pessimistic for inject-on-write.
    const fi::FaultModel multi =
        fi::FaultModel::multiBitTemporal(domain, 3, fi::WinSize::fixed(1));
    const pruning::TransitionStudyResult r =
        pruning::transitionStudy(workload, multi, n, 0x5eed + n);

    std::printf("%s / %s, %zu paired experiments:\n", progName,
                fi::domainName(domain).data(), n);
    std::printf("  Transition I  (Detection -> SDC): %5.1f%%\n",
                r.transitionI() * 100.0);
    std::printf("  Transition II (Benign    -> SDC): %5.1f%%\n",
                r.transitionII() * 100.0);
    std::printf("  full transition matrix (rows: single-bit outcome, "
                "cols: multi-bit outcome):\n");
    std::printf("  %-9s", "");
    for (unsigned c = 0; c < stats::kOutcomeCount; ++c) {
      std::printf(" %9s",
                  std::string(stats::outcomeName(
                                  static_cast<stats::Outcome>(c)))
                      .c_str());
    }
    std::printf("\n");
    for (unsigned rr = 0; rr < stats::kOutcomeCount; ++rr) {
      std::printf("  %-9s",
                  std::string(stats::outcomeName(
                                  static_cast<stats::Outcome>(rr)))
                      .c_str());
      for (unsigned c = 0; c < stats::kOutcomeCount; ++c) {
        std::printf(" %9u", r.transitions[rr][c]);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
  std::printf("Pruning insight (RQ5): first injections can be restricted to "
              "locations whose single-bit outcome was Benign - Detection "
              "locations almost never become SDCs.\n");
  return 0;
}
