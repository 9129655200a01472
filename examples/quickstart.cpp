// Quickstart: compile a MiniC program, run a single-bit and a multi-bit
// fault-injection campaign on it, and print the outcome distributions.
//
//   ./quickstart            # 500 experiments per campaign
//   ONEBIT_EXPERIMENTS=2000 ./quickstart
#include <cstdio>

#include "analytics/knobs.hpp"
#include "fi/campaign.hpp"
#include "lang/compile.hpp"

namespace {

const char* const kProgram = R"MC(
// Dot product with a checksum, our guinea-pig workload.
int a[64];
int b[64];
int seed = 3;

int rnd() {
  seed = (seed * 1103515245 + 12345) & 2147483647;
  return seed;
}

int main() {
  for (int i = 0; i < 64; i++) {
    a[i] = rnd() % 100;
    b[i] = rnd() % 100;
  }
  int dot = 0;
  for (int i = 0; i < 64; i++) {
    dot = dot + a[i] * b[i];
  }
  print_s("dot=");
  print_i(dot);
  print_c(10);
  return 0;
}
)MC";

void report(const char* title, const onebit::fi::CampaignResult& r) {
  std::printf("%s\n", title);
  for (unsigned i = 0; i < onebit::stats::kOutcomeCount; ++i) {
    const auto o = static_cast<onebit::stats::Outcome>(i);
    const auto p = r.counts.proportion(o);
    std::printf("  %-9s %5zu  (%5.1f%% +/- %.1f)\n",
                std::string(onebit::stats::outcomeName(o)).c_str(),
                p.successes, p.fraction * 100.0, p.ciHalfWidth * 100.0);
  }
}

}  // namespace

int main() {
  using namespace onebit;
  analytics::checkKnobs();

  // 1. Compile MiniC to verified IR.
  const ir::Module mod = lang::compileMiniC(kProgram);

  // 2. Profile the fault-free (golden) run.
  const fi::Workload workload(mod);
  std::printf("golden: %llu dynamic instructions, %llu read candidates, "
              "%llu write candidates\noutput: %s\n",
              static_cast<unsigned long long>(workload.golden().instructions),
              static_cast<unsigned long long>(
                  workload.candidates(fi::FaultDomain::RegisterRead)),
              static_cast<unsigned long long>(
                  workload.candidates(fi::FaultDomain::RegisterWrite)),
              workload.golden().output.c_str());

  const std::size_t n = analytics::experimentsPerCampaign(500);

  // 3. Single bit-flip campaign (inject-on-write).
  fi::CampaignConfig single;
  single.model = fi::FaultModel::singleBit(fi::FaultDomain::RegisterWrite);
  single.experiments = n;
  report("single bit-flip, inject-on-write:",
         fi::runCampaign(workload, single));

  // 4. Multi bit-flip campaign: 3 flips, one dynamic instruction apart.
  // Driven through CampaignEngine directly to show per-shard progress.
  fi::CampaignConfig multi;
  multi.model = fi::FaultModel::multiBitTemporal(fi::FaultDomain::RegisterWrite, 3,
                                       fi::WinSize::fixed(1));
  multi.experiments = n;
  fi::CampaignEngine engine(multi);
  engine.onShardDone([](const fi::ShardProgress& p) {
    std::fprintf(stderr, "\rmulti-bit campaign: %zu/%zu experiments",
                 p.completedExperiments, p.totalExperiments);
    if (p.completedExperiments == p.totalExperiments)
      std::fputc('\n', stderr);
  });
  report("3 bit-flips (win-size 1), inject-on-write:", engine.run(workload));
  return 0;
}
