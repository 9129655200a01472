// Sweep the max-MBF parameter on one benchmark program (a one-program
// version of the paper's Fig. 2 / Fig. 4 analysis).
//
//   ./multibit_sweep [program] [win-size]
//   ONEBIT_EXPERIMENTS=1000 ./multibit_sweep crc32 1
#include <cstdio>

#include "analytics/knobs.hpp"
#include "fi/campaign.hpp"
#include "fi/fleet.hpp"
#include "fi/grid.hpp"
#include "progs/registry.hpp"

int main(int argc, char** argv) {
  using namespace onebit;
  analytics::checkKnobs();
  const char* progName = argc > 1 ? argv[1] : "crc32";
  std::uint64_t win = 1;
  if (argc > 2 && !fi::parseCount(argv[2], win)) {
    std::fprintf(stderr, "win-size '%s' is not a count of instructions\n",
                 argv[2]);
    return 2;
  }

  const progs::ProgramInfo* info = progs::findProgram(progName);
  if (info == nullptr) {
    std::fprintf(stderr, "unknown program '%s'\n", progName);
    return 1;
  }
  const ir::Module mod = progs::compileProgram(*info);
  const fi::Workload workload(mod);
  const std::size_t n = analytics::experimentsPerCampaign(400);

  std::printf("%s: SDC%% vs max-MBF at win-size=%llu (%zu experiments "
              "per campaign)\n\n",
              progName, static_cast<unsigned long long>(win), n);
  std::printf("%-16s %-8s %10s %10s\n", "technique", "max-MBF", "SDC%", "+/-");
  for (const fi::FaultDomain domain :
       {fi::FaultDomain::RegisterRead, fi::FaultDomain::RegisterWrite}) {
    for (const unsigned m : {1U, 2U, 3U, 4U, 5U, 6U, 8U, 10U, 30U}) {
      fi::CampaignConfig config;
      config.model =
          m == 1 ? fi::FaultModel::singleBit(domain)
                 : fi::FaultModel::multiBitTemporal(domain, m,
                                                    fi::WinSize::fixed(win));
      config.experiments = n;
      config.seed = 0xace0fba5eULL + m;
      config.shardSize = static_cast<std::size_t>(
          analytics::knobs().count(analytics::Knob::ShardSize));
      const fi::CampaignResult r = fi::CampaignEngine(config).run(workload);
      const auto sdc = r.sdc();
      std::printf("%-16s %-8u %9.2f%% %9.2f%%\n",
                  fi::domainName(domain).data(), m, sdc.fraction * 100.0,
                  sdc.ciHalfWidth * 100.0);
    }
    std::printf("\n");
  }
  return 0;
}
