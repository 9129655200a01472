// Memory-fault scenario: outcome classification for the MemoryData fault
// domain — bit flips in the bytes a Store instruction just committed — in a
// Fig. 1-style table, one section per bit-pattern model.
//
// This is the first scenario the composable FaultModel algebra adds beyond
// the paper: the same campaign machinery (SweepBuilder → fi::CampaignSuite,
// golden-prefix snapshots, results store) drives the store-event candidate
// stream instead of the register streams. The model axis covers the three
// pattern families — SingleBit, BurstAdjacent(2)/BurstAdjacent(4) (the Rao
// et al. spatially clustered multi-bit upsets), and MultiBitTemporal cells
// (same-word w=0, fixed and RND windows) — see fi::memoryScenarioModels().
//
// All program × model campaigns run as ONE suite; ONEBIT_SPECS drops model
// sections (e.g. ONEBIT_SPECS="mem/single;mem/burst=4"), ONEBIT_PROGRAMS
// drops rows, and the usual store/resume/snapshot knobs apply.
#include "bench_common.hpp"
#include "fi/grid.hpp"
#include "util/table.hpp"

int main() {
  using namespace onebit;
  analytics::checkKnobs();
  const std::size_t n = bench::experimentsPerCampaign(400);
  bench::printHeaderNote(
      "Memory-fault scenario: MemoryData domain x bit patterns", n);

  const auto workloads = bench::loadWorkloads();

  struct Section {
    fi::FaultModel model;
    std::vector<std::size_t> cells;  // one per workload, sweep indices
  };
  bench::SweepBuilder sweep;
  std::vector<Section> sections;
  const std::vector<fi::FaultModel> allModels = fi::memoryScenarioModels();
  for (std::size_t mi = 0; mi < allModels.size(); ++mi) {
    const fi::FaultModel& model = allModels[mi];
    // Fixed per-section salt base: an ONEBIT_SPECS-filtered run keeps every
    // surviving cell's seed (and store campaign key) identical to the
    // unfiltered run's.
    std::uint64_t salt = 110000 + 100 * mi;
    if (!bench::specSelected(model)) continue;
    Section section{model, {}};
    for (const auto& [name, w] : workloads) {
      section.cells.push_back(sweep.add(name, w, model, n, salt++));
    }
    sections.push_back(std::move(section));
  }
  sweep.run();

  for (const Section& section : sections) {
    std::printf("--- %s ---\n", section.model.label().c_str());
    util::TextTable table({"program", "Benign%", "Detection%", "SDC%",
                           "SDC +/-", "hang", "no-output"});
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      const fi::CampaignResult& r = sweep[section.cells[i]];
      const auto benign = r.counts.proportion(stats::Outcome::Benign);
      const auto sdc = r.sdc();
      // "Detection" = Detected + Hang + NoOutput (§III-E taxonomy).
      const std::size_t detection = r.counts.count(stats::Outcome::Detected) +
                                    r.counts.count(stats::Outcome::Hang) +
                                    r.counts.count(stats::Outcome::NoOutput);
      const auto det = stats::proportionCI(detection, r.counts.total());
      table.addRow({workloads[i].name, util::fmtPercent(benign.fraction),
                    util::fmtPercent(det.fraction),
                    util::fmtPercent(sdc.fraction),
                    util::fmtPercent(sdc.ciHalfWidth),
                    std::to_string(r.counts.count(stats::Outcome::Hang)),
                    std::to_string(r.counts.count(stats::Outcome::NoOutput))});
    }
    bench::emitTable(table);
    std::printf("\n");
  }
  std::printf(
      "Reading: stored data lacks the address-register escape hatch — a "
      "flipped store value\nrarely segfaults, so Detection%% drops and the "
      "Benign/SDC split is driven by whether\nthe corrupted location is "
      "ever reloaded. Bursts raise SDC%% over single flips, and\ntemporal "
      "spread (m>1) multiplies corrupted locations.\n");
  return 0;
}
