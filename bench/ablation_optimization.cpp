// Ablation: compiler optimization level of the injected IR.
//
// LLFI injects into IR produced by a normal (optimizing) compilation; our
// MiniC code generator emits naive -O0-style IR. This bench compares the
// fault-injection profile of both variants: optimization removes
// Move/temporary traffic, shrinking the candidate space and shifting the
// outcome mix — the kind of sensitivity a fault-injection methodology has to
// report (cf. Schirmeier et al., "Avoiding pitfalls in fault-injection based
// comparison of program susceptibility to soft errors", DSN 2015, cited as
// [31] in the paper).
//
// Both IR variants of every program run in one SweepBuilder sweep (same
// seed per program pair: only the IR differs).
#include <memory>

#include "bench_common.hpp"
#include "opt/passes.hpp"
#include "util/table.hpp"

int main() {
  using namespace onebit;
  analytics::checkKnobs();
  const std::size_t n = bench::experimentsPerCampaign(300);
  bench::printHeaderNote("Ablation: -O0 vs -O1 IR under single-bit injection",
                         n);

  const fi::FaultModel spec = fi::FaultModel::singleBit(fi::FaultDomain::RegisterWrite);

  struct Row {
    std::string name;
    std::size_t rawCell;
    std::size_t optCell;
    std::uint64_t candRaw;
    std::uint64_t candOpt;
  };
  std::vector<std::unique_ptr<fi::Workload>> workloads;  // outlive the sweep
  bench::SweepBuilder sweep;
  std::vector<Row> rows;
  std::uint64_t salt = 97000;
  for (const auto& info : progs::allPrograms()) {
    if (!bench::programSelected(info.name)) continue;
    workloads.push_back(std::make_unique<fi::Workload>(
        bench::makeWorkload(progs::compileProgram(info, false))));
    const fi::Workload& raw = *workloads.back();
    workloads.push_back(std::make_unique<fi::Workload>(
        bench::makeWorkload(progs::compileProgram(info, true))));
    const fi::Workload& optd = *workloads.back();
    rows.push_back({info.name, sweep.add(info.name, raw, spec, n, salt),
                    sweep.add(info.name, optd, spec, n, salt),
                    raw.candidates(fi::FaultDomain::RegisterWrite),
                    optd.candidates(fi::FaultDomain::RegisterWrite)});
    ++salt;
  }
  sweep.run();

  util::TextTable table({"program", "cand. write O0", "cand. write O1",
                         "shrink", "SDC% O0", "SDC% O1", "Detected% O0",
                         "Detected% O1"});
  for (const Row& row : rows) {
    const fi::CampaignResult& r0 = sweep[row.rawCell];
    const fi::CampaignResult& r1 = sweep[row.optCell];
    table.addRow(
        {row.name, std::to_string(row.candRaw), std::to_string(row.candOpt),
         util::fmtPercent(1.0 - static_cast<double>(row.candOpt) /
                                    static_cast<double>(row.candRaw)),
         util::fmtPercent(r0.sdc().fraction),
         util::fmtPercent(r1.sdc().fraction),
         util::fmtPercent(
             r0.counts.proportion(stats::Outcome::Detected).fraction),
         util::fmtPercent(
             r1.counts.proportion(stats::Outcome::Detected).fraction)});
  }
  bench::emitTable(table);
  std::printf(
      "\nReading: optimization removes masked temporary traffic (Moves, "
      "foldable constants),\nso the surviving candidates carry more live "
      "state — SDC/Detected rates shift even\nthough the programs compute "
      "identical outputs. Fault-injection results are a property\nof the "
      "(program, compiler) pair, not the program alone.\n");
  return 0;
}
