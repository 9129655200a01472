// Table II: the 15 benchmark programs with their candidate-instruction
// counts for inject-on-read and inject-on-write.
//
// Profiles run through the results store when ONEBIT_STORE is set: each
// compiled+profiled program appends a "workload" record, and ONEBIT_RESUME=1
// reprints recorded programs from the store instead of recompiling them, so
// an interrupted profiling sweep picks up where it stopped.
#include "bench_common.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main() {
  using namespace onebit;
  analytics::checkKnobs();
  std::printf("== Table II: selected benchmark programs ==\n\n");
  fi::CampaignStore* store = bench::sharedStore();
  const bool resume = bench::resumeEnabled();
  util::TextTable table({"suite", "package", "program", "MiniC LoC",
                         "IR instrs", "dynamic instrs", "cand. read",
                         "cand. write"});
  for (const auto& info : progs::allPrograms()) {
    if (!bench::programSelected(info.name)) continue;
    const std::uint64_t sourceHash = util::hashBytes(info.source);
    if (resume) {
      const fi::CampaignStore::WorkloadRecord* rec =
          store->findWorkload(info.name);
      // A stale record (program source changed since it was profiled) is
      // recomputed, not reprinted — same contract as the campaign key.
      if (rec != nullptr && rec->sourceHash == sourceHash) {
        table.addRow({rec->suite, rec->package, rec->name,
                      std::to_string(rec->minicLoc),
                      std::to_string(rec->irInstrs),
                      std::to_string(rec->dynInstrs),
                      std::to_string(rec->candRead),
                      std::to_string(rec->candWrite)});
        continue;
      }
    }
    const ir::Module mod = progs::compileProgram(info);
    const fi::Workload w(mod);
    fi::CampaignStore::WorkloadRecord rec;
    rec.name = info.name;
    rec.suite = info.suite;
    rec.package = info.package;
    rec.sourceHash = sourceHash;
    rec.minicLoc = progs::sourceLines(info);
    rec.irInstrs = w.module().instrCount();
    rec.dynInstrs = w.golden().instructions;
    rec.candRead = w.candidates(fi::FaultDomain::RegisterRead);
    rec.candWrite = w.candidates(fi::FaultDomain::RegisterWrite);
    rec.candStore = w.candidates(fi::FaultDomain::MemoryData);
    if (store != nullptr && !store->appendWorkload(rec)) {
      std::fprintf(stderr,
                   "warning: could not record workload '%s' to store '%s'; "
                   "this sweep will NOT be resumable\n",
                   rec.name.c_str(), store->path().c_str());
    }
    table.addRow({rec.suite, rec.package, rec.name,
                  std::to_string(rec.minicLoc), std::to_string(rec.irInstrs),
                  std::to_string(rec.dynInstrs), std::to_string(rec.candRead),
                  std::to_string(rec.candWrite)});
  }
  bench::emitTable(table);
  std::printf(
      "\nPaper check: inject-on-read candidate counts exceed inject-on-write "
      "for most programs\n(stores and branches read registers but have no "
      "destination register).\n");
  return 0;
}
