// Microbenchmarks (google-benchmark): interpreter throughput, injection
// hook overhead, compile time, campaign throughput. BM_SingleExperiment and
// BM_Campaign100 build their workloads with default arguments, so they time
// pruned experiments: a run whose fault is masked ends at its first golden
// snapshot match.
#include <benchmark/benchmark.h>

#include "fi/campaign.hpp"
#include "lang/compile.hpp"
#include "progs/registry.hpp"

namespace {

using namespace onebit;

const char* const kLoopProgram = R"MC(
int main() {
  int s = 0;
  for (int i = 0; i < 2000; i++) {
    s = (s * 31 + i) & 1048575;
  }
  print_i(s);
  return 0;
}
)MC";

void BM_CompileMiniC(benchmark::State& state) {
  const progs::ProgramInfo* info = progs::findProgram("sha");
  for (auto _ : state) {
    benchmark::DoNotOptimize(progs::compileProgram(*info));
  }
}
BENCHMARK(BM_CompileMiniC);

void BM_InterpreterThroughput(benchmark::State& state) {
  const ir::Module mod = lang::compileMiniC(kLoopProgram);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    const vm::ExecResult r = vm::execute(mod);
    instructions += r.instructions;
    benchmark::DoNotOptimize(r.output.data());
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterThroughput);

void BM_InterpreterWithInjectorHook(benchmark::State& state) {
  const ir::Module mod = lang::compileMiniC(kLoopProgram);
  fi::FaultPlan plan;
  plan.domain = fi::FaultDomain::RegisterWrite;
  plan.pattern = fi::BitPattern::singleBit();
  plan.firstIndex = 1ULL << 60;  // never fires: measures pure hook overhead
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    fi::InjectorHook hook(plan);
    const vm::ExecResult r = vm::execute(mod, {}, &hook);
    instructions += r.instructions;
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterWithInjectorHook);

void BM_SingleExperiment(benchmark::State& state) {
  const progs::ProgramInfo* info = progs::findProgram("fft");
  const fi::Workload w(progs::compileProgram(*info));
  const fi::FaultModel spec = fi::FaultModel::singleBit(fi::FaultDomain::RegisterWrite);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const fi::FaultPlan plan = fi::FaultPlan::forExperiment(
        spec, w.candidates(spec.domain), 7, i++);
    benchmark::DoNotOptimize(fi::runExperiment(w, plan));
  }
}
BENCHMARK(BM_SingleExperiment);

void BM_Campaign100(benchmark::State& state) {
  const progs::ProgramInfo* info = progs::findProgram("dijkstra");
  const fi::Workload w(progs::compileProgram(*info));
  fi::CampaignConfig config;
  config.model =
      fi::FaultModel::multiBitTemporal(fi::FaultDomain::RegisterRead, 3, fi::WinSize::fixed(4));
  config.experiments = 100;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    config.seed = seed++;
    benchmark::DoNotOptimize(fi::runCampaign(w, config));
  }
  state.counters["exp/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * 100),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Campaign100);

void BM_GoldenRunPerProgram(benchmark::State& state) {
  const auto& all = progs::allPrograms();
  const auto& info = all[static_cast<std::size_t>(state.range(0))];
  const ir::Module mod = progs::compileProgram(info);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    const vm::ExecResult r = vm::execute(mod);
    instructions += r.instructions;
  }
  state.SetLabel(info.name);
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GoldenRunPerProgram)->DenseRange(0, 14);

}  // namespace

BENCHMARK_MAIN();
