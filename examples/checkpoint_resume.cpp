// Checkpoint/resume: interrupt a campaign after a few shards, then resume
// it from the persistent results store and verify the result is
// bit-identical to an uninterrupted run. Self-checking: exits 1 on any
// contract violation.
//
//   ./example_checkpoint_resume   # demo store under /tmp, recreated each run
//
// The demo deliberately ignores ONEBIT_STORE — it deletes and rewrites its
// store file, and must never do that to a real campaign store.
//
// The "interruption" uses the engine's shard cap (CampaignConfig::maxShards)
// so the demo is deterministic; killing the process mid-campaign behaves the
// same because every shard record is flushed before the next shard starts.
#include <algorithm>
#include <cstdio>
#include <string>

#include "analytics/knobs.hpp"
#include "fi/campaign.hpp"
#include "fi/campaign_store.hpp"
#include "lang/compile.hpp"

namespace {

const char* const kProgram = R"MC(
// Checksum over a pseudo-random array, our guinea-pig workload.
int a[48];
int seed = 7;

int rnd() {
  seed = (seed * 1103515245 + 12345) & 2147483647;
  return seed;
}

int main() {
  for (int i = 0; i < 48; i++) { a[i] = rnd() % 256; }
  int s = 0;
  for (int i = 0; i < 48; i++) { s = (s * 31 + a[i]) & 16777215; }
  print_s("chk=");
  print_i(s);
  print_c(10);
  return 0;
}
)MC";

}  // namespace

int main() {
  using namespace onebit;

  const fi::Workload workload(lang::compileMiniC(kProgram));

  fi::CampaignConfig config;
  config.model = fi::FaultModel::multiBitTemporal(fi::FaultDomain::RegisterWrite, 3,
                                        fi::WinSize::fixed(2));
  config.experiments = analytics::experimentsPerCampaign(400);
  config.seed = 0xc8ec9017ULL;
  config.shardSize = 32;

  const std::string path = "/tmp/onebit_checkpoint_example.jsonl";
  std::remove(path.c_str());  // fresh demo store (never a user's store)

  // 1. Reference: the uninterrupted campaign.
  const fi::CampaignResult reference =
      fi::CampaignEngine(config).run(workload);

  // 2. "Interrupted" run: record shards to the store, stop partway. The
  // cap is derived from the actual shard count so the run stays a genuine
  // interruption whatever ONEBIT_EXPERIMENTS says.
  fi::CampaignStore store(path);
  store.load();
  fi::CampaignConfig capped = config;
  capped.maxShards =
      std::max<std::size_t>(1, fi::CampaignEngine(config).shardCount() / 2);
  fi::CampaignEngine interrupted(capped);
  interrupted.recordTo(store, "checkpoint-demo");
  const fi::CampaignResult partial = interrupted.run(workload);
  std::printf("interrupted after %zu/%zu experiments (complete: %s)\n",
              partial.completedExperiments, config.experiments,
              partial.complete() ? "yes" : "no");
  if (partial.complete()) {
    std::printf("ERROR: the capped run was not a real interruption — the "
                "resume below would prove nothing\n");
    return 1;
  }

  // 3. Resume: a fresh engine (fresh process, in real life) re-reads the
  // store, merges the recorded shards, and executes only the rest.
  fi::CampaignStore reopened(path);
  const fi::CampaignStore::LoadStats loaded = reopened.load();
  std::printf("store %s: %zu shard record(s) on disk\n", path.c_str(),
              loaded.shardRecords);
  fi::CampaignEngine resumedEngine(config);
  resumedEngine.resumeFrom(reopened).recordTo(reopened, "checkpoint-demo");
  const fi::CampaignResult resumed = resumedEngine.run(workload);
  std::printf("resumed: %zu experiment(s) merged from the store, %zu "
              "executed\n",
              resumed.resumedExperiments,
              resumed.completedExperiments - resumed.resumedExperiments);

  // 4. The determinism contract: resumed == uninterrupted, bit for bit.
  const bool identical = resumed.counts == reference.counts &&
                         resumed.activationHist == reference.activationHist;
  std::printf("resumed result bit-identical to uninterrupted run: %s\n",
              identical ? "yes" : "NO (bug!)");
  for (unsigned i = 0; i < stats::kOutcomeCount; ++i) {
    const auto o = static_cast<stats::Outcome>(i);
    std::printf("  %-9s %5zu\n",
                std::string(stats::outcomeName(o)).c_str(),
                resumed.counts.count(o));
  }
  return identical ? 0 : 1;
}
