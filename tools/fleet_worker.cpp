// Campaign fleet worker process: claims shard leases from a shared JSONL
// store, runs their experiments, and records the shard aggregates. Start as
// many of these (on any host sharing the store's filesystem) as you want
// cores working; kill them whenever — abandoned leases expire and another
// worker re-runs the shard with bit-identical results. See fi/fleet.hpp.
//
// Exit codes: 0 = every submitted cell fully recorded (Done), 3 = only
// cells this worker cannot run remain (Stalled; finish them in-process,
// e.g. via the bench drivers), 4 = only quarantined shards remain
// (Quarantined; re-run with --force or finish in-process), 1 = error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "fi/fleet.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s STORE.jsonl [options]\n"
      "  --id ID            worker id (default: <pid>:<hex nonce>)\n"
      "  --lease-ms N       base lease duration (default 30000)\n"
      "  --heartbeat-ms N   heartbeat period (default lease/3)\n"
      "  --poll-ms N        idle poll base period (default 50; actual sleeps\n"
      "                     use decorrelated jitter up to 16x this)\n"
      "  --max-shards N     stop after N fresh shards (default: unlimited)\n"
      "  --no-liveness      never probe lease holders' pids (multi-host)\n"
      "  --force            also claim quarantined shards\n"
      "  --lease-quantile Q adaptive deadline quantile in (0,1] (default\n"
      "                     0.9); deadlines track observed shard cost\n"
      "  --no-adaptive      fixed lease deadlines (ignore observed cost)\n"
      "  --poison NAME[:S]  test hook: SIGKILL self after claiming shard S\n"
      "                     (any shard if omitted) of workload NAME\n",
      argv0);
}

bool parseQuantile(const char* s, double& out) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v > 0.0) || v > 1.0) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0) {
    usage(argv[0]);
    return 2;
  }
  const std::string storePath = argv[1];
  std::string id;
  onebit::fi::FleetConfig config;
  std::uint64_t maxShards = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool hasValue = i + 1 < argc;
    if (arg == "--no-liveness") {
      config.sameHostLiveness = false;
    } else if (arg == "--force") {
      config.ignoreQuarantine = true;
    } else if (arg == "--no-adaptive") {
      config.adaptiveLease = false;
    } else if (arg == "--id" && hasValue) {
      id = argv[++i];
    } else if (arg == "--lease-ms" && hasValue &&
               onebit::fi::parseCount(argv[++i], config.leaseMs)) {
    } else if (arg == "--heartbeat-ms" && hasValue &&
               onebit::fi::parseCount(argv[++i], config.heartbeatMs)) {
    } else if (arg == "--poll-ms" && hasValue &&
               onebit::fi::parseCount(argv[++i], config.pollMs)) {
    } else if (arg == "--max-shards" && hasValue &&
               onebit::fi::parseCount(argv[++i], maxShards)) {
    } else if (arg == "--lease-quantile" && hasValue &&
               parseQuantile(argv[++i], config.leaseQuantile)) {
    } else if (arg == "--poison" && hasValue &&
               onebit::fi::parsePoison(argv[++i], config)) {
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (config.leaseMs == 0) {
    std::fprintf(stderr, "error: --lease-ms must be positive\n");
    return 2;
  }
  try {
    onebit::fi::FleetWorker worker(storePath, id, config);
    std::fprintf(stderr, "fleet worker %s: polling %s\n",
                 worker.workerId().c_str(), storePath.c_str());
    const onebit::fi::FleetWorker::Step last =
        worker.run(static_cast<std::size_t>(maxShards));
    std::fprintf(stderr, "fleet worker %s: %s after %zu shard(s)\n",
                 worker.workerId().c_str(),
                 last == onebit::fi::FleetWorker::Step::Done ? "done"
                 : last == onebit::fi::FleetWorker::Step::Stalled
                     ? "stalled (unrunnable cells remain)"
                 : last == onebit::fi::FleetWorker::Step::Quarantined
                     ? "blocked (only quarantined shards remain; use "
                       "--force)"
                     : "stopping (shard cap reached)",
                 worker.shardsRun());
    if (last == onebit::fi::FleetWorker::Step::Stalled) return 3;
    if (last == onebit::fi::FleetWorker::Step::Quarantined) return 4;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
