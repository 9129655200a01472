// Campaign fleet broker: submit campaign cells to a shared JSONL store and
// watch worker processes fill them in. See fi/fleet.hpp.
//
//   fleet_broker STORE --submit NAME SPEC EXPERIMENTS [--seed HEX]
//                [--flip-width W] [--shard-size S] [--hang-factor H]
//     compile progs-registry program NAME, validate the cell, append it
//   fleet_broker STORE [--status]
//     print per-cell progress (default action)
//   fleet_broker STORE --wait [--poll-ms N]
//     block until every submitted cell is fully recorded; exit 0. If the
//     fleet converged with quarantined shards (nothing running, every
//     missing shard quarantined), exit 4 instead of hanging.
//
// Exit codes: 0 = ok / complete, 1 = error, 2 = usage,
// 4 = only quarantined shards remain.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "fi/fleet.hpp"
#include "progs/registry.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s STORE.jsonl [--status]\n"
      "       %s STORE.jsonl --wait [--poll-ms N]\n"
      "       %s STORE.jsonl --submit NAME SPEC EXPERIMENTS [--seed HEX]\n"
      "                      [--flip-width W] [--shard-size S] "
      "[--hang-factor H]\n",
      argv0, argv0, argv0);
}

int printStatus(onebit::fi::FleetBroker& broker) {
  const auto cells = broker.status();
  if (cells.empty()) {
    std::printf("no cells submitted\n");
    return 0;
  }
  std::size_t complete = 0;
  std::size_t quarantined = 0;
  for (const auto& st : cells) {
    if (st.complete()) ++complete;
    quarantined += st.quarantinedShards;
    std::printf("%-14s %-24s %6zu/%-6zu exp  %4zu/%-4zu shards  "
                "leases: %zu active, %zu expired",
                st.cell.workload.c_str(), st.cell.spec.c_str(),
                st.recordedExperiments, st.cell.experiments,
                st.recordedShards, st.cell.shardCount(), st.activeLeases,
                st.expiredLeases);
    if (st.quarantinedShards != 0) {
      std::printf("  quarantined: %zu", st.quarantinedShards);
    }
    std::printf("%s\n", st.complete() ? "  [complete]" : "");
  }
  std::printf("%zu/%zu cell(s) complete", complete, cells.size());
  if (quarantined != 0) {
    std::printf(", %zu shard(s) quarantined (workers need --force)",
                quarantined);
  }
  std::printf("\n");
  return 0;
}

}  // namespace

using onebit::fi::parseCount;

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0) {
    usage(argv[0]);
    return 2;
  }
  const std::string storePath = argv[1];
  try {
    onebit::fi::FleetBroker broker(storePath);
    if (argc == 2 || std::strcmp(argv[2], "--status") == 0) {
      return printStatus(broker);
    }
    if (std::strcmp(argv[2], "--wait") == 0) {
      std::uint64_t pollMs = 500;
      if (argc == 5 && std::strcmp(argv[3], "--poll-ms") == 0) {
        if (!parseCount(argv[4], pollMs) || pollMs == 0) {
          usage(argv[0]);
          return 2;
        }
      } else if (argc != 3) {
        usage(argv[0]);
        return 2;
      }
      for (;;) {
        if (broker.complete()) break;
        // Converged-with-quarantine: nothing is running and every missing
        // shard carries a quarantine verdict — waiting longer is hopeless
        // without a --force worker. Surface that instead of hanging.
        const auto cells = broker.status();
        bool blocked = !cells.empty();
        for (const auto& st : cells) {
          if (st.complete()) continue;
          const std::size_t missing =
              st.cell.shardCount() - st.recordedShards;
          if (st.activeLeases != 0 || st.quarantinedShards < missing) {
            blocked = false;
            break;
          }
        }
        if (blocked) {
          printStatus(broker);
          std::fprintf(stderr,
                       "only quarantined shards remain; run a worker with "
                       "--force to finish them\n");
          return 4;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(pollMs));
      }
      return printStatus(broker);
    }
    if (std::strcmp(argv[2], "--submit") == 0 && argc >= 6) {
      const std::string name = argv[3];
      const std::string spec = argv[4];
      std::uint64_t experiments = 0;
      if (!parseCount(argv[5], experiments) || experiments == 0) {
        usage(argv[0]);
        return 2;
      }
      std::uint64_t seed = 2017;
      std::uint64_t flipWidth = 32;
      std::uint64_t shardSize = 0;
      std::uint64_t hangFactor = onebit::fi::Workload::kDefaultHangFactor;
      for (int i = 6; i < argc; i += 2) {
        const std::string_view arg = argv[i];
        const char* const value = i + 1 < argc ? argv[i + 1] : "";
        bool ok = false;
        if (arg == "--seed") ok = parseCount(value, seed, 16);
        else if (arg == "--flip-width") {
          ok = parseCount(value, flipWidth) && flipWidth >= 1 &&
               flipWidth <= 64;
        } else if (arg == "--shard-size") ok = parseCount(value, shardSize);
        else if (arg == "--hang-factor") ok = parseCount(value, hangFactor);
        if (!ok) {
          usage(argv[0]);
          return 2;
        }
      }
      const onebit::progs::ProgramInfo* info = onebit::progs::findProgram(name);
      if (info == nullptr) {
        std::fprintf(stderr, "error: unknown program '%s'\n", name.c_str());
        return 1;
      }
      std::optional<onebit::fi::FaultModel> model =
          onebit::fi::FaultModel::parse(spec);
      if (!model) {
        std::fprintf(stderr, "error: unparseable fault spec '%s'\n",
                     spec.c_str());
        return 1;
      }
      model->flipWidth = static_cast<unsigned>(flipWidth);
      std::optional<onebit::fi::Workload> built;
      try {
        built.emplace(onebit::progs::compileProgram(*info), hangFactor);
      } catch (const std::invalid_argument& e) {
        // A hang factor whose faulty-run budget overflows 64 bits.
        std::fprintf(stderr, "error: %s\n", e.what());
        usage(argv[0]);
        return 2;
      }
      const onebit::fi::Workload& workload = *built;
      const auto cell = onebit::fi::FleetBroker::makeCell(
          name, workload, *model, static_cast<std::size_t>(experiments),
          seed,
          onebit::fi::resolveShardSize(
              static_cast<std::size_t>(experiments),
              static_cast<std::size_t>(shardSize)));
      if (!cell) {
        std::fprintf(stderr,
                     "error: cell is not fleet-expressible (a count the "
                     "store cannot hold, more shards than a fleet walks, "
                     "or a label that does not round-trip); run it "
                     "in-process instead\n");
        return 1;
      }
      if (!broker.submit(*cell)) {
        std::fprintf(stderr, "error: could not append to '%s'\n",
                     storePath.c_str());
        return 1;
      }
      std::printf("submitted %s %s: %" PRIu64 " experiments, seed 0x%" PRIx64
                  ", shard size %zu, key 0x%016" PRIx64 "\n",
                  name.c_str(), cell->spec.c_str(), experiments, seed,
                  cell->shardSize, cell->key);
      return 0;
    }
    usage(argv[0]);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
