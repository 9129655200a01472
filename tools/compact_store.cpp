// Compact a campaign-results store in place: keep, per record identity,
// the line of the record load() indexes (the first shard record; the newest
// workload, cell and quarantine; the newest lease unless its epoch is
// lower), copied byte for byte; drop torn, invalid and unknown-kind lines,
// fleet leases superseded by a shard record or past their heartbeat
// deadline, and quarantines superseded by a shard record. See
// CampaignStore::compact.
#include <cstdio>
#include <cstring>

#include "fi/campaign_store.hpp"
#include "util/file_lock.hpp"

int main(int argc, char** argv) {
  if (argc != 2 || std::strcmp(argv[1], "--help") == 0) {
    std::fprintf(stderr, "usage: %s STORE.jsonl\n", argv[0]);
    return 2;
  }
  const std::string path = argv[1];
  const auto stats =
      onebit::fi::CampaignStore::compact(path, onebit::util::wallClockMs());
  if (!stats) {
    std::fprintf(stderr, "error: could not compact '%s' (I/O failure); "
                 "the original file is untouched\n", path.c_str());
    return 1;
  }
  std::printf("%s: %zu shard, %zu workload, %zu cell record(s), %zu live "
              "lease(s), %zu quarantine(s) kept; %zu duplicate(s), %zu dead "
              "lease(s), %zu superseded quarantine(s), %zu malformed "
              "line(s) dropped%s\n",
              path.c_str(), stats->shardRecords, stats->workloadRecords,
              stats->cellRecords, stats->leaseRecords,
              stats->quarantineRecords, stats->droppedDuplicates,
              stats->droppedLeases, stats->droppedQuarantines,
              stats->droppedMalformed,
              stats->rewritten ? "" : " (already canonical; file untouched)");
  return 0;
}
