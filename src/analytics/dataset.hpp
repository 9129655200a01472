// Analytics Dataset: the read path over one or many campaign stores.
//
// A Dataset loads JSONL store files (or in-process CampaignStore::Snapshot
// copies) into merged, typed in-memory tables keyed by campaign key. It is
// strictly a READER:
//
//   * It never appends, so opening a store another fleet of processes is
//     actively writing is safe — no writer stream is created, no ".lock"
//     sibling is touched, and workers are never blocked.
//   * It tolerates torn tails exactly like CampaignStore::load (the tail a
//     crashed or mid-append writer left is counted malformed / retried, not
//     fatal), because it IS CampaignStore::load underneath: each file
//     source owns a private read-only CampaignStore instance, and the
//     tables are built from CampaignStore::snapshot() copies — the
//     snapshot-then-process pattern the store's no-reentry contract
//     prescribes.
//   * poll() re-reads only the bytes other processes appended since the
//     last load (CampaignStore::refresh), so a live dashboard polling a
//     large fleet store pays for the new records, not the whole file.
//
// Merging is idempotent and mirrors the store's own index rules — shards
// first-wins per (key, range), leases/quarantines newest-wins — so
// re-ingesting a source after poll(), loading a compacted store, or loading
// the same records from two shard stores all produce identical tables.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fi/campaign_store.hpp"

namespace onebit::analytics {

using Range = fi::CampaignStore::Range;  ///< (first experiment, count)

/// Everything the Dataset knows about one campaign key, merged across every
/// ingested source.
struct CampaignTable {
  /// Shard-record meta (first record wins). `meta.key` is always set;
  /// `meta.experiments == 0` means the campaign is known only through
  /// scheduling records so far (no shard, no cell).
  fi::CampaignStore::CampaignMeta meta;
  bool submitted = false;               ///< a fleet "cell" record exists
  fi::CampaignStore::CellRecord cell{};  ///< valid when `submitted`
  std::map<Range, fi::CampaignStore::ShardAggregate> shards;
  std::map<Range, fi::CampaignStore::LeaseRecord> leases;
  std::map<Range, fi::CampaignStore::QuarantineRecord> quarantines;

  /// Experiments covered by recorded shards. Like totals() and histogram(),
  /// this counts one set of records whose ranges do not overlap (the set
  /// covering the most experiments): records written under different shard
  /// sizes overlap, and no experiment is counted twice.
  [[nodiscard]] std::size_t recordedExperiments() const;
  /// Outcome totals over recorded shards (PARTIAL when !complete()).
  [[nodiscard]] stats::OutcomeCounts totals() const;
  /// Activation histogram merged over recorded shards.
  [[nodiscard]] fi::ActivationHistogram histogram() const;
  /// True when recorded shards tile every experiment of the campaign. False
  /// also when the campaign size is unknown (expectedExperiments() == 0): a
  /// Dataset must never promote a partial tally to a final result.
  [[nodiscard]] bool complete() const;
  /// Campaign size, from shard meta or (failing that) the cell record
  /// (0 = unknown).
  [[nodiscard]] std::size_t expectedExperiments() const;
  /// Identity fields, preferring shard meta, falling back to the cell
  /// record of a submitted-but-unstarted campaign.
  [[nodiscard]] const std::string& workload() const;
  [[nodiscard]] const std::string& specLabel() const;
  [[nodiscard]] std::uint64_t seed() const;
  /// The flip width, when a cell record carries it (0 = unknown — shard
  /// records do not store it; see resolveCell in analytics/figures.hpp).
  [[nodiscard]] unsigned flipWidth() const {
    return submitted ? cell.flipWidth : 0;
  }
};

class Dataset {
 public:
  /// One ingested source and its cumulative read statistics.
  struct Source {
    std::string path;  ///< file path, or the label of an in-memory snapshot
    fi::CampaignStore::LoadStats stats;  ///< summed over load() + poll()s
  };

  Dataset();
  ~Dataset();
  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;

  /// Open the store file at `path` read-only and ingest everything on disk.
  /// A missing file ingests as empty (stats.lines() == 0). Returns the
  /// source index.
  std::size_t addStore(const std::string& path);

  /// Ingest a snapshot of an in-process store (no file ownership; poll()
  /// will not advance it).
  std::size_t addSnapshot(const fi::CampaignStore::Snapshot& snap,
                          std::string label = "<snapshot>");

  /// Incrementally re-read every file source (CampaignStore::refresh: only
  /// the newly appended bytes; a shrunken/compacted file triggers a safe
  /// full re-read) and merge the new records into the tables.
  void poll();

  /// Merged campaign tables, key-ordered.
  [[nodiscard]] const std::map<std::uint64_t, CampaignTable>& campaigns()
      const noexcept {
    return campaigns_;
  }

  /// Merged workload profiles (first source wins per name).
  [[nodiscard]] const std::map<std::string, fi::CampaignStore::WorkloadRecord,
                               std::less<>>&
  workloads() const noexcept {
    return workloads_;
  }

  [[nodiscard]] const std::vector<Source>& sources() const noexcept {
    return sources_;
  }

  /// Total non-empty record lines consumed across all sources.
  [[nodiscard]] std::size_t recordLines() const;

  /// Campaigns whose shard-record meta matches (workload, spec label, seed,
  /// experiments) — the analytics matching handle; the campaign key itself
  /// is not recomputable without compiling the workload. More than one
  /// match is possible (e.g. the same cell run under two flip widths, which
  /// the spec label does not carry): callers must disambiguate or report
  /// the cell ambiguous, never merge.
  [[nodiscard]] std::vector<const CampaignTable*> match(
      std::string_view workload, std::string_view specLabel,
      std::uint64_t seed, std::size_t experiments) const;

 private:
  void ingest(const fi::CampaignStore::Snapshot& snap);

  std::vector<std::unique_ptr<fi::CampaignStore>> stores_;  ///< file sources
  std::vector<std::size_t> storeSource_;  ///< stores_[i] → sources_ index
  std::vector<Source> sources_;
  std::map<std::uint64_t, CampaignTable> campaigns_;
  std::map<std::string, fi::CampaignStore::WorkloadRecord, std::less<>>
      workloads_;
};

}  // namespace onebit::analytics
