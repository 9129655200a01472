// Persistent campaign results store: checkpoint/resume for long campaigns.
//
// The store is an append-only JSONL file. Every record is one line, written
// and flushed atomically from the writer's point of view, so a campaign
// killed at any instant loses at most the shard it was computing — never a
// recorded one. Records are self-describing (versioned, carrying the fault
// spec label, seed, and campaign geometry) so a store file is meaningful on
// its own, greppable, and loadable by plotting scripts.
//
// Two record kinds hold results:
//
//   shard record (kind "shard") — one completed campaign shard:
//     {"v":1,"kind":"shard","key":"0x<16 hex>","workload":"qsort",
//      "spec":"read/single","seed":"0x<16 hex>","experiments":400,
//      "candidates":1234,"shard":3,"first":96,"count":32,
//      "outcomes":[b,d,h,n,s],"hist":[[o,k,c],...]}
//   `key` is the campaign key (below); `outcomes` is the shard's
//   OutcomeCounts in Outcome declaration order; `hist` is the sparse
//   activation histogram: [outcome index, activation bucket, count] triples
//   for the non-zero cells only. Full-range 64-bit fields (key, seed,
//   src_hash) are hex strings so double-based JSON consumers (jq, JS)
//   cannot silently round them.
//   appendShard formats this canonical layout directly, without a JSON
//   tree (fi/shard_line.hpp owns the format; the bytes equal the tree's
//   dump()), and load()/refresh()/compact()/fsck read it in one pass, also
//   without a tree. Any other valid JSON layout of the record still loads
//   through the generic parser, with the same integrity rules. A present
//   `workload`, `spec` or `seed` must be well formed; analytics selects
//   campaigns by them.
//
//   workload record (kind "workload") — one profiled Table II program:
//     {"v":1,"kind":"workload","name":"qsort","suite":"MiBench",
//      "package":"automotive","src_hash":"0x<16 hex>","minic_loc":57,
//      "ir_instrs":210,"dyn_instrs":51234,"cand_read":30321,
//      "cand_write":20117,"cand_store":9876}
//
// Three further kinds turn the store into the campaign fleet's durable work
// queue (fi/fleet.hpp):
//
//   cell record (kind "cell") — one submitted campaign cell, self-describing
//   enough for a worker process to rebuild the workload and verify it
//   reproduces the submitting broker's campaign key:
//     {"v":1,"kind":"cell","key":"0x<16 hex>","workload":"qsort",
//      "spec":"read/single","flip_width":32,"experiments":400,
//      "seed":"0x<16 hex>","shard_size":16,"hang_factor":50,
//      "dyn_instrs":51234}
//   `shard_size` is the RESOLVED per-cell shard size: the submitting broker
//   fixes the shard geometry once, so every worker computes identical
//   (first, count) ranges. `dyn_instrs` is the golden dynamic instruction
//   count, carried so workers can cost-order claims without compiling every
//   cell first.
//
//   lease record (kind "lease") — one claim on a shard range:
//     {"v":1,"kind":"lease","key":"0x<16 hex>","first":96,"count":32,
//      "worker":"1234:3f2a","epoch":1,"deadline":1754700000000}
//   `epoch` is the claim generation for that (key, range): a worker
//   re-leasing an abandoned shard appends epoch+1, heartbeat renewals
//   re-append the same epoch with a pushed-out `deadline` (util::wallClockMs
//   milliseconds). The NEWEST lease per (key, range) — highest epoch, latest
//   record within an epoch — is the live one; a lease is superseded the
//   moment a shard record for its range exists. Leases are pure scheduling:
//   results are assembled from shard records alone, so a stale, raced, or
//   double-claimed lease can waste work but never change an outcome.
//   A completion renewal may carry `cost_ms` — the observed wall-clock of
//   running the shard — which adaptive lease deadlines (fi/fleet.hpp)
//   aggregate per cell. Cost lives in lease records, never shard records,
//   because wall-clock is nondeterministic and shard records must stay
//   byte-identical across runs.
//
//   quarantine record (kind "quarantine") — one poison-shard verdict from
//   the fleet supervisor (fi/supervisor.hpp): workers leasing this range
//   died `crashes` times mid-lease, so healthy workers skip it and the
//   fleet converges on everything else instead of crash-looping:
//     {"v":1,"kind":"quarantine","key":"0x<16 hex>","first":96,"count":32,
//      "crashes":3,"worker":"1234:3f2a","reason":"worker died mid-lease"}
//   The newest record per (key, range) wins (re-quarantining updates the
//   crash count). A shard record for the range supersedes it — the work got
//   done after all (e.g. by a `--force` pass) — and compact() then drops it.
//
// Any other kind is unknown: load() counts it (LoadStats::unknownKinds) and
// skips it, fsck preserves it, compact() drops it. Stores written by older
// pruning builds carry such lines — "outcome" records of a since-deleted
// outcome cache; they never affected shard records, so those stores still
// resume unchanged.
//
// Writer concurrency: by default a store instance assumes it is the ONLY
// writer process (appends are dedup'd against the in-memory index and
// written through stdio, flushed after every line — the original
// single-writer design). Fleet-shared stores must be opened with
// WriteMode::Atomic: every record is then written with one O_APPEND
// write() + fdatasync under an advisory sibling ".lock" file
// (util::FileLock), so concurrent worker processes can never tear or
// interleave a line, and a line half-written by a crashed worker is healed
// (newline-terminated) before the next append instead of swallowing it.
// Cross-process appends bypass each other's in-memory dedup, so a shared
// store accumulates duplicate records; load() keeps the first of each and
// compact() drops the rest.
//
// Campaign key: a 64-bit hash of everything the determinism contract says a
// campaign result depends on — the full FaultModel (technique, max-MBF,
// win-size, flip width), experiment count, master seed — plus the
// workload's fingerprint (golden output, dynamic instruction count,
// candidate counts), which binds records to the observable behavior of the
// injected program. Shard records are matched by (key, first, count), so
// resuming reuses exactly the shards whose experiment ranges the current
// shard geometry reproduces; records written under a different shard size
// are ignored (and harmlessly re-run) rather than risk mis-merging.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fi/campaign.hpp"
#include "util/bitops.hpp"
#include "util/file_lock.hpp"
#include "util/jsonl.hpp"

namespace onebit::fi {

class CampaignStore {
 public:
  /// How appends reach the disk. Buffered is the original single-writer
  /// design (stdio stream, flushed per line); Atomic is for fleet stores
  /// shared by several writer processes — each record goes out as one
  /// O_APPEND write() + fdatasync under the sibling "<path>.lock" advisory
  /// file lock (util::AtomicAppend), and fileLock() exposes that lock so
  /// callers can make read-decide-append sequences (lease claims) atomic
  /// across processes.
  enum class WriteMode { Buffered, Atomic };
  /// Current record schema version; bump when the format changes shape.
  static constexpr std::uint64_t kFormatVersion = 1;

  /// Version of the experiment semantics, folded into every campaign key.
  /// Bump on ANY result-affecting code change (fault-plan derivation, RNG,
  /// injection hooks, outcome classification, VM behavior): records written
  /// by the old semantics must not resume into the new ones, or a "resumed"
  /// campaign would mix results no uninterrupted run could produce.
  static constexpr std::uint64_t kResultSemanticsVersion = 1;

  /// Semantics version of the EXTENSION cells of the fault-model algebra —
  /// the MemoryData/RandomValue domains and the BurstAdjacent pattern
  /// (everything FaultModel::isPaperModel() excludes). Folded into those
  /// campaign keys on top of kResultSemanticsVersion, so extension
  /// semantics can evolve (bump this) without invalidating the paper
  /// cells' recorded results, and extension records can never collide with
  /// a paper-cell key.
  static constexpr std::uint64_t kExtendedSemanticsVersion = 1;

  /// Aggregates of one recorded shard.
  struct ShardAggregate {
    stats::OutcomeCounts counts;
    ActivationHistogram hist{};
  };

  /// Campaign-level metadata carried by each shard record (for humans and
  /// plotting scripts; the key alone drives matching).
  struct CampaignMeta {
    std::uint64_t key = 0;
    std::string workload;   ///< caller-supplied name; may be empty
    std::string specLabel;  ///< FaultModel::label()
    std::uint64_t seed = 0;
    std::size_t experiments = 0;
    std::uint64_t candidates = 0;
  };

  /// One profiled Table II program (bench_table2_candidates).
  struct WorkloadRecord {
    std::string name;
    std::string suite;
    std::string package;
    /// util::hashBytes of the program's MiniC source. Consumers must treat
    /// a record whose hash differs from the current source as stale (the
    /// workload-record analog of the campaign key).
    std::uint64_t sourceHash = 0;
    std::uint64_t minicLoc = 0;
    std::uint64_t irInstrs = 0;
    std::uint64_t dynInstrs = 0;
    std::uint64_t candRead = 0;
    std::uint64_t candWrite = 0;
    std::uint64_t candStore = 0;

    bool operator==(const WorkloadRecord&) const = default;
  };

  /// One submitted fleet campaign cell (kind "cell"): everything a worker
  /// process needs to rebuild the cell's workload and verify that its build
  /// reproduces `key` before running a single experiment.
  struct CellRecord {
    std::uint64_t key = 0;     ///< campaignKey the submitting broker computed
    std::string workload;      ///< progs registry name (worker resolver input)
    std::string spec;          ///< FaultModel::label()
    unsigned flipWidth = 64;   ///< not in the label; carried explicitly
    std::size_t experiments = 0;
    std::uint64_t seed = 0;
    std::size_t shardSize = 0;   ///< RESOLVED (> 0): fixes fleet-wide geometry
    std::uint64_t hangFactor = 0;  ///< Workload hang budget multiplier
    std::uint64_t dynInstrs = 0;   ///< golden dynamic instrs (cost ordering)

    bool operator==(const CellRecord&) const = default;

    [[nodiscard]] std::size_t shardCount() const noexcept {
      return shardSize == 0 ? 0 : util::ceilDiv(experiments, shardSize);
    }
    [[nodiscard]] std::size_t shardFirst(std::size_t shard) const noexcept {
      return shard * shardSize;
    }
    [[nodiscard]] std::size_t shardExperiments(
        std::size_t shard) const noexcept {
      const std::size_t first = shardFirst(shard);
      return first >= experiments
                 ? 0
                 : (experiments - first < shardSize ? experiments - first
                                                    : shardSize);
    }
  };

  /// One shard-range claim (kind "lease"). The newest lease per
  /// (key, first, count) — highest epoch, then latest record — is the live
  /// one; see the file header for the protocol.
  struct LeaseRecord {
    std::size_t first = 0;
    std::size_t count = 0;
    std::string worker;        ///< "<pid>:<hex nonce>" worker id
    std::uint64_t epoch = 0;   ///< claim generation, >= 1
    std::uint64_t deadlineMs = 0;  ///< heartbeat deadline, wallClockMs
    /// Observed wall-clock of running the shard, stamped into the worker's
    /// completion renewal (0 = not a completion). Feeds adaptive deadlines;
    /// serialized as "cost_ms" only when nonzero, so pre-cost stores and
    /// writers interoperate unchanged.
    std::uint64_t costMs = 0;

    bool operator==(const LeaseRecord&) const = default;
  };

  /// One poison-shard verdict (kind "quarantine"): the supervisor observed
  /// `crashes` worker deaths mid-lease on this range. Newest per
  /// (key, first, count) wins; a shard record for the range supersedes it.
  struct QuarantineRecord {
    std::size_t first = 0;
    std::size_t count = 0;
    std::uint64_t crashes = 0;  ///< cumulative mid-lease worker deaths
    std::string worker;         ///< last crashing worker id (diagnostic)
    std::string reason;         ///< human-readable diagnostic

    bool operator==(const QuarantineRecord&) const = default;
  };

  // The keep rules, one per record kind: whether a record read after
  // `held`, with the same identity, replaces it. The live index (load,
  // refresh and the appends), compact() and analytics::Dataset all decide
  // through keep(), so a compacted store holds exactly the records load()
  // indexes, and a Dataset polling a live store holds what a fresh one does.

  /// Shards: the first record wins. By the determinism contract a
  /// re-recorded shard carries the same aggregates, and keep-first makes
  /// replays of a partially resumed store idempotent.
  static bool replaces(const ShardAggregate& /*held*/,
                       const ShardAggregate& /*incoming*/) noexcept {
    return false;
  }

  /// Leases: a newer record replaces the held one unless its epoch is
  /// lower — a higher epoch always, a renewal within the epoch by file
  /// order (appends are time-ordered); a stale epoch ordered late is
  /// ignored.
  static bool replaces(const LeaseRecord& held, const LeaseRecord& incoming) {
    return incoming.epoch >= held.epoch && !(incoming == held);
  }

  /// Workloads, cells and quarantines: a different newer record replaces
  /// the held one (a re-profiled workload, a cell re-submitted with other
  /// scheduling metadata, an escalated verdict).
  template <class Record>
  static bool replaces(const Record& held, const Record& incoming) {
    return !(incoming == held);
  }

  /// Index `incoming` under `id` by the keep rule. True when the index took
  /// it (a new identity, or a replacement); false when the held record
  /// stays.
  template <class Map, class Id, class Record>
  static bool keep(Map& index, const Id& id, const Record& incoming) {
    const auto [it, inserted] = index.try_emplace(id, incoming);
    return inserted || supersede(it->second, incoming);
  }

  struct LoadStats {
    std::size_t shardRecords = 0;     ///< accepted shard records
    std::size_t workloadRecords = 0;  ///< accepted workload records
    std::size_t cellRecords = 0;      ///< accepted fleet cell records
    std::size_t leaseRecords = 0;     ///< accepted fleet lease records
    std::size_t quarantineRecords = 0;  ///< accepted quarantine records
    std::size_t malformed = 0;  ///< unparseable or integrity-failing lines
                                ///< (incl. a torn final line)
    /// Records the keep rule did not take: re-recorded shards (the first
    /// wins), identical re-appends, leases of a lower epoch.
    std::size_t duplicates = 0;
    /// Of `malformed`: lines that parsed as JSON but carried an unknown
    /// record kind or a foreign format version — possibly a future format or
    /// a retired kind such as "outcome" (fsck preserves them), as opposed to
    /// actual damage.
    std::size_t unknownKinds = 0;

    /// Non-empty lines this read consumed (every line lands in exactly one
    /// accepted/malformed/duplicate bucket).
    [[nodiscard]] std::size_t lines() const noexcept {
      return shardRecords + workloadRecords + cellRecords + leaseRecords +
             quarantineRecords + malformed + duplicates;
    }

    LoadStats& operator+=(const LoadStats& o) noexcept {
      shardRecords += o.shardRecords;
      workloadRecords += o.workloadRecords;
      cellRecords += o.cellRecords;
      leaseRecords += o.leaseRecords;
      quarantineRecords += o.quarantineRecords;
      malformed += o.malformed;
      duplicates += o.duplicates;
      unknownKinds += o.unknownKinds;
      return *this;
    }
  };

  struct CompactStats {
    std::size_t shardRecords = 0;     ///< surviving shard records
    std::size_t workloadRecords = 0;  ///< surviving workload records
    std::size_t cellRecords = 0;      ///< surviving fleet cell records
    std::size_t leaseRecords = 0;     ///< surviving (still-live) leases
    std::size_t quarantineRecords = 0;  ///< surviving quarantine records
    std::size_t droppedDuplicates = 0;  ///< superseded records dropped
    std::size_t droppedLeases = 0;  ///< expired/superseded leases dropped
    std::size_t droppedQuarantines = 0;  ///< superseded quarantines dropped
    std::size_t droppedMalformed = 0;  ///< torn/invalid/unknown lines dropped
    bool rewritten = false;  ///< false = file was already canonical
  };

  /// What `fsck` found in (and, in repair mode, removed from) a store file.
  /// Taxonomy: a line is exactly one of valid, a benign exact duplicate of
  /// an earlier value record, the torn unparseable tail, mid-file garbage,
  /// an integrity failure (parses as JSON but fails the kind's validation),
  /// an unknown kind/version (preserved verbatim — it may be a future
  /// format), or a conflict (same identity as an earlier value record but
  /// different bytes — the earlier record wins, matching load()'s
  /// first-wins rule).
  struct FsckStats {
    std::size_t validRecords = 0;     ///< well-formed records kept
    std::size_t duplicateLines = 0;   ///< byte-identical value-record reruns
    std::size_t tornTail = 0;         ///< unparseable unterminated last line
    std::size_t garbage = 0;          ///< mid-file unparseable lines
    std::size_t integrityFailures = 0;  ///< parse but fail validation
    std::size_t unknownKinds = 0;     ///< unknown kind/version (kept)
    std::size_t conflicts = 0;        ///< same identity, different bytes
    std::size_t quarantinedLines = 0;  ///< lines bound for the sidecar
    bool rewritten = false;           ///< repair actually rewrote the file

    /// Evidence of corruption (distinct from benign duplicates): these are
    /// the conditions fsck_store's exit code reports.
    [[nodiscard]] bool corrupt() const noexcept {
      return tornTail + garbage + integrityFailures + conflicts != 0;
    }
    /// Nothing for repair to do: the file is byte-for-byte canonical
    /// already (unknown kinds are preserved, so they do not count).
    [[nodiscard]] bool clean() const noexcept {
      return !corrupt() && duplicateLines == 0;
    }
  };

  /// Opens (lazily) the store at `path`. The file need not exist yet; the
  /// first append creates it. Pass WriteMode::Atomic for a store shared by
  /// several writer processes (see the enum).
  explicit CampaignStore(std::string path,
                         WriteMode mode = WriteMode::Buffered)
      : path_(std::move(path)), mode_(mode) {
    if (mode_ == WriteMode::Atomic) {
      fileLock_ = std::make_unique<util::FileLock>(path_ + ".lock");
    }
  }

  CampaignStore(const CampaignStore&) = delete;
  CampaignStore& operator=(const CampaignStore&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// The campaign key binding a record to (model, experiments, seed,
  /// workload identity). `workloadFingerprint` is
  /// Workload::fingerprintFor(model) — a hash of golden output, dynamic
  /// instruction count, candidate counts (including the store-event stream
  /// for extension cells), and the faulty-run instruction budget — so
  /// editing the injected program (or its hang budget) invalidates its
  /// records even when a single summary statistic happens to survive the
  /// edit. See the file header for the rationale.
  static std::uint64_t campaignKey(const FaultModel& model,
                                   std::size_t experiments,
                                   std::uint64_t seed,
                                   std::uint64_t workloadFingerprint) noexcept;

  /// Read all records currently on disk into the in-memory index. Missing
  /// file loads as empty. Malformed lines are counted, never fatal: the
  /// torn last line of a killed writer must not poison the store.
  LoadStats load();

  /// Incrementally index records OTHER processes appended since the last
  /// load()/refresh(): reads from the previous end offset, so polling a
  /// large fleet store costs only the new bytes. An unterminated final line
  /// (a record mid-append, or a crashed writer's residue) is left for the
  /// next refresh rather than counted malformed. Falls back to a full
  /// re-read when the file shrank (someone compacted it) — safe because
  /// compaction keeps exactly the records the index holds. In Atomic mode
  /// the file lock is held for the read, so a refresh under fileLock()
  /// observes every record of every completed claim sequence.
  LoadStats refresh();

  /// Rewrite the JSONL store at `path` in place, keeping one line per record
  /// identity — the line of the record load() indexes for it — and dropping
  /// torn, unparseable, integrity-failing and unknown-kind lines: the
  /// maintenance pass for a store grown by interrupted runs or by several
  /// concurrent writer processes (whose appends bypass each other's
  /// in-memory dedup index). The identities are (campaign key, shard range)
  /// for shards, leases and quarantines, the key for cells and the name for
  /// workloads; load() and compact() pick the record by the same keep rule
  /// per kind: the first shard record, the newest workload, cell and
  /// quarantine, and the newest lease unless its epoch is lower. Surviving
  /// lines are copied byte for byte, each at its identity's first-seen
  /// position, so resuming from a compacted store is identical to resuming
  /// from the original. Crash-safe (temp file + rename); a file that is
  /// already compact is left untouched byte for byte. Returns nullopt on I/O
  /// failure (the original file is preserved). Do not run it on a store an
  /// open CampaignStore instance is appending to.
  ///
  /// Beyond the keep rule, a lease drops once a shard record for its range
  /// exists or — when `nowMs` is nonzero (pass util::wallClockMs()) — once
  /// expired (deadline <= nowMs). Pass nowMs = 0 to keep every unsuperseded
  /// lease regardless of age (time-independent compaction, e.g. in tests).
  /// A quarantine drops once a shard record for its range exists (the shard
  /// got finished after all).
  static std::optional<CompactStats> compact(const std::string& path,
                                             std::uint64_t nowMs = 0);

  /// Classify every line of the store at `path` (see FsckStats for the
  /// taxonomy) and, when `repair` is true and the file is not clean(),
  /// rewrite it crash-safely (temp + rename) keeping the surviving lines
  /// BYTE-IDENTICAL in file order — so loading (and resuming from) the
  /// repaired file indexes exactly the records load() would have accepted
  /// from the original. Unrepairable lines (torn tail, garbage, integrity
  /// failures, conflict losers) are appended to the "<path>.quarantined"
  /// sidecar instead of silently dropped; unknown kinds/versions are
  /// preserved in place. A missing file fscks as clean and empty. Returns
  /// nullopt on I/O failure (the original file is preserved). Like
  /// compact(), do not run repair on a store an open instance is appending
  /// to.
  static std::optional<FsckStats> fsck(const std::string& path, bool repair);

  /// Append one completed shard (thread-safe; serialized internally). The
  /// line is flushed before the call returns. A shard already present in
  /// the in-memory index (loaded or appended earlier through this instance)
  /// is skipped, so record-only reruns do not balloon the file. Returns
  /// false on I/O error.
  bool appendShard(const CampaignMeta& meta, std::size_t shardIndex,
                   std::size_t firstExperiment, std::size_t experimentCount,
                   const ShardAggregate& aggregate);

  /// Append one workload profile (thread-safe). An identical record already
  /// in the index is skipped. Returns false on I/O error.
  bool appendWorkload(const WorkloadRecord& record);

  /// Look up a recorded shard by campaign key and exact experiment range.
  /// Returns nullptr when absent. Pointers stay valid until the next
  /// load() or shrink-triggered refresh() (the only operations that evict).
  [[nodiscard]] const ShardAggregate* findShard(
      std::uint64_t key, std::size_t firstExperiment,
      std::size_t experimentCount) const;

  /// Total experiments recorded for a campaign key (for progress reports).
  [[nodiscard]] std::size_t recordedExperiments(std::uint64_t key) const;

  /// Look up a profiled workload by name; nullptr when absent.
  [[nodiscard]] const WorkloadRecord* findWorkload(
      std::string_view name) const;

  /// Append one fleet cell submission (thread-safe). A cell already indexed
  /// under the same key with identical fields is skipped; differing fields
  /// under the same key replace the index entry (newest wins — the key
  /// binds the result-relevant fields, so a difference can only be in
  /// scheduling metadata like shard_size). Returns false on I/O error or an
  /// invalid record (shardSize or experiments of 0).
  bool appendCell(const CellRecord& record);

  /// Append one lease record for a shard range of campaign `key`
  /// (thread-safe). Always writes (claims, renewals, and re-leases all
  /// matter), except when the identical record is already the indexed
  /// newest. Returns false on I/O error or an invalid record (count or
  /// epoch of 0).
  bool appendLease(std::uint64_t key, const LeaseRecord& record);

  /// Look up a submitted cell by campaign key; nullptr when absent. Valid
  /// until the next append/refresh/load.
  [[nodiscard]] const CellRecord* findCell(std::uint64_t key) const;

  /// All submitted cells, in first-submission order (fleet workers scan
  /// these; the order is part of no contract but keeps logs readable).
  [[nodiscard]] std::vector<CellRecord> cells() const;

  /// The live (newest) lease for (key, first, count), if any.
  [[nodiscard]] std::optional<LeaseRecord> latestLease(
      std::uint64_t key, std::size_t first, std::size_t count) const;

  /// Visit the live lease of every leased shard range of campaign `key`.
  /// The store mutex is held across the callback: do not call ANY method of
  /// this store from inside it (not even const readers like findShard —
  /// the mutex is not recursive, so that self-deadlocks). Snapshot into a
  /// local vector and post-process instead.
  void forEachLease(std::uint64_t key,
                    const std::function<void(const LeaseRecord&)>& fn) const;

  /// Append one quarantine verdict for a shard range of campaign `key`
  /// (thread-safe). Skipped when the identical record is already the
  /// indexed newest. Returns false on I/O error or an invalid record
  /// (count of 0).
  bool appendQuarantine(std::uint64_t key, const QuarantineRecord& record);

  /// The live (newest) quarantine for (key, first, count), if any.
  [[nodiscard]] std::optional<QuarantineRecord> findQuarantine(
      std::uint64_t key, std::size_t first, std::size_t count) const;

  /// Visit every quarantined shard range of campaign `key`. Same no-reentry
  /// contract as forEachLease (the store mutex is held).
  void forEachQuarantine(
      std::uint64_t key,
      const std::function<void(const QuarantineRecord&)>& fn) const;

  /// A shard-range key: (first experiment, experiment count).
  using Range = std::pair<std::size_t, std::size_t>;

  /// A self-contained copy of the in-memory index, taken under ONE mutex
  /// acquisition — the sanctioned read surface for external consumers
  /// (src/analytics/): unlike the forEach* visitors above, nothing of the
  /// store is held while a Snapshot is processed, so readers can never
  /// trip the no-reentry contract, block appending writers, or observe a
  /// half-indexed refresh. The copy is immutable and survives any later
  /// load()/refresh()/append on the source store.
  struct Snapshot {
    /// Everything indexed under one campaign key. `meta` is stamped from
    /// the first shard record seen (or, failing that, carries only the key
    /// with `experiments == 0` — a campaign known so far only through
    /// scheduling records).
    struct Campaign {
      CampaignMeta meta;
      std::optional<CellRecord> cell;  ///< fleet submission, when present
      std::map<Range, ShardAggregate> shards;       ///< first-wins
      std::map<Range, LeaseRecord> leases;          ///< newest per range
      std::map<Range, QuarantineRecord> quarantines;  ///< newest per range
    };
    std::map<std::uint64_t, Campaign> campaigns;  ///< key-ordered
    std::map<std::string, WorkloadRecord, std::less<>> workloads;
  };

  /// Copy the current index (see Snapshot). Safe to call on a store other
  /// processes are appending to — it reads only what load()/refresh() has
  /// already indexed; poll refresh() first for the newest records.
  [[nodiscard]] Snapshot snapshot() const;

  /// The cross-process advisory lock of an Atomic-mode store (nullptr in
  /// Buffered mode). Hold it (std::lock_guard) around read-decide-append
  /// sequences such as lease claims; individual appends self-lock.
  [[nodiscard]] util::FileLock* fileLock() noexcept {
    return fileLock_.get();
  }

  /// errno of the last failed append through this store (0 after a
  /// success). Meaningful on the thread that just observed an append
  /// returning false.
  [[nodiscard]] int lastWriteErrno() const noexcept {
    return lastWriteErrno_.load(std::memory_order_relaxed);
  }

  /// True when the last failed append hit an out-of-space condition
  /// (ENOSPC/EDQUOT) — a pause-and-retry state, not a hard error: fleet
  /// workers park on their heartbeat instead of exiting, because the disk
  /// may drain (log rotation, another store compacting) without any code
  /// change.
  [[nodiscard]] bool lastWriteOutOfSpace() const noexcept;

 private:
  using ShardRange = Range;  ///< (first, count)

  /// Apply the keep rule to one held record. True when `incoming` replaced
  /// it.
  template <class Record>
  static bool supersede(Record& held, const Record& incoming) {
    if (!replaces(held, incoming)) return false;
    held = incoming;
    return true;
  }

  struct Line;  ///< one decoded store line (campaign_store.cpp)

  /// Index a decoded record by its kind's keep rule. True when the index
  /// took it (a new identity, or a replacement of the held record).
  bool index(const Line& line);
  bool indexCell(const CellRecord& record);
  void clearIndex();
  LoadStats readInto(std::uint64_t offset, bool consumeTail);
  bool writeLine(std::string_view line);

  std::string path_;
  WriteMode mode_ = WriteMode::Buffered;
  mutable std::mutex mutex_;
  std::unique_ptr<util::JsonlWriter> writer_;  ///< opened on first append
  std::unique_ptr<util::FileLock> fileLock_;   ///< Atomic mode only
  std::unique_ptr<util::AtomicAppend> appender_;  ///< opened on first append
  std::string lineBuffer_;  ///< appendShard's line, reused under mutex_
  std::uint64_t readOffset_ = 0;  ///< resume point for refresh()
  std::unordered_map<std::uint64_t, std::map<ShardRange, ShardAggregate>>
      shards_;
  /// Campaign meta per key, from the first shard record seen (first-wins,
  /// like the shard index) — serves snapshot() so analytics can match
  /// records by (workload, spec, seed, experiments) without recomputing
  /// campaign keys (which would need compiled workloads).
  std::unordered_map<std::uint64_t, CampaignMeta> metas_;
  std::map<std::string, WorkloadRecord, std::less<>> workloads_;
  std::vector<CellRecord> cellOrder_;  ///< first-submission order
  std::unordered_map<std::uint64_t, std::size_t> cellIndex_;  ///< key → idx
  std::unordered_map<std::uint64_t, std::map<ShardRange, LeaseRecord>>
      leases_;
  std::unordered_map<std::uint64_t, std::map<ShardRange, QuarantineRecord>>
      quarantines_;
  std::atomic<int> lastWriteErrno_{0};  ///< errno of the last failed append
};

/// How a campaign engine (or a driver built on one) should use a store:
/// record newly completed shards, resume from recorded ones, or both.
/// A default-constructed binding is inert.
struct StoreBinding {
  CampaignStore* store = nullptr;
  bool resume = false;    ///< skip shards already recorded under this key
  std::string workload;   ///< name stamped into new records
};

}  // namespace onebit::fi
