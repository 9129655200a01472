#include "fi/campaign_store.hpp"

#include <cerrno>
#include <cstdio>
#include <map>
#include <tuple>

#include "fi/shard_line.hpp"
#include "util/rng.hpp"

namespace onebit::fi {

namespace {

using detail::getUint;
using detail::hex64;
using detail::parseHex64;

/// Lock-order note: the cross-process file lock (when present) is always
/// taken BEFORE the in-memory mutex, matching fleet claim sequences that
/// hold fileLock() around whole read-decide-append critical sections.
struct OptionalLockGuard {
  util::FileLock* lock;
  explicit OptionalLockGuard(util::FileLock* l) : lock(l) {
    if (lock != nullptr) lock->lock();
  }
  ~OptionalLockGuard() {
    if (lock != nullptr) lock->unlock();
  }
  OptionalLockGuard(const OptionalLockGuard&) = delete;
  OptionalLockGuard& operator=(const OptionalLockGuard&) = delete;
};

std::uint64_t fileSizeOf(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::uint64_t size = 0;
  if (std::fseek(f, 0, SEEK_END) == 0) {
    const long n = std::ftell(f);
    if (n > 0) size = static_cast<std::uint64_t>(n);
  }
  std::fclose(f);
  return size;
}

}  // namespace

std::uint64_t CampaignStore::campaignKey(
    const FaultModel& model, std::size_t experiments, std::uint64_t seed,
    std::uint64_t workloadFingerprint) noexcept {
  // Chain every field the determinism contract names; any difference in the
  // fault model, campaign size, seed, workload behavior, or experiment
  // semantics yields a new key. Paper cells (register domains under the
  // single/temporal patterns) hash the exact chain the former FaultSpec key
  // used, so every record written before the FaultModel redesign still
  // resumes; extension cells additionally fold in their own semantics
  // version and the pattern kind, so they can never collide with a paper
  // key and can be re-versioned independently.
  std::uint64_t h = 0x0b17c4a9'5708e11fULL ^ kFormatVersion;
  h = util::hashCombine(h, kResultSemanticsVersion);
  h = util::hashCombine(h, static_cast<std::uint64_t>(model.domain));
  h = util::hashCombine(h, model.pattern.count);
  h = util::hashCombine(h, static_cast<std::uint64_t>(model.spread.kind));
  h = util::hashCombine(h, model.spread.value);
  h = util::hashCombine(h, model.spread.lo);
  h = util::hashCombine(h, model.spread.hi);
  h = util::hashCombine(h, model.flipWidth);
  if (!model.isPaperModel()) {
    h = util::hashCombine(h, kExtendedSemanticsVersion);
    h = util::hashCombine(h, static_cast<std::uint64_t>(model.pattern.kind));
  }
  h = util::hashCombine(h, static_cast<std::uint64_t>(experiments));
  h = util::hashCombine(h, seed);
  h = util::hashCombine(h, workloadFingerprint);
  return h;
}

namespace {

/// `record[field]` as a string; empty when absent or not a string.
std::string_view stringOf(const util::Json& record, std::string_view field) {
  const util::Json* f = record.find(field);
  return f != nullptr ? f->asString() : std::string_view();
}

/// `record[field]` as a hex64() string; nullopt when absent or malformed.
std::optional<std::uint64_t> hexOf(const util::Json& record,
                                   std::string_view field) {
  return parseHex64(stringOf(record, field));
}

// The record parsers below assign every field of their output, which the
// line decoder reuses across lines.

/// Decode a "workload" record (only the name is mandatory).
bool parseWorkloadRecord(const util::Json& record,
                         CampaignStore::WorkloadRecord& rec) {
  if (stringOf(record, "name").empty()) return false;
  rec.name = stringOf(record, "name");
  rec.suite = stringOf(record, "suite");
  rec.package = stringOf(record, "package");
  rec.sourceHash = hexOf(record, "src_hash").value_or(0);
  rec.minicLoc = getUint(record, "minic_loc", 0);
  rec.irInstrs = getUint(record, "ir_instrs", 0);
  rec.dynInstrs = getUint(record, "dyn_instrs", 0);
  rec.candRead = getUint(record, "cand_read", 0);
  rec.candWrite = getUint(record, "cand_write", 0);
  rec.candStore = getUint(record, "cand_store", 0);
  return true;
}

/// Decode a "cell" record. A cell a worker cannot fully reconstruct
/// (missing name/spec/geometry) is worthless, so everything but the two
/// advisory fields (hang_factor, dyn_instrs) is mandatory.
bool parseCellRecord(const util::Json& record,
                     CampaignStore::CellRecord& rec) {
  const std::optional<std::uint64_t> key = hexOf(record, "key");
  const std::optional<std::uint64_t> seed = hexOf(record, "seed");
  const std::uint64_t bad = ~0ULL;
  const std::uint64_t flipWidth = getUint(record, "flip_width", bad);
  const std::uint64_t experiments = getUint(record, "experiments", bad);
  const std::uint64_t shardSize = getUint(record, "shard_size", bad);
  if (!key || !seed || stringOf(record, "workload").empty() ||
      stringOf(record, "spec").empty() || flipWidth == 0 || flipWidth > 64 ||
      experiments == 0 || experiments == bad || shardSize == 0 ||
      shardSize == bad) {
    return false;
  }
  rec.key = *key;
  rec.workload = stringOf(record, "workload");
  rec.spec = stringOf(record, "spec");
  rec.flipWidth = static_cast<unsigned>(flipWidth);
  rec.experiments = static_cast<std::size_t>(experiments);
  rec.seed = *seed;
  rec.shardSize = static_cast<std::size_t>(shardSize);
  rec.hangFactor = getUint(record, "hang_factor", 0);
  rec.dynInstrs = getUint(record, "dyn_instrs", 0);
  return true;
}

/// Decode a "lease" record of campaign `key`.
bool parseLeaseRecord(const util::Json& record, std::uint64_t& key,
                      CampaignStore::LeaseRecord& rec) {
  const std::optional<std::uint64_t> parsedKey = hexOf(record, "key");
  const std::uint64_t bad = ~0ULL;
  const std::uint64_t first = getUint(record, "first", bad);
  const std::uint64_t count = getUint(record, "count", bad);
  const std::uint64_t epoch = getUint(record, "epoch", bad);
  const std::uint64_t deadline = getUint(record, "deadline", bad);
  if (!parsedKey || stringOf(record, "worker").empty() || first == bad ||
      count == 0 || count == bad || epoch == 0 || epoch == bad ||
      deadline == bad) {
    return false;
  }
  key = *parsedKey;
  rec.first = static_cast<std::size_t>(first);
  rec.count = static_cast<std::size_t>(count);
  rec.worker = stringOf(record, "worker");
  rec.epoch = epoch;
  rec.deadlineMs = deadline;
  rec.costMs = getUint(record, "cost_ms", 0);  // optional: completions
  return true;
}

/// Decode a "quarantine" record of campaign `key`.
bool parseQuarantineRecord(const util::Json& record, std::uint64_t& key,
                           CampaignStore::QuarantineRecord& rec) {
  const std::optional<std::uint64_t> parsedKey = hexOf(record, "key");
  const std::uint64_t bad = ~0ULL;
  const std::uint64_t first = getUint(record, "first", bad);
  const std::uint64_t count = getUint(record, "count", bad);
  if (!parsedKey || first == bad || count == 0 || count == bad) return false;
  key = *parsedKey;
  rec.first = static_cast<std::size_t>(first);
  rec.count = static_cast<std::size_t>(count);
  rec.crashes = getUint(record, "crashes", 0);
  rec.worker = stringOf(record, "worker");
  rec.reason = stringOf(record, "reason");
  return true;
}

util::Json cellToJson(const CampaignStore::CellRecord& rec) {
  util::Json record = util::Json::object();
  record.set("v", util::Json::number(CampaignStore::kFormatVersion));
  record.set("kind", util::Json::string("cell"));
  record.set("key", util::Json::string(hex64(rec.key)));
  record.set("workload", util::Json::string(rec.workload));
  record.set("spec", util::Json::string(rec.spec));
  record.set("flip_width",
             util::Json::number(static_cast<std::uint64_t>(rec.flipWidth)));
  record.set("experiments",
             util::Json::number(static_cast<std::uint64_t>(rec.experiments)));
  record.set("seed", util::Json::string(hex64(rec.seed)));
  record.set("shard_size",
             util::Json::number(static_cast<std::uint64_t>(rec.shardSize)));
  record.set("hang_factor", util::Json::number(rec.hangFactor));
  record.set("dyn_instrs", util::Json::number(rec.dynInstrs));
  return record;
}

util::Json leaseToJson(std::uint64_t key,
                       const CampaignStore::LeaseRecord& rec) {
  util::Json record = util::Json::object();
  record.set("v", util::Json::number(CampaignStore::kFormatVersion));
  record.set("kind", util::Json::string("lease"));
  record.set("key", util::Json::string(hex64(key)));
  record.set("first",
             util::Json::number(static_cast<std::uint64_t>(rec.first)));
  record.set("count",
             util::Json::number(static_cast<std::uint64_t>(rec.count)));
  record.set("worker", util::Json::string(rec.worker));
  record.set("epoch", util::Json::number(rec.epoch));
  record.set("deadline", util::Json::number(rec.deadlineMs));
  if (rec.costMs != 0) {
    record.set("cost_ms", util::Json::number(rec.costMs));
  }
  return record;
}

util::Json quarantineToJson(std::uint64_t key,
                            const CampaignStore::QuarantineRecord& rec) {
  util::Json record = util::Json::object();
  record.set("v", util::Json::number(CampaignStore::kFormatVersion));
  record.set("kind", util::Json::string("quarantine"));
  record.set("key", util::Json::string(hex64(key)));
  record.set("first",
             util::Json::number(static_cast<std::uint64_t>(rec.first)));
  record.set("count",
             util::Json::number(static_cast<std::uint64_t>(rec.count)));
  record.set("crashes", util::Json::number(rec.crashes));
  if (!rec.worker.empty()) {
    record.set("worker", util::Json::string(rec.worker));
  }
  if (!rec.reason.empty()) {
    record.set("reason", util::Json::string(rec.reason));
  }
  return record;
}

/// Raw line split of a store file, preserving bytes exactly: compact() and
/// fsck copy surviving lines verbatim. Empty lines — the residue of
/// torn-tail healing — are benign and skipped.
struct RawLines {
  std::vector<std::string> lines;
  bool tornTail = false;  ///< the last line has no '\n'
};

RawLines readRawLines(const std::string& path) {
  RawLines out;
  util::LineReader reader(path, 0);
  std::string_view line;
  while (reader.next(line)) out.lines.emplace_back(line);
  if (!reader.tail().empty()) {
    out.lines.emplace_back(reader.tail());
    out.tornTail = true;
  }
  return out;
}

bool writeRawLines(const std::string& path, const char* mode,
                   const std::vector<const std::string*>& lines) {
  std::FILE* f = std::fopen(path.c_str(), mode);
  if (f == nullptr) return false;
  bool ok = true;
  for (const std::string* line : lines) {
    if (std::fwrite(line->data(), 1, line->size(), f) != line->size() ||
        std::fputc('\n', f) == EOF) {
      ok = false;
      break;
    }
  }
  if (std::fflush(f) != 0) ok = false;
  std::fclose(f);
  return ok;
}

/// Crash-safe rewrite of the store at `path` to `lines`: write the sibling
/// temp `path + suffix`, then rename it over the original, so a reader never
/// observes a half-written store. The temp is truncated on open, so one left
/// by a killed rewrite cannot leak stale lines in.
bool rewriteStore(const std::string& path, const char* suffix,
                  const std::vector<const std::string*>& lines) {
  const std::string tmp = path + suffix;
  if (writeRawLines(tmp, "wb", lines) &&
      std::rename(tmp.c_str(), path.c_str()) == 0) {
    return true;
  }
  std::remove(tmp.c_str());
  return false;
}

}  // namespace

/// One store line, as the store's one line decoder reads it. load(),
/// refresh(), compact() and fsck() all read lines through decode(), so they
/// agree on what every line is; the records are reused across lines (the
/// shard's strings keep their capacity).
struct CampaignStore::Line {
  enum class Kind : unsigned char {
    Unparseable,  ///< not JSON: a torn write or garbage
    UnknownKind,  ///< JSON of another kind or a foreign `v`
    Invalid,      ///< a known kind failing its rules
    Shard,        ///< the rest: a valid record of that kind
    Workload,
    Cell,
    Lease,
    Quarantine,
  };

  /// Which records compete under a keep rule: one kind, one campaign key,
  /// one shard range, one workload name (the fields a kind lacks are 0/"").
  using Identity =
      std::tuple<Kind, std::uint64_t, std::size_t, std::size_t, std::string>;

  Kind kind = Kind::Unparseable;
  detail::ParsedShard shard;
  WorkloadRecord workload;
  CellRecord cell;
  std::uint64_t key = 0;  ///< campaign key of a lease or quarantine
  LeaseRecord lease;
  QuarantineRecord quarantine;

  [[nodiscard]] bool isRecord() const noexcept { return kind >= Kind::Shard; }

  /// Decode `text`: the shard decoder first (every shard line this store
  /// writes is canonical), then the generic parser, `v` and `kind`, and the
  /// kind's own rules.
  Kind decode(std::string_view text) {
    if (detail::decodeShardLine(text, shard)) return kind = Kind::Shard;
    const std::optional<util::Json> record = util::Json::parse(text);
    if (!record) return kind = Kind::Unparseable;
    const util::Json* field = record->find("kind");
    if (getUint(*record, "v", 0) != kFormatVersion || field == nullptr) {
      return kind = Kind::UnknownKind;
    }
    const std::string_view name = field->asString();
    bool valid = false;
    if (name == "shard") {
      kind = Kind::Shard;
      valid = detail::parseShardRecord(*record, shard);
    } else if (name == "workload") {
      kind = Kind::Workload;
      valid = parseWorkloadRecord(*record, workload);
    } else if (name == "cell") {
      kind = Kind::Cell;
      valid = parseCellRecord(*record, cell);
    } else if (name == "lease") {
      kind = Kind::Lease;
      valid = parseLeaseRecord(*record, key, lease);
    } else if (name == "quarantine") {
      kind = Kind::Quarantine;
      valid = parseQuarantineRecord(*record, key, quarantine);
    } else {
      return kind = Kind::UnknownKind;
    }
    if (!valid) kind = Kind::Invalid;
    return kind;
  }

  /// The identity of the decoded record (isRecord() only).
  [[nodiscard]] Identity identity() const {
    switch (kind) {
      case Kind::Shard: return {kind, shard.key, shard.first, shard.count, {}};
      case Kind::Workload: return {kind, 0, 0, 0, workload.name};
      case Kind::Cell: return {kind, cell.key, 0, 0, {}};
      case Kind::Lease: return {kind, key, lease.first, lease.count, {}};
      default: return {kind, key, quarantine.first, quarantine.count, {}};
    }
  }

  /// The per-kind record count of a LoadStats or CompactStats.
  template <class Stats>
  static std::size_t& records(Stats& stats, Kind kind) {
    switch (kind) {
      case Kind::Shard: return stats.shardRecords;
      case Kind::Workload: return stats.workloadRecords;
      case Kind::Cell: return stats.cellRecords;
      case Kind::Lease: return stats.leaseRecords;
      default: return stats.quarantineRecords;
    }
  }
};

CampaignStore::LoadStats CampaignStore::load() {
  OptionalLockGuard fileGuard(fileLock_.get());
  std::lock_guard lock(mutex_);
  clearIndex();
  return readInto(0, /*consumeTail=*/true);
}

CampaignStore::LoadStats CampaignStore::refresh() {
  OptionalLockGuard fileGuard(fileLock_.get());
  std::lock_guard lock(mutex_);
  // A file smaller than the resume point was rewritten underneath us
  // (compacted): the offset is meaningless, so re-read from scratch.
  if (fileSizeOf(path_) < readOffset_) {
    clearIndex();
    return readInto(0, /*consumeTail=*/false);
  }
  return readInto(readOffset_, /*consumeTail=*/false);
}

void CampaignStore::clearIndex() {
  shards_.clear();
  metas_.clear();
  workloads_.clear();
  cellOrder_.clear();
  cellIndex_.clear();
  leases_.clear();
  quarantines_.clear();
  readOffset_ = 0;
}

CampaignStore::LoadStats CampaignStore::readInto(std::uint64_t offset,
                                                 bool consumeTail) {
  LoadStats stats;
  Line line;
  const util::JsonlReadStats read = util::readLinesFrom(
      path_, offset, consumeTail, [&](std::string_view text) {
        switch (line.decode(text)) {
          case Line::Kind::Unparseable: return false;  // counted below
          case Line::Kind::UnknownKind:
            ++stats.unknownKinds;  // possibly a future format
            [[fallthrough]];
          case Line::Kind::Invalid: ++stats.malformed; return true;
          default: break;
        }
        if (index(line)) {
          ++Line::records(stats, line.kind);
        } else {
          ++stats.duplicates;
        }
        return true;
      });
  stats.malformed += read.malformed;  // unparseable lines
  readOffset_ = read.endOffset;
  return stats;
}

bool CampaignStore::index(const Line& line) {
  switch (line.kind) {
    case Line::Kind::Shard:
      metas_.try_emplace(line.shard.key, line.shard.meta);
      return keep(shards_[line.shard.key],
                  ShardRange{line.shard.first, line.shard.count},
                  line.shard.agg);
    case Line::Kind::Workload:
      return keep(workloads_, line.workload.name, line.workload);
    case Line::Kind::Cell: return indexCell(line.cell);
    case Line::Kind::Lease:
      return keep(leases_[line.key],
                  ShardRange{line.lease.first, line.lease.count}, line.lease);
    case Line::Kind::Quarantine:
      return keep(quarantines_[line.key],
                  ShardRange{line.quarantine.first, line.quarantine.count},
                  line.quarantine);
    default: return false;
  }
}

bool CampaignStore::indexCell(const CellRecord& record) {
  const auto [it, inserted] =
      cellIndex_.try_emplace(record.key, cellOrder_.size());
  if (inserted) cellOrder_.push_back(record);
  return inserted || supersede(cellOrder_[it->second], record);
}

std::optional<CampaignStore::CompactStats> CampaignStore::compact(
    const std::string& path, std::uint64_t nowMs) {
  const RawLines raw = readRawLines(path);  // a missing file: empty
  // `live` indexes every line by the keep rules, as load() does. Each
  // identity keeps the slot of its first line, and the slot holds the line
  // of the record `live` holds for it.
  constexpr std::size_t kDropped = ~std::size_t{0};
  CampaignStore live(path);
  Line line;
  std::map<Line::Identity, std::size_t> slotOf;
  std::vector<std::size_t> slots;  ///< line index per slot, or kDropped
  CompactStats seen;               ///< valid record lines per kind
  CompactStats stats;
  for (std::size_t i = 0; i < raw.lines.size(); ++i) {
    line.decode(raw.lines[i]);
    if (!line.isRecord()) {
      ++stats.droppedMalformed;  // torn, unparseable, invalid, unknown
      continue;
    }
    ++Line::records(seen, line.kind);
    if (!live.index(line)) continue;  // the held record stays
    const auto [it, inserted] =
        slotOf.try_emplace(line.identity(), slots.size());
    if (inserted) {
      slots.push_back(i);
    } else {
      slots[it->second] = i;
    }
  }
  // A lease is done once a shard record covers its range, and abandoned
  // once past its heartbeat deadline (when the caller supplied a clock); a
  // quarantine is moot once a shard record covers its range (a --force
  // pass, or a fixed workload). Such survivors drop too.
  for (const auto& [id, slot] : slotOf) {
    const auto& [kind, key, first, count, name] = id;
    const bool ranged = kind == Line::Kind::Lease ||
                        kind == Line::Kind::Quarantine;
    const bool done = ranged && live.findShard(key, first, count) != nullptr;
    const bool expired = kind == Line::Kind::Lease && nowMs != 0 &&
                         live.latestLease(key, first, count)->deadlineMs <=
                             nowMs;
    if (done || expired) {
      slots[slot] = kDropped;
    } else {
      ++Line::records(stats, kind);
    }
  }
  stats.droppedDuplicates = seen.shardRecords - stats.shardRecords +
                            seen.workloadRecords - stats.workloadRecords +
                            seen.cellRecords - stats.cellRecords;
  stats.droppedLeases = seen.leaseRecords - stats.leaseRecords;
  stats.droppedQuarantines = seen.quarantineRecords - stats.quarantineRecords;
  // Already compact (including the missing-file case): leave the file
  // byte-identical instead of rewriting it.
  if (stats.droppedDuplicates == 0 && stats.droppedMalformed == 0 &&
      stats.droppedLeases == 0 && stats.droppedQuarantines == 0) {
    return stats;
  }
  std::vector<const std::string*> survivors;
  for (const std::size_t i : slots) {
    if (i != kDropped) survivors.push_back(&raw.lines[i]);
  }
  if (!rewriteStore(path, ".compact.tmp", survivors)) return std::nullopt;
  stats.rewritten = true;
  return stats;
}

std::optional<CampaignStore::FsckStats> CampaignStore::fsck(
    const std::string& path, bool repair) {
  FsckStats stats;
  const RawLines raw = readRawLines(path);  // a missing file: clean, empty
  // Only a shard identity must be unique: its bytes are fixed by the
  // determinism contract. Scheduling kinds (cell/lease/quarantine/workload)
  // are legitimately re-appended with new content, so every one of their
  // lines is kept and none can "conflict".
  CampaignStore live(path);
  Line line;
  std::map<Line::Identity, std::size_t> heldAt;  ///< shard → its held line
  std::vector<const std::string*> kept;
  std::vector<const std::string*> quarantined;  ///< sidecar-bound
  for (std::size_t i = 0; i < raw.lines.size(); ++i) {
    const std::string& text = raw.lines[i];
    switch (line.decode(text)) {
      case Line::Kind::Unparseable:
        // The unterminated final line is the classic torn write of a killed
        // process; anything earlier is real mid-file damage.
        ++(i + 1 == raw.lines.size() && raw.tornTail ? stats.tornTail
                                                     : stats.garbage);
        quarantined.push_back(&text);
        continue;
      case Line::Kind::UnknownKind:
        ++stats.unknownKinds;  // possibly a future format: preserve verbatim
        kept.push_back(&text);
        continue;
      case Line::Kind::Invalid:
        // Parses as JSON but fails the kind's rules — a mangled (e.g.
        // byte-flipped) record. load() skips it; repair quarantines it.
        ++stats.integrityFailures;
        quarantined.push_back(&text);
        continue;
      default: break;
    }
    if (line.kind == Line::Kind::Shard) {
      if (live.index(line)) {
        heldAt.emplace(line.identity(), i);
      } else if (raw.lines[heldAt.at(line.identity())] == text) {
        ++stats.duplicateLines;  // benign cross-process re-record
        continue;
      } else {
        // Same identity, different bytes: the determinism contract says
        // this cannot happen to an intact store. The keep rule holds the
        // first record (what load() indexes); the imposter is quarantined.
        ++stats.conflicts;
        quarantined.push_back(&text);
        continue;
      }
    }
    ++stats.validRecords;
    kept.push_back(&text);
  }
  stats.quarantinedLines = quarantined.size();

  if (!repair || stats.clean()) return stats;

  // Quarantine sidecar first (append — successive fscks accumulate), then
  // the crash-safe rewrite, surviving lines byte-identical.
  if (!quarantined.empty() &&
      !writeRawLines(path + ".quarantined", "ab", quarantined)) {
    return std::nullopt;
  }
  if (!rewriteStore(path, ".fsck.tmp", kept)) return std::nullopt;
  stats.rewritten = true;
  return stats;
}

bool CampaignStore::writeLine(std::string_view line) {
  // Callers hold mutex_ (and, in Atomic mode, the file lock — taken first).
  bool ok = false;
  int err = 0;
  if (mode_ == WriteMode::Atomic) {
    if (appender_ == nullptr) {
      appender_ = std::make_unique<util::AtomicAppend>(path_);
    }
    ok = appender_->appendLine(line);
    err = appender_->lastErrno();
  } else {
    if (writer_ == nullptr) {
      writer_ = std::make_unique<util::JsonlWriter>(path_);
    }
    ok = writer_->writeLine(line);
    err = writer_->lastErrno();
  }
  lastWriteErrno_.store(ok ? 0 : err, std::memory_order_relaxed);
  return ok;
}

bool CampaignStore::lastWriteOutOfSpace() const noexcept {
  const int err = lastWriteErrno_.load(std::memory_order_relaxed);
#if defined(EDQUOT)
  return err == ENOSPC || err == EDQUOT;
#else
  return err == ENOSPC;
#endif
}

bool CampaignStore::appendShard(const CampaignMeta& meta,
                                std::size_t shardIndex,
                                std::size_t firstExperiment,
                                std::size_t experimentCount,
                                const ShardAggregate& aggregate) {
  OptionalLockGuard fileGuard(fileLock_.get());
  std::lock_guard lock(mutex_);
  // Known already (loaded from disk or appended via this instance): the
  // record on file is identical by the determinism contract — skip the
  // write so record-only reruns keep the store canonical.
  const auto campaign = shards_.find(meta.key);
  if (campaign != shards_.end() &&
      campaign->second.count({firstExperiment, experimentCount}) != 0) {
    return true;
  }
  lineBuffer_.clear();
  detail::encodeShardLine(lineBuffer_, meta, shardIndex, firstExperiment,
                          experimentCount, aggregate);
  if (!writeLine(lineBuffer_)) return false;
  metas_.try_emplace(meta.key, meta);
  keep(shards_[meta.key], ShardRange{firstExperiment, experimentCount},
       aggregate);
  return true;
}

bool CampaignStore::appendWorkload(const WorkloadRecord& rec) {
  util::Json record = util::Json::object();
  record.set("v", util::Json::number(kFormatVersion));
  record.set("kind", util::Json::string("workload"));
  record.set("name", util::Json::string(rec.name));
  record.set("suite", util::Json::string(rec.suite));
  record.set("package", util::Json::string(rec.package));
  record.set("src_hash", util::Json::string(hex64(rec.sourceHash)));
  record.set("minic_loc", util::Json::number(rec.minicLoc));
  record.set("ir_instrs", util::Json::number(rec.irInstrs));
  record.set("dyn_instrs", util::Json::number(rec.dynInstrs));
  record.set("cand_read", util::Json::number(rec.candRead));
  record.set("cand_write", util::Json::number(rec.candWrite));
  record.set("cand_store", util::Json::number(rec.candStore));

  OptionalLockGuard fileGuard(fileLock_.get());
  std::lock_guard lock(mutex_);
  const auto existing = workloads_.find(rec.name);
  if (existing != workloads_.end() && existing->second == rec) {
    return true;  // identical record already on file
  }
  if (!writeLine(record.dump())) return false;
  keep(workloads_, rec.name, rec);
  return true;
}

bool CampaignStore::appendCell(const CellRecord& rec) {
  if (rec.experiments == 0 || rec.shardSize == 0 || rec.workload.empty() ||
      rec.spec.empty() || rec.flipWidth == 0 || rec.flipWidth > 64) {
    return false;  // a worker could not reconstruct this cell
  }
  const util::Json record = cellToJson(rec);
  OptionalLockGuard fileGuard(fileLock_.get());
  std::lock_guard lock(mutex_);
  const auto it = cellIndex_.find(rec.key);
  if (it != cellIndex_.end() && cellOrder_[it->second] == rec) {
    return true;  // identical submission already on file
  }
  if (!writeLine(record.dump())) return false;
  indexCell(rec);
  return true;
}

bool CampaignStore::appendLease(std::uint64_t key, const LeaseRecord& rec) {
  if (rec.count == 0 || rec.epoch == 0 || rec.worker.empty()) return false;
  const util::Json record = leaseToJson(key, rec);
  OptionalLockGuard fileGuard(fileLock_.get());
  std::lock_guard lock(mutex_);
  const auto ranges = leases_.find(key);
  if (ranges != leases_.end()) {
    const auto it = ranges->second.find(ShardRange{rec.first, rec.count});
    if (it != ranges->second.end() && it->second == rec) {
      return true;  // identical lease already the live one
    }
  }
  if (!writeLine(record.dump())) return false;
  keep(leases_[key], ShardRange{rec.first, rec.count}, rec);
  return true;
}

bool CampaignStore::appendQuarantine(std::uint64_t key,
                                     const QuarantineRecord& rec) {
  if (rec.count == 0) return false;
  const util::Json record = quarantineToJson(key, rec);
  OptionalLockGuard fileGuard(fileLock_.get());
  std::lock_guard lock(mutex_);
  const auto ranges = quarantines_.find(key);
  if (ranges != quarantines_.end()) {
    const auto it = ranges->second.find(ShardRange{rec.first, rec.count});
    if (it != ranges->second.end() && it->second == rec) {
      return true;  // identical verdict already the live one
    }
  }
  if (!writeLine(record.dump())) return false;
  keep(quarantines_[key], ShardRange{rec.first, rec.count}, rec);
  return true;
}

std::optional<CampaignStore::QuarantineRecord> CampaignStore::findQuarantine(
    std::uint64_t key, std::size_t first, std::size_t count) const {
  std::lock_guard lock(mutex_);
  const auto ranges = quarantines_.find(key);
  if (ranges == quarantines_.end()) return std::nullopt;
  const auto it = ranges->second.find(ShardRange{first, count});
  if (it == ranges->second.end()) return std::nullopt;
  return it->second;
}

void CampaignStore::forEachQuarantine(
    std::uint64_t key,
    const std::function<void(const QuarantineRecord&)>& fn) const {
  std::lock_guard lock(mutex_);
  const auto ranges = quarantines_.find(key);
  if (ranges == quarantines_.end()) return;
  for (const auto& [range, rec] : ranges->second) fn(rec);
}

const CampaignStore::CellRecord* CampaignStore::findCell(
    std::uint64_t key) const {
  std::lock_guard lock(mutex_);
  const auto it = cellIndex_.find(key);
  return it != cellIndex_.end() ? &cellOrder_[it->second] : nullptr;
}

std::vector<CampaignStore::CellRecord> CampaignStore::cells() const {
  std::lock_guard lock(mutex_);
  return cellOrder_;
}

std::optional<CampaignStore::LeaseRecord> CampaignStore::latestLease(
    std::uint64_t key, std::size_t first, std::size_t count) const {
  std::lock_guard lock(mutex_);
  const auto ranges = leases_.find(key);
  if (ranges == leases_.end()) return std::nullopt;
  const auto it = ranges->second.find(ShardRange{first, count});
  if (it == ranges->second.end()) return std::nullopt;
  return it->second;
}

void CampaignStore::forEachLease(
    std::uint64_t key,
    const std::function<void(const LeaseRecord&)>& fn) const {
  std::lock_guard lock(mutex_);
  const auto ranges = leases_.find(key);
  if (ranges == leases_.end()) return;
  for (const auto& [range, rec] : ranges->second) fn(rec);
}

const CampaignStore::ShardAggregate* CampaignStore::findShard(
    std::uint64_t key, std::size_t firstExperiment,
    std::size_t experimentCount) const {
  std::lock_guard lock(mutex_);
  const auto campaign = shards_.find(key);
  if (campaign == shards_.end()) return nullptr;
  const auto shard =
      campaign->second.find(ShardRange{firstExperiment, experimentCount});
  return shard != campaign->second.end() ? &shard->second : nullptr;
}

std::size_t CampaignStore::recordedExperiments(std::uint64_t key) const {
  std::lock_guard lock(mutex_);
  const auto campaign = shards_.find(key);
  if (campaign == shards_.end()) return 0;
  std::size_t total = 0;
  for (const auto& [range, agg] : campaign->second) total += range.second;
  return total;
}

const CampaignStore::WorkloadRecord* CampaignStore::findWorkload(
    std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = workloads_.find(name);
  return it != workloads_.end() ? &it->second : nullptr;
}

CampaignStore::Snapshot CampaignStore::snapshot() const {
  // One mutex acquisition, full copy: Snapshot consumers hold nothing of the
  // store afterwards (see the Snapshot doc comment). The file lock is NOT
  // taken — this reads the in-memory index only, so it can never contend
  // with other processes appending to a shared fleet store.
  std::lock_guard lock(mutex_);
  Snapshot snap;
  for (const auto& [key, ranges] : shards_) {
    Snapshot::Campaign& c = snap.campaigns[key];
    c.meta.key = key;
    c.shards = ranges;
  }
  for (const auto& [key, meta] : metas_) {
    snap.campaigns[key].meta = meta;
  }
  for (const CellRecord& cell : cellOrder_) {
    Snapshot::Campaign& c = snap.campaigns[cell.key];
    c.meta.key = cell.key;
    c.cell = cell;
  }
  for (const auto& [key, ranges] : leases_) {
    Snapshot::Campaign& c = snap.campaigns[key];
    c.meta.key = key;
    c.leases = ranges;
  }
  for (const auto& [key, ranges] : quarantines_) {
    Snapshot::Campaign& c = snap.campaigns[key];
    c.meta.key = key;
    c.quarantines = ranges;
  }
  snap.workloads = workloads_;
  return snap;
}

}  // namespace onebit::fi
