#include "fi/campaign_store.hpp"

#include <cerrno>
#include <cstdio>
#include <tuple>

#include "fi/shard_line.hpp"
#include "util/rng.hpp"

namespace onebit::fi {

namespace {

using detail::getUint;
using detail::hex64;
using detail::parseHex64;
using detail::ParsedShard;

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

/// Decode a "workload" record (only the name is mandatory).
bool parseWorkloadRecord(const util::Json& record,
                         CampaignStore::WorkloadRecord& rec) {
  const util::Json* name = record.find("name");
  if (name == nullptr || name->asString().empty()) return false;
  rec.name = std::string(name->asString());
  if (const util::Json* f = record.find("suite")) {
    rec.suite = std::string(f->asString());
  }
  if (const util::Json* f = record.find("package")) {
    rec.package = std::string(f->asString());
  }
  if (const util::Json* f = record.find("src_hash")) {
    rec.sourceHash = parseHex64(f->asString()).value_or(0);
  }
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
  const util::Json* keyField = record.find("key");
  const std::optional<std::uint64_t> key =
      keyField != nullptr ? parseHex64(keyField->asString()) : std::nullopt;
  const util::Json* name = record.find("workload");
  const util::Json* spec = record.find("spec");
  const util::Json* seedField = record.find("seed");
  const std::optional<std::uint64_t> seed =
      seedField != nullptr ? parseHex64(seedField->asString()) : std::nullopt;
  const std::uint64_t bad = ~0ULL;
  const std::uint64_t flipWidth = getUint(record, "flip_width", bad);
  const std::uint64_t experiments = getUint(record, "experiments", bad);
  const std::uint64_t shardSize = getUint(record, "shard_size", bad);
  if (!key || !seed || name == nullptr || name->asString().empty() ||
      spec == nullptr || spec->asString().empty() || flipWidth == 0 ||
      flipWidth > 64 || experiments == 0 || experiments == bad ||
      shardSize == 0 || shardSize == bad) {
    return false;
  }
  rec.key = *key;
  rec.workload = std::string(name->asString());
  rec.spec = std::string(spec->asString());
  rec.flipWidth = static_cast<unsigned>(flipWidth);
  rec.experiments = static_cast<std::size_t>(experiments);
  rec.seed = *seed;
  rec.shardSize = static_cast<std::size_t>(shardSize);
  rec.hangFactor = getUint(record, "hang_factor", 0);
  rec.dynInstrs = getUint(record, "dyn_instrs", 0);
  return true;
}

/// One decoded-and-validated lease record (shared by load and compact).
struct ParsedLease {
  std::uint64_t key = 0;
  CampaignStore::LeaseRecord rec;
};

bool parseLeaseRecord(const util::Json& record, ParsedLease& out) {
  const util::Json* keyField = record.find("key");
  const std::optional<std::uint64_t> key =
      keyField != nullptr ? parseHex64(keyField->asString()) : std::nullopt;
  const util::Json* worker = record.find("worker");
  const std::uint64_t bad = ~0ULL;
  const std::uint64_t first = getUint(record, "first", bad);
  const std::uint64_t count = getUint(record, "count", bad);
  const std::uint64_t epoch = getUint(record, "epoch", bad);
  const std::uint64_t deadline = getUint(record, "deadline", bad);
  if (!key || worker == nullptr || worker->asString().empty() ||
      first == bad || count == 0 || count == bad || epoch == 0 ||
      epoch == bad || deadline == bad) {
    return false;
  }
  out.key = *key;
  out.rec.first = static_cast<std::size_t>(first);
  out.rec.count = static_cast<std::size_t>(count);
  out.rec.worker = std::string(worker->asString());
  out.rec.epoch = epoch;
  out.rec.deadlineMs = deadline;
  out.rec.costMs = getUint(record, "cost_ms", 0);  // optional: completions
  return true;
}

/// One decoded-and-validated quarantine record (shared by load and compact).
struct ParsedQuarantine {
  std::uint64_t key = 0;
  CampaignStore::QuarantineRecord rec;
};

bool parseQuarantineRecord(const util::Json& record, ParsedQuarantine& out) {
  const util::Json* keyField = record.find("key");
  const std::optional<std::uint64_t> key =
      keyField != nullptr ? parseHex64(keyField->asString()) : std::nullopt;
  const std::uint64_t bad = ~0ULL;
  const std::uint64_t first = getUint(record, "first", bad);
  const std::uint64_t count = getUint(record, "count", bad);
  if (!key || first == bad || count == 0 || count == bad) return false;
  out.key = *key;
  out.rec.first = static_cast<std::size_t>(first);
  out.rec.count = static_cast<std::size_t>(count);
  out.rec.crashes = getUint(record, "crashes", 0);
  if (const util::Json* f = record.find("worker")) {
    out.rec.worker = std::string(f->asString());
  }
  if (const util::Json* f = record.find("reason")) {
    out.rec.reason = std::string(f->asString());
  }
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

}  // namespace

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
  // Re-indexing is idempotent (first-wins shards, newest-wins the rest).
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
  ParsedShard shard;  // reused across lines: its strings keep their capacity
  const auto indexParsedShard = [&] {
    metas_.try_emplace(shard.key, shard.meta);
    if (indexShard(shard.key, {shard.first, shard.count}, shard.agg)) {
      ++stats.shardRecords;
    } else {
      ++stats.duplicates;
    }
  };
  const util::JsonlReadStats read = util::readLinesFrom(
      path_, offset, consumeTail, [&](std::string_view line) {
        // Canonical shard lines — every one this store writes — skip the
        // tree; the decoder declines everything else.
        if (detail::decodeShardLine(line, shard)) {
          indexParsedShard();
          return true;
        }
        const std::optional<util::Json> parsed = util::Json::parse(line);
        if (!parsed) return false;
        const util::Json& record = *parsed;
        const std::uint64_t v = getUint(record, "v", 0);
        const util::Json* kind = record.find("kind");
        if (v != kFormatVersion || kind == nullptr) {
          ++stats.malformed;
          ++stats.unknownKinds;  // foreign version: possibly a future format
          return true;
        }
        if (kind->asString() == "shard") {
          if (!detail::parseShardRecord(record, shard)) {
            ++stats.malformed;
            return true;
          }
          indexParsedShard();
          return true;
        }
        if (kind->asString() == "workload") {
          WorkloadRecord rec;
          if (!parseWorkloadRecord(record, rec)) {
            ++stats.malformed;
            return true;
          }
          workloads_.insert_or_assign(rec.name, std::move(rec));
          ++stats.workloadRecords;
          return true;
        }
        if (kind->asString() == "cell") {
          CellRecord rec;
          if (!parseCellRecord(record, rec)) {
            ++stats.malformed;
            return true;
          }
          if (indexCell(rec)) {
            ++stats.cellRecords;
          } else {
            ++stats.duplicates;
          }
          return true;
        }
        if (kind->asString() == "lease") {
          ParsedLease lease;
          if (!parseLeaseRecord(record, lease)) {
            ++stats.malformed;
            return true;
          }
          if (indexLease(lease.key, lease.rec)) {
            ++stats.leaseRecords;
          } else {
            ++stats.duplicates;
          }
          return true;
        }
        if (kind->asString() == "quarantine") {
          ParsedQuarantine quarantine;
          if (!parseQuarantineRecord(record, quarantine)) {
            ++stats.malformed;
            return true;
          }
          if (indexQuarantine(quarantine.key, quarantine.rec)) {
            ++stats.quarantineRecords;
          } else {
            ++stats.duplicates;
          }
          return true;
        }
        ++stats.malformed;  // unknown record kind
        ++stats.unknownKinds;
        return true;
      });
  stats.malformed += read.malformed;  // unparseable lines
  readOffset_ = read.endOffset;
  return stats;
}

std::optional<CampaignStore::CompactStats> CampaignStore::compact(
    const std::string& path, std::uint64_t nowMs) {
  CompactStats stats;
  // Collect the surviving records in first-seen identity order, newest
  // content winning per identity — duplicates carry identical aggregates by
  // the determinism contract, so "newest" only matters for records written
  // by different semantics versions, which hash to different keys anyway.
  std::vector<util::Json> kept;
  std::map<std::pair<std::uint64_t, std::pair<std::size_t, std::size_t>>,
           std::size_t>
      shardAt;
  std::map<std::string, std::size_t, std::less<>> workloadAt;
  std::map<std::uint64_t, std::size_t> cellAt;
  // Newest lease per (key, range); whether it survives is decided AFTER the
  // scan, when every shard record is known (a superseding shard may appear
  // later in the file than the lease it supersedes).
  std::map<std::pair<std::uint64_t, std::pair<std::size_t, std::size_t>>,
           std::size_t>
      leaseAt;
  std::map<std::size_t, ParsedLease> leaseBody;  ///< kept index → decoded
  // Newest quarantine per (key, range); like leases, survival is decided
  // after the scan (a shard record anywhere in the file supersedes it).
  std::map<std::pair<std::uint64_t, std::pair<std::size_t, std::size_t>>,
           std::size_t>
      quarantineAt;
  std::map<std::size_t, ParsedQuarantine> quarantineBody;
  const util::JsonlReadStats read =
      util::readJsonl(path, [&](util::Json&& record) {
        const std::uint64_t v = getUint(record, "v", 0);
        const util::Json* kind = record.find("kind");
        if (v != kFormatVersion || kind == nullptr) {
          ++stats.droppedMalformed;
          return;
        }
        if (kind->asString() == "shard") {
          ParsedShard shard;
          if (!detail::parseShardRecord(record, shard)) {
            ++stats.droppedMalformed;
            return;
          }
          const auto [it, inserted] = shardAt.try_emplace(
              {shard.key, {shard.first, shard.count}}, kept.size());
          if (inserted) {
            kept.push_back(std::move(record));
          } else {
            kept[it->second] = std::move(record);
            ++stats.droppedDuplicates;
          }
          return;
        }
        if (kind->asString() == "workload") {
          WorkloadRecord rec;
          if (!parseWorkloadRecord(record, rec)) {
            ++stats.droppedMalformed;
            return;
          }
          const auto [it, inserted] =
              workloadAt.try_emplace(rec.name, kept.size());
          if (inserted) {
            kept.push_back(std::move(record));
          } else {
            kept[it->second] = std::move(record);
            ++stats.droppedDuplicates;
          }
          return;
        }
        if (kind->asString() == "cell") {
          CellRecord rec;
          if (!parseCellRecord(record, rec)) {
            ++stats.droppedMalformed;
            return;
          }
          const auto [it, inserted] = cellAt.try_emplace(rec.key,
                                                         kept.size());
          if (inserted) {
            kept.push_back(std::move(record));
          } else {
            kept[it->second] = std::move(record);
            ++stats.droppedDuplicates;
          }
          return;
        }
        if (kind->asString() == "lease") {
          ParsedLease lease;
          if (!parseLeaseRecord(record, lease)) {
            ++stats.droppedMalformed;
            return;
          }
          const auto [it, inserted] = leaseAt.try_emplace(
              {lease.key, {lease.rec.first, lease.rec.count}}, kept.size());
          if (inserted) {
            leaseBody.emplace(kept.size(), std::move(lease));
            kept.push_back(std::move(record));
          } else if (lease.rec.epoch >= leaseBody.at(it->second).rec.epoch) {
            // Newest wins: higher epoch, or a later renewal within one.
            kept[it->second] = std::move(record);
            leaseBody.insert_or_assign(it->second, std::move(lease));
            ++stats.droppedLeases;
          } else {
            ++stats.droppedLeases;  // stale epoch ordered late in the file
          }
          return;
        }
        if (kind->asString() == "quarantine") {
          ParsedQuarantine quarantine;
          if (!parseQuarantineRecord(record, quarantine)) {
            ++stats.droppedMalformed;
            return;
          }
          const auto [it, inserted] = quarantineAt.try_emplace(
              {quarantine.key,
               {quarantine.rec.first, quarantine.rec.count}},
              kept.size());
          if (inserted) {
            quarantineBody.emplace(kept.size(), std::move(quarantine));
            kept.push_back(std::move(record));
          } else {
            // Newest wins by file order (re-quarantines bump the count).
            kept[it->second] = std::move(record);
            quarantineBody.insert_or_assign(it->second,
                                            std::move(quarantine));
            ++stats.droppedQuarantines;
          }
          return;
        }
        ++stats.droppedMalformed;  // unknown record kind
      });
  stats.droppedMalformed += read.malformed;  // torn/unparseable lines
  // Post-filter the newest leases: one superseded by a shard record for its
  // range is done, and one past its heartbeat deadline (when the caller
  // supplied a clock) is abandoned — both drop. A dropped lease's kept slot
  // is voided in place so identity-order bookkeeping stays intact.
  for (const auto& [index, lease] : leaseBody) {
    const bool superseded =
        shardAt.count(
            {lease.key, {lease.rec.first, lease.rec.count}}) != 0;
    const bool expired = nowMs != 0 && lease.rec.deadlineMs <= nowMs;
    if (superseded || expired) {
      kept[index] = util::Json();  // null sentinel: skipped when writing
      leaseAt.erase({lease.key, {lease.rec.first, lease.rec.count}});
      ++stats.droppedLeases;
    }
  }
  // Same post-filter for quarantines: a shard record for the range proves
  // the work got finished (a --force pass, or a fixed workload), so the
  // verdict is moot.
  for (const auto& [index, quarantine] : quarantineBody) {
    if (shardAt.count({quarantine.key,
                       {quarantine.rec.first, quarantine.rec.count}}) != 0) {
      kept[index] = util::Json();
      quarantineAt.erase(
          {quarantine.key, {quarantine.rec.first, quarantine.rec.count}});
      ++stats.droppedQuarantines;
    }
  }
  stats.shardRecords = shardAt.size();
  stats.workloadRecords = workloadAt.size();
  stats.cellRecords = cellAt.size();
  stats.leaseRecords = leaseAt.size();
  stats.quarantineRecords = quarantineAt.size();
  // Already canonical (including the missing-file case): leave the file
  // byte-identical instead of rewriting it.
  if (stats.droppedDuplicates == 0 && stats.droppedMalformed == 0 &&
      stats.droppedLeases == 0 && stats.droppedQuarantines == 0) {
    return stats;
  }
  // Crash-safe rewrite: write a sibling temp file, then rename over the
  // original — a reader never observes a half-written store. Remove any
  // stale temp left by a killed compaction first: JsonlWriter opens in
  // append mode, and renaming stale-lines-plus-fresh-lines over the store
  // would reintroduce superseded records.
  const std::string tmp = path + ".compact.tmp";
  std::remove(tmp.c_str());
  {
    util::JsonlWriter writer(tmp);
    if (!writer.ok()) return std::nullopt;
    for (const util::Json& record : kept) {
      if (record.isNull()) continue;  // dropped-lease sentinel
      if (!writer.writeLine(record)) {
        std::remove(tmp.c_str());
        return std::nullopt;
      }
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return std::nullopt;
  }
  stats.rewritten = true;
  return stats;
}

namespace {

/// Raw line split of a store file, preserving bytes exactly (fsck must keep
/// surviving lines byte-identical, so it cannot round-trip through Json).
/// Empty lines — the residue of torn-tail healing — are benign and skipped.
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

}  // namespace

std::optional<CampaignStore::FsckStats> CampaignStore::fsck(
    const std::string& path, bool repair) {
  FsckStats stats;
  const RawLines raw = readRawLines(path);  // a missing file: clean, empty

  // Identity of a shard record — (key, first, count) — the one kind whose
  // bytes the determinism contract fixes given its identity. Scheduling
  // kinds (cell/lease/quarantine/workload) are legitimately re-appended
  // with new content — newest wins at load — so every one of their lines
  // is kept and none can "conflict".
  using Identity = std::tuple<std::uint64_t, std::size_t, std::size_t>;
  std::map<Identity, std::size_t> firstAt;  ///< identity → index in `kept`
  std::vector<std::size_t> kept;            ///< surviving line indices
  std::vector<std::size_t> quarantined;     ///< sidecar-bound line indices

  ParsedShard shard;
  for (std::size_t i = 0; i < raw.lines.size(); ++i) {
    const std::string& line = raw.lines[i];
    std::optional<Identity> identity;
    if (detail::decodeShardLine(line, shard)) {
      identity = Identity{shard.key, shard.first, shard.count};
    } else {
      const std::optional<util::Json> record = util::Json::parse(line);
      if (!record) {
        // Unparseable: the unterminated final line is the classic torn
        // write of a killed process; anything earlier is real mid-file
        // damage.
        if (i + 1 == raw.lines.size() && raw.tornTail) {
          ++stats.tornTail;
        } else {
          ++stats.garbage;
        }
        quarantined.push_back(i);
        continue;
      }
      const std::uint64_t v = getUint(*record, "v", 0);
      const util::Json* kind = record->find("kind");
      if (v != kFormatVersion || kind == nullptr) {
        ++stats.unknownKinds;  // possibly a future format: preserve verbatim
        kept.push_back(i);
        continue;
      }
      bool valid = false;
      if (kind->asString() == "shard") {
        valid = detail::parseShardRecord(*record, shard);
        if (valid) identity = Identity{shard.key, shard.first, shard.count};
      } else if (kind->asString() == "workload") {
        WorkloadRecord rec;
        valid = parseWorkloadRecord(*record, rec);
      } else if (kind->asString() == "cell") {
        CellRecord rec;
        valid = parseCellRecord(*record, rec);
      } else if (kind->asString() == "lease") {
        ParsedLease lease;
        valid = parseLeaseRecord(*record, lease);
      } else if (kind->asString() == "quarantine") {
        ParsedQuarantine quarantine;
        valid = parseQuarantineRecord(*record, quarantine);
      } else {
        ++stats.unknownKinds;
        kept.push_back(i);
        continue;
      }
      if (!valid) {
        // Parses as JSON but fails the kind's validation — a mangled (e.g.
        // byte-flipped) record. load() skips it; repair quarantines it.
        ++stats.integrityFailures;
        quarantined.push_back(i);
        continue;
      }
    }
    if (identity) {
      const auto [it, inserted] = firstAt.try_emplace(*identity, i);
      if (!inserted) {
        if (raw.lines[it->second] == line) {
          ++stats.duplicateLines;  // benign cross-process re-record
        } else {
          // Same identity, different bytes: the determinism contract says
          // this cannot happen to an intact store. Keep the first record
          // (what load() indexes) and quarantine the imposter.
          ++stats.conflicts;
          quarantined.push_back(i);
        }
        continue;
      }
    }
    ++stats.validRecords;
    kept.push_back(i);
  }
  stats.quarantinedLines = quarantined.size();

  if (!repair || stats.clean()) return stats;

  // Quarantine sidecar first (append — successive fscks accumulate), then
  // the crash-safe rewrite: surviving lines byte-identical, temp + rename.
  if (!quarantined.empty()) {
    std::vector<const std::string*> lines;
    lines.reserve(quarantined.size());
    for (const std::size_t i : quarantined) lines.push_back(&raw.lines[i]);
    if (!writeRawLines(path + ".quarantined", "ab", lines)) {
      return std::nullopt;
    }
  }
  const std::string tmp = path + ".fsck.tmp";
  std::remove(tmp.c_str());
  {
    std::vector<const std::string*> lines;
    lines.reserve(kept.size());
    for (const std::size_t i : kept) lines.push_back(&raw.lines[i]);
    if (!writeRawLines(tmp, "wb", lines)) {
      std::remove(tmp.c_str());
      return std::nullopt;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return std::nullopt;
  }
  stats.rewritten = true;
  return stats;
}

bool CampaignStore::indexShard(std::uint64_t key, ShardRange range,
                               ShardAggregate agg) {
  // First record wins: by the determinism contract a duplicate carries the
  // same aggregates, and keep-first makes replays of a partially-resumed
  // store idempotent.
  return shards_[key].try_emplace(range, std::move(agg)).second;
}

bool CampaignStore::indexCell(const CellRecord& record) {
  const auto [it, inserted] =
      cellIndex_.try_emplace(record.key, cellOrder_.size());
  if (inserted) {
    cellOrder_.push_back(record);
    return true;
  }
  if (cellOrder_[it->second] == record) return false;  // exact duplicate
  cellOrder_[it->second] = record;  // newest wins (scheduling metadata only)
  return true;
}

bool CampaignStore::indexLease(std::uint64_t key, const LeaseRecord& record) {
  auto& ranges = leases_[key];
  const auto it = ranges.find(ShardRange{record.first, record.count});
  if (it == ranges.end()) {
    ranges.emplace(ShardRange{record.first, record.count}, record);
    return true;
  }
  // Newest wins: a higher epoch always, a renewal within the current epoch
  // by file order (appends are time-ordered). A stale epoch is ignored.
  if (record.epoch < it->second.epoch || it->second == record) return false;
  it->second = record;
  return true;
}

bool CampaignStore::indexQuarantine(std::uint64_t key,
                                    const QuarantineRecord& record) {
  auto& ranges = quarantines_[key];
  const auto it = ranges.find(ShardRange{record.first, record.count});
  if (it == ranges.end()) {
    ranges.emplace(ShardRange{record.first, record.count}, record);
    return true;
  }
  // Newest wins by append order: a re-quarantine bumps the crash count.
  if (it->second == record) return false;
  it->second = record;
  return true;
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
  indexShard(meta.key, {firstExperiment, experimentCount}, aggregate);
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
  workloads_.insert_or_assign(rec.name, rec);
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
  indexLease(key, rec);
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
  indexQuarantine(key, rec);
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
