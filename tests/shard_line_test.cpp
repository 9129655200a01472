// The shard line codec (fi/shard_line.hpp) held to the generic path it
// shortcuts: the encoder's bytes equal the record tree's dump(), the decoder
// returns exactly what util::Json::parse + parseShardRecord return or
// declines, and under a deterministic mutation fuzz (AFL's deterministic
// stages) load() and fsck() classify every mutant line the same way, and
// compact() keeps it iff load() accepts it.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fi/campaign_store.hpp"
#include "fi/shard_line.hpp"
#include "stats/serialize.hpp"

namespace onebit::fi {
namespace {

using detail::ParsedShard;

constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();

/// One shard record as appendShard receives it.
struct Record {
  CampaignStore::CampaignMeta meta;
  std::size_t shard = 0;
  std::size_t first = 0;
  std::size_t count = 0;
  CampaignStore::ShardAggregate agg;
};

std::string hexOf(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

/// The shard record as a util::Json tree, field by field as the store built
/// it before it formatted lines directly: the reference for the encoder.
util::Json treeOf(const Record& r) {
  util::Json record = util::Json::object();
  record.set("v", util::Json::number(CampaignStore::kFormatVersion));
  record.set("kind", util::Json::string("shard"));
  record.set("key", util::Json::string(hexOf(r.meta.key)));
  if (!r.meta.workload.empty()) {
    record.set("workload", util::Json::string(r.meta.workload));
  }
  record.set("spec", util::Json::string(r.meta.specLabel));
  record.set("seed", util::Json::string(hexOf(r.meta.seed)));
  record.set("experiments", util::Json::number(
                                static_cast<std::uint64_t>(r.meta.experiments)));
  record.set("candidates", util::Json::number(r.meta.candidates));
  record.set("shard", util::Json::number(static_cast<std::uint64_t>(r.shard)));
  record.set("first", util::Json::number(static_cast<std::uint64_t>(r.first)));
  record.set("count", util::Json::number(static_cast<std::uint64_t>(r.count)));
  record.set("outcomes", stats::toJson(r.agg.counts));
  util::Json hist = util::Json::array();
  for (std::size_t o = 0; o < stats::kOutcomeCount; ++o) {
    for (std::size_t k = 0; k <= kMaxActivationBucket; ++k) {
      if (r.agg.hist[o][k] == 0) continue;
      util::Json cell = util::Json::array();
      cell.push(util::Json::number(static_cast<std::uint64_t>(o)));
      cell.push(util::Json::number(static_cast<std::uint64_t>(k)));
      cell.push(util::Json::number(
          static_cast<std::uint64_t>(r.agg.hist[o][k])));
      hist.push(std::move(cell));
    }
  }
  record.set("hist", std::move(hist));
  return record;
}

std::string encode(const Record& r) {
  std::string line;
  detail::encodeShardLine(line, r.meta, r.shard, r.first, r.count, r.agg);
  return line;
}

/// A record that passes every integrity rule: `count` experiments spread
/// over the outcomes and histogram cells by `salt`.
Record validRecord(std::string workload, std::string spec, std::uint64_t salt,
                   std::size_t count) {
  Record r;
  r.meta.key = 0x9f2d21ed01a05ce0ULL ^ (salt * 0x9e3779b97f4a7c15ULL);
  r.meta.workload = std::move(workload);
  r.meta.specLabel = std::move(spec);
  r.meta.seed = salt * 0x2545f4914f6cdd1dULL;
  r.meta.experiments = 400 + salt;
  r.meta.candidates = 1157 * (salt + 1);
  r.shard = salt % 7;
  r.first = r.shard * count;
  r.count = count;
  std::array<std::size_t, stats::kOutcomeCount> outcomes{};
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t o = (i * 3 + salt) % stats::kOutcomeCount;
    ++outcomes[o];
    ++r.agg.hist[o][(i * 7 + salt) % (kMaxActivationBucket + 1)];
  }
  r.agg.counts = stats::OutcomeCounts::fromRaw(outcomes);
  return r;
}

::testing::AssertionResult sameShard(const ParsedShard& a,
                                     const ParsedShard& b) {
  if (a.key != b.key || a.first != b.first || a.count != b.count ||
      a.agg.counts != b.agg.counts || a.agg.hist != b.agg.hist ||
      a.meta.key != b.meta.key || a.meta.workload != b.meta.workload ||
      a.meta.specLabel != b.meta.specLabel || a.meta.seed != b.meta.seed ||
      a.meta.experiments != b.meta.experiments ||
      a.meta.candidates != b.meta.candidates) {
    return ::testing::AssertionFailure() << "decoded shards differ";
  }
  return ::testing::AssertionSuccess();
}

/// The generic path: what load() did for every line before the decoder.
bool genericDecode(std::string_view line, ParsedShard& out) {
  const std::optional<util::Json> record = util::Json::parse(line);
  if (!record) return false;
  const util::Json* v = record->find("v");
  const util::Json* kind = record->find("kind");
  return v != nullptr && v->asUint() == CampaignStore::kFormatVersion &&
         kind != nullptr && kind->asString() == "shard" &&
         detail::parseShardRecord(*record, out);
}

TEST(ShardLine, EncoderWritesTheTreeDumpByteForByte) {
  std::vector<Record> records;
  records.push_back(validRecord("", "read/single", 1, 32));
  records.push_back(validRecord("qsort", "write/m=3,w=RND(2-10)", 2, 16));
  // Names the escaper must handle: quote, backslash, control bytes, DEL
  // and UTF-8 (two-, three- and four-byte sequences).
  records.push_back(validRecord(std::string("q\"u\\o\x01t\n\te\x1f\x7f", 12),
                                "sp\"ec\\\b\f\r", 3, 8));
  records.push_back(validRecord("caf\xc3\xa9 \xe2\x86\x92 \xf0\x9f\x90\x9b",
                                "mem/burst=4 \xc2\xb5", 4, 4));
  records.push_back(validRecord(std::string("nul\0byte", 8), "", 5, 1));
  {
    Record r = validRecord("max", "read/single", 6, 1);
    r.meta.key = kMax64;
    r.meta.seed = kMax64;
    r.meta.candidates = kMax64;
    r.meta.experiments = kMax64;
    r.shard = kMax64;
    r.first = kMax64;
    r.count = kMax64;
    r.agg.counts = stats::OutcomeCounts::fromRaw(
        {kMax64, kMax64, kMax64, kMax64, kMax64});
    records.push_back(r);
  }
  {
    Record r = validRecord("zero", "read/single", 7, 1);
    r.meta.key = 0;
    r.meta.seed = 0;
    r.meta.candidates = 0;
    r.meta.experiments = 0;
    r.first = 0;
    r.count = 0;
    r.agg = {};  // no histogram cell: "hist":[]
    records.push_back(r);
  }
  {
    // Every histogram cell, up to the 32-bit maximum.
    Record r = validRecord("every-cell", "write/single", 8, 1);
    for (std::size_t o = 0; o < stats::kOutcomeCount; ++o) {
      for (std::size_t k = 0; k <= kMaxActivationBucket; ++k) {
        r.agg.hist[o][k] =
            (o + k) % 3 == 0 ? 0xffffffffU
                             : static_cast<std::uint32_t>(o * 100 + k + 1);
      }
    }
    records.push_back(r);
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(encode(records[i]), treeOf(records[i]).dump()) << "record " << i;
  }
  // The encoder appends: a line after another keeps both intact.
  std::string two;
  detail::encodeShardLine(two, records[0].meta, records[0].shard,
                          records[0].first, records[0].count, records[0].agg);
  detail::encodeShardLine(two, records[1].meta, records[1].shard,
                          records[1].first, records[1].count, records[1].agg);
  EXPECT_EQ(two, encode(records[0]) + encode(records[1]));
}

TEST(ShardLine, DecoderInvertsTheEncoderOrDefersToTheGenericPath) {
  const std::vector<Record> records = {
      validRecord("", "read/single", 1, 32),
      validRecord("qsort", "write/m=3,w=RND(2-10)", 2, 16),
      validRecord("caf\xc3\xa9 \x7f", "mem/burst=4", 3, 9),
      validRecord("esc\"aped", "read/single", 4, 2),  // decoder declines
      validRecord("ctl\x01", "read/single", 5, 2),    // decoder declines
  };
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    const std::string line = encode(r);
    ParsedShard slow;
    ASSERT_TRUE(genericDecode(line, slow)) << line;
    EXPECT_EQ(slow.meta.workload, r.meta.workload);
    EXPECT_EQ(slow.agg.hist, r.agg.hist);
    ParsedShard fast;
    const bool escaped = i >= 3;
    ASSERT_EQ(detail::decodeShardLine(line, fast), !escaped) << line;
    if (!escaped) {
      EXPECT_TRUE(sameShard(fast, slow)) << line;
    }
  }

  // Valid JSON in another layout: the decoder declines, the generic path
  // still accepts (or rejects) it on its own.
  const std::string canonical = encode(records[1]);
  const std::vector<std::string> foreign = {
      canonical + " ",                                        // whitespace
      "{\"kind\":\"shard\",\"v\":1," + canonical.substr(22),  // key order
      canonical.substr(0, canonical.size() - 1) + ",\"x\":1}",  // extra key
      "{\"v\":1,\"v\":1," + canonical.substr(7),             // duplicate key
      std::string("{\"v\":1.0") + canonical.substr(6),        // 1.0
      std::string("{\"v\":01") + canonical.substr(6),         // leading zero
  };
  for (const std::string& line : foreign) {
    ParsedShard fast;
    EXPECT_FALSE(detail::decodeShardLine(line, fast)) << line;
  }
  ParsedShard slow;
  EXPECT_TRUE(genericDecode(foreign[0], slow));
  EXPECT_TRUE(genericDecode(foreign[1], slow));
  EXPECT_TRUE(genericDecode(foreign[2], slow));
  EXPECT_TRUE(genericDecode(foreign[4], slow));
  // An empty workload is written by omission; "workload":"" is foreign.
  std::string emptyName = encode(records[0]);
  emptyName.insert(emptyName.find(",\"spec\""), ",\"workload\":\"\"");
  ParsedShard fast;
  EXPECT_FALSE(detail::decodeShardLine(emptyName, fast));
  ASSERT_TRUE(genericDecode(emptyName, slow));
  EXPECT_EQ(slow.meta.workload, "");
}

TEST(ShardLine, IntegrityFailuresFailBothPaths) {
  // Each line is canonical in layout but breaks one integrity rule.
  Record base = validRecord("w", "read/single", 3, 4);
  std::vector<Record> bad;
  {
    Record r = base;  // range past the campaign
    r.first = r.meta.experiments - 1;
    bad.push_back(r);
  }
  {
    Record r = base;  // outcomes do not tally count
    r.agg.counts = stats::OutcomeCounts::fromRaw({4, 1, 0, 0, 0});
    bad.push_back(r);
  }
  {
    Record r = base;  // hist does not tally count
    r.agg.hist[0][0] += 1;
    bad.push_back(r);
  }
  {
    Record r = base;  // first + count wraps 2^64
    r.first = kMax64 - 1;
    r.meta.experiments = 10;
    bad.push_back(r);
  }
  {
    Record r = base;  // an empty shard
    r.count = 0;
    r.agg = {};
    bad.push_back(r);
  }
  {
    Record r = base;  // 2^64 - 1 is the generic path's "absent"
    r.meta.experiments = kMax64;
    bad.push_back(r);
  }
  for (const Record& r : bad) {
    const std::string line = encode(r);
    ParsedShard out;
    EXPECT_FALSE(detail::decodeShardLine(line, out)) << line;
    EXPECT_FALSE(genericDecode(line, out)) << line;
  }
  // Hist cells out of range or above 32 bits, by hand.
  const std::string line = encode(base);
  const std::size_t hist = line.find("\"hist\":[") + 8;
  for (const char* cell :
       {"[5,0,1],", "[0,32,1],", "[0,0,4294967296],", "[0,0,0],"}) {
    std::string mutant = line;
    mutant.insert(hist, cell);
    ParsedShard out;
    EXPECT_FALSE(detail::decodeShardLine(mutant, out)) << mutant;
    EXPECT_FALSE(genericDecode(mutant, out)) << mutant;
  }
}

std::string slurp(const std::string& path) {
  std::string bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

/// `line` is not a record on any path: the decoder and the generic path
/// reject it, load() counts it malformed, and fsck an integrity failure.
void expectIntegrityFailureEverywhere(const std::string& line) {
  ParsedShard out;
  EXPECT_FALSE(detail::decodeShardLine(line, out)) << line;
  EXPECT_FALSE(genericDecode(line, out)) << line;
  const std::string path = ::testing::TempDir() + "shard_line_integrity_" +
                           std::to_string(::getpid()) + ".jsonl";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs((line + "\n").c_str(), f);
  std::fclose(f);
  CampaignStore store(path);
  const CampaignStore::LoadStats load = store.load();
  EXPECT_EQ(load.shardRecords, 0u);
  EXPECT_EQ(load.malformed, 1u);
  EXPECT_EQ(load.unknownKinds, 0u);
  const std::optional<CampaignStore::FsckStats> fsck =
      CampaignStore::fsck(path, /*repair=*/false);
  ASSERT_TRUE(fsck.has_value());
  EXPECT_EQ(fsck->integrityFailures, 1u);
  EXPECT_EQ(fsck->validRecords, 0u);
  EXPECT_TRUE(fsck->corrupt());
  std::remove(path.c_str());
}

TEST(ShardLine, OutcomesSummingToCountOnlyModulo2To64FailEveryPath) {
  // 2^64 - 2 + 3 wraps to 1, the count: each outcome must fit in what is
  // left of the count, or a resume would merge a Benign count of 2^64 - 2.
  Record r = validRecord("w", "read/single", 1, 1);
  r.agg.counts = stats::OutcomeCounts::fromRaw({kMax64 - 1, 3, 0, 0, 0});
  r.agg.hist = {};
  r.agg.hist[0][1] = 1;
  const std::string line = encode(r);
  ASSERT_NE(line.find("\"count\":1,\"outcomes\":[18446744073709551614,3,0,"
                      "0,0],\"hist\":[[0,1,1]]"),
            std::string::npos)
      << line;
  expectIntegrityFailureEverywhere(line);
}

TEST(ShardLine, RepeatedHistCellFailsEveryPath) {
  // A repeated (outcome, bucket) cell would add into one 32-bit count:
  // 4294967295 + 2 wraps to 1, and the histogram then tallies `count`.
  Record r = validRecord("w", "read/single", 1, 16);
  r.agg.counts = stats::OutcomeCounts::fromRaw({1, 11, 0, 0, 4});
  r.agg.hist = {};
  r.agg.hist[0][1] = 1;
  r.agg.hist[1][1] = 11;
  r.agg.hist[4][1] = 4;
  const std::string valid = encode(r);
  ParsedShard out;
  ASSERT_TRUE(detail::decodeShardLine(valid, out)) << valid;
  std::string line = valid;
  const std::string cells = "\"hist\":[[0,1,1],[1,1,11],[4,1,4]]";
  ASSERT_NE(line.find(cells), std::string::npos) << line;
  line.replace(line.find(cells), cells.size(),
               "\"hist\":[[0,1,4294967295],[0,1,2],[1,1,11],[4,1,4]]");
  expectIntegrityFailureEverywhere(line);
}

// ------------------------------------------------ deterministic mutation fuzz

/// Per-stage tallies, as AFL reports them: `finds` are mutants that still
/// load as a valid shard record; `decoded` of those took the decoder.
struct Stage {
  const char* name;
  std::size_t execs = 0;
  std::size_t finds = 0;
  std::size_t decoded = 0;
};

class ShardLineFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per process: two builds' suites may run at once.
    path_ = ::testing::TempDir() + "shard_line_fuzz_" +
            std::to_string(::getpid()) + ".jsonl";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// compact() runs on every kCompactEvery-th mutant's store (it rewrites
  /// the file, so a deterministic sample keeps the sanitizer lane fast).
  static constexpr std::size_t kCompactEvery = 64;

  /// One mutant: the decoder declines or agrees with the generic path,
  /// load() and fsck() classify the store holding it alike, and compact()
  /// keeps exactly the lines load() accepts.
  void exec(const std::string& mutant, Stage& stage) {
    ++stage.execs;
    ParsedShard fast;
    ParsedShard slow;
    const bool decoded = detail::decodeShardLine(mutant, fast);
    const bool valid = genericDecode(mutant, slow);
    if (decoded) {
      ASSERT_TRUE(valid) << "decoder accepted what the generic path rejects: "
                         << mutant;
      ASSERT_TRUE(sameShard(fast, slow)) << mutant;
    }
    if (valid) ++stage.finds;
    if (decoded) ++stage.decoded;

    // A fresh file each time: a file truncated and rewritten in place is
    // flushed on close by some filesystems (ext4's auto_da_alloc).
    std::remove(path_.c_str());
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(mutant.data(), 1, mutant.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    CampaignStore store(path_);
    const CampaignStore::LoadStats load = store.load();
    const std::optional<CampaignStore::FsckStats> fsck =
        CampaignStore::fsck(path_, /*repair=*/false);
    ASSERT_TRUE(fsck.has_value());
    // On disk a '\n' the mutation wrote splits the line in two: `accepted`
    // holds the lines a record loads from, as the file holds them.
    std::string accepted = valid ? mutant + '\n' : std::string();
    if (mutant.find('\n') != std::string::npos) {
      accepted.clear();
      for (std::size_t at = 0; at <= mutant.size();) {
        const std::size_t nl = std::min(mutant.find('\n', at), mutant.size());
        const std::string line = mutant.substr(at, nl - at);
        if (genericDecode(line, slow)) accepted += line + '\n';
        at = nl + 1;
      }
    }
    const auto validLines = static_cast<std::size_t>(
        std::count(accepted.begin(), accepted.end(), '\n'));
    const std::size_t loadAccepted = load.shardRecords +
                                     load.workloadRecords + load.cellRecords +
                                     load.leaseRecords +
                                     load.quarantineRecords;
    ASSERT_EQ(load.shardRecords, validLines) << mutant;
    ASSERT_EQ(loadAccepted, fsck->validRecords) << mutant;
    ASSERT_EQ(load.unknownKinds, fsck->unknownKinds) << mutant;
    ASSERT_EQ(load.malformed - load.unknownKinds,
              fsck->garbage + fsck->tornTail + fsck->integrityFailures)
        << mutant;
    ASSERT_EQ(load.duplicates, fsck->duplicateLines + fsck->conflicts)
        << mutant;
    if (++execs_ % kCompactEvery != 0) return;
    const std::optional<CampaignStore::CompactStats> compacted =
        CampaignStore::compact(path_);
    ASSERT_TRUE(compacted.has_value());
    ASSERT_EQ(compacted->shardRecords, load.shardRecords) << mutant;
    ASSERT_EQ(slurp(path_), accepted) << mutant;
  }

  std::string path_;
  std::size_t execs_ = 0;
};

TEST_F(ShardLineFuzz, DeterministicStagesKeepDecoderLoadAndFsckAgreeing) {
  Record bigRange = validRecord("sha", "write/m=30,w=FIX(1000)", 9, 3);
  bigRange.meta.key = kMax64 - 3;
  bigRange.meta.experiments = 1u << 20;
  bigRange.first = (1u << 20) - 3;
  const std::vector<std::string> seeds = {
      encode(validRecord("qsort", "read/single", 1, 4)),
      encode(validRecord("", "write/m=3,w=RND(2-10)", 2, 2)),
      encode(bigRange),
  };
  // AFL's 8-bit interesting values.
  const std::array<std::int8_t, 9> kInteresting = {-128, -1, 0,  1,  16,
                                                   32,   64, 100, 127};
  constexpr int kArithMax = 35;
  Stage stages[] = {{"bitflip 1/1"},  {"bitflip 2/1"}, {"bitflip 4/1"},
                    {"bitflip 8/8"},  {"arith 8/8"},   {"interest 8/8"}};
  for (const std::string& seed : seeds) {
    ParsedShard parsed;
    ASSERT_TRUE(detail::decodeShardLine(seed, parsed)) << seed;
    const std::size_t bits = seed.size() * 8;
    std::string m = seed;
    auto flip = [&m](std::size_t bit) {
      m[bit >> 3] = static_cast<char>(m[bit >> 3] ^ (128 >> (bit & 7)));
    };
    // Walking bit flips: 1, 2 and 4 adjacent bits.
    const std::size_t widths[] = {1, 2, 4};
    for (std::size_t w = 0; w < 3; ++w) {
      for (std::size_t bit = 0; bit + widths[w] <= bits; ++bit) {
        for (std::size_t j = 0; j < widths[w]; ++j) flip(bit + j);
        exec(m, stages[w]);
        for (std::size_t j = 0; j < widths[w]; ++j) flip(bit + j);
        if (HasFatalFailure()) return;
      }
    }
    for (std::size_t i = 0; i < seed.size(); ++i) {
      m[i] = static_cast<char>(m[i] ^ 0xff);  // byte flip
      exec(m, stages[3]);
      m[i] = seed[i];
      for (int d = 1; d <= kArithMax; ++d) {  // byte arithmetic ±d
        for (const int sign : {1, -1}) {
          m[i] = static_cast<char>(static_cast<unsigned char>(seed[i]) +
                                   sign * d);
          exec(m, stages[4]);
        }
      }
      for (const std::int8_t v : kInteresting) {
        m[i] = static_cast<char>(v);
        exec(m, stages[5]);
      }
      m[i] = seed[i];
      if (HasFatalFailure()) return;
    }
  }
  for (const Stage& s : stages) {
    std::printf("[fuzz] %-12s : %zu/%zu finds/execs (%zu decoded)\n", s.name,
                s.finds, s.execs, s.decoded);
    EXPECT_GT(s.execs, 0u);
  }
  // Some mutants stay valid records (a flipped candidates digit) — and the
  // decoder takes them; the rest must have been rejected by both.
  EXPECT_GT(stages[0].decoded, 0u);
}

}  // namespace
}  // namespace onebit::fi
