// util::Json / JSONL round-trip and robustness tests: exact 64-bit integer
// round-trips (campaign keys and seeds use the full range), escape handling,
// rejection of malformed documents, and the torn-last-line tolerance the
// checkpoint store's durability contract depends on.
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "util/jsonl.hpp"

namespace onebit::util {
namespace {

std::string tempPath(const char* name) {
  return ::testing::TempDir() + name;
}

/// What a read of a JSONL file yields: every line parsed as a record.
struct Records {
  std::vector<Json> records;
  JsonlReadStats stats;
};

/// Read `path` from `offset` through readLinesFrom, parsing each line; a
/// line that does not parse counts as malformed.
Records readRecords(const std::string& path, std::uint64_t offset = 0,
                    bool consumeTail = true) {
  Records out;
  out.stats = readLinesFrom(path, offset, consumeTail,
                            [&](std::string_view line) {
                              std::optional<Json> v = Json::parse(line);
                              if (!v) return false;
                              out.records.push_back(*std::move(v));
                              return true;
                            });
  return out;
}

TEST(Json, ScalarRoundTrips) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json::boolean(true).dump(), "true");
  EXPECT_EQ(Json::boolean(false).dump(), "false");
  EXPECT_EQ(Json::number(std::uint64_t{0}).dump(), "0");
  EXPECT_EQ(Json::number(std::int64_t{-42}).dump(), "-42");
  EXPECT_EQ(Json::string("hi").dump(), "\"hi\"");
}

TEST(Json, Uint64PrecisionSurvivesRoundTrip) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  const std::string text = Json::number(max).dump();
  EXPECT_EQ(text, "18446744073709551615");
  const std::optional<Json> parsed = Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->asUint(), max);  // a double round would lose this

  const std::int64_t min = std::numeric_limits<std::int64_t>::min();
  const std::optional<Json> negParsed = Json::parse(Json::number(min).dump());
  ASSERT_TRUE(negParsed.has_value());
  EXPECT_EQ(negParsed->asInt(), min);
}

TEST(Json, DoubleAtIntegerBoundaryFallsBackInsteadOfOverflowing) {
  // static_cast<double>(UINT64_MAX) rounds UP to 2^64; a double holding
  // exactly 2^64 (or 2^63 for int64) must hit the fallback, never an
  // undefined float→int cast.
  const std::optional<Json> big = Json::parse("1.8446744073709552e19");
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(big->asUint(7), 7u);
  const std::optional<Json> bigSigned = Json::parse("9.223372036854776e18");
  ASSERT_TRUE(bigSigned.has_value());
  EXPECT_EQ(bigSigned->asInt(-7), -7);
  // Exactly representable in-range doubles still convert.
  const std::optional<Json> ok = Json::parse("4294967296.0");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->asUint(), 4294967296ULL);
  EXPECT_EQ(Json::parse("2.5")->asUint(7), 7u);  // non-integral double
}

TEST(Json, StringEscapesRoundTrip) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  const std::string text = Json::string(nasty).dump();
  const std::optional<Json> parsed = Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->asString(), nasty);
}

TEST(Json, NestedStructureRoundTrips) {
  Json obj = Json::object();
  obj.set("name", Json::string("qsort"));
  Json arr = Json::array();
  arr.push(Json::number(std::uint64_t{1}));
  arr.push(Json::number(std::int64_t{-2}));
  arr.push(Json::number(2.5));
  obj.set("values", std::move(arr));
  obj.set("nested", Json::object().set("flag", Json::boolean(true)));

  const std::optional<Json> parsed = Json::parse(obj.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("name")->asString(), "qsort");
  const Json* values = parsed->find("values");
  ASSERT_NE(values, nullptr);
  ASSERT_EQ(values->items().size(), 3u);
  EXPECT_EQ(values->items()[0].asUint(), 1u);
  EXPECT_EQ(values->items()[1].asInt(), -2);
  EXPECT_DOUBLE_EQ(values->items()[2].asDouble(), 2.5);
  EXPECT_TRUE(parsed->find("nested")->find("flag")->asBool());
  EXPECT_EQ(parsed->find("absent"), nullptr);
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  Json obj = Json::object();
  obj.set("z", Json::number(std::uint64_t{1}));
  obj.set("a", Json::number(std::uint64_t{2}));
  EXPECT_EQ(obj.dump(), "{\"z\":1,\"a\":2}");
}

TEST(Json, MalformedDocumentsAreRejected) {
  const char* const kBad[] = {
      "",
      "{",
      "[1,2",
      "{\"a\":}",
      "{\"a\" 1}",
      "\"unterminated",
      "\"bad\\escape\"",
      "01x",
      "nul",
      "truex",
      "{\"a\":1} trailing",
      "[1,]",
      "- ",
      "1e999",  // non-finite after parse
  };
  for (const char* text : kBad) {
    EXPECT_FALSE(Json::parse(text).has_value()) << "input: " << text;
  }
}

TEST(Json, TruncatedRecordNeverParsesAsShorterValidOne) {
  const std::string full =
      "{\"v\":1,\"outcomes\":[1,2,3,4,5],\"count\":15}";
  ASSERT_TRUE(Json::parse(full).has_value());
  // Every proper prefix must fail — a torn write is detected, not misread.
  for (std::size_t len = 1; len < full.size(); ++len) {
    EXPECT_FALSE(Json::parse(full.substr(0, len)).has_value())
        << "prefix length " << len;
  }
}

TEST(Jsonl, WriteThenReadBack) {
  const std::string path = tempPath("jsonl_roundtrip.jsonl");
  std::remove(path.c_str());
  {
    JsonlWriter writer(path);
    ASSERT_TRUE(writer.ok());
    for (std::uint64_t i = 0; i < 5; ++i) {
      Json rec = Json::object();
      rec.set("i", Json::number(i));
      ASSERT_TRUE(writer.writeLine(rec.dump()));
    }
  }
  const Records read = readRecords(path);
  std::vector<std::uint64_t> seen;
  for (const Json& rec : read.records) seen.push_back(rec.find("i")->asUint());
  EXPECT_EQ(read.stats.lines, 5u);
  EXPECT_EQ(read.stats.malformed, 0u);
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(Jsonl, MissingFileReadsAsEmpty) {
  const Records read = readRecords(tempPath("jsonl_does_not_exist.jsonl"));
  EXPECT_TRUE(read.records.empty());
  EXPECT_EQ(read.stats.lines, 0u);
  EXPECT_EQ(read.stats.malformed, 0u);
}

TEST(Jsonl, TruncatedLastLineIsSkippedNotFatal) {
  const std::string path = tempPath("jsonl_truncated.jsonl");
  std::remove(path.c_str());
  {
    JsonlWriter writer(path);
    ASSERT_TRUE(writer.writeLine(
        Json::object().set("i", Json::number(std::uint64_t{1})).dump()));
  }
  {
    // Simulate a writer killed mid-record: an unterminated trailing line.
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"i\":2,\"outco", f);
    std::fclose(f);
  }
  const Records read = readRecords(path);
  EXPECT_EQ(read.records.size(), 1u);
  EXPECT_EQ(read.stats.lines, 2u);
  EXPECT_EQ(read.stats.malformed, 1u);
}

TEST(Jsonl, AppendsAcrossWriterInstances) {
  const std::string path = tempPath("jsonl_append.jsonl");
  std::remove(path.c_str());
  for (std::uint64_t i = 0; i < 2; ++i) {
    JsonlWriter writer(path);  // reopening must append, not truncate
    ASSERT_TRUE(
        writer.writeLine(Json::object().set("i", Json::number(i)).dump()));
  }
  EXPECT_EQ(readRecords(path).records.size(), 2u);
}

// ------------------------------------------------------ block line reader

/// What a read yields, for comparing two readers.
struct ReadResult {
  std::vector<std::string> records;  ///< dump() of each parsed record
  JsonlReadStats stats;
};

/// The byte-at-a-time splitter the store read with before block reads,
/// over the file's bytes: the reference the block reader must reproduce.
ReadResult referenceRead(const std::string& bytes, std::uint64_t offset,
                         bool consumeTail) {
  ReadResult out;
  out.stats.endOffset = offset;
  std::string line;
  std::uint64_t consumed = offset;
  auto flushLine = [&] {
    if (line.empty()) return;
    ++out.stats.lines;
    if (std::optional<Json> v = Json::parse(line)) {
      out.records.push_back(v->dump());
    } else {
      ++out.stats.malformed;
    }
    line.clear();
  };
  for (std::uint64_t i = offset; i < bytes.size(); ++i) {
    ++consumed;
    if (bytes[i] == '\n') {
      flushLine();
      out.stats.endOffset = consumed;
    } else {
      line += bytes[i];
    }
  }
  if (consumeTail) {
    flushLine();
    out.stats.endOffset = consumed;
  }
  return out;
}

ReadResult blockRead(const std::string& path, std::uint64_t offset,
                     bool consumeTail) {
  const Records read = readRecords(path, offset, consumeTail);
  ReadResult out;
  for (const Json& record : read.records) out.records.push_back(record.dump());
  out.stats = read.stats;
  return out;
}

std::string recordLine(std::uint64_t i, std::size_t pad) {
  return Json::object()
      .set("i", Json::number(i))
      .set("pad", Json::string(std::string(pad, 'x')))
      .dump();
}

/// Append one record line whose '\n' lands exactly at byte `newlineAt`.
void appendLineEndingAt(std::string& bytes, std::size_t newlineAt) {
  const std::size_t base = recordLine(bytes.size(), 0).size();
  ASSERT_GE(newlineAt, bytes.size() + base);
  bytes += recordLine(bytes.size(), newlineAt - bytes.size() - base);
  bytes += '\n';
  ASSERT_EQ(bytes.size(), newlineAt + 1);
}

TEST(LineReader, BlockReadsMatchTheByteAtATimeSplitter) {
  constexpr std::size_t kBlock = LineReader::kBlockBytes;
  std::string body = "\n";  // an empty first line
  appendLineEndingAt(body, kBlock - 1);  // a block that ends with '\n'
  body += "\n\n";                        // empty lines open the next block
  appendLineEndingAt(body, 2 * kBlock + 10);  // straddles a boundary
  body += recordLine(7, 150 * 1024) + "\n";  // longer than two blocks
  body += "not json\n\n";
  appendLineEndingAt(body, body.size() + 300);
  const std::vector<std::string> files = {
      body,                                  // ends with '\n'
      body + "\n\n",                         // ends with empty lines
      body + recordLine(8, 3),               // complete but unterminated
      body + "{\"i\":9,\"pad\":\"xx",          // torn mid-record
      body.substr(0, kBlock - 40) + recordLine(9, 100),  // tail on a boundary
      "",
      "\n\n\n",
      recordLine(1, 1),  // only a tail
  };
  const std::string path = tempPath("jsonl_block_reader.jsonl");
  for (std::size_t f = 0; f < files.size(); ++f) {
    const std::string& bytes = files[f];
    {
      std::FILE* out = std::fopen(path.c_str(), "wb");
      ASSERT_NE(out, nullptr);
      std::fwrite(bytes.data(), 1, bytes.size(), out);
      std::fclose(out);
    }
    // From the start, from every line start (where refresh() resumes), from
    // mid-line offsets around the block boundaries, and past the end.
    std::vector<std::uint64_t> offsets = {0, 1, bytes.size(), bytes.size() + 7};
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      if (bytes[i] == '\n') offsets.push_back(i + 1);
    }
    for (const std::size_t boundary : {kBlock, 2 * kBlock, 3 * kBlock}) {
      for (const std::size_t d : {boundary - 1, boundary, boundary + 1}) {
        if (d < bytes.size()) offsets.push_back(d);
      }
    }
    for (const std::uint64_t offset : offsets) {
      for (const bool consumeTail : {false, true}) {
        const ReadResult want = referenceRead(bytes, offset, consumeTail);
        const ReadResult got = blockRead(path, offset, consumeTail);
        const std::string where = "file " + std::to_string(f) + " offset " +
                                  std::to_string(offset) + " consumeTail " +
                                  std::to_string(consumeTail);
        EXPECT_EQ(got.records, want.records) << where;
        EXPECT_EQ(got.stats.lines, want.stats.lines) << where;
        EXPECT_EQ(got.stats.malformed, want.stats.malformed) << where;
        EXPECT_EQ(got.stats.endOffset, want.stats.endOffset) << where;
      }
    }
    // The reader itself: every non-empty terminated line, then the tail.
    LineReader reader(path, 0);
    std::vector<std::string> lines;
    std::string_view line;
    while (reader.next(line)) lines.emplace_back(line);
    std::vector<std::string> wantLines;
    std::size_t start = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      if (bytes[i] != '\n') continue;
      if (i > start) wantLines.push_back(bytes.substr(start, i - start));
      start = i + 1;
    }
    EXPECT_EQ(lines, wantLines) << "file " << f;
    EXPECT_EQ(reader.tail(), bytes.substr(start)) << "file " << f;
    EXPECT_EQ(reader.offset(), start) << "file " << f;
  }
  std::remove(path.c_str());
}

TEST(LineReader, MissingFileReadsAsEmpty) {
  LineReader reader(tempPath("jsonl_no_such_file.jsonl"), 5);
  std::string_view line;
  EXPECT_FALSE(reader.next(line));
  EXPECT_TRUE(reader.tail().empty());
  EXPECT_EQ(reader.offset(), 5u);
}

TEST(Jsonl, WriterTakesLinesFormattedWithoutATree) {
  const std::string path = tempPath("jsonl_preformatted.jsonl");
  std::remove(path.c_str());
  const Json record = Json::object().set("s", Json::string("a\"b"));
  {
    JsonlWriter writer(path);
    ASSERT_TRUE(writer.writeLine(record.dump()));
    std::string line;
    line += "{\"s\":";
    appendJsonString(line, "a\"b");
    line += '}';
    ASSERT_TRUE(writer.writeLine(line));
  }
  std::vector<std::string> seen;
  for (const Json& rec : readRecords(path).records) seen.push_back(rec.dump());
  EXPECT_EQ(seen, (std::vector<std::string>{record.dump(), record.dump()}));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace onebit::util
