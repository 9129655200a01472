// Minimal JSON value model and JSON-Lines I/O for the campaign results store.
//
// The store's durability contract only needs three things from a format:
// append-only writes (one self-describing record per line, flushed after
// every write so a killed process loses at most the line it was writing),
// exact round-trips for 64-bit integers (seeds and campaign keys use the
// full range), and a reader that tolerates a truncated final line. Nothing
// external provides that without a dependency, so this is a small
// hand-rolled implementation: a value tree (`Json`), a single-line
// serializer, a recursive-descent parser, and line-oriented file helpers
// (a block-buffered line reader, and a writer of formatted lines).
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace onebit::util {

/// An immutable-shape JSON value: null, bool, integer (signed or unsigned
/// 64-bit, kept exact), double, string, array, or object. Objects preserve
/// insertion order (records stay human-readable and diffable).
class Json {
 public:
  enum class Kind : unsigned char {
    Null, Bool, Uint, Int, Double, String, Array, Object
  };

  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;  ///< null
  static Json boolean(bool v);
  static Json number(std::uint64_t v);
  static Json number(std::int64_t v);
  static Json number(double v);
  static Json string(std::string v);
  static Json array();
  static Json object();

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool isNull() const noexcept { return kind_ == Kind::Null; }
  [[nodiscard]] bool isNumber() const noexcept {
    return kind_ == Kind::Uint || kind_ == Kind::Int || kind_ == Kind::Double;
  }
  [[nodiscard]] bool isString() const noexcept {
    return kind_ == Kind::String;
  }
  [[nodiscard]] bool isArray() const noexcept { return kind_ == Kind::Array; }
  [[nodiscard]] bool isObject() const noexcept {
    return kind_ == Kind::Object;
  }

  /// Numeric accessors return `fallback` when the value is not a number or
  /// does not fit the requested type (negative → uint, out of range, ...).
  [[nodiscard]] std::uint64_t asUint(std::uint64_t fallback = 0) const;
  [[nodiscard]] std::int64_t asInt(std::int64_t fallback = 0) const;
  [[nodiscard]] double asDouble(double fallback = 0.0) const;
  [[nodiscard]] bool asBool(bool fallback = false) const;
  [[nodiscard]] std::string_view asString(
      std::string_view fallback = {}) const;

  /// Array/object views; empty containers when the kind does not match.
  [[nodiscard]] const Array& items() const;
  [[nodiscard]] const Object& members() const;

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  [[nodiscard]] const Json* find(std::string_view key) const;

  /// Append to an array value (no-op on other kinds).
  void push(Json v);
  /// Set an object member, appending in insertion order (no-op on other
  /// kinds). Returns *this for chaining.
  Json& set(std::string key, Json v);

  /// Serialize on a single line (no trailing newline), suitable for JSONL.
  [[nodiscard]] std::string dump() const;

  /// Parse one complete JSON document. Rejects trailing non-space garbage,
  /// so a truncated record never parses as a shorter valid one.
  static std::optional<Json> parse(std::string_view text);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::uint64_t uint_ = 0;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Append `s` to `out` as a JSON string literal: quoted, with `"`, `\` and
/// control bytes escaped, every other byte (UTF-8 included) verbatim. The
/// one escape routine of the module: Json::dump() writes strings with it, so
/// a line formatted field by field with it equals the tree's dump().
void appendJsonString(std::string& out, std::string_view s);

/// Append-only JSONL file writer. Every record is written as one line and
/// flushed immediately: a process killed mid-write leaves at most one
/// truncated final line, which the readers below skip or count.
class JsonlWriter {
 public:
  explicit JsonlWriter(const std::string& path);
  ~JsonlWriter();

  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  [[nodiscard]] bool ok() const noexcept { return file_ != nullptr; }

  /// Write one formatted line (which must not contain '\n'; a record's
  /// dump(), or a line formatted field by field) plus the newline, and
  /// flush. Returns false on I/O failure. Transient interruptions (EINTR
  /// during the flush) are retried; on a real failure lastErrno() reports
  /// the cause so callers can distinguish a full disk (pause and retry
  /// later) from a hard error.
  bool writeLine(std::string_view line);

  /// errno of the last writeLine() failure (0 after a success).
  [[nodiscard]] int lastErrno() const noexcept { return errno_; }

 private:
  std::FILE* file_ = nullptr;
  int errno_ = 0;
};

/// Reads the lines of a file from a byte offset, a block (kBlockBytes) at a
/// time. Lines are split on '\n' and yielded without it; empty lines are
/// skipped. The bytes after the last '\n' — the torn residue of a killed
/// writer, or a record another process is still appending — are never
/// yielded as a line: tail() holds them once next() returns false, and the
/// caller decides whether they count. A missing file reads as empty, as
/// does an offset the file cannot be positioned at.
class LineReader {
 public:
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  LineReader(const std::string& path, std::uint64_t offset);
  ~LineReader();

  LineReader(const LineReader&) = delete;
  LineReader& operator=(const LineReader&) = delete;

  /// Advance to the next non-empty '\n'-terminated line. `line` views the
  /// reader's buffer and stays valid until the next call. Returns false at
  /// the end of the terminated lines.
  bool next(std::string_view& line);

  /// After next() returned false: the unterminated final bytes (empty when
  /// the file ends with '\n'). Valid until the reader is destroyed.
  [[nodiscard]] std::string_view tail() const noexcept {
    return {buf_.get() + pos_, end_ - pos_};
  }

  /// Byte offset just past the last '\n' read: the first byte of tail()
  /// once next() has returned false.
  [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }

 private:
  std::FILE* file_ = nullptr;
  std::unique_ptr<char[]> buf_;  ///< unread bytes live in [pos_, end_)
  std::size_t capacity_ = 0;
  std::size_t pos_ = 0;
  std::size_t scanned_ = 0;  ///< [pos_, scanned_) holds no '\n'
  std::size_t end_ = 0;
  bool eof_ = false;
  std::uint64_t offset_ = 0;
};

/// Line statistics of one read.
struct JsonlReadStats {
  std::size_t lines = 0;      ///< non-empty lines seen
  std::size_t malformed = 0;  ///< lines the caller could not use (incl. a
                              ///< truncated final line when consumed)
  /// Byte offset just past the last line consumed — the resume point for an
  /// incremental re-read of an append-only file.
  std::uint64_t endOffset = 0;
};

/// Invoke `fn` on every non-empty line of `path` from byte `offset` (a
/// previous read's endOffset, or 0), in file order; `fn` returns false for a
/// line it could not use, and those count as malformed. A missing file
/// reads as empty. When `consumeTail` is false, a final line NOT terminated
/// by '\n' is neither passed on nor counted and endOffset stops at its first
/// byte, so a record another process is still appending (or the torn
/// residue of a crashed one) is simply retried by the next read; when true,
/// the tail is passed on like any line (it may be a complete record that
/// merely lost its newline) and endOffset reaches EOF.
JsonlReadStats readLinesFrom(const std::string& path, std::uint64_t offset,
                             bool consumeTail,
                             const std::function<bool(std::string_view)>& fn);

}  // namespace onebit::util
