#include "util/jsonl.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace onebit::util {

namespace {

const Json::Array kEmptyArray{};
const Json::Object kEmptyObject{};

/// Recursive-descent parser over a string_view. Depth-limited so a
/// pathological line cannot blow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> run() {
    std::optional<Json> v = parseValue(0);
    if (!v) return std::nullopt;
    skipSpace();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skipSpace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::optional<Json> parseValue(int depth) {
    if (depth > kMaxDepth) return std::nullopt;
    skipSpace();
    if (pos_ >= text_.size()) return std::nullopt;
    switch (text_[pos_]) {
      case '{': return parseObject(depth);
      case '[': return parseArray(depth);
      case '"': {
        std::optional<std::string> s = parseString();
        if (!s) return std::nullopt;
        return Json::string(*std::move(s));
      }
      case 't':
        return consumeWord("true") ? std::optional(Json::boolean(true))
                                   : std::nullopt;
      case 'f':
        return consumeWord("false") ? std::optional(Json::boolean(false))
                                    : std::nullopt;
      case 'n':
        return consumeWord("null") ? std::optional(Json()) : std::nullopt;
      default: return parseNumber();
    }
  }

  std::optional<Json> parseObject(int depth) {
    if (!consume('{')) return std::nullopt;
    Json obj = Json::object();
    skipSpace();
    if (consume('}')) return obj;
    while (true) {
      skipSpace();
      std::optional<std::string> key = parseString();
      if (!key) return std::nullopt;
      skipSpace();
      if (!consume(':')) return std::nullopt;
      std::optional<Json> value = parseValue(depth + 1);
      if (!value) return std::nullopt;
      obj.set(*std::move(key), *std::move(value));
      skipSpace();
      if (consume(',')) continue;
      if (consume('}')) return obj;
      return std::nullopt;
    }
  }

  std::optional<Json> parseArray(int depth) {
    if (!consume('[')) return std::nullopt;
    Json arr = Json::array();
    skipSpace();
    if (consume(']')) return arr;
    while (true) {
      std::optional<Json> value = parseValue(depth + 1);
      if (!value) return std::nullopt;
      arr.push(*std::move(value));
      skipSpace();
      if (consume(',')) continue;
      if (consume(']')) return arr;
      return std::nullopt;
    }
  }

  std::optional<std::string> parseString() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::optional<unsigned> cp = parseHex4();
          if (!cp) return std::nullopt;
          appendUtf8(out, *cp);
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<unsigned> parseHex4() {
    if (pos_ + 4 > text_.size()) return std::nullopt;
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') cp |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') cp |= static_cast<unsigned>(c - 'A' + 10);
      else return std::nullopt;
    }
    return cp;
  }

  static void appendUtf8(std::string& out, unsigned cp) {
    // BMP only; surrogate pairs are not produced by our writer and decode as
    // two replacement-free code units, which is fine for diagnostics.
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  std::optional<Json> parseNumber() {
    const std::size_t start = pos_;
    const bool negative = consume('-');
    bool isIntegral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        isIntegral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") return std::nullopt;
    if (isIntegral) {
      // Exact 64-bit round-trip: campaign keys and seeds use the full
      // uint64 range, which a double would silently round.
      if (negative) {
        std::int64_t v = 0;
        const auto [p, ec] =
            std::from_chars(token.data(), token.data() + token.size(), v);
        if (ec == std::errc() && p == token.data() + token.size()) {
          return Json::number(v);
        }
      } else {
        std::uint64_t v = 0;
        const auto [p, ec] =
            std::from_chars(token.data(), token.data() + token.size(), v);
        if (ec == std::errc() && p == token.data() + token.size()) {
          return Json::number(v);
        }
      }
      return std::nullopt;  // integral but out of 64-bit range
    }
    double v = 0.0;
    const auto [p, ec] =
        std::from_chars(token.data(), token.data() + token.size(), v);
    if (ec != std::errc() || p != token.data() + token.size()) {
      return std::nullopt;
    }
    if (!std::isfinite(v)) return std::nullopt;
    return Json::number(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

void appendJsonString(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through untouched
        }
    }
  }
  out += '"';
}

Json Json::boolean(bool v) {
  Json j;
  j.kind_ = Kind::Bool;
  j.bool_ = v;
  return j;
}

Json Json::number(std::uint64_t v) {
  Json j;
  j.kind_ = Kind::Uint;
  j.uint_ = v;
  return j;
}

Json Json::number(std::int64_t v) {
  if (v >= 0) return number(static_cast<std::uint64_t>(v));
  Json j;
  j.kind_ = Kind::Int;
  j.int_ = v;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.kind_ = Kind::Double;
  j.double_ = v;
  return j;
}

Json Json::string(std::string v) {
  Json j;
  j.kind_ = Kind::String;
  j.string_ = std::move(v);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::Array;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::Object;
  return j;
}

std::uint64_t Json::asUint(std::uint64_t fallback) const {
  switch (kind_) {
    case Kind::Uint: return uint_;
    case Kind::Int: return fallback;  // negative by construction
    case Kind::Double:
      // Strict < : the max cast to double rounds UP to 2^64, and casting a
      // double >= 2^64 (or >= 2^63 below) back to the integer type is UB.
      if (double_ >= 0.0 &&
          double_ < static_cast<double>(
                        std::numeric_limits<std::uint64_t>::max()) &&
          double_ == std::floor(double_)) {
        return static_cast<std::uint64_t>(double_);
      }
      return fallback;
    default: return fallback;
  }
}

std::int64_t Json::asInt(std::int64_t fallback) const {
  switch (kind_) {
    case Kind::Uint:
      return uint_ <= static_cast<std::uint64_t>(
                          std::numeric_limits<std::int64_t>::max())
                 ? static_cast<std::int64_t>(uint_)
                 : fallback;
    case Kind::Int: return int_;
    case Kind::Double:
      if (double_ >= static_cast<double>(
                         std::numeric_limits<std::int64_t>::min()) &&
          double_ < static_cast<double>(
                        std::numeric_limits<std::int64_t>::max()) &&
          double_ == std::floor(double_)) {
        return static_cast<std::int64_t>(double_);
      }
      return fallback;
    default: return fallback;
  }
}

double Json::asDouble(double fallback) const {
  switch (kind_) {
    case Kind::Uint: return static_cast<double>(uint_);
    case Kind::Int: return static_cast<double>(int_);
    case Kind::Double: return double_;
    default: return fallback;
  }
}

bool Json::asBool(bool fallback) const {
  return kind_ == Kind::Bool ? bool_ : fallback;
}

std::string_view Json::asString(std::string_view fallback) const {
  return kind_ == Kind::String ? std::string_view(string_) : fallback;
}

const Json::Array& Json::items() const {
  return kind_ == Kind::Array ? array_ : kEmptyArray;
}

const Json::Object& Json::members() const {
  return kind_ == Kind::Object ? object_ : kEmptyObject;
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::push(Json v) {
  if (kind_ == Kind::Array) array_.push_back(std::move(v));
}

Json& Json::set(std::string key, Json v) {
  if (kind_ == Kind::Object) {
    object_.emplace_back(std::move(key), std::move(v));
  }
  return *this;
}

std::string Json::dump() const {
  std::string out;
  switch (kind_) {
    case Kind::Null: out = "null"; break;
    case Kind::Bool: out = bool_ ? "true" : "false"; break;
    case Kind::Uint: out = std::to_string(uint_); break;
    case Kind::Int: out = std::to_string(int_); break;
    case Kind::Double: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", double_);
      out = buf;
      break;
    }
    case Kind::String: appendJsonString(out, string_); break;
    case Kind::Array: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out += ',';
        out += array_[i].dump();
      }
      out += ']';
      break;
    }
    case Kind::Object: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i != 0) out += ',';
        appendJsonString(out, object_[i].first);
        out += ':';
        out += object_[i].second.dump();
      }
      out += '}';
      break;
    }
  }
  return out;
}

std::optional<Json> Json::parse(std::string_view text) {
  return Parser(text).run();
}

JsonlWriter::JsonlWriter(const std::string& path)
    : file_(std::fopen(path.c_str(), "ab")) {}

JsonlWriter::~JsonlWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

bool JsonlWriter::writeLine(std::string_view line) {
  if (file_ == nullptr) {
    errno_ = EBADF;
    return false;
  }
  errno = 0;
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    errno_ = errno != 0 ? errno : EIO;
    return false;
  }
  if (std::fputc('\n', file_) == EOF) {
    errno_ = errno != 0 ? errno : EIO;
    return false;
  }
  // fflush can be interrupted by a signal before any data moved; retrying is
  // safe because stdio tracks what it already drained.
  while (std::fflush(file_) != 0) {
    if (errno != EINTR) {
      errno_ = errno != 0 ? errno : EIO;
      return false;
    }
  }
  errno_ = 0;
  return true;
}

LineReader::LineReader(const std::string& path, std::uint64_t offset)
    : file_(std::fopen(path.c_str(), "rb")), offset_(offset) {
  if (file_ == nullptr) return;  // missing file == empty
  if (offset != 0 &&
      (offset > static_cast<std::uint64_t>(
                    std::numeric_limits<long>::max()) ||
       std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0)) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

LineReader::~LineReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool LineReader::next(std::string_view& line) {
  if (file_ == nullptr) return false;
  while (true) {
    const void* nl =
        scanned_ == end_
            ? nullptr  // nothing unscanned (the buffer may not exist yet)
            : std::memchr(buf_.get() + scanned_, '\n', end_ - scanned_);
    if (nl != nullptr) {
      const std::size_t at =
          static_cast<std::size_t>(static_cast<const char*>(nl) - buf_.get());
      const std::size_t start = pos_;
      offset_ += at + 1 - start;
      pos_ = scanned_ = at + 1;
      if (at == start) continue;  // empty line
      line = std::string_view(buf_.get() + start, at - start);
      return true;
    }
    scanned_ = end_;
    if (eof_) return false;
    // Keep the partial line at the front and read a whole block behind it;
    // a line longer than the buffer grows it.
    if (pos_ != 0) {
      std::memmove(buf_.get(), buf_.get() + pos_, end_ - pos_);
      end_ -= pos_;
      scanned_ = end_;
      pos_ = 0;
    }
    if (capacity_ - end_ < kBlockBytes) {
      std::unique_ptr<char[]> grown(new char[end_ + kBlockBytes]);
      if (end_ != 0) std::memcpy(grown.get(), buf_.get(), end_);
      buf_ = std::move(grown);
      capacity_ = end_ + kBlockBytes;
    }
    const std::size_t got =
        std::fread(buf_.get() + end_, 1, capacity_ - end_, file_);
    if (got == 0) eof_ = true;
    end_ += got;
  }
}

JsonlReadStats readLinesFrom(const std::string& path, std::uint64_t offset,
                             bool consumeTail,
                             const std::function<bool(std::string_view)>& fn) {
  JsonlReadStats stats;
  LineReader reader(path, offset);
  std::string_view line;
  while (reader.next(line)) {
    ++stats.lines;
    if (!fn(line)) ++stats.malformed;
  }
  stats.endOffset = reader.offset();
  if (consumeTail && !reader.tail().empty()) {
    ++stats.lines;
    if (!fn(reader.tail())) ++stats.malformed;
    stats.endOffset += reader.tail().size();
  }
  return stats;
}

}  // namespace onebit::util
