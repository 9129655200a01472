#include "lang/lexer.hpp"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <string_view>
#include <unordered_map>

namespace onebit::lang {

namespace {

const std::unordered_map<std::string_view, Tok> kKeywords = {
    {"int", Tok::KwInt},       {"double", Tok::KwDouble},
    {"char", Tok::KwChar},     {"void", Tok::KwVoid},
    {"if", Tok::KwIf},         {"else", Tok::KwElse},
    {"while", Tok::KwWhile},   {"for", Tok::KwFor},
    {"return", Tok::KwReturn}, {"break", Tok::KwBreak},
    {"continue", Tok::KwContinue},
};

class Cursor {
 public:
  explicit Cursor(std::string_view src) : src_(src) {}

  [[nodiscard]] bool done() const noexcept { return pos_ >= src_.size(); }
  [[nodiscard]] char peek(std::size_t ahead = 0) const noexcept {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  char advance() noexcept {
    const char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }
  bool match(char c) noexcept {
    if (peek() == c) {
      advance();
      return true;
    }
    return false;
  }
  [[nodiscard]] int line() const noexcept { return line_; }
  [[nodiscard]] int col() const noexcept { return col_; }

 private:
  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

char decodeEscape(Cursor& c) {
  const char e = c.advance();
  switch (e) {
    case 'n': return '\n';
    case 't': return '\t';
    case 'r': return '\r';
    case '0': return '\0';
    case '\\': return '\\';
    case '\'': return '\'';
    case '"': return '"';
    default:
      throw CompileError(std::string("unknown escape \\") + e, c.line(),
                         c.col());
  }
}

}  // namespace

std::vector<Token> lex(std::string_view source) {
  std::vector<Token> out;
  Cursor c(source);

  auto push = [&](Tok kind, int line, int col) {
    Token t;
    t.kind = kind;
    t.line = line;
    t.col = col;
    out.push_back(std::move(t));
  };

  while (!c.done()) {
    const int line = c.line();
    const int col = c.col();
    const char ch = c.peek();

    if (std::isspace(static_cast<unsigned char>(ch)) != 0) {
      c.advance();
      continue;
    }
    // Comments: // and /* */
    if (ch == '/' && c.peek(1) == '/') {
      while (!c.done() && c.peek() != '\n') c.advance();
      continue;
    }
    if (ch == '/' && c.peek(1) == '*') {
      c.advance();
      c.advance();
      while (!c.done() && !(c.peek() == '*' && c.peek(1) == '/')) c.advance();
      if (c.done()) throw CompileError("unterminated block comment", line, col);
      c.advance();
      c.advance();
      continue;
    }

    if (std::isalpha(static_cast<unsigned char>(ch)) != 0 || ch == '_') {
      std::string ident;
      while (!c.done() && (std::isalnum(static_cast<unsigned char>(c.peek())) != 0 ||
                           c.peek() == '_')) {
        ident += c.advance();
      }
      Token t;
      t.line = line;
      t.col = col;
      const auto kw = kKeywords.find(ident);
      if (kw != kKeywords.end()) {
        t.kind = kw->second;
      } else {
        t.kind = Tok::Ident;
        t.text = std::move(ident);
      }
      out.push_back(std::move(t));
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(ch)) != 0 ||
        (ch == '.' && std::isdigit(static_cast<unsigned char>(c.peek(1))) != 0)) {
      std::string num;
      bool isFloat = false;
      bool isHex = false;
      if (ch == '0' && (c.peek(1) == 'x' || c.peek(1) == 'X')) {
        isHex = true;
        num += c.advance();
        num += c.advance();
        while (std::isxdigit(static_cast<unsigned char>(c.peek())) != 0) {
          num += c.advance();
        }
      } else {
        while (std::isdigit(static_cast<unsigned char>(c.peek())) != 0) {
          num += c.advance();
        }
        if (c.peek() == '.' &&
            std::isdigit(static_cast<unsigned char>(c.peek(1))) != 0) {
          isFloat = true;
          num += c.advance();
          while (std::isdigit(static_cast<unsigned char>(c.peek())) != 0) {
            num += c.advance();
          }
        }
        if (c.peek() == 'e' || c.peek() == 'E') {
          isFloat = true;
          num += c.advance();
          if (c.peek() == '+' || c.peek() == '-') num += c.advance();
          while (std::isdigit(static_cast<unsigned char>(c.peek())) != 0) {
            num += c.advance();
          }
        }
      }
      Token t;
      t.line = line;
      t.col = col;
      t.text = num;
      if (isFloat) {
        t.kind = Tok::FloatLit;
        t.floatValue = std::strtod(num.c_str(), nullptr);
      } else {
        t.kind = Tok::IntLit;
        // The digits after any 0x prefix must fit in 64 bits (values past
        // INT64_MAX wrap, like C's unsigned literals).
        const std::string_view digits =
            std::string_view(num).substr(isHex ? 2 : 0);
        const char* const end = digits.data() + digits.size();
        std::uint64_t v = 0;
        const auto [ptr, ec] =
            std::from_chars(digits.data(), end, v, isHex ? 16 : 10);
        if (ec == std::errc::result_out_of_range) {
          throw CompileError("integer literal out of range", line, col);
        }
        if (ec != std::errc() || ptr != end) {
          throw CompileError("malformed integer literal", line, col);
        }
        t.intValue = static_cast<std::int64_t>(v);
      }
      out.push_back(std::move(t));
      continue;
    }

    if (ch == '\'') {
      c.advance();
      char v = c.advance();
      if (v == '\\') v = decodeEscape(c);
      if (!c.match('\'')) throw CompileError("unterminated char literal", line, col);
      Token t;
      t.kind = Tok::CharLit;
      t.intValue = static_cast<unsigned char>(v);
      t.line = line;
      t.col = col;
      out.push_back(std::move(t));
      continue;
    }

    if (ch == '"') {
      c.advance();
      std::string s;
      while (!c.done() && c.peek() != '"') {
        char v = c.advance();
        if (v == '\\') v = decodeEscape(c);
        s += v;
      }
      if (!c.match('"')) throw CompileError("unterminated string literal", line, col);
      Token t;
      t.kind = Tok::StrLit;
      t.strValue = std::move(s);
      t.line = line;
      t.col = col;
      out.push_back(std::move(t));
      continue;
    }

    c.advance();
    switch (ch) {
      case '(': push(Tok::LParen, line, col); break;
      case ')': push(Tok::RParen, line, col); break;
      case '{': push(Tok::LBrace, line, col); break;
      case '}': push(Tok::RBrace, line, col); break;
      case '[': push(Tok::LBracket, line, col); break;
      case ']': push(Tok::RBracket, line, col); break;
      case ',': push(Tok::Comma, line, col); break;
      case ';': push(Tok::Semi, line, col); break;
      case '?': push(Tok::Question, line, col); break;
      case ':': push(Tok::Colon, line, col); break;
      case '~': push(Tok::Tilde, line, col); break;
      case '+':
        if (c.match('+')) push(Tok::PlusPlus, line, col);
        else if (c.match('=')) push(Tok::PlusEq, line, col);
        else push(Tok::Plus, line, col);
        break;
      case '-':
        if (c.match('-')) push(Tok::MinusMinus, line, col);
        else if (c.match('=')) push(Tok::MinusEq, line, col);
        else push(Tok::Minus, line, col);
        break;
      case '*':
        push(c.match('=') ? Tok::StarEq : Tok::Star, line, col);
        break;
      case '/':
        push(c.match('=') ? Tok::SlashEq : Tok::Slash, line, col);
        break;
      case '%':
        push(c.match('=') ? Tok::PercentEq : Tok::Percent, line, col);
        break;
      case '&':
        if (c.match('&')) push(Tok::AmpAmp, line, col);
        else if (c.match('=')) push(Tok::AmpEq, line, col);
        else push(Tok::Amp, line, col);
        break;
      case '|':
        if (c.match('|')) push(Tok::PipePipe, line, col);
        else if (c.match('=')) push(Tok::PipeEq, line, col);
        else push(Tok::Pipe, line, col);
        break;
      case '^':
        push(c.match('=') ? Tok::CaretEq : Tok::Caret, line, col);
        break;
      case '!':
        push(c.match('=') ? Tok::Ne : Tok::Bang, line, col);
        break;
      case '<':
        if (c.match('<')) push(c.match('=') ? Tok::ShlEq : Tok::Shl, line, col);
        else push(c.match('=') ? Tok::Le : Tok::Lt, line, col);
        break;
      case '>':
        if (c.match('>')) push(c.match('=') ? Tok::ShrEq : Tok::Shr, line, col);
        else push(c.match('=') ? Tok::Ge : Tok::Gt, line, col);
        break;
      case '=':
        push(c.match('=') ? Tok::EqEq : Tok::Assign, line, col);
        break;
      default:
        throw CompileError(std::string("unexpected character '") + ch + "'",
                           line, col);
    }
  }

  Token end;
  end.kind = Tok::End;
  end.line = c.line();
  end.col = c.col();
  out.push_back(std::move(end));
  return out;
}

std::string_view tokName(Tok t) noexcept {
  switch (t) {
    case Tok::End: return "<eof>";
    case Tok::Ident: return "identifier";
    case Tok::IntLit: return "integer literal";
    case Tok::FloatLit: return "float literal";
    case Tok::CharLit: return "char literal";
    case Tok::StrLit: return "string literal";
    case Tok::KwInt: return "int";
    case Tok::KwDouble: return "double";
    case Tok::KwChar: return "char";
    case Tok::KwVoid: return "void";
    case Tok::KwIf: return "if";
    case Tok::KwElse: return "else";
    case Tok::KwWhile: return "while";
    case Tok::KwFor: return "for";
    case Tok::KwReturn: return "return";
    case Tok::KwBreak: return "break";
    case Tok::KwContinue: return "continue";
    case Tok::LParen: return "(";
    case Tok::RParen: return ")";
    case Tok::LBrace: return "{";
    case Tok::RBrace: return "}";
    case Tok::LBracket: return "[";
    case Tok::RBracket: return "]";
    case Tok::Comma: return ",";
    case Tok::Semi: return ";";
    case Tok::Plus: return "+";
    case Tok::Minus: return "-";
    case Tok::Star: return "*";
    case Tok::Slash: return "/";
    case Tok::Percent: return "%";
    case Tok::Amp: return "&";
    case Tok::Pipe: return "|";
    case Tok::Caret: return "^";
    case Tok::Tilde: return "~";
    case Tok::Shl: return "<<";
    case Tok::Shr: return ">>";
    case Tok::AmpAmp: return "&&";
    case Tok::PipePipe: return "||";
    case Tok::Bang: return "!";
    case Tok::Lt: return "<";
    case Tok::Le: return "<=";
    case Tok::Gt: return ">";
    case Tok::Ge: return ">=";
    case Tok::EqEq: return "==";
    case Tok::Ne: return "!=";
    case Tok::Assign: return "=";
    case Tok::PlusEq: return "+=";
    case Tok::MinusEq: return "-=";
    case Tok::StarEq: return "*=";
    case Tok::SlashEq: return "/=";
    case Tok::PercentEq: return "%=";
    case Tok::AmpEq: return "&=";
    case Tok::PipeEq: return "|=";
    case Tok::CaretEq: return "^=";
    case Tok::ShlEq: return "<<=";
    case Tok::ShrEq: return ">>=";
    case Tok::PlusPlus: return "++";
    case Tok::MinusMinus: return "--";
    case Tok::Question: return "?";
    case Tok::Colon: return ":";
  }
  return "?";
}

}  // namespace onebit::lang
