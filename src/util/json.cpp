#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

#include "util/error.hpp"

namespace presp::json {

void append_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  if (std::fabs(v) < 1e15 && v == std::trunc(v)) {
    out += std::to_string(static_cast<long long>(v));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

namespace {

void append_utf8(std::string& out, unsigned cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

}  // namespace

Reader::Reader(std::string_view text, std::string document)
    : text_(text), document_(std::move(document)) {}

void Reader::skip_ws() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
          text_[pos_] == '\r'))
    ++pos_;
}

bool Reader::consume(char c) {
  skip_ws();
  if (pos_ < text_.size() && text_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

void Reader::expect(char c) {
  if (!consume(c)) fail(std::string("expected '") + c + "'");
}

std::string Reader::string() {
  expect('"');
  std::string out;
  for (;;) {
    const std::size_t stop = text_.find_first_of("\"\\", pos_);
    if (stop == std::string_view::npos)
      fail_at(text_.size(), "unterminated string");
    out.append(text_.substr(pos_, stop - pos_));
    pos_ = stop + 1;
    if (text_[stop] == '"') return out;
    if (pos_ >= text_.size()) fail("unterminated string");
    const char esc = text_[pos_++];
    switch (esc) {
      case '"':
      case '\\':
      case '/': out += esc; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        unsigned cp = hex4();
        if (cp >= 0xDC00 && cp <= 0xDFFF)
          fail_at(pos_ - 6, "unpaired surrogate in \\u escape");
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          if (!text_.substr(pos_).starts_with("\\u"))
            fail_at(pos_ - 6, "unpaired surrogate in \\u escape");
          pos_ += 2;
          const unsigned low = hex4();
          if (low < 0xDC00 || low > 0xDFFF)
            fail_at(pos_ - 6, "unpaired surrogate in \\u escape");
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        }
        append_utf8(out, cp);
        break;
      }
      default: fail_at(pos_ - 2, std::string("unknown escape '\\") + esc + "'");
    }
  }
}

unsigned Reader::hex4() {
  if (text_.size() - pos_ < 4) fail("truncated \\u escape");
  const char* first = text_.data() + pos_;
  unsigned value = 0;
  const auto [end, ec] = std::from_chars(first, first + 4, value, 16);
  if (ec != std::errc{} || end != first + 4) fail("malformed \\u escape");
  pos_ += 4;
  return value;
}

double Reader::number() {
  skip_ws();
  // JSON numbers start with '-' or a digit; from_chars alone would also
  // take "nan", "inf" and "infinity".
  const std::size_t digit = pos_ < text_.size() && text_[pos_] == '-'
                                ? pos_ + 1
                                : pos_;
  if (digit >= text_.size() || text_[digit] < '0' || text_[digit] > '9')
    fail("expected number");
  const char* first = text_.data() + pos_;
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(first, text_.data() + text_.size(), value);
  if (ec == std::errc::invalid_argument) fail("expected number");
  if (ec != std::errc{}) fail("number out of range");
  pos_ += static_cast<std::size_t>(end - first);
  return value;
}

bool Reader::consume_null() {
  skip_ws();
  if (!text_.substr(pos_).starts_with("null")) return false;
  pos_ += 4;
  return true;
}

std::string_view Reader::integer_token() {
  skip_ws();
  const std::size_t start = pos_;
  if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
  const std::size_t digits = pos_;
  while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
    ++pos_;
  if (pos_ == digits) fail_at(start, "expected integer");
  if (pos_ < text_.size() &&
      (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E'))
    fail_at(start, "expected integer, found a fraction or exponent");
  return text_.substr(start, pos_ - start);
}

void Reader::skip_value(int depth) {
  skip_ws();
  if (pos_ >= text_.size()) fail("unexpected end of input");
  const char c = text_[pos_];
  if (c == '{' || c == '[') {
    if (depth >= kMaxDepth)
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    if (c == '{')
      object([&](const std::string&) { skip_value(depth + 1); });
    else
      array([&] { skip_value(depth + 1); });
  } else if (c == '"') {
    string();
  } else {
    for (const std::string_view literal : {"true", "false", "null"}) {
      if (text_.substr(pos_).starts_with(literal)) {
        pos_ += literal.size();
        return;
      }
    }
    number();
  }
}

void Reader::fail(const std::string& what) const { fail_at(pos_, what); }

void Reader::fail_at(std::size_t offset, const std::string& what) const {
  throw ConfigError(document_ + " JSON parse error at offset " +
                    std::to_string(offset) + ": " + what);
}

}  // namespace presp::json
