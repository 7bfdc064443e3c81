// The one JSON reader and writer-side helper set shared by every file
// the tools exchange: floorplan artifacts (presp-flow -> presp-lint
// --floorplan), Chrome traces (presp-trace), lint diagnostics and SARIF,
// and the ops plane's JSON bodies. Readers of untrusted files rely on
// the reader never crashing: every malformed, truncated, out-of-range or
// too-deep document is a ConfigError naming the byte offset.
#pragma once

#include <charconv>
#include <cstddef>
#include <string>
#include <string_view>
#include <system_error>

namespace presp::json {

/// Appends `text` as a quoted JSON string. '"' and '\\' are escaped,
/// \n, \t and \r take their short forms and every other byte below 0x20
/// becomes \u00xx; all other bytes (UTF-8 included) pass through.
void append_string(std::string& out, std::string_view text);

/// Appends `v` as a number: integral values under 1e15 in magnitude
/// print without a fraction (byte-stable counters), NaN and +-Inf, which
/// JSON cannot spell, as null, everything else as printf "%.6g".
void append_number(std::string& out, double v);

/// Cursor-based reader over one document. Callers walk their schema
/// with object()/array() and the scalar reads, and skip_value() what
/// they ignore. Failures throw ConfigError
/// "<document> JSON parse error at offset <n>: <what>".
class Reader {
 public:
  /// Deepest array/object nesting skip_value() descends into. SARIF, the
  /// deepest document the tools write, nests 9 levels.
  static constexpr int kMaxDepth = 64;

  /// `text` must outlive the reader; `document` names it in errors
  /// ("trace", "floorplan", ...).
  Reader(std::string_view text, std::string document);

  /// Skips whitespace; consumes `c` if it is next.
  bool consume(char c);
  /// As consume(), but a missing `c` is an error.
  void expect(char c);
  /// Reads a string, decoding every JSON escape (\uXXXX as UTF-8,
  /// surrogate pairs joined). A malformed or unpaired \u is an error.
  std::string string();
  /// Reads any number (out-of-double-range is an error). Only the JSON
  /// grammar is accepted: "nan", "inf" and the like are errors.
  double number();
  /// Skips whitespace; consumes the literal `null` if it is next.
  bool consume_null();
  /// Reads an integer that must fit T: a fraction, an exponent or an
  /// out-of-range value is an error.
  template <typename T>
  T integer();
  /// Skips one value of any type, at most kMaxDepth levels deep.
  void skip_value() { skip_value(0); }

  /// Reads an object, calling `on_member(key)` with the cursor at each
  /// member's value; the callback must consume that value.
  template <typename OnMember>
  void object(OnMember&& on_member) {
    expect('{');
    if (consume('}')) return;
    do {
      const std::string key = string();
      expect(':');
      on_member(key);
    } while (consume(','));
    expect('}');
  }

  /// Reads an array, calling `on_element()` at each element.
  template <typename OnElement>
  void array(OnElement&& on_element) {
    expect('[');
    if (consume(']')) return;
    do {
      on_element();
    } while (consume(','));
    expect(']');
  }

  /// Throws the ConfigError for the current offset.
  [[noreturn]] void fail(const std::string& what) const;

 private:
  void skip_ws();
  void skip_value(int depth);
  /// Consumes "-?[0-9]+" not followed by a fraction or exponent.
  std::string_view integer_token();
  unsigned hex4();
  [[noreturn]] void fail_at(std::size_t offset, const std::string& what) const;

  std::string_view text_;
  std::string document_;
  std::size_t pos_ = 0;
};

template <typename T>
T Reader::integer() {
  const std::string_view token = integer_token();
  T value{};
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc{} || end != token.data() + token.size())
    fail_at(static_cast<std::size_t>(token.data() - text_.data()),
            "integer " + std::string(token) + " out of range");
  return value;
}

}  // namespace presp::json
