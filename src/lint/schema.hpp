// Typed key schema for the scalar config sections ([fleet], [ops] and the
// [runtime] knobs). A section is one Table with a row per key: how the key
// parses into the section struct (strict parse_int / parse_double /
// parse_bool) and its checks, each a predicate over the whole struct with
// a severity, rule id, message and hint. A key's default is the struct's
// own member initializer. Each table yields read() (from_config: unknown
// key or malformed value -> ConfigError), validate() (first failing
// *error* check -> InvalidArgument) and lint() (config.unknown-key with a
// did-you-mean hint, malformed values, every failing check under its rule
// id at the key's line). Warnings are lint-only, so for every section a
// lint error <=> validate() throws.
#pragma once

#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "lint/diagnostic.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "util/string_utils.hpp"

namespace presp::schema {

using lint::Severity;

template <class V>
void parse_into(V& out, const std::string& text) {
  if constexpr (std::is_same_v<V, bool>) {
    out = parse_bool(text);
  } else if constexpr (std::is_same_v<V, std::string>) {
    out = text;
  } else if constexpr (std::is_floating_point_v<V>) {
    out = parse_double(text);
  } else {
    const long long value = parse_int(text);
    if (value < std::numeric_limits<V>::min() ||
        value > std::numeric_limits<V>::max())
      throw ConfigError("integer out of range: '" + text + "'");
    out = static_cast<V>(value);
  }
}

/// The known key closest to `key` when it is a plausible typo, else "".
std::string closest_key(const std::string& key,
                        const std::vector<std::string>& known);

template <class T>
using Pred = std::function<bool(const T&)>;
template <class T>
using Parse = std::function<void(T&, const std::string&)>;

/// Parses into a field of the section struct, or of its member `outer`.
template <class V, class S, class T = S>
Parse<T> field(V S::*member, S T::*outer = nullptr) {
  return [member, outer](T& t, const std::string& text) {
    if constexpr (std::is_same_v<S, T>) parse_into(t.*member, text);
    else parse_into(t.*outer.*member, text);
  };
}

template <class T>
struct Check {
  Severity severity;
  std::string rule;
  Pred<T> ok;
  std::string message;
  std::string hint;
};

template <class T>
struct Row {
  std::string key;
  Parse<T> parse;
  Pred<T> when;  // the row's checks apply only while this holds
  std::vector<Check<T>> checks;

  Row& error(std::string rule, Pred<T> ok, std::string message,
             std::string hint) {
    checks.push_back({Severity::kError, rule, ok, message, hint});
    return *this;
  }
  Row& warning(std::string rule, Pred<T> ok, std::string message,
               std::string hint) {
    checks.push_back({Severity::kWarning, rule, ok, message, hint});
    return *this;
  }
};

template <class T>
class Table {
 public:
  using Locate = std::function<lint::SourceLoc(const std::string& key)>;

  /// Malformed values lint under `malformed_rule` (default: the rule of
  /// the key's first check). Keys starting with `structured` (when set)
  /// are parsed elsewhere and skipped.
  explicit Table(std::string section, std::string malformed_rule = "",
                 std::string structured = "")
      : section_(std::move(section)), malformed_(std::move(malformed_rule)),
        structured_(std::move(structured)) {}

  const std::string& section() const { return section_; }
  const std::vector<Row<T>>& rows() const { return rows_; }
  Row<T>& row(std::string key, Parse<T> parse, Pred<T> when = nullptr) {
    return rows_.emplace_back(Row<T>{std::move(key), parse, when, {}});
  }
  Row<T>& at(const std::string& key) {
    const Row<T>* r = find(key);
    PRESP_ASSERT_MSG(r != nullptr, key);
    return *const_cast<Row<T>*>(r);
  }

  void read(const Config& config, T& out, bool allow_unknown = false) const {
    scan(config, &out, [&](const std::string& key, const Row<T>* r,
                           const std::string& what) {
      if (r != nullptr || !allow_unknown)
        throw ConfigError(what + (r ? "" : " (" + suggest(key) + ")"));
    });
  }

  void validate(const T& value) const {
    for_failing(value, [&](const Row<T>& r, const Check<T>& c) {
      if (c.severity == Severity::kError)
        throw InvalidArgument("[" + section_ + "] " + r.key + ": " +
                              c.message);
    });
  }

  /// Lints the section when the config has it. `parsed` is the struct as
  /// its own reader built it (that reader reports malformed values);
  /// otherwise the section is read here and checked only if it parses.
  void lint(const Config& config, const Locate& locate,
            lint::DiagnosticEngine& engine, const T* parsed = nullptr) const {
    if (config.keys(section_).empty()) return;
    T value{};
    bool clean = true;
    scan(config, parsed ? nullptr : &value,
         [&](const std::string& key, const Row<T>* r, const std::string& what) {
           clean &= r == nullptr;
           std::string rule = malformed_;
           if (rule.empty() && r && !r->checks.empty())
             rule = r->checks.front().rule;
           engine.add({r ? rule : "config.unknown-key", Severity::kError,
                       locate(key), what, r ? "" : suggest(key)});
         });
    if (!clean) return;
    for_failing(parsed ? *parsed : value,
                [&](const Row<T>& r, const Check<T>& c) {
                  const std::string text = config.get_or(section_, r.key, "");
                  engine.add({c.rule, c.severity, locate(r.key),
                              r.key + (text.empty() ? "" : " = " + text) +
                                  ": " + c.message,
                              c.hint});
                });
  }

 private:
  const Row<T>* find(const std::string& key) const {
    for (const Row<T>& r : rows_)
      if (r.key == key) return &r;
    return nullptr;
  }
  std::string suggest(const std::string& key) const {
    std::vector<std::string> known;
    for (const Row<T>& r : rows_) known.push_back(r.key);
    const std::string near = closest_key(key, known);
    return near.empty() ? "not a [" + section_ + "] key; remove it"
                        : "did you mean '" + near + "'?";
  }
  /// Reports each unknown key (null row) and, when `out` is set, parses
  /// the known ones, reporting each malformed value.
  template <class Report>
  void scan(const Config& config, T* out, const Report& report) const {
    for (const std::string& key : config.keys(section_)) {
      if (!structured_.empty() && starts_with(key, structured_)) continue;
      const Row<T>* r = find(key);
      if (r == nullptr) {
        report(key, r, "unknown [" + section_ + "] key '" + key + "'");
        continue;
      }
      try {
        if (out != nullptr) r->parse(*out, config.get(section_, key));
      } catch (const ConfigError& e) {
        report(key, r, "malformed [" + section_ + "] section: " + key +
                           ": " + e.what());
      }
    }
  }
  template <class Fn>
  void for_failing(const T& value, const Fn& fn) const {
    for (const Row<T>& r : rows_)
      if (!r.when || r.when(value))
        for (const Check<T>& c : r.checks)
          if (!c.ok(value)) fn(r, c);
  }

  std::string section_;
  std::string malformed_;
  std::string structured_;
  std::vector<Row<T>> rows_;
};

}  // namespace presp::schema
