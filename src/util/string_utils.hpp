// Small string helpers shared by the configuration parser and report
// generators.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace presp {

/// Splits on a single character; adjacent separators yield empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);

/// Joins with a separator (inverse of split for non-empty fields).
std::string join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Lower-cases ASCII characters only.
std::string to_lower(std::string_view text);

/// Parses a non-negative integer; throws ConfigError on malformed input.
long long parse_int(std::string_view text);

/// Parses a floating-point number; throws ConfigError on malformed input.
double parse_double(std::string_view text);

/// Parses true|yes|on|1 / false|no|off|0 (any case); throws ConfigError
/// on anything else.
bool parse_bool(std::string_view text);

}  // namespace presp
