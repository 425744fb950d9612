// Small string/formatting helpers used by the table writers, the env
// knobs and the CLI flag parsers.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ncg {

/// Joins elements with a separator: join({"a","b"}, ", ") == "a, b".
std::string join(const std::vector<std::string>& parts,
                 const std::string& separator);

/// Fixed-precision decimal formatting, e.g. formatFixed(3.14159, 2) == "3.14".
std::string formatFixed(double value, int decimals);

/// Formats `value ± halfWidth` with the given number of decimals.
std::string formatWithCi(double value, double halfWidth, int decimals);

/// Left-pads `s` with spaces to at least `width` characters.
std::string padLeft(const std::string& s, std::size_t width);

/// Right-pads `s` with spaces to at least `width` characters.
std::string padRight(const std::string& s, std::size_t width);

/// Strictly parses a whole string as a decimal integer: an optional
/// sign followed by digits and nothing else. Trailing garbage ("8x"),
/// leading/trailing whitespace, an empty string and values outside
/// int's range all yield nullopt — never a truncated or prefix-parsed
/// value. The parser behind envInt and the CLI flag values.
std::optional<int> parseInteger(std::string_view text);

/// 64-bit variant of parseInteger, same strictness. Needed by byte-sized
/// knobs (NCG_ARENA_BUDGET) and the edge-list loader's overflow checks,
/// where int's range is too small.
std::optional<long long> parseInteger64(std::string_view text);

/// Parses "--key=value" into `value`; true when `arg` starts with the
/// key prefix. The option matcher of the ncg_run / ncg_serve CLIs.
bool keyValue(const std::string& arg, const char* prefix, std::string& value);

/// Strictly parses a CLI flag value as an integer >= minValue; reports
/// the offending flag on stderr and returns false otherwise. std::stoi's
/// prefix parsing ("8x" → 8) and std::stoul's negative wrap-around
/// ("-1" → SIZE_MAX) are exactly what this replaces.
bool flagInt(const char* flag, const std::string& value, int minValue,
             int& out);

/// Parses a positive integer from an environment variable, with fallback.
/// Used by benches for NCG_TRIALS / NCG_SCALE style knobs. Malformed
/// text (trailing garbage, out-of-int-range values) falls back with a
/// one-line stderr warning; a well-formed non-positive value falls back
/// silently (NCG_SCALE=0 is a legitimate "off").
int envInt(const char* name, int fallback);

/// 64-bit envInt with the same fallback discipline (malformed warns,
/// non-positive falls back silently — 0 meaning "off"/"unlimited" is
/// expressed by a 0 fallback).
long long envInt64(const char* name, long long fallback);

}  // namespace ncg
