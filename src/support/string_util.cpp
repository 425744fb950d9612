#include "support/string_util.hpp"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace ncg {

std::string join(const std::vector<std::string>& parts,
                 const std::string& separator) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += separator;
    out += parts[i];
  }
  return out;
}

std::string formatFixed(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", decimals, value);
  return buffer;
}

std::string formatWithCi(double value, double halfWidth, int decimals) {
  return formatFixed(value, decimals) + " ± " +
         formatFixed(halfWidth, decimals);
}

std::string padLeft(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string padRight(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

std::optional<int> parseInteger(std::string_view text) {
  std::size_t pos = 0;
  bool negative = false;
  if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) {
    negative = text[pos] == '-';
    ++pos;
  }
  if (pos == text.size()) return std::nullopt;
  // Accumulate negated so INT_MIN parses without overflowing.
  long long value = 0;
  for (; pos < text.size(); ++pos) {
    const char c = text[pos];
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 - (c - '0');
    if (value < static_cast<long long>(INT_MIN) - 1) return std::nullopt;
  }
  if (!negative) {
    value = -value;
    if (value > INT_MAX) return std::nullopt;
  } else if (value < INT_MIN) {
    return std::nullopt;
  }
  return static_cast<int>(value);
}

std::optional<long long> parseInteger64(std::string_view text) {
  std::size_t pos = 0;
  bool negative = false;
  if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) {
    negative = text[pos] == '-';
    ++pos;
  }
  if (pos == text.size()) return std::nullopt;
  // Accumulate negated so LLONG_MIN parses without overflowing; the
  // pre-multiplication bound catches the overflow the accumulate would
  // commit.
  long long value = 0;
  for (; pos < text.size(); ++pos) {
    const char c = text[pos];
    if (c < '0' || c > '9') return std::nullopt;
    const int digit = c - '0';
    if (value < (LLONG_MIN + digit) / 10) return std::nullopt;
    value = value * 10 - digit;
  }
  if (!negative) {
    if (value == LLONG_MIN) return std::nullopt;
    value = -value;
  }
  return value;
}

bool keyValue(const std::string& arg, const char* prefix,
              std::string& value) {
  const std::size_t len = std::strlen(prefix);
  if (arg.compare(0, len, prefix) != 0) return false;
  value = arg.substr(len);
  return true;
}

bool flagInt(const char* flag, const std::string& value, int minValue,
             int& out) {
  const auto parsed = parseInteger(value);
  if (!parsed.has_value() || *parsed < minValue) {
    std::fprintf(stderr, "%s expects an integer >= %d, got '%s'\n", flag,
                 minValue, value.c_str());
    return false;
  }
  out = *parsed;
  return true;
}

int envInt(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  const auto value = parseInteger(env);
  if (!value.has_value()) {
    // "NCG_PROCS=8x" silently running 8 processes (or a >INT_MAX value
    // truncating through a long→int cast) is how typos corrupt runs;
    // say what was ignored, once, and use the fallback.
    std::fprintf(stderr, "warning: %s='%s' is not an integer, using %d\n",
                 name, env, fallback);
    return fallback;
  }
  if (*value <= 0) return fallback;
  return *value;
}

long long envInt64(const char* name, long long fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  const auto value = parseInteger64(env);
  if (!value.has_value()) {
    std::fprintf(stderr, "warning: %s='%s' is not an integer, using %lld\n",
                 name, env, fallback);
    return fallback;
  }
  if (*value <= 0) return fallback;
  return *value;
}

}  // namespace ncg
