#include "runtime/result_io.hpp"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/string_util.hpp"

namespace ncg::runtime {

namespace {

void appendHex(std::string& out, std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "0x%016llX",
                static_cast<unsigned long long>(value));
  out += buffer;
}

}  // namespace

bool LineCursor::literal(std::string_view token) {
  if (line_.substr(pos_, token.size()) != token) return false;
  pos_ += token.size();
  return true;
}

bool LineCursor::integer(std::int64_t min, std::int64_t max,
                         std::int64_t& out) {
  std::size_t end = pos_;
  if (min < 0 && end < line_.size() && line_[end] == '-') ++end;
  const std::size_t digits = end;
  while (end < line_.size() && line_[end] >= '0' && line_[end] <= '9') ++end;
  if (end == digits) return false;
  const auto value = parseInteger64(line_.substr(pos_, end - pos_));
  if (!value.has_value() || *value < min || *value > max) return false;
  out = *value;
  pos_ = end;
  return true;
}

bool LineCursor::hexBits(std::uint64_t& out) {
  if (!literal("\"0x")) return false;
  std::uint64_t value = 0;
  for (int digit = 0; digit < 16; ++digit) {
    if (pos_ == line_.size()) return false;
    const char c = line_[pos_++];
    int nibble;
    if (c >= '0' && c <= '9') {
      nibble = c - '0';
    } else if (c >= 'A' && c <= 'F') {
      nibble = c - 'A' + 10;
    } else if (c >= 'a' && c <= 'f') {
      nibble = c - 'a' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<std::uint64_t>(nibble);
  }
  if (!literal("\"")) return false;
  out = value;
  return true;
}

bool LineCursor::quoted(std::string& out) {
  if (!literal("\"")) return false;
  const std::size_t close = line_.find('"', pos_);
  if (close == std::string_view::npos) return false;
  out.assign(line_.substr(pos_, close - pos_));
  pos_ = close + 1;
  return true;
}

bool LineCursor::skipPast(std::string_view token) {
  const std::size_t at = line_.find(token, pos_);
  if (at == std::string_view::npos) return false;
  pos_ = at + token.size();
  return true;
}

std::string encodeHeaderLine(const ResultHeader& header,
                             std::string_view tag) {
  std::string out = "{\"";
  out += tag;
  out += "\":1,\"scenario\":\"";
  out += header.scenario;
  out += "\",\"fingerprint\":\"";
  appendHex(out, header.fingerprint);
  out += "\",\"points\":" + std::to_string(header.points);
  out += ",\"trials\":" + std::to_string(header.trialsTotal);
  out += "}";
  return out;
}

std::optional<ResultHeader> decodeHeaderLine(std::string_view line,
                                             std::string_view tag) {
  LineCursor in(line);
  ResultHeader header;
  if (!in.literal("{\"") || !in.literal(tag) ||
      !in.literal("\":1,\"scenario\":") || !in.quoted(header.scenario) ||
      !in.literal(",\"fingerprint\":") || !in.hexBits(header.fingerprint) ||
      !in.literal(",\"points\":") || !in.integer(header.points) ||
      !in.literal(",\"trials\":") || !in.integer(header.trialsTotal) ||
      !in.literal("}") || !in.end()) {
    return std::nullopt;
  }
  return header;
}

std::string encodeTrialLine(const TrialRecord& record) {
  std::string out = "{\"point\":" + std::to_string(record.point);
  out += ",\"trial\":" + std::to_string(record.trial);
  out += ",\"bits\":[";
  for (std::size_t i = 0; i < record.metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"";
    appendHex(out, std::bit_cast<std::uint64_t>(record.metrics[i]));
    out += "\"";
  }
  out += "],\"values\":[";
  char buffer[40];
  for (std::size_t i = 0; i < record.metrics.size(); ++i) {
    if (i > 0) out += ",";
    // %.17g would print bare nan/inf tokens, which are not JSON; the
    // readable array degrades to null there ("bits" keeps the exact
    // pattern).
    if (std::isfinite(record.metrics[i])) {
      std::snprintf(buffer, sizeof buffer, "%.17g", record.metrics[i]);
      out += buffer;
    } else {
      out += "null";
    }
  }
  out += "]}";
  return out;
}

std::optional<TrialRecord> decodeTrialLine(std::string_view line) {
  LineCursor in(line);
  TrialRecord record;
  if (!in.literal("{\"point\":") || !in.integer(record.point) ||
      !in.literal(",\"trial\":") || !in.integer(record.trial) ||
      !in.literal(",\"bits\":[")) {
    return std::nullopt;
  }
  if (!in.literal("]")) {
    do {
      std::uint64_t bits = 0;
      if (!in.hexBits(bits)) return std::nullopt;
      record.metrics.push_back(std::bit_cast<double>(bits));
    } while (in.literal(","));
    if (!in.literal("]")) return std::nullopt;
  }
  // The "values" tail is for humans; require it to be present and the
  // line to close, so a truncated write is rejected as a whole.
  if (!in.literal(",\"values\":[") || !in.skipPast("]}") || !in.end()) {
    return std::nullopt;
  }
  return record;
}

}  // namespace ncg::runtime
