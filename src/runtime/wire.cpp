#include "runtime/wire.hpp"

#include "support/error.hpp"

namespace ncg::runtime {

bool isKnownFrameType(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(FrameType::kHello) &&
         type <= static_cast<std::uint8_t>(FrameType::kTiming);
}

std::string encodeFrame(FrameType type, std::string_view payload) {
  NCG_REQUIRE(payload.size() <= kMaxFramePayload,
              "frame payload of " << payload.size() << " bytes exceeds the "
                                  << kMaxFramePayload << " byte limit");
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size());
  std::string out;
  out.reserve(5 + payload.size());
  out.push_back(static_cast<char>(length & 0xFF));
  out.push_back(static_cast<char>((length >> 8) & 0xFF));
  out.push_back(static_cast<char>((length >> 16) & 0xFF));
  out.push_back(static_cast<char>((length >> 24) & 0xFF));
  out.push_back(static_cast<char>(type));
  out.append(payload);
  return out;
}

void FrameReader::feed(const char* data, std::size_t size) {
  if (corrupt_) return;  // poisoned: discard everything after the error
  buffer_.append(data, size);
}

std::optional<Frame> FrameReader::next() {
  if (corrupt_) return std::nullopt;
  if (buffer_.size() - pos_ < 5) {
    // Compact once the consumed prefix dominates the buffer.
    if (pos_ > 0 && pos_ >= buffer_.size() / 2) {
      buffer_.erase(0, pos_);
      pos_ = 0;
    }
    return std::nullopt;
  }
  const unsigned char* head =
      reinterpret_cast<const unsigned char*>(buffer_.data() + pos_);
  const std::uint32_t length =
      static_cast<std::uint32_t>(head[0]) |
      (static_cast<std::uint32_t>(head[1]) << 8) |
      (static_cast<std::uint32_t>(head[2]) << 16) |
      (static_cast<std::uint32_t>(head[3]) << 24);
  const std::uint8_t type = head[4];
  // Validate the header before waiting for the payload: a garbage
  // length prefix must poison the stream now, not after a futile
  // attempt to buffer gigabytes.
  if (length > maxPayload_) {
    corrupt_ = true;
    error_ = "frame length " + std::to_string(length) +
             " exceeds the payload limit";
    return std::nullopt;
  }
  if (!isKnownFrameType(type)) {
    corrupt_ = true;
    error_ = "unknown frame type " + std::to_string(type);
    return std::nullopt;
  }
  if (buffer_.size() - pos_ < 5 + static_cast<std::size_t>(length)) {
    return std::nullopt;  // truncated: wait for more bytes
  }
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.assign(buffer_, pos_ + 5, length);
  pos_ += 5 + static_cast<std::size_t>(length);
  if (pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  }
  return frame;
}

std::string encodeLeaseGrant(const LeaseGrant& grant) {
  std::string out = "{\"lease\":" + std::to_string(grant.leaseId);
  out += ",\"units\":[";
  for (std::size_t i = 0; i < grant.units.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(grant.units[i]);
  }
  out += "]}";
  return out;
}

std::optional<LeaseGrant> decodeLeaseGrant(std::string_view payload) {
  LineCursor in(payload);
  LeaseGrant grant;
  if (!in.literal("{\"lease\":") || !in.integer(grant.leaseId) ||
      !in.literal(",\"units\":[")) {
    return std::nullopt;
  }
  if (!in.literal("]")) {
    do {
      std::uint64_t unit = 0;
      if (!in.integer(unit)) return std::nullopt;
      grant.units.push_back(unit);
    } while (in.literal(","));
    if (!in.literal("]")) return std::nullopt;
  }
  if (!in.literal("}") || !in.end()) return std::nullopt;
  return grant;
}

std::string encodeWelcome(const Welcome& welcome) {
  return encodeHeaderLine(welcome.header) + "\n" +
         std::to_string(welcome.heartbeatMs);
}

std::optional<Welcome> decodeWelcome(std::string_view payload) {
  const std::size_t nl = payload.find('\n');
  if (nl == std::string_view::npos) return std::nullopt;
  Welcome welcome;
  const auto header = decodeHeaderLine(payload.substr(0, nl));
  if (!header.has_value()) return std::nullopt;
  welcome.header = *header;
  const auto ms = decodeDecimal(payload.substr(nl + 1));
  if (!ms.has_value() || *ms > 86400000) return std::nullopt;
  welcome.heartbeatMs = static_cast<int>(*ms);
  return welcome;
}

std::optional<std::uint64_t> decodeDecimal(std::string_view payload) {
  LineCursor in(payload);
  std::uint64_t value = 0;
  if (!in.integer(value) || !in.end()) return std::nullopt;
  return value;
}

}  // namespace ncg::runtime
