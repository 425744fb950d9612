// Length-prefixed frame protocol of the shard-lease service.
//
// A frame is [u32 little-endian payload length][u8 type][payload].
// Payloads reuse the runtime layer's existing line formats where one
// exists — a kResult payload is exactly one result_io trial line, so a
// metric crosses the wire as its IEEE-754 bit pattern and the
// multi-host determinism guarantee rests on the same codec the
// checkpoint manifest uses. Every payload decoder reads through
// result_io's LineCursor, so it validates strictly — each integer in
// its field's range — and reports failure instead of guessing, because
// the server's response to any malformed input is to drop the
// connection and re-lease the dead worker's shards — never to crash or
// corrupt the manifest.
//
// Conversation (worker → server unless noted):
//   kHello(scenario name)  → kWelcome(header line + heartbeat interval)
//   kLeaseRequest          → kLeaseGrant(lease id + unit indices),
//                            kRetry(wait ms; everything is leased out),
//                            or kDone(grid complete)
//   kResult(trial line)    — one per finished unit, any time
//   kHeartbeat             — keep-alive; any frame refreshes the lease
//   kTiming(timing line)   — per-unit wall-clock observability; routed
//                            to the timing sidecar, never the manifest
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/result_io.hpp"

namespace ncg::runtime {

enum class FrameType : std::uint8_t {
  kHello = 1,
  kWelcome = 2,
  kLeaseRequest = 3,
  kLeaseGrant = 4,
  kRetry = 5,
  kDone = 6,
  kResult = 7,
  kHeartbeat = 8,
  kTiming = 9,
};

/// True for the frame types listed above — anything else in a type
/// byte is a protocol violation.
bool isKnownFrameType(std::uint8_t type);

/// Frame types the fabric survives losing outright: a lost kResult or
/// kHeartbeat costs at most a lease expiry, a re-lease and a deduped
/// recomputation; a lost kTiming costs one sidecar line. Every other
/// type is half of a blocking request/response exchange — losing one
/// would hang a reader — so the chaos seam (support/fault.hpp) must
/// only ever drop frames this predicate admits.
constexpr bool frameLossSurvivable(FrameType type) {
  return type == FrameType::kResult || type == FrameType::kHeartbeat ||
         type == FrameType::kTiming;
}

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::string payload;

  friend bool operator==(const Frame&, const Frame&) = default;
};

/// Hard ceiling on a payload; a length prefix beyond it is treated as
/// garbage (the strict decoder never allocates attacker-chosen sizes).
inline constexpr std::size_t kMaxFramePayload = 1 << 20;

/// Serializes one frame. Throws ncg::Error when the payload exceeds
/// kMaxFramePayload (a server-side bug, not a wire condition).
std::string encodeFrame(FrameType type, std::string_view payload);

/// Incremental frame decoder: feed() raw bytes as they arrive, next()
/// yields complete frames. The first malformed header (unknown type or
/// oversized length) poisons the reader — corrupt() turns true and
/// next() never yields again; the owning connection must be dropped.
class FrameReader {
 public:
  explicit FrameReader(std::size_t maxPayload = kMaxFramePayload)
      : maxPayload_(maxPayload) {}

  void feed(const char* data, std::size_t size);

  /// Next complete frame; nullopt when more bytes are needed or the
  /// stream is corrupt (check corrupt() to tell the cases apart).
  std::optional<Frame> next();

  bool corrupt() const { return corrupt_; }
  const std::string& error() const { return error_; }

  /// Bytes buffered but not yet consumed as frames.
  std::size_t pendingBytes() const { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  std::size_t pos_ = 0;
  std::size_t maxPayload_;
  bool corrupt_ = false;
  std::string error_;
};

/// kLeaseGrant payload: {"lease":N,"units":[u0,u1,...]} where each u is
/// an index into the canonical point-major, trial-minor unit
/// enumeration of the grid both sides agreed on in the handshake.
struct LeaseGrant {
  std::uint64_t leaseId = 0;
  std::vector<std::uint64_t> units;

  friend bool operator==(const LeaseGrant&, const LeaseGrant&) = default;
};

std::string encodeLeaseGrant(const LeaseGrant& grant);
std::optional<LeaseGrant> decodeLeaseGrant(std::string_view payload);

/// kWelcome payload: the manifest header line (scenario, grid
/// fingerprint, slot counts) followed by '\n' and the lease heartbeat
/// interval in ms. The worker refuses to work when the header does not
/// equal the one it derives locally — env knobs must match across
/// hosts or the grids would silently differ.
struct Welcome {
  ResultHeader header;
  int heartbeatMs = 0;

  friend bool operator==(const Welcome&, const Welcome&) = default;
};

std::string encodeWelcome(const Welcome& welcome);
std::optional<Welcome> decodeWelcome(std::string_view payload);

/// Parses an all-digits decimal up to INT64_MAX (kRetry payloads, the
/// port of an address); nullopt otherwise.
std::optional<std::uint64_t> decodeDecimal(std::string_view payload);

}  // namespace ncg::runtime
