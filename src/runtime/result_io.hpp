// JSON-lines wire/persistence format for trial results.
//
// One line per completed trial, carrying every metric twice: as a
// human-readable decimal ("values") and as the IEEE-754 bit pattern in
// hex ("bits"). Decoding reconstructs the doubles from the bit
// patterns, so a metric survives a worker pipe or a checkpoint file
// *bitwise* — the property the multi-process determinism guarantee
// (same results for any NCG_PROCS) rests on. Decoders return false on
// anything malformed instead of throwing: a killed run legitimately
// leaves a truncated final line, and resume must skip it.
//
// Every decoder of the runtime's line formats — the header and trial
// lines here, the timing lines (runtime/timing.hpp) and the lease
// service's payloads (runtime/wire.hpp) — reads through one LineCursor,
// so all of them share one strict notion of a literal, an integer in
// range, a bit pattern and a string.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "runtime/scenario.hpp"

namespace ncg::runtime {

/// Strict left-to-right reader of one line. Each step consumes exactly
/// what it names and returns false on anything else; a decoder chains
/// the steps with && and rejects the line at the first false.
class LineCursor {
 public:
  explicit LineCursor(std::string_view line) : line_(line) {}

  /// `token`, byte for byte. A mismatch leaves the cursor where it was,
  /// so a literal also probes for an optional token.
  bool literal(std::string_view token);

  /// A decimal integer in [min, max]: digits, with a leading '-' only
  /// when min < 0, parsed by the overflow-checked parseInteger64.
  bool integer(std::int64_t min, std::int64_t max, std::int64_t& out);

  /// A non-negative decimal integer that fits `out`'s type: indices,
  /// counters and ids. Unsigned 64-bit fields stop at INT64_MAX; every
  /// value the program writes there is a count far below it.
  template <typename Int>
  bool integer(Int& out) {
    constexpr std::uint64_t kMax =
        std::min<std::uint64_t>(std::numeric_limits<Int>::max(),
                                std::numeric_limits<std::int64_t>::max());
    std::int64_t value = 0;
    if (!integer(0, static_cast<std::int64_t>(kMax), value)) return false;
    out = static_cast<Int>(value);
    return true;
  }

  /// A quoted "0x<16 hex digits>" bit pattern.
  bool hexBits(std::uint64_t& out);

  /// A quoted string without escapes (no writer emits one).
  bool quoted(std::string& out);

  /// Everything up to and including the first `token`.
  bool skipPast(std::string_view token);

  /// True when the whole line has been consumed.
  bool end() const { return pos_ == line_.size(); }

 private:
  std::string_view line_;
  std::size_t pos_ = 0;
};

/// Identifies the grid a stream of trial lines belongs to.
struct ResultHeader {
  std::string scenario;
  std::uint64_t fingerprint = 0;  ///< scenarioFingerprint of the grid
  std::size_t points = 0;
  std::size_t trialsTotal = 0;

  friend bool operator==(const ResultHeader&, const ResultHeader&) = default;
};

/// First key of the result manifest's header line (and of kWelcome's).
inline constexpr std::string_view kManifestTag = "ncg_run";

/// {"<tag>":1,"scenario":...,"fingerprint":"0x...","points":N,"trials":T}
/// — the first line of the manifest (tag "ncg_run") and of every other
/// log that describes the same grid under its own tag.
std::string encodeHeaderLine(const ResultHeader& header,
                             std::string_view tag = kManifestTag);

/// Parses a header line whose first key is `tag`; nullopt when the line
/// is anything else, trailing bytes included.
std::optional<ResultHeader> decodeHeaderLine(
    std::string_view line, std::string_view tag = kManifestTag);

/// {"point":P,"trial":T,"bits":["0x...",...],"values":[...]}
std::string encodeTrialLine(const TrialRecord& record);

/// Parses a trial line (metrics from "bits"); nullopt when malformed
/// or truncated.
std::optional<TrialRecord> decodeTrialLine(std::string_view line);

/// The line format of a log whose records are `Record`: the tag of its
/// header line and the codec of its record lines. The typed log
/// (runtime/durable_log.hpp) reads and writes through it; each record
/// type specialises it next to its codec.
template <typename Record>
struct LineCodec;

template <>
struct LineCodec<TrialRecord> {
  static constexpr std::string_view kTag = kManifestTag;
  static constexpr auto encode = encodeTrialLine;
  static constexpr auto decode = decodeTrialLine;
};

}  // namespace ncg::runtime
