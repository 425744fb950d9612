// Crash-safe append-only JSONL log — the durability layer under the
// checkpoint manifest (runtime/checkpoint.hpp) and the timing sidecar
// (runtime/timing.hpp), and the typed log both are made of: a header
// line plus one line per record, written by LogWriter<Record> and read
// back by loadLog<Record>.
//
// Contract (the ARIES-lite version of a write-ahead log):
//
//   - Every line is written as `payload#xxxxxxxx` where xxxxxxxx is the
//     lowercase-hex CRC-32 of the payload. Readers accept legacy lines
//     without the suffix (pre-existing manifests keep loading) but
//     reject a line whose suffix mismatches — bit rot and torn writes
//     are detected, never silently parsed.
//   - Appends go through the fault seam (support/fault.hpp) to a raw
//     O_APPEND fd. A short or failed write truncates the file back to
//     the last known-good offset, so the log on disk is always a clean
//     prefix of complete lines; the caller keeps the record in memory
//     and a later resume recomputes whatever never became durable.
//   - On (re)open the writer runs scanLog, the one scan every reader
//     of a log uses, to find the file's longest valid prefix (header +
//     lines that pass CRC and the caller's decoder). Anything after the
//     prefix — a torn tail from a kill, a garbled line from bit rot —
//     is moved verbatim to `<path>.quarantine` and the file is
//     truncated to the prefix, so the resumed run appends to a log
//     every future reader trusts end to end.
//   - DurabilityPolicy picks how hard appends push bytes at the disk:
//     `flush` (write-through of the fd, the historical behaviour) or
//     `fsync[:N]` (fdatasync every N appends and on close — survives
//     power loss, not just process death).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/result_io.hpp"

namespace ncg::runtime {

/// How hard an append pushes bytes toward the platter.
struct DurabilityPolicy {
  enum class Kind : std::uint8_t {
    kFlush,  ///< write() per line (survives process death)
    kFsync,  ///< plus fdatasync every N appends and on close
  };
  Kind kind = Kind::kFlush;
  int fsyncEveryN = 1;  ///< kFsync: sync cadence in appends

  friend bool operator==(const DurabilityPolicy&,
                         const DurabilityPolicy&) = default;
};

/// Parses "flush", "fsync" or "fsync:N" (N >= 1, strict integer);
/// nullopt on anything else — the CLI rejects, never guesses.
std::optional<DurabilityPolicy> parseDurabilityPolicy(std::string_view text);

/// `payload#xxxxxxxx` — the integrity-tagged line format.
std::string withLineChecksum(std::string_view payload);

/// Splits a line into payload + verdict. Lines without a syntactically
/// valid `#xxxxxxxx` suffix are legacy: returned whole with
/// `checksummed = false` (the caller's strict decoder has the last
/// word). A present-but-wrong suffix returns nullopt.
struct ChecksummedLine {
  std::string_view payload;
  bool checksummed = false;
};
std::optional<ChecksummedLine> verifyLineChecksum(std::string_view line);

/// Decides one line during a scan: `payload` is the line without its
/// CRC suffix, `index` its position in the file (0 is the header).
using LineValidator =
    std::function<bool(std::string_view payload, std::size_t index)>;

/// One pass over a log file.
struct LogScan {
  std::string contents;  ///< the file's bytes; empty when it is missing
  /// Length and line count (header included) of the longest prefix of
  /// complete lines that all pass their CRC and `validLine`.
  std::size_t validPrefixBytes = 0;
  std::size_t validPrefixLines = 0;
  /// Complete lines failing either check, plus an unterminated tail.
  std::size_t malformedLines = 0;
};

/// Reads `path` and scans it line by line. Every complete line whose
/// CRC checks out reaches `validLine`, past the first failure too, so a
/// reader can collect the decodable lines anywhere in the file.
LogScan scanLog(const std::string& path, const LineValidator& validLine);

/// What the open-time scan found (surfaced by the writers for stats,
/// logs and the quarantine tests).
struct LogOpenReport {
  bool existed = false;            ///< file was present and non-empty
  std::size_t validPrefixBytes = 0;
  std::size_t validPrefixLines = 0;  ///< complete valid lines incl. header
  std::size_t quarantinedBytes = 0;  ///< moved to <path>.quarantine
};

/// The append side. Line validity during the open-time scan is decided
/// by `validLine(payload, index)` — index 0 is the header line.
class DurableLogWriter {
 public:
  DurableLogWriter() = default;  ///< disabled writer; appends are no-ops

  /// Opens `path`, quarantines any corrupt tail, writes `headerPayload`
  /// (checksummed) when the salvaged prefix is empty. Throws ncg::Error
  /// when the file cannot be opened or the quarantine cannot be
  /// written.
  DurableLogWriter(const std::string& path, std::string_view headerPayload,
                   LineValidator validLine, DurabilityPolicy policy = {});

  DurableLogWriter(DurableLogWriter&& other) noexcept;
  DurableLogWriter& operator=(DurableLogWriter&& other) noexcept;
  DurableLogWriter(const DurableLogWriter&) = delete;
  DurableLogWriter& operator=(const DurableLogWriter&) = delete;
  ~DurableLogWriter();

  bool enabled() const { return fd_ >= 0; }

  /// Appends one checksummed line. False when the write failed (the
  /// file was truncated back to the last good offset; the line is NOT
  /// on disk — the caller's in-memory copy is the only one).
  bool appendLine(std::string_view payload);

  /// Final flush: fdatasync under the fsync policy (drain/close path).
  void sync();

  const LogOpenReport& openReport() const { return openReport_; }
  /// Appends that did not reach the disk (injected or real IO errors).
  std::size_t failedAppends() const { return failedAppends_; }

 private:
  void close();

  int fd_ = -1;
  std::string path_;
  DurabilityPolicy policy_;
  std::int64_t goodOffset_ = 0;
  int appendsSinceSync_ = 0;
  std::size_t failedAppends_ = 0;
  LogOpenReport openReport_;
};

/// The quarantine sibling of a log path.
std::string quarantinePath(const std::string& path);

/// What loading a log of `Record` lines found. `records` is the lenient
/// view (every decodable line anywhere in the file, for diagnostics);
/// resume must trust only the first `validPrefixRecords` of them — the
/// records before the first corruption, which is exactly what the
/// writers salvage.
template <typename Record>
struct LogLoad {
  bool exists = false;       ///< file present and non-empty
  bool headerValid = false;  ///< first line decoded as a header
  ResultHeader header;
  std::vector<Record> records;     ///< every decodable record line
  std::size_t malformedLines = 0;  ///< undecodable/CRC-failing lines
  /// Crash-consistency view: the byte length of the trusted prefix
  /// (header + contiguous valid lines from the top), how many records
  /// it holds, and whether anything — torn tail, garbled line — lies
  /// beyond it.
  std::size_t validPrefixBytes = 0;
  std::size_t validPrefixRecords = 0;
  bool corruptTail = false;
};

/// Reads a log whose header carries LineCodec<Record>'s tag; never
/// throws on content (missing file → !exists).
template <typename Record>
LogLoad<Record> loadLog(const std::string& path) {
  using Codec = LineCodec<Record>;
  LogLoad<Record> load;
  const LogScan scan =
      scanLog(path, [&load](std::string_view payload, std::size_t index) {
        if (index == 0) {
          auto header = decodeHeaderLine(payload, Codec::kTag);
          if (!header.has_value()) return false;
          load.headerValid = true;
          load.header = std::move(*header);
          return true;
        }
        auto record = Codec::decode(payload);
        if (!record.has_value()) return false;
        load.records.push_back(std::move(*record));
        return true;
      });
  load.exists = !scan.contents.empty();
  load.malformedLines = scan.malformedLines;
  load.validPrefixBytes = scan.validPrefixBytes;
  load.validPrefixRecords =
      scan.validPrefixLines == 0 ? 0 : scan.validPrefixLines - 1;
  load.corruptTail = scan.validPrefixBytes < scan.contents.size();
  return load;
}

/// Append side of a log of `Record` lines: the header under
/// LineCodec<Record>'s tag, then one line per append(), on the
/// crash-safe DurableLogWriter — CRC-tagged lines, failed appends
/// truncated away, corrupt tails quarantined on open.
template <typename Record>
class LogWriter {
  using Codec = LineCodec<Record>;

 public:
  /// No-op writer (the log is disabled).
  LogWriter() = default;

  /// Opens `path`, quarantines any corrupt tail, and writes `header` if
  /// the salvaged prefix is empty. Throws ncg::Error when the file (or
  /// its quarantine sibling) cannot be opened.
  LogWriter(const std::string& path, const ResultHeader& header,
            DurabilityPolicy durability = {})
      : log_(path, encodeHeaderLine(header, Codec::kTag),
             [](std::string_view payload, std::size_t index) {
               return index == 0
                          ? decodeHeaderLine(payload, Codec::kTag).has_value()
                          : Codec::decode(payload).has_value();
             },
             durability) {}

  bool enabled() const { return log_.enabled(); }

  /// Appends one record line. A failed write (ENOSPC, injected fault)
  /// is truncated away and counted in failedAppends(); the run keeps
  /// the record in memory and a later resume recomputes it.
  void append(const Record& record) {
    if (!log_.enabled()) return;
    (void)log_.appendLine(Codec::encode(record));
  }

  /// Final flush (fdatasync under the fsync policy) — the drain path.
  void sync() { log_.sync(); }

  /// What the open-time salvage scan found/quarantined.
  const LogOpenReport& openReport() const { return log_.openReport(); }
  std::size_t failedAppends() const { return log_.failedAppends(); }

 private:
  DurableLogWriter log_;
};

}  // namespace ncg::runtime
