// Completed-trial manifest for kill/resume of long scenario runs.
//
// The manifest is a JSONL file: one header line identifying the grid
// (scenario name + fingerprint), then one line per completed trial in
// completion order. Since the durability PR every line carries a
// CRC-32 suffix (`payload#xxxxxxxx`, see runtime/durable_log.hpp);
// legacy manifests without the suffix keep loading. Appends are
// crash-safe: a failed or torn write is truncated away so the file is
// always a clean prefix of complete lines, and reopening a manifest
// with a corrupt tail (torn write, bit rot, mid-file garbling)
// quarantines the tail to `<path>.quarantine` and resumes from the
// salvaged prefix. Because trial seeds depend only on (point, trial),
// a resumed run finishes with results bitwise identical to an
// uninterrupted one (pinned by the differential and chaos suites).
#pragma once

#include <string>
#include <vector>

#include "runtime/durable_log.hpp"
#include "runtime/result_io.hpp"
#include "runtime/scenario.hpp"
#include "runtime/timing.hpp"

namespace ncg::runtime {

/// What loading a manifest file found. `records` is the lenient view
/// (every decodable line anywhere in the file, for diagnostics);
/// resume must trust only the first `validPrefixRecords` of them — the
/// records before the first corruption, which is exactly what the
/// writers salvage.
struct CheckpointLoad {
  bool exists = false;      ///< file present and non-empty
  bool headerValid = false; ///< first line decoded as a header
  ResultHeader header;
  std::vector<TrialRecord> records;  ///< every decodable trial line
  std::size_t malformedLines = 0;    ///< undecodable/CRC-failing lines
  /// Crash-consistency view: the byte length of the trusted prefix
  /// (header + contiguous valid lines from the top), how many records
  /// it holds, and whether anything — torn tail, garbled line — lies
  /// beyond it.
  std::size_t validPrefixBytes = 0;
  std::size_t validPrefixRecords = 0;
  bool corruptTail = false;
};

/// Reads a manifest; never throws on content (missing file → !exists).
CheckpointLoad loadCheckpoint(const std::string& path);

/// Append-side of the manifest, on the crash-safe DurableLogWriter:
/// CRC-tagged lines, failed appends truncated away, corrupt tails
/// quarantined on open, durability per DurabilityPolicy.
class CheckpointWriter {
 public:
  /// No-op writer (checkpointing disabled).
  CheckpointWriter() = default;

  /// Opens `path`, quarantines any corrupt tail, and writes `header` if
  /// the salvaged prefix is empty. Throws ncg::Error when the file (or
  /// its quarantine sibling) cannot be opened.
  CheckpointWriter(const std::string& path, const ResultHeader& header,
                   DurabilityPolicy durability = {});

  CheckpointWriter(CheckpointWriter&&) noexcept = default;
  CheckpointWriter& operator=(CheckpointWriter&&) noexcept = default;
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  bool enabled() const { return log_.enabled(); }

  /// Appends one trial line. A failed write (ENOSPC, injected fault) is
  /// truncated away and counted in failedAppends(); the run keeps the
  /// record in memory and a later resume recomputes it.
  void append(const TrialRecord& record);

  /// Final flush (fdatasync under the fsync policy) — the drain path.
  void sync() { log_.sync(); }

  /// What the open-time salvage scan found/quarantined.
  const LogOpenReport& openReport() const { return log_.openReport(); }
  std::size_t failedAppends() const { return log_.failedAppends(); }

 private:
  DurableLogWriter log_;
};

/// The files a run appends to, opened by resumeRun().
struct RunFiles {
  CheckpointWriter manifest;  ///< no-op when checkpointing is off
  TimingWriter timings;       ///< no-op when no sidecar is written
};

/// Resumes a run of `scenario` over `grid`, whose manifest header is
/// `header`, and opens the files it appends to. When `checkpointPath`
/// names a non-empty manifest, its header must be valid and match the
/// scenario and fingerprint (ncg::Error otherwise), and the records of
/// its salvaged prefix that fit the grid are replayed into `results`.
/// The manifest writer then opens `checkpointPath` (when non-empty),
/// and, when `recordTimings` is set, the timing sidecar opens at
/// `timingsPath`, or next to the manifest when that is empty.
RunFiles resumeRun(const Scenario& scenario,
                   const std::vector<ScenarioPoint>& grid,
                   const ResultHeader& header, ScenarioResults& results,
                   const std::string& checkpointPath, bool recordTimings,
                   const std::string& timingsPath,
                   DurabilityPolicy durability);

}  // namespace ncg::runtime
