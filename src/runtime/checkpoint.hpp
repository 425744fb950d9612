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

/// What loading a manifest found (runtime/durable_log.hpp).
using CheckpointLoad = LogLoad<TrialRecord>;

/// Reads a manifest; never throws on content (missing file → !exists).
CheckpointLoad loadCheckpoint(const std::string& path);

/// Append side of the manifest.
using CheckpointWriter = LogWriter<TrialRecord>;

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
