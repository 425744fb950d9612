#include "runtime/checkpoint.hpp"

#include "support/error.hpp"

namespace ncg::runtime {

CheckpointLoad loadCheckpoint(const std::string& path) {
  return loadLog<TrialRecord>(path);
}

RunFiles resumeRun(const Scenario& scenario,
                   const std::vector<ScenarioPoint>& grid,
                   const ResultHeader& header, ScenarioResults& results,
                   const std::string& checkpointPath, bool recordTimings,
                   const std::string& timingsPath,
                   DurabilityPolicy durability) {
  RunFiles files;
  if (!checkpointPath.empty()) {
    const CheckpointLoad load = loadCheckpoint(checkpointPath);
    if (load.exists) {
      NCG_REQUIRE(load.headerValid,
                  "checkpoint '" << checkpointPath
                                 << "' has no valid header line");
      NCG_REQUIRE(load.header.scenario == scenario.name &&
                      load.header.fingerprint == header.fingerprint,
                  "checkpoint '"
                      << checkpointPath
                      << "' was written for a different grid (scenario or "
                         "env knobs changed); delete it to start over");
      // Trust only the salvaged prefix: records past the first
      // corruption are quarantined by the writer below and recomputed,
      // so resume and disk agree line for line.
      for (std::size_t i = 0; i < load.validPrefixRecords; ++i) {
        const TrialRecord& record = load.records[i];
        const bool inRange =
            record.point >= 0 &&
            static_cast<std::size_t>(record.point) < grid.size() &&
            record.trial >= 0 &&
            record.trial < grid[static_cast<std::size_t>(record.point)].trials;
        if (inRange &&
            record.metrics.size() == scenario.metricNames.size()) {
          results.record(record);
        }
      }
    }
    files.manifest = CheckpointWriter(checkpointPath, header, durability);
  }

  // The timing sidecar lives NEXT TO the manifest, never inside it: the
  // manifest (and thus the byte-identity / kill-resume pins) is the
  // same with timing on or off.
  if (recordTimings) {
    const std::string sidecarPath =
        !timingsPath.empty()
            ? timingsPath
            : (!checkpointPath.empty() ? timingSidecarPath(checkpointPath)
                                       : std::string());
    if (!sidecarPath.empty()) {
      files.timings = TimingWriter(sidecarPath, header, durability);
    }
  }
  return files;
}

}  // namespace ncg::runtime
