#include "runtime/checkpoint.hpp"

#include <cstdio>
#include <utility>

#include "support/error.hpp"

namespace ncg::runtime {

CheckpointLoad loadCheckpoint(const std::string& path) {
  CheckpointLoad load;
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) return load;

  std::string line;
  bool first = true;
  bool prefixIntact = true;
  char buffer[4096];
  const auto consume = [&] {
    const std::size_t lineBytes = line.size() + 1;  // incl. newline
    const bool isHeaderSlot = first;
    first = false;
    const auto checked = verifyLineChecksum(line);
    bool valid = false;
    bool isRecord = false;
    if (!checked.has_value()) {
      ++load.malformedLines;  // CRC suffix present but wrong
    } else if (isHeaderSlot) {
      if (auto header = decodeHeaderLine(checked->payload)) {
        load.headerValid = true;
        load.header = std::move(*header);
        valid = true;
      } else {
        ++load.malformedLines;
      }
    } else if (auto record = decodeTrialLine(checked->payload)) {
      load.records.push_back(std::move(*record));
      valid = true;
      isRecord = true;
    } else {
      ++load.malformedLines;
    }
    if (prefixIntact && valid) {
      load.validPrefixBytes += lineBytes;
      if (isRecord) ++load.validPrefixRecords;
    } else {
      prefixIntact = false;
    }
    line.clear();
  };

  bool sawAny = false;
  while (std::fgets(buffer, sizeof buffer, file) != nullptr) {
    sawAny = true;
    line += buffer;
    if (!line.empty() && line.back() == '\n') {
      line.pop_back();
      consume();
    }
  }
  if (!line.empty()) {
    // Unterminated final line: a kill landed mid-write. Skip it.
    ++load.malformedLines;
    prefixIntact = false;
  }
  std::fclose(file);
  load.exists = sawAny;
  load.corruptTail = load.exists && !prefixIntact;
  return load;
}

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   const ResultHeader& header,
                                   DurabilityPolicy durability)
    : log_(path, encodeHeaderLine(header),
           [](std::string_view payload, std::size_t index) {
             return index == 0 ? decodeHeaderLine(payload).has_value()
                               : decodeTrialLine(payload).has_value();
           },
           durability) {}

void CheckpointWriter::append(const TrialRecord& record) {
  if (!log_.enabled()) return;
  (void)log_.appendLine(encodeTrialLine(record));
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
