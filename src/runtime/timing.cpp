#include "runtime/timing.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <limits>

#include "support/build_info.hpp"
#include "support/env.hpp"
#include "support/error.hpp"

namespace ncg::runtime {

std::string encodeTimingLine(const UnitTiming& timing) {
  std::string out = "{\"unit_timing\":1,\"point\":" +
                    std::to_string(timing.point);
  out += ",\"trial\":" + std::to_string(timing.trial);
  out += ",\"start_us\":" + std::to_string(timing.startUs);
  out += ",\"dur_us\":" + std::to_string(timing.durationUs);
  out += ",\"worker\":" + std::to_string(timing.worker);
  out += "}";
  return out;
}

std::optional<UnitTiming> decodeTimingLine(std::string_view line) {
  // Monotonic timestamps are non-negative in practice, but the codec
  // must round-trip whatever the clock seam produced (a ManualClock can
  // be set anywhere).
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  LineCursor in(line);
  UnitTiming timing;
  if (!in.literal("{\"unit_timing\":1,\"point\":") ||
      !in.integer(timing.point) || !in.literal(",\"trial\":") ||
      !in.integer(timing.trial) || !in.literal(",\"start_us\":") ||
      !in.integer(kMin, kMax, timing.startUs) ||
      !in.literal(",\"dur_us\":") ||
      !in.integer(kMin, kMax, timing.durationUs) ||
      !in.literal(",\"worker\":") || !in.integer(timing.worker) ||
      !in.literal("}") || !in.end()) {
    return std::nullopt;
  }
  return timing;
}

std::string timingSidecarPath(const std::string& checkpointPath) {
  return checkpointPath + ".timings.jsonl";
}

TimingLoad loadTimingSidecar(const std::string& path) {
  return loadLog<UnitTiming>(path);
}

TimingSummary summarizeTimings(const std::vector<ScenarioPoint>& points,
                               const std::vector<UnitTiming>& timings) {
  TimingSummary summary;
  summary.perPoint.resize(points.size());
  std::vector<std::vector<double>> perPointSeconds(points.size());
  for (const UnitTiming& t : timings) {
    if (t.point < 0 || static_cast<std::size_t>(t.point) >= points.size()) {
      continue;
    }
    const double seconds = static_cast<double>(t.durationUs) / 1e6;
    perPointSeconds[static_cast<std::size_t>(t.point)].push_back(seconds);
  }
  for (std::size_t p = 0; p < points.size(); ++p) {
    std::vector<double>& secs = perPointSeconds[p];
    PointTimingSummary& row = summary.perPoint[p];
    row.units = secs.size();
    if (secs.empty()) continue;
    std::sort(secs.begin(), secs.end());
    for (const double s : secs) row.totalSeconds += s;
    row.maxSeconds = secs.back();
    // Median: lower-middle element for even counts (no interpolation —
    // a digest, not a statistic the paper reports).
    row.p50Seconds = secs[(secs.size() - 1) / 2];
    summary.units += row.units;
    summary.totalSeconds += row.totalSeconds;
    summary.maxSeconds = std::max(summary.maxSeconds, row.maxSeconds);
  }
  summary.peakRssKb = currentPeakRssKb();
  return summary;
}

long currentPeakRssKb() {
  long peak = 0;
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) == 0) peak = usage.ru_maxrss;
  if (getrusage(RUSAGE_CHILDREN, &usage) == 0) {
    peak = std::max(peak, usage.ru_maxrss);
  }
  return peak;
}

std::string pointCaseName(const ScenarioPoint& point, std::size_t index) {
  if (point.params.empty()) return "point" + std::to_string(index);
  std::string name;
  char buffer[48];
  for (std::size_t i = 0; i < point.params.size(); ++i) {
    if (i > 0) name += ",";
    name += point.params[i].first;
    std::snprintf(buffer, sizeof buffer, "=%g", point.params[i].second);
    name += buffer;
  }
  return name;
}

std::string renderTimingSummary(const Scenario& scenario,
                                const std::vector<ScenarioPoint>& points,
                                const TimingSummary& summary) {
  std::string out = "=== timings: " + scenario.name + " ===\n";
  char buffer[160];
  for (std::size_t p = 0; p < points.size(); ++p) {
    const PointTimingSummary& row = summary.perPoint[p];
    std::snprintf(buffer, sizeof buffer,
                  "%-28s units %4zu  total %9.3f s  max %8.4f s  "
                  "p50 %8.4f s\n",
                  pointCaseName(points[p], p).c_str(), row.units,
                  row.totalSeconds, row.maxSeconds, row.p50Seconds);
    out += buffer;
  }
  std::snprintf(buffer, sizeof buffer,
                "%-28s units %4zu  total %9.3f s  max %8.4f s\n", "(all)",
                summary.units, summary.totalSeconds, summary.maxSeconds);
  out += buffer;
  std::snprintf(buffer, sizeof buffer, "peak rss: %ld KiB\n",
                summary.peakRssKb);
  out += buffer;
  return out;
}

std::string timingSummaryJson(const std::string& benchName,
                              const std::vector<ScenarioPoint>& points,
                              const TimingSummary& summary) {
  // Same shape as bench/perf_smoke.cpp so scripts/perf_diff.py gates
  // both trajectories with one parser. "seconds" per case is the summed
  // unit wall time of that grid point; "work" its unit count.
  std::string out = "{\n  \"bench\": \"" + benchName + "\",\n";
  out += "  \"commit\": \"" + std::string(buildGitCommit()) + "\",\n";
  out += "  \"generated_utc\": \"" + utcTimestamp() + "\",\n";
  out += "  \"ncg_scale\": " + std::to_string(env::fullScale() ? 1 : 0) +
         ",\n";
  out += "  \"ncg_trials\": " + std::to_string(env::trials()) + ",\n";
  out += "  \"pinned_workload\": false,\n";
  out += "  \"peak_rss_kb\": " + std::to_string(summary.peakRssKb) + ",\n";
  out += "  \"cases\": [\n";
  char buffer[200];
  for (std::size_t p = 0; p < points.size(); ++p) {
    const PointTimingSummary& row = summary.perPoint[p];
    std::snprintf(buffer, sizeof buffer,
                  "    {\"name\": \"%s\", \"seconds\": %.6f, \"work\": %zu, "
                  "\"max_seconds\": %.6f, \"p50_seconds\": %.6f}%s\n",
                  pointCaseName(points[p], p).c_str(), row.totalSeconds,
                  row.units, row.maxSeconds, row.p50Seconds,
                  p + 1 < points.size() ? "," : "");
    out += buffer;
  }
  std::snprintf(buffer, sizeof buffer, "  ],\n  \"total_seconds\": %.6f\n}\n",
                summary.totalSeconds);
  out += buffer;
  return out;
}

}  // namespace ncg::runtime
