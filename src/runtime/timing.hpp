// Per-unit wall-clock timing of scenario runs — the observability
// sidecar of the runtime layer.
//
// Every executor (the in-process/forked runner in runtime/runner.hpp
// and the shard-lease service in runtime/serve.hpp) measures the
// monotonic start and duration of each (point, trial) unit on the
// injectable ncg::Clock seam. Timings travel next to the results — as
// extra JSONL lines on the worker pipe, as kTiming frames on the wire —
// but they are NEVER written into the result manifest: the manifest
// stays byte-identical to a run without timing, which is what keeps the
// NCG_PROCS=1 byte-identity and kill/resume determinism pins untouched.
// When a run checkpoints to <path>, timings land in the sidecar
// <path>.timings.jsonl, one line per computed unit.
//
// The summary (per-point total/max/p50 unit time, peak RSS from
// getrusage) is what `ncg_run --timings` renders and what the
// BENCH_ncg_run_<scenario>.json artifact carries for the perf gate
// (scripts/perf_diff.py against bench/baselines/).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/durable_log.hpp"
#include "runtime/result_io.hpp"
#include "runtime/scenario.hpp"

namespace ncg::runtime {

/// Wall-clock record of one computed (point, trial) unit. Times are
/// monotonic microseconds with an arbitrary epoch (only differences
/// are meaningful across one run).
struct UnitTiming {
  int point = -1;
  int trial = -1;
  std::int64_t startUs = 0;     ///< unit start, Clock::nowUs()
  std::int64_t durationUs = 0;  ///< unit wall time
  std::uint64_t worker = 0;     ///< executor lane: worker index (runner)
                                ///< or connection id (serve); 0 in-process

  friend bool operator==(const UnitTiming&, const UnitTiming&) = default;
};

/// First key of the sidecar's header line: the manifest's header under
/// its own tag, so a sidecar can be matched to its run.
inline constexpr std::string_view kTimingTag = "ncg_timings";

/// {"unit_timing":1,"point":P,"trial":T,"start_us":S,"dur_us":D,
///  "worker":W} — decoded through result_io's LineCursor: anything
/// malformed, truncated or out of its field's range yields nullopt,
/// never a guess.
std::string encodeTimingLine(const UnitTiming& timing);
std::optional<UnitTiming> decodeTimingLine(std::string_view line);

template <>
struct LineCodec<UnitTiming> {
  static constexpr std::string_view kTag = kTimingTag;
  static constexpr auto encode = encodeTimingLine;
  static constexpr auto decode = decodeTimingLine;
};

/// The sidecar path of a checkpoint manifest: "<checkpoint>.timings.jsonl".
std::string timingSidecarPath(const std::string& checkpointPath);

/// Append side of the timing sidecar: the manifest's crash-safe log
/// (runtime/durable_log.hpp) over timing lines.
using TimingWriter = LogWriter<UnitTiming>;

/// What loading a sidecar found (diagnostics and tests; executors never
/// read timings back to make decisions).
using TimingLoad = LogLoad<UnitTiming>;

TimingLoad loadTimingSidecar(const std::string& path);

/// Per-point digest of the unit timings of one run.
struct PointTimingSummary {
  std::size_t units = 0;       ///< timed units of this point
  double totalSeconds = 0.0;   ///< sum of unit wall times
  double maxSeconds = 0.0;     ///< slowest unit
  double p50Seconds = 0.0;     ///< median unit wall time
};

/// Whole-run digest: per-point rows plus totals and peak RSS.
struct TimingSummary {
  std::vector<PointTimingSummary> perPoint;  ///< one row per grid point
  std::size_t units = 0;
  double totalSeconds = 0.0;  ///< sum of all unit wall times
  double maxSeconds = 0.0;
  long peakRssKb = 0;  ///< getrusage high-water mark (self + children)
};

/// Folds raw unit timings into the per-point digest. Timings whose
/// point index is outside the grid are ignored (a malformed sidecar
/// must not crash a report). Fills peakRssKb from currentPeakRssKb().
TimingSummary summarizeTimings(const std::vector<ScenarioPoint>& points,
                               const std::vector<UnitTiming>& timings);

/// Peak resident set size in KiB of this process and its reaped
/// children (getrusage RUSAGE_SELF / RUSAGE_CHILDREN, whichever is
/// larger — forked runner workers count via the latter).
long currentPeakRssKb();

/// Human rendering of a summary: one row per grid point (labels from
/// the point params) with unit count, total, max and p50 unit time,
/// then totals and peak RSS.
std::string renderTimingSummary(const Scenario& scenario,
                                const std::vector<ScenarioPoint>& points,
                                const TimingSummary& summary);

/// The "name=value,name=value" label of a grid point, used as the case
/// name in BENCH_ncg_run_<scenario>.json ("point<i>" when unlabeled).
std::string pointCaseName(const ScenarioPoint& point, std::size_t index);

/// Machine-readable summary with the PR-5 provenance block (commit,
/// timestamp, env knobs) — the same shape bench/perf_smoke.cpp emits,
/// so scripts/perf_diff.py gates both trajectories with one parser.
/// `benchName` is the artifact's "bench" field (e.g. "ncg_run_smoke").
std::string timingSummaryJson(const std::string& benchName,
                              const std::vector<ScenarioPoint>& points,
                              const TimingSummary& summary);

}  // namespace ncg::runtime
