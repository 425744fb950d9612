// The local scenario executor.
//
// runScenario() enumerates a scenario's (point, trial) units, subtracts
// whatever a checkpoint manifest already holds, and computes the rest:
// in a plain sequential loop when procs == 1, otherwise on procs
// fork()ed workers. Each worker claims the next unit index from one
// atomic counter in an anonymous shared mapping, one unit per claim,
// and streams one JSON line per finished unit back over its pipe; the
// parent places lines into the result matrix by (point, trial) index
// while appending them to the checkpoint. No two units share an
// address space at the same time. Because every trial runs on the RNG
// stream deriveSeed(point.baseSeed, trial) and metrics travel as
// IEEE-754 bit patterns, the final ScenarioResults is bitwise identical
// for any NCG_PROCS value and for any kill/resume split — pinned by
// tests/test_runtime_runner_determinism.cpp. finishRun() is the step
// ncg_run and ncg_serve both end with: timing report, rendering and the
// scenario's exit verdict.
#pragma once

#include <cstddef>
#include <string>

#include "runtime/scenario.hpp"
#include "runtime/timing.hpp"
#include "support/clock.hpp"

namespace ncg::runtime {

/// Execution options of one runScenario call.
struct RunOptions {
  /// Worker processes; 0 reads NCG_PROCS (default: the core count).
  /// 1 = a sequential loop in the calling process.
  int procs = 0;
  /// Manifest path; "" disables checkpointing. A non-empty existing
  /// manifest must match the grid's fingerprint (else ncg::Error).
  std::string checkpointPath;
  /// Stop after computing this many new units (0 = no limit). This is
  /// the deterministic stand-in for a mid-grid kill: combined with
  /// checkpointPath it leaves a resumable manifest exactly like a real
  /// SIGKILL between two trial completions would.
  std::size_t maxUnits = 0;
  /// Record per-unit wall-clock timings into RunReport::timings (and
  /// the sidecar below). Timing never touches the result manifest or
  /// the rendered output — results stay byte-identical either way.
  bool recordTimings = true;
  /// Timing sidecar path; "" derives timingSidecarPath(checkpointPath)
  /// when checkpointing, and writes no sidecar otherwise.
  std::string timingsPath;
  /// Clock the timings are measured on; nullptr = steadyClock().
  /// Tests inject a ManualClock (sequential path only — a forked
  /// worker's manual clock is a frozen copy).
  Clock* clock = nullptr;
  /// How hard checkpoint/sidecar appends push bytes at the disk
  /// (`--durability=flush|fsync[:N]`); flush is the historical default.
  DurabilityPolicy durability;
};

/// Outcome of one runScenario call.
struct RunReport {
  std::vector<ScenarioPoint> points;  ///< the grid that was run
  ScenarioResults results;
  std::size_t unitsFromCheckpoint = 0;  ///< slots pre-filled on resume
  std::size_t unitsRun = 0;             ///< computed by this call
  bool complete = false;                ///< every slot filled
  std::vector<UnitTiming> timings;  ///< one per unit computed this call
};

/// Computes one (point, trial) unit exactly the way every executor
/// must: a fresh Rng on stream deriveSeed(point.baseSeed, trial), then
/// the scenario's trial body. Shared by the sequential loop, the forked
/// workers and the socket workers (runtime/serve.hpp) — one definition
/// is what keeps them bitwise interchangeable.
TrialRecord computeScenarioUnit(const Scenario& scenario,
                                const std::vector<ScenarioPoint>& points,
                                int point, int trial);

/// Renders a finished result set in one of the ncg_run / ncg_serve
/// stdout formats: "legacy" (the scenario's renderer, or the generic
/// table), "jsonl" (header + one trial line each) or "csv". Throws
/// ncg::Error on an unknown format name.
std::string renderResults(const Scenario& scenario,
                          const std::vector<ScenarioPoint>& points,
                          const ScenarioResults& results,
                          const std::string& format);

/// Runs `scenario` per `options` (see file comment). Throws ncg::Error
/// on worker failure or checkpoint mismatch.
RunReport runScenario(const Scenario& scenario,
                      const RunOptions& options = {});

/// How a CLI reports a finished run (see finishRun).
struct FinishOptions {
  /// stdout format: "legacy", "jsonl" or "csv" (see renderResults).
  std::string format = "legacy";
  /// Print the per-point timing digest to stderr and write its JSON.
  bool timings = false;
  /// Timing JSON path; "" = BENCH_<cli>_<scenario>.json.
  std::string timingsPath;
  /// Also write the JSONL results here; "" = no such file.
  std::string outPath;
};

/// The last step of `ncg_run run` and `ncg_serve`, shared so both judge
/// a run alike. With options.timings it prints the timing digest to
/// stderr and writes its JSON (bench name "<cli>_<scenario>"); then it
/// writes options.outPath. Complete results are rendered to stdout in
/// options.format; incomplete ones print nothing. Returns the process
/// exit code: 1 after a "cannot write …" line when any of these writes
/// fails, otherwise the scenario's exitCode verdict on complete results
/// (0 without a hook, and for incomplete results).
int finishRun(const char* cli, const Scenario& scenario,
              const std::vector<ScenarioPoint>& points,
              const ScenarioResults& results,
              const std::vector<UnitTiming>& timings,
              const FinishOptions& options);

}  // namespace ncg::runtime
