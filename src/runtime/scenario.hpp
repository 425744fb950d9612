// Declarative scenario registry — the runtime layer's description of
// one reproducible experiment.
//
// A Scenario is a named grid of seeded trial computations plus a
// renderer. Each grid point carries labeled numeric parameters, a base
// seed and a trial count; trial t of point p always runs on the RNG
// stream deriveSeed(point.baseSeed, t) — so results are a pure function
// of (scenario, env knobs), independent of which worker process or
// lease computes them.
//
// Grids are produced lazily by makePoints() so the env knobs
// (NCG_TRIALS / NCG_SCALE, support/env.hpp) are read at run time, and
// every trial returns a flat vector of named double metrics: the only
// shape the multi-process runner has to transport bit-exactly across a
// pipe and the checkpoint manifest has to persist.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/random.hpp"

namespace ncg::runtime {

/// One grid point of a scenario: labeled coordinates + seeding.
struct ScenarioPoint {
  /// Labeled numeric coordinates, e.g. {{"k", 3}, {"alpha", 0.5}}.
  /// Order is significant: it defines CSV column order and enters the
  /// grid fingerprint.
  std::vector<std::pair<std::string, double>> params;
  std::uint64_t baseSeed = 0;
  int trials = 0;

  /// Looks up a coordinate by label; throws ncg::Error when missing.
  double param(std::string_view name) const;

  /// Looks up a coordinate by label; nullopt when missing (grids may
  /// be heterogeneous — fig10's two panels carry different labels).
  std::optional<double> tryParam(std::string_view name) const;

  friend bool operator==(const ScenarioPoint&,
                         const ScenarioPoint&) = default;
};

/// The metrics of one completed trial, addressed by grid position.
struct TrialRecord {
  int point = -1;
  int trial = -1;
  std::vector<double> metrics;  ///< scenario-defined, fixed order

  friend bool operator==(const TrialRecord&, const TrialRecord&) = default;
};

/// Dense result matrix for one scenario run: one metric row per
/// (point, trial) slot, filled in any order (workers finish out of
/// order; a checkpoint pre-fills slots on resume).
class ScenarioResults {
 public:
  explicit ScenarioResults(const std::vector<ScenarioPoint>& points);

  /// Stores a record in its slot (out-of-range indices throw; filling a
  /// slot twice is allowed and overwrites, which makes checkpoint
  /// replay idempotent).
  void record(const TrialRecord& r);

  bool has(int point, int trial) const;
  const std::vector<double>& metrics(int point, int trial) const;

  std::size_t totalTrials() const { return total_; }
  std::size_t completedTrials() const { return completed_; }
  bool complete() const { return completed_ == total_; }

  /// All filled slots in canonical (point-major, trial-minor) order.
  std::vector<TrialRecord> records() const;

 private:
  std::size_t slot(int point, int trial) const;

  std::vector<int> trialsPerPoint_;
  std::vector<std::size_t> offsets_;  ///< slot of (point, 0)
  std::vector<std::vector<double>> metrics_;
  std::vector<char> filled_;
  std::size_t total_ = 0;
  std::size_t completed_ = 0;
};

/// A registered experiment. The three std::function members make a
/// scenario fully declarative: grid, trial body, presentation.
struct Scenario {
  std::string name;         ///< registry key, e.g. "table1_random_trees"
  std::string description;  ///< one line for `ncg_run list`
  std::string title;        ///< legacy header title ("" = no header)
  std::string paperRef;     ///< legacy header "reproduces:" line
  std::vector<std::string> metricNames;  ///< one per metric slot

  /// Builds the grid; reads env knobs, so call at run time.
  std::function<std::vector<ScenarioPoint>()> makePoints;

  /// Runs trial `trial` of `point` on the given stream and returns
  /// metricNames.size() doubles. Must be a pure function of its
  /// arguments (workers run it in separate processes).
  std::function<std::vector<double>(const ScenarioPoint& point, int trial,
                                    Rng& rng)>
      runTrialFn;

  /// Renders complete results to the text the legacy harness printed
  /// (byte-identical for the ported scenarios). Null = generic
  /// mean ± 95% CI table via renderGenericTable.
  std::function<std::string(const Scenario&,
                            const std::vector<ScenarioPoint>&,
                            const ScenarioResults&)>
      render;

  /// Optional process exit code for the legacy-harness wrapper
  /// (runLegacyHarness): the ported verification harnesses
  /// (fig1_2_construction, lb_constructions) exited non-zero when a
  /// paper invariant failed to verify. Null = always 0.
  std::function<int(const Scenario&, const std::vector<ScenarioPoint>&,
                    const ScenarioResults&)>
      exitCode;
};

/// All registered scenarios, built-ins first (registration order is
/// listing order).
const std::vector<Scenario>& scenarioRegistry();

/// Registers an additional scenario (tests, downstream tools). Names
/// must be unique; duplicates throw.
void registerScenario(Scenario scenario);

/// Finds a scenario by name; nullptr when absent.
const Scenario* findScenario(std::string_view name);

/// Order-sensitive FNV-style fingerprint of (name, every point's
/// labels, coordinate bit patterns, base seed, trial count). Two grids
/// with the same fingerprint run the same trials with the same seeds —
/// a resumed checkpoint must match it exactly.
std::uint64_t scenarioFingerprint(const Scenario& scenario,
                                  const std::vector<ScenarioPoint>& points);

/// Ordered union of the param labels appearing across a grid, in
/// first-appearance order — the column set generic renderers (table,
/// CSV) must use, since points may carry different label sets.
std::vector<std::string> paramLabels(const std::vector<ScenarioPoint>& points);

/// The standard harness header ("=== title ===\n...", trailing blank
/// line included) — the bytes bench::printHeader has always printed.
std::string headerText(const std::string& title,
                       const std::string& paperRef);

/// Fallback renderer: header (when title is set) plus one row per grid
/// point with mean ± 95% CI of every metric over its trials.
std::string renderGenericTable(const Scenario& scenario,
                               const std::vector<ScenarioPoint>& points,
                               const ScenarioResults& results);

}  // namespace ncg::runtime
