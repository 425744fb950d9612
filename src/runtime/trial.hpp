// The unit of experimental work of the §5 scenarios: sample an initial
// network, toss ownership, run round-robin best-response dynamics,
// summarize the final state. Registered scenarios (runtime/scenario.hpp)
// and bench/perf_smoke run these exact trial bodies, with the seeds the
// original hand-written harnesses used.
#pragma once

#include <vector>

#include "core/game.hpp"
#include "dynamics/round_robin.hpp"
#include "graph/graph.hpp"
#include "support/random.hpp"

namespace ncg::runtime {

/// Initial-network family for a trial.
enum class Source {
  kRandomTree,
  kErdosRenyi,
};

/// One grid point of an experiment.
struct TrialSpec {
  Source source = Source::kRandomTree;
  NodeId n = 100;
  double p = 0.1;  ///< only for kErdosRenyi
  GameParams params;
  int maxRounds = 60;
};

/// Result of one dynamics trial.
struct TrialOutcome {
  DynamicsOutcome outcome = DynamicsOutcome::kConverged;
  int rounds = 0;
  NetworkFeatures features;  ///< features of the final state
};

/// Samples the initial network of a spec (connected by construction).
Graph makeInitialGraph(const TrialSpec& spec, Rng& rng);

/// Runs one trial: sample graph, coin-toss ownership, round-robin
/// dynamics, final-state features.
TrialOutcome runTrial(const TrialSpec& spec, Rng& rng);

/// The α grid of §5.1 (reduced unless NCG_SCALE=1).
std::vector<double> alphaGrid();

/// The k grid of §5.1 (reduced unless NCG_SCALE=1); 1000 = full view.
std::vector<Dist> kGrid();

}  // namespace ncg::runtime
