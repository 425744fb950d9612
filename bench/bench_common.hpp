// Shared machinery for the table/figure reproduction harnesses.
//
// Every harness runs seeded best-response-dynamics trials over a
// parameter grid and prints paper-style rows (mean ± 95% CI), one RNG
// stream per trial. Env knobs (NCG_TRIALS / NCG_SCALE) are parsed once
// in support/env.hpp — shared with the runtime scenario layer — and the
// trial bodies/grids live in runtime/trial.hpp so registered scenarios
// run exactly what the harnesses run; this header re-exports both under
// the historical ncg::bench names.
#pragma once

#include <string>
#include <vector>

#include "runtime/trial.hpp"
#include "stats/accumulator.hpp"
#include "support/env.hpp"

namespace ncg::bench {

// The trial vocabulary, re-exported from the runtime layer.
using runtime::Source;
using runtime::TrialOutcome;
using runtime::TrialSpec;
using runtime::makeInitialGraph;
using runtime::runTrial;

/// The α grid of §5.1 (reduced unless NCG_SCALE=1).
using runtime::alphaGrid;

/// The k grid of §5.1 (reduced unless NCG_SCALE=1); 1000 = full view.
using runtime::kGrid;

/// Accumulates f(outcome) over converged trials.
template <typename F>
RunningStat statOver(const std::vector<TrialOutcome>& outcomes, F&& f) {
  RunningStat stat;
  for (const TrialOutcome& outcome : outcomes) {
    stat.push(static_cast<double>(f(outcome)));
  }
  return stat;
}

/// NCG_TRIALS (default 8, paper used 20).
inline int trialsFromEnv() { return env::trials(); }

/// True when NCG_SCALE=1 requests the paper's full grids.
inline bool fullScale() { return env::fullScale(); }

/// "mean ± ci" cell with the given decimals.
std::string ciCell(const RunningStat& stat, int decimals = 2);

/// Prints a standard harness header line.
void printHeader(const std::string& title, const std::string& paperRef);

}  // namespace ncg::bench
