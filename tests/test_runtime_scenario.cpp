// Scenario registry and results-matrix semantics, plus the port-fidelity
// pins: the registered table1/table2 scenarios rendered through the
// runtime layer must be byte-identical to what the pre-port bench
// harnesses printed (the legacy loops are kept here verbatim as the
// reference).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "bounds/max_bounds.hpp"
#include "bounds/sum_bounds.hpp"
#include "core/cost.hpp"
#include "core/equilibrium.hpp"
#include "core/strategy.hpp"
#include "dynamics/features.hpp"
#include "dynamics/round_robin.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/high_girth.hpp"
#include "gen/random_tree.hpp"
#include "gen/regular.hpp"
#include "gen/torus.hpp"
#include "graph/bfs.hpp"
#include "graph/metrics.hpp"
#include "graph/view.hpp"
#include "runtime/runner.hpp"
#include "runtime/scenario.hpp"
#include "runtime/trial.hpp"
#include "stats/accumulator.hpp"
#include "stats/table.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/random.hpp"
#include "support/string_util.hpp"

namespace ncg::runtime {
namespace {

TEST(ScenarioRegistry, BuiltinsAreRegistered) {
  for (const char* name :
       {"table1_random_trees", "table2_er_graphs", "fig5_view_size",
        "fig6_quality_vs_n", "fig7_quality_vs_k", "fig8_degree_bought",
        "fig9_unfairness", "fig10_convergence", "smoke_dynamics",
        "fig1_2_construction", "fig3_max_bounds", "fig4_sum_bounds",
        "ext_empirical_poa", "ext_regular_starts", "ext_sum_experiments",
        "frontier_ne_lke", "lb_constructions", "ablation_dynamics",
        "family_hetero_alpha", "family_churn", "family_simultaneous",
        "family_adversarial", "family_noisy", "family_large_ba"}) {
    const Scenario* scenario = findScenario(name);
    ASSERT_NE(scenario, nullptr) << name;
    EXPECT_EQ(scenario->name, name);
    EXPECT_FALSE(scenario->description.empty());
    EXPECT_FALSE(scenario->metricNames.empty());
    EXPECT_TRUE(static_cast<bool>(scenario->makePoints));
    EXPECT_TRUE(static_cast<bool>(scenario->runTrialFn));
  }
  EXPECT_EQ(findScenario("no_such_scenario"), nullptr);
}

TEST(ScenarioRegistry, RejectsDuplicatesAndIncompleteScenarios) {
  Scenario dup;
  dup.name = "table1_random_trees";
  dup.makePoints = [] { return std::vector<ScenarioPoint>{}; };
  dup.runTrialFn = [](const ScenarioPoint&, int, Rng&) {
    return std::vector<double>{};
  };
  EXPECT_THROW(registerScenario(dup), Error);

  Scenario incomplete;
  incomplete.name = "incomplete_scenario";
  EXPECT_THROW(registerScenario(incomplete), Error);
}

TEST(ScenarioRegistry, Table1GridMatchesLegacySeedFormula) {
  const Scenario* scenario = findScenario("table1_random_trees");
  ASSERT_NE(scenario, nullptr);
  const std::vector<ScenarioPoint> points = scenario->makePoints();
  const std::vector<NodeId> ns = {20, 30, 50, 70, 100, 200};
  ASSERT_EQ(points.size(), ns.size());
  for (std::size_t i = 0; i < ns.size(); ++i) {
    EXPECT_EQ(points[i].param("n"), static_cast<double>(ns[i]));
    EXPECT_EQ(points[i].baseSeed,
              0x7AB1E100ULL + static_cast<std::uint64_t>(ns[i]));
    EXPECT_EQ(points[i].trials, std::max(env::trials(), 20));
  }
  EXPECT_THROW(points[0].param("missing"), Error);
}

TEST(ScenarioRegistry, Fig10GridCoversBothPanelsOfTheFigure) {
  const Scenario* scenario = findScenario("fig10_convergence");
  ASSERT_NE(scenario, nullptr);
  const std::vector<ScenarioPoint> points = scenario->makePoints();
  const std::size_t left = alphaGrid().size() * kGrid().size();
  const std::size_t ns = env::fullScale() ? 6 : 3;
  EXPECT_EQ(points.size(), left + kGrid().size() * ns);
  // Left panel first (part 0), then right (part 1); seeds follow the
  // legacy harness formulas.
  EXPECT_EQ(points.front().param("part"), 0.0);
  EXPECT_EQ(points.back().param("part"), 1.0);
  const Dist k0 = kGrid().front();
  const double alpha0 = alphaGrid().front();
  EXPECT_EQ(points.front().baseSeed,
            0xF161000ULL + static_cast<std::uint64_t>(k0 * 101) +
                static_cast<std::uint64_t>(alpha0 * 5407));
}

TEST(ScenarioRegistry, FamilyGridsArePinnedAndEnvIndependent) {
  // Every PR-9 family is a fixed 2×2 grid with 3 trials per point and
  // the seed formula base + k·kMul + second·secondMul — independent of
  // NCG_TRIALS / NCG_SCALE so the determinism pins hold everywhere.
  struct Pin {
    const char* name;
    const char* secondLabel;
    double seconds[2];
    std::uint64_t base;
    std::uint64_t kMul;
    std::uint64_t secondMul;
  };
  const Pin pins[] = {
      {"family_hetero_alpha", "spread", {0.5, 4.0}, 0xFA417A00ULL, 131, 97},
      {"family_churn", "alpha", {1.0, 2.0}, 0xC4BA900ULL, 157, 8209},
      {"family_simultaneous", "alpha", {1.0, 2.0}, 0x51E17A00ULL, 149, 6151},
      {"family_adversarial", "alpha", {1.0, 2.0}, 0xADE55A00ULL, 137, 4099},
      {"family_noisy", "alpha", {1.0, 2.0}, 0x9015E000ULL, 109, 5519},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    const Scenario* scenario = findScenario(pin.name);
    ASSERT_NE(scenario, nullptr);
    const std::vector<ScenarioPoint> points = scenario->makePoints();
    ASSERT_EQ(points.size(), 4U);
    std::size_t i = 0;
    for (const Dist k : {2, 3}) {
      for (const double second : pin.seconds) {
        EXPECT_EQ(points[i].param("k"), static_cast<double>(k));
        EXPECT_EQ(points[i].param(pin.secondLabel), second);
        EXPECT_EQ(points[i].baseSeed,
                  pin.base + static_cast<std::uint64_t>(k) * pin.kMul +
                      static_cast<std::uint64_t>(second * pin.secondMul));
        EXPECT_EQ(points[i].trials, 3);
        ++i;
      }
    }
  }
}

TEST(ScenarioRegistry, LargeBaGridIsPinnedAndScaleGated) {
  // The out-of-core family: 1e5 nodes at k ∈ {1, 2}, one trial per
  // point (a trial IS the campaign unit), seed formula pinned so the
  // cached base arenas stay valid across sessions. NCG_SCALE must only
  // ever *append* the million-node point — never reseed the small ones.
  const Scenario* scenario = findScenario("family_large_ba");
  ASSERT_NE(scenario, nullptr);
  const char* previousScale = std::getenv("NCG_SCALE");
  const std::string savedScale = previousScale != nullptr ? previousScale : "";
  ::unsetenv("NCG_SCALE");
  const std::vector<ScenarioPoint> points = scenario->makePoints();
  ASSERT_EQ(points.size(), 2U);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double k = static_cast<double>(i + 1);
    EXPECT_EQ(points[i].param("n"), 100000.0);
    EXPECT_EQ(points[i].param("k"), k);
    EXPECT_EQ(points[i].param("alpha"), 4.0);
    EXPECT_EQ(points[i].baseSeed,
              0xBA9EA51ULL + 100000ULL * 31 +
                  static_cast<std::uint64_t>(k) * 131);
    EXPECT_EQ(points[i].trials, 1);
  }
  ::setenv("NCG_SCALE", "1", 1);
  const std::vector<ScenarioPoint> full = scenario->makePoints();
  ASSERT_EQ(full.size(), 3U);
  EXPECT_EQ(full[0].baseSeed, points[0].baseSeed);
  EXPECT_EQ(full[1].baseSeed, points[1].baseSeed);
  EXPECT_EQ(full[2].param("n"), 1000000.0);
  EXPECT_EQ(full[2].param("k"), 2.0);
  EXPECT_EQ(full[2].baseSeed, 0xBA9EA51ULL + 1000000ULL * 31 + 2ULL * 131);
  if (previousScale != nullptr) {
    ::setenv("NCG_SCALE", savedScale.c_str(), 1);
  } else {
    ::unsetenv("NCG_SCALE");
  }
}

TEST(ScenarioRegistry, FingerprintIsStableAndGridSensitive) {
  const Scenario* table1 = findScenario("table1_random_trees");
  const Scenario* table2 = findScenario("table2_er_graphs");
  ASSERT_NE(table1, nullptr);
  ASSERT_NE(table2, nullptr);
  const auto points1 = table1->makePoints();
  EXPECT_EQ(scenarioFingerprint(*table1, points1),
            scenarioFingerprint(*table1, table1->makePoints()));
  EXPECT_NE(scenarioFingerprint(*table1, points1),
            scenarioFingerprint(*table2, table2->makePoints()));
  // Any grid change — here a trial count — must change the fingerprint.
  auto altered = points1;
  altered[0].trials += 1;
  EXPECT_NE(scenarioFingerprint(*table1, points1),
            scenarioFingerprint(*table1, altered));
}

TEST(ScenarioResultsMatrix, TracksSlotsAndRejectsOutOfRange) {
  std::vector<ScenarioPoint> points(2);
  points[0].trials = 2;
  points[1].trials = 3;
  ScenarioResults results(points);
  EXPECT_EQ(results.totalTrials(), 5U);
  EXPECT_FALSE(results.complete());
  EXPECT_FALSE(results.has(1, 2));

  results.record({1, 2, {3.5}});
  EXPECT_TRUE(results.has(1, 2));
  EXPECT_EQ(results.completedTrials(), 1U);
  EXPECT_EQ(results.metrics(1, 2), std::vector<double>{3.5});
  // Overwrite is idempotent bookkeeping (checkpoint replay).
  results.record({1, 2, {4.5}});
  EXPECT_EQ(results.completedTrials(), 1U);
  EXPECT_EQ(results.metrics(1, 2), std::vector<double>{4.5});

  EXPECT_THROW(results.record({2, 0, {}}), Error);
  EXPECT_THROW(results.record({0, 2, {}}), Error);
  EXPECT_THROW(results.metrics(0, 0), Error);

  results.record({0, 0, {1.0}});
  results.record({0, 1, {2.0}});
  results.record({1, 0, {5.0}});
  results.record({1, 1, {6.0}});
  EXPECT_TRUE(results.complete());
  const std::vector<TrialRecord> records = results.records();
  ASSERT_EQ(records.size(), 5U);
  // Canonical point-major, trial-minor order.
  EXPECT_EQ(records[0], (TrialRecord{0, 0, {1.0}}));
  EXPECT_EQ(records[4], (TrialRecord{1, 2, {4.5}}));
}

// ---------------------------------------------------------------------
// Port fidelity: the legacy harness loops, kept verbatim, as reference.

std::string legacyTable1Text() {
  std::string out = headerText("Table I — random tree statistics",
                               "Bilò et al., Locality-based NCGs, Table I");
  const int trials = std::max(env::trials(), 20);
  TextTable table({"n", "Diameter", "Max. degree", "Max. Bought Edges"});
  for (const NodeId n : {20, 30, 50, 70, 100, 200}) {
    RunningStat diameterStat;
    RunningStat degreeStat;
    RunningStat boughtStat;
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(deriveSeed(0x7AB1E100ULL + static_cast<std::uint64_t>(n),
                         static_cast<std::uint64_t>(trial)));
      const Graph tree = makeRandomTree(n, rng);
      const StrategyProfile profile =
          StrategyProfile::randomOwnership(tree, rng);
      diameterStat.push(static_cast<double>(diameter(tree)));
      degreeStat.push(static_cast<double>(tree.maxDegree()));
      NodeId maxBought = 0;
      for (NodeId u = 0; u < n; ++u) {
        maxBought = std::max(maxBought, profile.boughtCount(u));
      }
      boughtStat.push(static_cast<double>(maxBought));
    }
    const auto cell = [](const RunningStat& stat) {
      return formatWithCi(stat.mean(), stat.ci95HalfWidth(), 2);
    };
    table.addRow({std::to_string(n), cell(diameterStat), cell(degreeStat),
                  cell(boughtStat)});
  }
  out += table.toString();
  out += "\n";
  out += "paper (n=20): 10.65 ± 0.76 | 4.00 ± 0.26 | 2.75 ± 0.34\n";
  out += "paper (n=200): 43.20 ± 3.95 | 5.30 ± 0.31 | 3.85 ± 0.31\n";
  return out;
}

std::string legacyTable2Text() {
  std::string out =
      headerText("Table II — Erdős–Rényi graph statistics",
                 "Bilò et al., Locality-based NCGs, Table II");
  const int trials = std::max(env::trials(), 20);
  struct Combo {
    NodeId n;
    double p;
  };
  const Combo combos[] = {{100, 0.060}, {100, 0.100}, {100, 0.200},
                          {200, 0.035}, {200, 0.050}, {200, 0.100}};
  TextTable table(
      {"n", "p", "Edges", "Diameter", "Max. degree", "Max. Bought Edges"});
  for (const Combo& combo : combos) {
    RunningStat edgesStat;
    RunningStat diameterStat;
    RunningStat degreeStat;
    RunningStat boughtStat;
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(deriveSeed(0x7AB1E200ULL + static_cast<std::uint64_t>(combo.n) +
                             static_cast<std::uint64_t>(combo.p * 1e4),
                         static_cast<std::uint64_t>(trial)));
      const Graph g = makeConnectedErdosRenyi(combo.n, combo.p, rng);
      const StrategyProfile profile = StrategyProfile::randomOwnership(g, rng);
      edgesStat.push(static_cast<double>(g.edgeCount()));
      diameterStat.push(static_cast<double>(diameter(g)));
      degreeStat.push(static_cast<double>(g.maxDegree()));
      NodeId maxBought = 0;
      for (NodeId u = 0; u < combo.n; ++u) {
        maxBought = std::max(maxBought, profile.boughtCount(u));
      }
      boughtStat.push(static_cast<double>(maxBought));
    }
    const auto cell = [](const RunningStat& stat) {
      return formatWithCi(stat.mean(), stat.ci95HalfWidth(), 2);
    };
    table.addRow({std::to_string(combo.n), formatFixed(combo.p, 3),
                  cell(edgesStat), cell(diameterStat), cell(degreeStat),
                  cell(boughtStat)});
  }
  out += table.toString();
  out += "\n";
  out +=
      "paper (100, 0.060): 301.10 ± 7.51 | 5.30 ± 0.22 | 12.50 ± 0.67 | "
      "7.90 ± 0.43\n";
  out +=
      "paper (200, 0.100): 2005.55 ± 12.87 | 3.00 ± 0.00 | 32.80 ± 1.11 | "
      "18.95 ± 0.54\n";
  return out;
}

std::string legacyFig10Text() {
  std::string out = headerText("Figure 10 — convergence time (trees)",
                               "Bilò et al., Locality-based NCGs, Fig. 10");
  const int trials = env::trials();
  int cycles = 0;
  int nonConverged = 0;
  int total = 0;
  const auto cell = [](const RunningStat& stat) {
    return formatWithCi(stat.mean(), stat.ci95HalfWidth(), 2);
  };
  const auto tally = [&](const TrialOutcome& o, RunningStat& rounds) {
    ++total;
    if (o.outcome == DynamicsOutcome::kCycleDetected) ++cycles;
    if (o.outcome == DynamicsOutcome::kRoundLimit) ++nonConverged;
    if (o.outcome == DynamicsOutcome::kConverged) {
      rounds.push(static_cast<double>(o.rounds));
    }
  };
  out += "--- rounds vs α (n = 100) ---\n";
  TextTable leftTable({"k", "alpha", "rounds"});
  for (const Dist k : kGrid()) {
    for (const double alpha : alphaGrid()) {
      TrialSpec spec;
      spec.source = Source::kRandomTree;
      spec.n = 100;
      spec.params = GameParams::max(alpha, k);
      const std::uint64_t base =
          0xF161000ULL + static_cast<std::uint64_t>(k * 101) +
          static_cast<std::uint64_t>(alpha * 5407);
      RunningStat rounds;
      for (int trial = 0; trial < trials; ++trial) {
        Rng rng(deriveSeed(base, static_cast<std::uint64_t>(trial)));
        tally(runTrial(spec, rng), rounds);
      }
      leftTable.addRow(
          {std::to_string(k), formatFixed(alpha, 3), cell(rounds)});
    }
  }
  out += leftTable.toString();
  out += "\n";
  out += "--- rounds vs n (α = 2) ---\n";
  TextTable rightTable({"k", "n", "rounds"});
  const std::vector<NodeId> ns =
      env::fullScale() ? std::vector<NodeId>{20, 30, 50, 70, 100, 200}
                       : std::vector<NodeId>{20, 50, 100};
  for (const Dist k : kGrid()) {
    for (const NodeId n : ns) {
      TrialSpec spec;
      spec.source = Source::kRandomTree;
      spec.n = n;
      spec.params = GameParams::max(2.0, k);
      const std::uint64_t base =
          0xF161001ULL + static_cast<std::uint64_t>(k * 103) +
          static_cast<std::uint64_t>(n * 10007);
      RunningStat rounds;
      for (int trial = 0; trial < trials; ++trial) {
        Rng rng(deriveSeed(base, static_cast<std::uint64_t>(trial)));
        tally(runTrial(spec, rng), rounds);
      }
      rightTable.addRow(
          {std::to_string(k), std::to_string(n), cell(rounds)});
    }
  }
  out += rightTable.toString();
  out += "\n";
  char buffer[96];
  std::snprintf(buffer, sizeof buffer,
                "dynamics run: %d | best-response cycles: %d | "
                "round-limit hits: %d\n",
                total, cycles, nonConverged);
  out += buffer;
  out += "paper claims: >95% of runs converge within 7 rounds; "
         "cycles are extremely rare (5 in ~36000).\n";
  return out;
}

std::string legacyFig5Text() {
  std::string out =
      headerText("Figure 5 — view size at equilibrium vs α (trees, n=100)",
                 "Bilò et al., Locality-based NCGs, Fig. 5");
  const int trials = env::trials();
  const auto cell = [](const RunningStat& stat) {
    return formatWithCi(stat.mean(), stat.ci95HalfWidth(), 2);
  };
  TextTable table({"k", "alpha", "avg view", "min view", "converged"});
  for (const Dist k : kGrid()) {
    for (const double alpha : alphaGrid()) {
      TrialSpec spec;
      spec.source = Source::kRandomTree;
      spec.n = 100;
      spec.params = GameParams::max(alpha, k);
      const std::uint64_t base =
          0xF160500ULL + static_cast<std::uint64_t>(k * 131) +
          static_cast<std::uint64_t>(alpha * 1000);
      RunningStat avgView;
      RunningStat minView;
      int converged = 0;
      for (int trial = 0; trial < trials; ++trial) {
        Rng rng(deriveSeed(base, static_cast<std::uint64_t>(trial)));
        const TrialOutcome o = runTrial(spec, rng);
        if (o.outcome != DynamicsOutcome::kConverged) continue;
        ++converged;
        avgView.push(o.features.avgViewSize);
        minView.push(static_cast<double>(o.features.minViewSize));
      }
      table.addRow({std::to_string(k), formatFixed(alpha, 3), cell(avgView),
                    cell(minView),
                    std::to_string(converged) + "/" +
                        std::to_string(trials)});
    }
  }
  out += table.toString();
  out += "\n";
  out += "paper claims: at k=7 avg view > 99 and min view > 93; view "
         "shrinks as α grows, grows fast with k.\n";
  return out;
}

std::string legacyFig6Text() {
  std::string out =
      headerText("Figure 6 — quality of equilibrium vs n (trees)",
                 "Bilò et al., Locality-based NCGs, Fig. 6");
  const int trials = env::trials();
  const auto cell = [](const RunningStat& stat) {
    return formatWithCi(stat.mean(), stat.ci95HalfWidth(), 2);
  };
  const std::vector<NodeId> ns =
      env::fullScale() ? std::vector<NodeId>{20, 30, 50, 70, 100, 200}
                       : std::vector<NodeId>{20, 30, 50, 70, 100};
  const std::vector<Dist> ks = {2, 3, 4, 5, 6, 1000};
  for (const double alpha : {1.0, 10.0}) {
    char heading[32];
    std::snprintf(heading, sizeof heading, "--- α = %.0f ---\n", alpha);
    out += heading;
    TextTable table({"k", "n", "quality", "converged"});
    for (const Dist k : ks) {
      for (const NodeId n : ns) {
        TrialSpec spec;
        spec.source = Source::kRandomTree;
        spec.n = n;
        spec.params = GameParams::max(alpha, k);
        const std::uint64_t base =
            0xF160600ULL + static_cast<std::uint64_t>(k * 977) +
            static_cast<std::uint64_t>(n * 31) +
            static_cast<std::uint64_t>(alpha);
        RunningStat quality;
        int converged = 0;
        for (int trial = 0; trial < trials; ++trial) {
          Rng rng(deriveSeed(base, static_cast<std::uint64_t>(trial)));
          const TrialOutcome o = runTrial(spec, rng);
          if (o.outcome != DynamicsOutcome::kConverged) continue;
          ++converged;
          quality.push(o.features.quality);
        }
        table.addRow({std::to_string(k), std::to_string(n), cell(quality),
                      std::to_string(converged) + "/" +
                          std::to_string(trials)});
      }
    }
    out += table.toString();
    out += "\n";
  }
  out += "paper claims: for small k quality degrades ~linearly in n; "
         "for k >= 5 (α=1) / k >= 6-7 (α=10) it is almost constant.\n";
  return out;
}

std::string legacyFig7Text() {
  std::string out =
      headerText("Figure 7 — quality of equilibrium vs k (α=2)",
                 "Bilò et al., Locality-based NCGs, Fig. 7");
  const int trials = env::trials();
  const double alpha = 2.0;
  const std::vector<Dist> ks = {2, 3, 4, 5, 6, 7};
  const auto trend = [](double k, double a) {
    const double ratio = std::max(k / a, 1.0);
    const double logRatio = std::log2(ratio);
    return k / std::exp2(0.25 * logRatio * logRatio);
  };
  const auto cell = [](const RunningStat& stat) {
    return formatWithCi(stat.mean(), stat.ci95HalfWidth(), 2);
  };
  out += "--- random trees ---\n";
  const std::vector<NodeId> ns =
      env::fullScale() ? std::vector<NodeId>{20, 30, 50, 70, 100, 200}
                       : std::vector<NodeId>{20, 50, 100};
  TextTable treeTable({"n", "k", "quality", "trend k/2^{log2² k}"});
  for (const NodeId n : ns) {
    for (const Dist k : ks) {
      TrialSpec spec;
      spec.source = Source::kRandomTree;
      spec.n = n;
      spec.params = GameParams::max(alpha, k);
      const std::uint64_t base =
          0xF160700ULL + static_cast<std::uint64_t>(k * 41) +
          static_cast<std::uint64_t>(n * 7919);
      RunningStat quality;
      for (int trial = 0; trial < trials; ++trial) {
        Rng rng(deriveSeed(base, static_cast<std::uint64_t>(trial)));
        const TrialOutcome o = runTrial(spec, rng);
        if (o.outcome == DynamicsOutcome::kConverged) {
          quality.push(o.features.quality);
        }
      }
      treeTable.addRow({std::to_string(n), std::to_string(k), cell(quality),
                        formatFixed(trend(k, alpha), 3)});
    }
  }
  out += treeTable.toString();
  out += "\n";
  out += "--- G(n=100, p=0.2) ---\n";
  TextTable erTable({"k", "quality", "trend"});
  const std::vector<Dist> erKs = {2, 3, 4, 5, 6, 7, 10};
  for (const Dist k : erKs) {
    TrialSpec spec;
    spec.source = Source::kErdosRenyi;
    spec.n = 100;
    spec.p = 0.2;
    spec.params = GameParams::max(alpha, k);
    const std::uint64_t base =
        0xF160701ULL + static_cast<std::uint64_t>(k * 43);
    RunningStat quality;
    for (int trial = 0; trial < trials; ++trial) {
      Rng rng(deriveSeed(base, static_cast<std::uint64_t>(trial)));
      const TrialOutcome o = runTrial(spec, rng);
      if (o.outcome == DynamicsOutcome::kConverged) {
        quality.push(o.features.quality);
      }
    }
    erTable.addRow({std::to_string(k), cell(quality),
                    formatFixed(trend(k, alpha), 3)});
  }
  out += erTable.toString();
  out += "\n";
  out += "paper claims: measured quality follows the k/2^{log2² k} "
         "trend and scales down with α.\n";
  return out;
}

std::string legacyFig8Text() {
  std::string out = headerText(
      "Figure 8 — max degree & max bought edges vs α (G(100,0.1))",
      "Bilò et al., Locality-based NCGs, Fig. 8");
  const int trials = env::trials();
  const auto cell = [](const RunningStat& stat) {
    return formatWithCi(stat.mean(), stat.ci95HalfWidth(), 2);
  };
  TextTable table({"k", "alpha", "max degree", "max bought", "converged"});
  for (const Dist k : kGrid()) {
    for (const double alpha : alphaGrid()) {
      TrialSpec spec;
      spec.source = Source::kErdosRenyi;
      spec.n = 100;
      spec.p = 0.1;
      spec.params = GameParams::max(alpha, k);
      const std::uint64_t base =
          0xF160800ULL + static_cast<std::uint64_t>(k * 67) +
          static_cast<std::uint64_t>(alpha * 4001);
      RunningStat degree;
      RunningStat bought;
      int converged = 0;
      for (int trial = 0; trial < trials; ++trial) {
        Rng rng(deriveSeed(base, static_cast<std::uint64_t>(trial)));
        const TrialOutcome o = runTrial(spec, rng);
        if (o.outcome != DynamicsOutcome::kConverged) continue;
        ++converged;
        degree.push(static_cast<double>(o.features.maxDegree));
        bought.push(static_cast<double>(o.features.maxBought));
      }
      table.addRow({std::to_string(k), formatFixed(alpha, 3), cell(degree),
                    cell(bought),
                    std::to_string(converged) + "/" +
                        std::to_string(trials)});
    }
  }
  out += table.toString();
  out += "\n";
  out += "paper claims: for k >= 4 and small α max degree exceeds 80 "
         "while nobody buys more than ~9 edges.\n";
  return out;
}

std::string legacyFig9Text() {
  std::string out =
      headerText("Figure 9 — unfairness ratio vs α (G(100,0.1))",
                 "Bilò et al., Locality-based NCGs, Fig. 9");
  const int trials = env::trials();
  const auto cell = [](const RunningStat& stat) {
    return formatWithCi(stat.mean(), stat.ci95HalfWidth(), 2);
  };
  TextTable table({"k", "alpha", "unfairness", "converged"});
  for (const Dist k : kGrid()) {
    for (const double alpha : alphaGrid()) {
      TrialSpec spec;
      spec.source = Source::kErdosRenyi;
      spec.n = 100;
      spec.p = 0.1;
      spec.params = GameParams::max(alpha, k);
      const std::uint64_t base =
          0xF160900ULL + static_cast<std::uint64_t>(k * 89) +
          static_cast<std::uint64_t>(alpha * 4243);
      RunningStat unfairness;
      int converged = 0;
      for (int trial = 0; trial < trials; ++trial) {
        Rng rng(deriveSeed(base, static_cast<std::uint64_t>(trial)));
        const TrialOutcome o = runTrial(spec, rng);
        if (o.outcome != DynamicsOutcome::kConverged) continue;
        ++converged;
        unfairness.push(o.features.unfairness);
      }
      table.addRow({std::to_string(k), formatFixed(alpha, 3),
                    cell(unfairness),
                    std::to_string(converged) + "/" +
                        std::to_string(trials)});
    }
  }
  out += table.toString();
  out += "\n";
  out += "paper claims: smaller k yields fairer equilibria; "
         "unfairness decreases as k decreases.\n";
  return out;
}

// The legacy ablation bench's measure() loop, verbatim minus the wall
// timer: the port keeps exactly the deterministic columns (quality,
// rounds, converged) and this reference must reproduce them
// draw-for-draw from the shared per-(alpha, k) seed.
struct LegacyAblationOutcome {
  double quality = 0.0;
  double rounds = 0.0;
  int converged = 0;
};

LegacyAblationOutcome legacyAblationMeasure(const TrialSpec& spec,
                                            MoveRule rule, bool cache,
                                            int trials, std::uint64_t seed) {
  RunningStat quality;
  RunningStat rounds;
  LegacyAblationOutcome result;
  for (int trial = 0; trial < trials; ++trial) {
    Rng rng(deriveSeed(seed, static_cast<std::uint64_t>(trial)));
    const Graph initial = makeInitialGraph(spec, rng);
    const StrategyProfile profile =
        StrategyProfile::randomOwnership(initial, rng);
    DynamicsConfig config;
    config.params = spec.params;
    config.maxRounds = spec.maxRounds;
    config.moveRule = rule;
    config.useBestResponseCache = cache;
    const DynamicsResult run = runBestResponseDynamics(profile, config);
    if (run.outcome != DynamicsOutcome::kConverged) continue;
    ++result.converged;
    quality.push(computeFeatures(run.graph, run.profile, spec.params).quality);
    rounds.push(static_cast<double>(run.rounds));
  }
  result.quality = quality.mean();
  result.rounds = rounds.mean();
  return result;
}

std::string legacyAblationText() {
  std::string out =
      headerText("Ablation — move rule and best-response cache",
                 "design choices called out in DESIGN.md §5");
  const int trials = env::trials();
  out += "--- move rule: exact best response vs greedy single-edge "
         "(trees, n=100) ---\n";
  TextTable moveTable(
      {"alpha", "k", "rule", "quality", "rounds", "converged"});
  for (const double alpha : {0.5, 2.0, 10.0}) {
    for (const Dist k : {3, 1000}) {
      TrialSpec spec;
      spec.source = Source::kRandomTree;
      spec.n = 100;
      spec.params = GameParams::max(alpha, k);
      const std::uint64_t seed =
          0xAB1A0ULL + static_cast<std::uint64_t>(alpha * 100 + k);
      const LegacyAblationOutcome exact = legacyAblationMeasure(
          spec, MoveRule::kBestResponse, true, trials, seed);
      const LegacyAblationOutcome greedy =
          legacyAblationMeasure(spec, MoveRule::kGreedy, true, trials, seed);
      moveTable.addRow({formatFixed(alpha, 1), std::to_string(k), "exact",
                        formatFixed(exact.quality, 3),
                        formatFixed(exact.rounds, 2),
                        std::to_string(exact.converged)});
      moveTable.addRow({formatFixed(alpha, 1), std::to_string(k), "greedy",
                        formatFixed(greedy.quality, 3),
                        formatFixed(greedy.rounds, 2),
                        std::to_string(greedy.converged)});
    }
  }
  out += moveTable.toString();
  out += "\n";
  out += "--- best-response cache on/off (identical deterministic "
         "columns; wall time via --timings) ---\n";
  TextTable cacheTable(
      {"source", "alpha", "k", "cache", "quality", "rounds", "converged"});
  for (const bool cache : {true, false}) {
    TrialSpec spec;
    spec.source = Source::kErdosRenyi;
    spec.n = 100;
    spec.p = 0.1;
    spec.params = GameParams::max(1.0, 3);
    const LegacyAblationOutcome run = legacyAblationMeasure(
        spec, MoveRule::kBestResponse, cache, trials, 0xAB1A1ULL);
    cacheTable.addRow({"G(100,0.1)", "1.0", "3", cache ? "on" : "off",
                       formatFixed(run.quality, 3),
                       formatFixed(run.rounds, 2),
                       std::to_string(run.converged)});
  }
  out += cacheTable.toString();
  out += "\n";
  return out;
}

std::string renderScenario(const char* name) {
  const Scenario* scenario = findScenario(name);
  EXPECT_NE(scenario, nullptr) << name;
  const RunReport report = runScenario(*scenario);
  EXPECT_TRUE(report.complete);
  return scenario->render(*scenario, report.points, report.results);
}

TEST(PortFidelity, Table1RenderingIsByteIdenticalToLegacyHarness) {
  EXPECT_EQ(renderScenario("table1_random_trees"), legacyTable1Text());
}

TEST(PortFidelity, Table2RenderingIsByteIdenticalToLegacyHarness) {
  EXPECT_EQ(renderScenario("table2_er_graphs"), legacyTable2Text());
}

/// Runs `render` with NCG_TRIALS pinned to 2 — the expensive figure
/// pins double-execute their grids (scenario + verbatim reference) —
/// and restores the caller's value afterwards.
std::string withPinnedTrials(const std::function<std::string()>& render) {
  const char* previous = std::getenv("NCG_TRIALS");
  const std::string saved = previous != nullptr ? previous : "";
  setenv("NCG_TRIALS", "2", 1);
  const std::string text = render();
  if (previous != nullptr) {
    setenv("NCG_TRIALS", saved.c_str(), 1);
  } else {
    unsetenv("NCG_TRIALS");
  }
  return text;
}

TEST(PortFidelity, Fig5RenderingIsByteIdenticalToLegacyHarness) {
  EXPECT_EQ(withPinnedTrials([] { return renderScenario("fig5_view_size"); }),
            withPinnedTrials(legacyFig5Text));
}

TEST(PortFidelity, Fig6RenderingIsByteIdenticalToLegacyHarness) {
  EXPECT_EQ(
      withPinnedTrials([] { return renderScenario("fig6_quality_vs_n"); }),
      withPinnedTrials(legacyFig6Text));
}

TEST(PortFidelity, Fig7RenderingIsByteIdenticalToLegacyHarness) {
  EXPECT_EQ(
      withPinnedTrials([] { return renderScenario("fig7_quality_vs_k"); }),
      withPinnedTrials(legacyFig7Text));
}

TEST(PortFidelity, Fig8RenderingIsByteIdenticalToLegacyHarness) {
  EXPECT_EQ(
      withPinnedTrials([] { return renderScenario("fig8_degree_bought"); }),
      withPinnedTrials(legacyFig8Text));
}

TEST(PortFidelity, Fig9RenderingIsByteIdenticalToLegacyHarness) {
  EXPECT_EQ(
      withPinnedTrials([] { return renderScenario("fig9_unfairness"); }),
      withPinnedTrials(legacyFig9Text));
}

TEST(PortFidelity, Fig10RenderingIsByteIdenticalToLegacyHarness) {
  EXPECT_EQ(
      withPinnedTrials([] { return renderScenario("fig10_convergence"); }),
      withPinnedTrials(legacyFig10Text));
}

// ---------------------------------------------------------------------
// Port fidelity for the PR-9 ports: the remaining eight bench harnesses
// (bound maps, construction checks, extension experiments), kept here
// as verbatim transliterations of the pre-port mains — same seed
// formulas, same trial bodies in the same RNG draw order, same
// aggregation order, same printf formats.

template <typename... Args>
void appendf(std::string& out, const char* format, Args... args) {
  char buffer[256];
  std::snprintf(buffer, sizeof buffer, format, args...);
  out += buffer;
}

std::string ciCell(const RunningStat& stat, int decimals = 2) {
  return formatWithCi(stat.mean(), stat.ci95HalfWidth(), decimals);
}

std::string legacyFig3Text() {
  std::string out = headerText("Figure 3 — MaxNCG PoA bound map",
                               "Bilò et al., Locality-based NCGs, Fig. 3 "
                               "(constants set to 1; shape reproduction)");
  const double n = 1e6;
  const double alphas[] = {2, 4, 8, 16, 64, 256, 1024, 16384, 262144};
  const double ks[] = {2, 4, 8, 16, 32, 128, 1024, 16384, 262144};
  TextTable table({"alpha", "k", "lower bound", "upper bound", "region"});
  for (double k : ks) {
    for (double alpha : alphas) {
      const double lb = maxPoaLowerBound(n, alpha, k);
      const double ub = maxPoaUpperBound(n, alpha, k);
      table.addRow({formatFixed(alpha, 0), formatFixed(k, 0),
                    formatFixed(lb, 2), formatFixed(ub, 2),
                    maxRegionName(classifyMaxRegion(n, alpha, k))});
    }
  }
  appendf(out, "n = %.0f\n", n);
  out += table.toString();
  out += "\n";
  out += "headline shapes:\n";
  appendf(out, "  k = Θ(1), α = 4: LB = Ω(n/(1+α)) -> %.0f (linear in n)\n",
          maxPoaLowerBound(n, 4, 2));
  appendf(out, "  k = α (diagonal): torus LB n/α -> %.0f\n",
          maxPoaLowerBound(n, 16, 16));
  appendf(out, "  large α, small k: n^{1/Θ(k)} persists -> %.2f (k=4)\n",
          maxPoaLowerBound(n, 1e5, 4));
  appendf(out, "  k = n^ε: NE ≡ LKE -> region %s\n",
          maxRegionName(classifyMaxRegion(n, 4, 1e5)));
  return out;
}

std::string legacyFig4Text() {
  std::string out = headerText("Figure 4 — SumNCG PoA bound map",
                               "Bilò et al., Locality-based NCGs, Fig. 4 "
                               "(constants set to 1; shape reproduction)");
  const double n = 1e6;
  const double alphas[] = {4, 32, 256, 2048, 65536, 1e6, 1e8};
  const double ks[] = {2, 3, 4, 8, 16, 64, 512};
  TextTable table({"alpha", "k", "lower bound", "regime"});
  for (double k : ks) {
    for (double alpha : alphas) {
      const double lb = sumPoaLowerBound(n, alpha, k);
      const char* regime =
          fullKnowledgeRegionSum(alpha, k)
              ? "NE=LKE"
              : (sumRegimeOfFigure4(alpha, k) < 0 ? "strong-LB" : "open");
      table.addRow({formatFixed(alpha, 0), formatFixed(k, 0),
                    formatFixed(lb, 2), regime});
    }
  }
  appendf(out, "n = %.0f\n", n);
  out += table.toString();
  out += "\n";
  out += "headline shapes (§4):\n";
  appendf(out, "  α in [4k³, n], k=3: LB = n/k = %.0f (>= Ω(n^{2/3}))\n",
          sumPoaLowerBound(n, 4.0 * 27.0, 3));
  appendf(out, "  α >= kn, k=2: LB = n^{1/2} = %.0f\n",
          sumPoaLowerBound(n, 2.0 * n, 2));
  appendf(out, "  k > 1+2√α: NE ≡ LKE -> %s\n",
          fullKnowledgeRegionSum(16.0, 10.0) ? "yes" : "no");
  return out;
}

void legacyFig12Describe(std::string& out, const char* label,
                         const TorusParams& params, Dist k) {
  const TorusGraph tg = makeTorus(params);
  const Graph& g = tg.graph;

  std::size_t violations = 0;
  BfsEngine engine;
  for (NodeId u = 0; u < g.nodeCount();
       u += std::max<NodeId>(1, g.nodeCount() / 16)) {
    const auto& dist = engine.run(g, u);
    for (NodeId v = 0; v < g.nodeCount(); ++v) {
      if (dist[static_cast<std::size_t>(v)] <
          torusDistanceLowerBound(tg.params,
                                  tg.coords[static_cast<std::size_t>(u)],
                                  tg.coords[static_cast<std::size_t>(v)])) {
        ++violations;
      }
    }
  }

  const int kStar = params.ell * (params.delta[0] - 1);
  std::vector<int> center(static_cast<std::size_t>(params.dims()));
  for (int i = 0; i < params.dims(); ++i) {
    center[static_cast<std::size_t>(i)] = kStar % params.modulus(i);
  }
  const NodeId centerId = tg.nodeAt(center);
  const LocalView view = buildView(g, centerId, k);

  appendf(out, "%s: ℓ=%d δ=(", label, params.ell);
  for (int i = 0; i < params.dims(); ++i) {
    appendf(out, "%s%d", i ? "," : "",
            params.delta[static_cast<std::size_t>(i)]);
  }
  out += ")\n";
  appendf(out,
          "  nodes=%d (intersections=%d)  edges=%zu  diameter=%d "
          "(>= ℓ·δ_d = %d)\n",
          g.nodeCount(), tg.intersectionCount(), g.edgeCount(), diameter(g),
          params.ell * params.delta.back());
  appendf(out, "  view of (k*,...,k*)=node %d at k=%d: %d nodes, %zu edges\n",
          centerId, k, view.size(), view.graph.edgeCount());
  appendf(out, "  Lemma 3.3 distance bound violations: %zu (expect 0)\n\n",
          violations);
}

std::string legacyFig12Text() {
  std::string out =
      headerText("Figures 1-2 — the §3.1 torus construction",
                 "Bilò et al., Locality-based NCGs, Fig. 1 and Fig. 2");
  legacyFig12Describe(out, "Figure 1 graph", TorusParams{2, {15, 5}}, 4);
  legacyFig12Describe(out, "Figure 2 graph", TorusParams{2, {3, 4}}, 4);

  const TorusGraph open = makeOpenTorus(TorusParams{2, {3, 4}});
  std::size_t violations = 0;
  BfsEngine engine;
  for (NodeId u = 0; u < open.graph.nodeCount(); ++u) {
    const auto& dist = engine.run(open.graph, u);
    for (NodeId v = 0; v < open.graph.nodeCount(); ++v) {
      const Dist d = dist[static_cast<std::size_t>(v)];
      if (d != kUnreachable &&
          d < openDistanceLowerBound(
                  open.coords[static_cast<std::size_t>(u)],
                  open.coords[static_cast<std::size_t>(v)])) {
        ++violations;
      }
    }
  }
  appendf(out,
          "open variant (Fig. 2 params): nodes=%d edges=%zu; "
          "Lemma 3.5 violations: %zu (expect 0)\n",
          open.graph.nodeCount(), open.graph.edgeCount(), violations);
  return out;
}

std::string legacyExtEmpiricalPoaText() {
  std::string out =
      headerText("Extension — empirical PoA bands vs Fig. 3 bounds",
                 "multi-restart worst/best equilibrium search");
  const int restarts = std::max(env::trials() * 3, 12);
  const NodeId n = 60;

  TextTable table({"alpha", "k", "PoS est", "mean", "PoA est", "theory LB",
                   "theory UB", "converged"});
  for (const double alpha : {1.0, 2.0, 5.0}) {
    for (const Dist k : {2, 3, 5, 1000}) {
      const GameParams params = GameParams::max(alpha, k);
      const std::uint64_t baseSeed =
          0xE0AULL + static_cast<std::uint64_t>(alpha * 100 + k);
      // The harness's restart loop, sequentially: per restart i the
      // stream is Rng(deriveSeed(base, i)) -> factory -> scheduleSeed,
      // and the aggregation runs in restart order.
      int converged = 0;
      double best = std::numeric_limits<double>::infinity();
      double worst = 0.0;
      double sum = 0.0;
      for (int i = 0; i < restarts; ++i) {
        Rng rng(deriveSeed(baseSeed, static_cast<std::uint64_t>(i)));
        const StrategyProfile initial =
            StrategyProfile::randomOwnership(makeRandomTree(n, rng), rng);
        DynamicsConfig dynamics;
        dynamics.params = params;
        dynamics.maxRounds = 60;
        dynamics.schedule = Schedule::kRandomPermutation;
        dynamics.scheduleSeed = rng.next();
        const DynamicsResult run = runBestResponseDynamics(initial, dynamics);
        if (run.outcome != DynamicsOutcome::kConverged) continue;
        ++converged;
        const double quality =
            socialCost(params, run.profile, run.graph) /
            socialOptimumReference(params, run.profile.playerCount());
        sum += quality;
        if (quality < best) best = quality;
        if (quality > worst) worst = quality;
      }
      const double mean = converged != 0 ? sum / converged : 0.0;
      if (converged == 0) best = 0.0;
      table.addRow({formatFixed(alpha, 1), std::to_string(k),
                    formatFixed(best, 3), formatFixed(mean, 3),
                    formatFixed(worst, 3),
                    formatFixed(maxPoaLowerBound(n, alpha, k), 2),
                    formatFixed(maxPoaUpperBound(n, alpha, k), 2),
                    std::to_string(converged) + "/" +
                        std::to_string(restarts)});
    }
  }
  out += table.toString();
  out += "\n";
  out += "reading: dynamics-reachable equilibria usually sit far "
         "below the adversarial PoA constructions (the Fig. 3 LBs "
         "need hand-crafted tori), and the band tightens as k "
         "grows toward full knowledge.\n";
  return out;
}

std::string legacyExtRegularStartsText() {
  std::string out =
      headerText("Extension — dynamics from random d-regular starts",
                 "complements Fig. 8 (degree statistics of stable "
                 "networks)");
  const int trials = env::trials();
  const NodeId n = 60;

  TextTable table({"d", "k", "alpha", "max degree", "max bought", "quality",
                   "converged"});
  for (const NodeId d : {3, 4}) {
    for (const Dist k : {2, 3, 1000}) {
      for (const double alpha : {0.5, 2.0}) {
        const GameParams params = GameParams::max(alpha, k);
        const std::uint64_t base =
            0x4E600ULL + static_cast<std::uint64_t>(d * 1009 + k * 31 +
                                                    alpha * 10);
        RunningStat degree;
        RunningStat bought;
        RunningStat quality;
        int converged = 0;
        for (int trial = 0; trial < trials; ++trial) {
          Rng rng(deriveSeed(base, static_cast<std::uint64_t>(trial)));
          const Graph start = makeConnectedRandomRegular(n, d, rng);
          const StrategyProfile profile =
              StrategyProfile::randomOwnership(start, rng);
          DynamicsConfig config;
          config.params = params;
          config.maxRounds = 60;
          const DynamicsResult result =
              runBestResponseDynamics(profile, config);
          if (result.outcome != DynamicsOutcome::kConverged) continue;
          const NetworkFeatures f =
              computeFeatures(result.graph, result.profile, params);
          ++converged;
          degree.push(static_cast<double>(f.maxDegree));
          bought.push(static_cast<double>(f.maxBought));
          quality.push(f.quality);
        }
        table.addRow({std::to_string(d), std::to_string(k),
                      formatFixed(alpha, 1), ciCell(degree, 1),
                      ciCell(bought, 1), ciCell(quality),
                      std::to_string(converged) + "/" +
                          std::to_string(trials)});
      }
    }
  }
  out += table.toString();
  out += "\n";
  out += "reading: if max degree at equilibrium >> d, the dynamics "
         "itself builds hubs (degree heterogeneity is emergent, "
         "matching the paper's Fig. 8 story).\n";
  return out;
}

std::string legacyExtSumText() {
  std::string out =
      headerText("Extension — SumNCG dynamics (small n)",
                 "the experiment §5 skips for feasibility reasons; "
                 "our exact solver covers n<=24");
  const int trials = env::trials();
  const NodeId n = 20;

  TextTable table({"k", "alpha", "quality", "rounds", "diameter",
                   "converged"});
  for (const Dist k : {2, 3, 4, 1000}) {
    for (const double alpha : {0.5, 1.0, 2.0, 5.0}) {
      TrialSpec spec;
      spec.source = Source::kRandomTree;
      spec.n = n;
      spec.params = GameParams::sum(alpha, k);
      spec.maxRounds = 40;
      const std::uint64_t base = 0x50AA00ULL +
                                 static_cast<std::uint64_t>(k * 57) +
                                 static_cast<std::uint64_t>(alpha * 1000);
      RunningStat quality;
      RunningStat rounds;
      RunningStat diameterStat;
      int converged = 0;
      for (int trial = 0; trial < trials; ++trial) {
        Rng rng(deriveSeed(base, static_cast<std::uint64_t>(trial)));
        const TrialOutcome o = runTrial(spec, rng);
        if (o.outcome != DynamicsOutcome::kConverged) continue;
        ++converged;
        quality.push(o.features.quality);
        rounds.push(static_cast<double>(o.rounds));
        diameterStat.push(static_cast<double>(o.features.diameter));
      }
      table.addRow({std::to_string(k), formatFixed(alpha, 2),
                    ciCell(quality), ciCell(rounds, 1),
                    ciCell(diameterStat, 1),
                    std::to_string(converged) + "/" +
                        std::to_string(trials)});
    }
  }
  out += table.toString();
  out += "\n";
  out += "observations to check: small k forbids horizon-worsening "
         "rewires (Prop. 2.2) so equilibria keep higher diameter "
         "than the full-view star-like outcomes.\n";
  return out;
}

std::string legacyFrontierText() {
  std::string out =
      headerText("NE ≡ LKE frontier — empirical check",
                 "Bilò et al., Corollary 3.14 (Fig. 3 gray region) "
                 "and Theorem 4.4 (Fig. 4 gray region)");
  const int trials = env::trials();
  const NodeId n = 40;

  appendf(out, "--- MaxNCG (trees, n=%d) ---\n", n);
  TextTable maxTable(
      {"alpha", "k", "LKE runs", "also NE", "full view", "theory"});
  for (const double alpha : {1.0, 2.0, 5.0}) {
    for (const Dist k : {2, 3, 5, 10, 1000}) {
      const GameParams params = GameParams::max(alpha, k);
      const std::uint64_t seed =
          0xF407ULL + static_cast<std::uint64_t>(alpha * 100 + k);
      int lkeCount = 0;
      int alsoNe = 0;
      int fullView = 0;
      for (int trial = 0; trial < trials; ++trial) {
        Rng rng(deriveSeed(seed, static_cast<std::uint64_t>(trial)));
        const Graph tree = makeRandomTree(n, rng);
        DynamicsConfig config;
        config.params = params;
        config.maxRounds = 80;
        const DynamicsResult run = runBestResponseDynamics(
            StrategyProfile::randomOwnership(tree, rng), config);
        if (run.outcome != DynamicsOutcome::kConverged) continue;
        ++lkeCount;
        if (checkNash(run.graph, run.profile, params).isEquilibrium) {
          ++alsoNe;
        }
        const NetworkFeatures f =
            computeFeatures(run.graph, run.profile, params);
        if (f.minViewSize == n) ++fullView;
      }
      maxTable.addRow(
          {formatFixed(alpha, 1), std::to_string(k),
           std::to_string(lkeCount), std::to_string(alsoNe),
           std::to_string(fullView),
           fullKnowledgeRegionMax(n, alpha, k) ? "NE=LKE" : "may differ"});
    }
  }
  out += maxTable.toString();
  out += "\n";

  appendf(out, "--- SumNCG (trees, n=%d) ---\n", 12);
  TextTable sumTable(
      {"alpha", "k", "LKE runs", "also NE", "theory (Thm 4.4)"});
  for (const double alpha : {0.5, 1.5, 4.0}) {
    for (const Dist k : {2, 4, 8}) {
      const GameParams params = GameParams::sum(alpha, k);
      const std::uint64_t seed =
          0xF408ULL + static_cast<std::uint64_t>(alpha * 100 + k);
      int lkeCount = 0;
      int alsoNe = 0;
      for (int trial = 0; trial < trials; ++trial) {
        Rng rng(deriveSeed(seed, static_cast<std::uint64_t>(trial)));
        const Graph tree = makeRandomTree(12, rng);
        DynamicsConfig config;
        config.params = params;
        config.maxRounds = 80;
        const DynamicsResult run = runBestResponseDynamics(
            StrategyProfile::randomOwnership(tree, rng), config);
        if (run.outcome != DynamicsOutcome::kConverged) continue;
        ++lkeCount;
        if (checkNash(run.graph, run.profile, params).isEquilibrium) {
          ++alsoNe;
        }
      }
      sumTable.addRow(
          {formatFixed(alpha, 1), std::to_string(k),
           std::to_string(lkeCount), std::to_string(alsoNe),
           fullKnowledgeRegionSum(alpha, k) ? "NE=LKE" : "may differ"});
    }
  }
  out += sumTable.toString();
  out += "\n";
  out += "expectation: in rows marked NE=LKE every converged LKE "
         "must also be an NE; below the frontier gaps may appear.\n";
  return out;
}

StrategyProfile legacyCycleProfile(NodeId n) {
  std::vector<std::vector<NodeId>> lists(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    lists[static_cast<std::size_t>(i)].push_back((i + 1) % n);
  }
  return StrategyProfile::fromBoughtLists(lists);
}

std::string legacyLbConstructionsText(int& failures) {
  std::string out =
      headerText("Lower-bound constructions — equilibrium verification",
                 "Bilò et al., Lemmas 3.1/3.2, Thm 3.12, Lemma 4.1");
  failures = 0;
  const auto report = [&](const char* label, const Graph& g,
                          const StrategyProfile& profile,
                          const GameParams& params, double predictedLb) {
    const bool stable = isLke(g, profile, params);
    const double poa = socialCost(params, profile, g) /
                       socialOptimumReference(params, g.nodeCount());
    appendf(out,
            "%-34s n=%5d α=%-7.2f k=%-4d LKE=%s  PoA=%8.2f  "
            "bound=%8.2f\n",
            label, g.nodeCount(), params.alpha, params.k,
            stable ? "yes" : "NO ", poa, predictedLb);
    if (!stable) ++failures;
  };

  for (const Dist k : {1, 2, 3, 4}) {
    const NodeId n = 60;
    const StrategyProfile profile = legacyCycleProfile(n);
    const Graph g = profile.buildGraph();
    const GameParams params = GameParams::max(static_cast<double>(k), k);
    report("Lemma 3.1 cycle", g, profile, params,
           lbCyclePoA(n, params.alpha));
  }

  for (const int q : {3, 5}) {
    const Graph g = makeProjectivePlaneIncidence(q);
    const NodeId points = projectivePlanePoints(q);
    std::vector<std::vector<NodeId>> lists(
        static_cast<std::size_t>(g.nodeCount()));
    for (NodeId p = 0; p < points; ++p) {
      for (NodeId l : g.neighbors(p)) {
        lists[static_cast<std::size_t>(p)].push_back(l);
      }
    }
    const auto profile = StrategyProfile::fromBoughtLists(lists);
    const GameParams params = GameParams::max(1.5, 2);
    report("Lemma 3.2 PG(2,q) incidence", g, profile, params,
           lbHighGirthPoA(g.nodeCount(), 2));
  }

  {
    const double alpha = 2.0;
    const int k = 4;
    const TorusGraph tg = makeTorus(theorem312Params(alpha, k, 8));
    const auto profile = StrategyProfile::fromBoughtLists(tg.bought);
    const Graph g = profile.buildGraph();
    report("Theorem 3.12 torus (MaxNCG)", g, profile,
           GameParams::max(alpha, k), lbTorusPoA(g.nodeCount(), alpha, k));
  }
  {
    const double alpha = 3.0;
    const int k = 6;
    const TorusGraph tg = makeTorus(theorem312Params(alpha, k, 6));
    const auto profile = StrategyProfile::fromBoughtLists(tg.bought);
    const Graph g = profile.buildGraph();
    report("Theorem 3.12 torus (MaxNCG)", g, profile,
           GameParams::max(alpha, k), lbTorusPoA(g.nodeCount(), alpha, k));
  }

  for (const int k : {2, 3}) {
    const TorusGraph tg = makeTorus(lemma41Params(k, 8));
    const auto profile = StrategyProfile::fromBoughtLists(tg.bought);
    const Graph g = profile.buildGraph();
    const GameParams params =
        GameParams::sum(4.0 * k * k * k, static_cast<Dist>(k));
    report("Lemma 4.1 torus (SumNCG)", g, profile, params,
           lbSumTorusPoA(g.nodeCount(), params.alpha, k));
  }

  out += "\n";
  out += failures == 0 ? "all constructions verified stable"
                       : "SOME CONSTRUCTIONS WERE NOT STABLE";
  out += "\n";
  return out;
}

TEST(PortFidelity, Fig3RenderingIsByteIdenticalToLegacyHarness) {
  EXPECT_EQ(renderScenario("fig3_max_bounds"), legacyFig3Text());
}

TEST(PortFidelity, Fig4RenderingIsByteIdenticalToLegacyHarness) {
  EXPECT_EQ(renderScenario("fig4_sum_bounds"), legacyFig4Text());
}

TEST(PortFidelity, Fig12ConstructionIsByteIdenticalAndVerifies) {
  const Scenario* scenario = findScenario("fig1_2_construction");
  ASSERT_NE(scenario, nullptr);
  const RunReport report = runScenario(*scenario);
  ASSERT_TRUE(report.complete);
  EXPECT_EQ(scenario->render(*scenario, report.points, report.results),
            legacyFig12Text());
  // The legacy main's exit code (0 = Lemma 3.5 holds) survives the port.
  ASSERT_TRUE(static_cast<bool>(scenario->exitCode));
  EXPECT_EQ(scenario->exitCode(*scenario, report.points, report.results), 0);
}

TEST(PortFidelity, LbConstructionsIsByteIdenticalAndVerifies) {
  const Scenario* scenario = findScenario("lb_constructions");
  ASSERT_NE(scenario, nullptr);
  const RunReport report = runScenario(*scenario);
  ASSERT_TRUE(report.complete);
  int failures = -1;
  EXPECT_EQ(scenario->render(*scenario, report.points, report.results),
            legacyLbConstructionsText(failures));
  EXPECT_EQ(failures, 0);
  ASSERT_TRUE(static_cast<bool>(scenario->exitCode));
  EXPECT_EQ(scenario->exitCode(*scenario, report.points, report.results), 0);
}

TEST(PortFidelity, ExtEmpiricalPoaIsByteIdenticalToLegacyHarness) {
  EXPECT_EQ(withPinnedTrials([] { return renderScenario("ext_empirical_poa"); }),
            withPinnedTrials(legacyExtEmpiricalPoaText));
}

TEST(PortFidelity, ExtRegularStartsIsByteIdenticalToLegacyHarness) {
  EXPECT_EQ(
      withPinnedTrials([] { return renderScenario("ext_regular_starts"); }),
      withPinnedTrials(legacyExtRegularStartsText));
}

TEST(PortFidelity, ExtSumExperimentsIsByteIdenticalToLegacyHarness) {
  EXPECT_EQ(
      withPinnedTrials([] { return renderScenario("ext_sum_experiments"); }),
      withPinnedTrials(legacyExtSumText));
}

TEST(PortFidelity, FrontierNeLkeIsByteIdenticalToLegacyHarness) {
  EXPECT_EQ(withPinnedTrials([] { return renderScenario("frontier_ne_lke"); }),
            withPinnedTrials(legacyFrontierText));
}

TEST(PortFidelity, AblationDynamicsIsByteIdenticalToLegacyHarness) {
  EXPECT_EQ(
      withPinnedTrials([] { return renderScenario("ablation_dynamics"); }),
      withPinnedTrials(legacyAblationText));
  // The cache on/off rows must agree on every deterministic column —
  // that identity is the point of the ablation's second table.
  const std::string text =
      withPinnedTrials([] { return renderScenario("ablation_dynamics"); });
  std::vector<std::string> cacheRows;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.find("G(100,0.1)") == std::string::npos) continue;
    // Collapse the cache token and padding so only the data columns
    // remain comparable.
    std::string normalized;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == ' ' && !normalized.empty() &&
          normalized.back() == ' ') {
        continue;
      }
      normalized += line[i];
    }
    const std::size_t on = normalized.find(" on ");
    const std::size_t off = normalized.find(" off ");
    if (on != std::string::npos) normalized.erase(on, 3);
    if (off != std::string::npos) normalized.erase(off, 4);
    cacheRows.push_back(normalized);
  }
  ASSERT_EQ(cacheRows.size(), 2U);
  EXPECT_EQ(cacheRows[0], cacheRows[1]);
}

TEST(GenericRenderer, ProducesHeaderlessTableWithParamsAndMetrics) {
  const Scenario* smoke = findScenario("smoke_dynamics");
  ASSERT_NE(smoke, nullptr);
  ASSERT_FALSE(static_cast<bool>(smoke->render));
  const RunReport report = runScenario(*smoke);
  const std::string text =
      renderGenericTable(*smoke, report.points, report.results);
  EXPECT_NE(text.find("k"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("rounds"), std::string::npos);
  EXPECT_NE(text.find("social_cost"), std::string::npos);
  // One row per grid point plus header, underline and trailing blank.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            report.points.size() + 3);
}

TEST(FinishRun, ReturnsTheScenarioVerdictInEveryFormat) {
  Scenario scenario;
  scenario.name = "finish_run_fixture";
  scenario.metricNames = {"trial"};
  scenario.makePoints = [] {
    ScenarioPoint point;
    point.params = {{"x", 1.0}};
    point.trials = 2;
    return std::vector<ScenarioPoint>{point};
  };
  scenario.runTrialFn = [](const ScenarioPoint&, int trial, Rng&) {
    return std::vector<double>{static_cast<double>(trial)};
  };
  RunOptions run;
  run.procs = 1;
  const RunReport report = runScenario(scenario, run);
  ASSERT_TRUE(report.complete);

  // Prints the rendering, as the CLIs do, and returns the exit code.
  const auto finish = [&](const char* format) {
    FinishOptions options;
    options.format = format;
    testing::internal::CaptureStdout();
    const int code = finishRun("ncg_run", scenario, report.points,
                               report.results, report.timings, options);
    EXPECT_EQ(testing::internal::GetCapturedStdout(),
              renderResults(scenario, report.points, report.results, format))
        << format;
    return code;
  };
  for (const char* format : {"legacy", "csv"}) {
    EXPECT_EQ(finish(format), 0) << format;
  }
  scenario.exitCode = [](const Scenario&, const std::vector<ScenarioPoint>&,
                         const ScenarioResults&) { return 3; };
  for (const char* format : {"legacy", "csv"}) {
    EXPECT_EQ(finish(format), 3) << format;
  }
}

}  // namespace
}  // namespace ncg::runtime
