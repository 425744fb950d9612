// The remaining legacy-harness ports: the bound maps (Figs. 3-4), the
// §3.1 construction check (Figs. 1-2), the lower-bound verification
// harness and the extension experiments, each as a registered scenario.
//
// Like scenarios_builtin.cpp, every port replicates its former bench/
// harness exactly — same seed formulas, same trial bodies in the same
// RNG draw order, same aggregation order, same printf formats — so the
// rendered text is byte-identical to what the hand-rolled mains
// printed (pinned by tests/test_runtime_scenario.cpp against verbatim
// copies of the legacy loops). The verification harnesses
// (fig1_2_construction, lb_constructions) additionally install an
// exitCode hook, so `ncg_run run <name>` and `ncg_serve <name>` exit
// non-zero exactly when the original main did.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "bounds/max_bounds.hpp"
#include "bounds/sum_bounds.hpp"
#include "core/cost.hpp"
#include "core/equilibrium.hpp"
#include "core/strategy.hpp"
#include "dynamics/features.hpp"
#include "dynamics/round_robin.hpp"
#include "gen/high_girth.hpp"
#include "gen/random_tree.hpp"
#include "gen/regular.hpp"
#include "gen/torus.hpp"
#include "graph/bfs.hpp"
#include "graph/metrics.hpp"
#include "graph/view.hpp"
#include "runtime/scenario.hpp"
#include "runtime/trial.hpp"
#include "stats/accumulator.hpp"
#include "stats/table.hpp"
#include "support/env.hpp"
#include "support/string_util.hpp"

namespace ncg::runtime {
namespace detail {

namespace {

std::string ciCell(const RunningStat& stat, int decimals = 2) {
  return formatWithCi(stat.mean(), stat.ci95HalfWidth(), decimals);
}

/// Outcome encoding shared with the builtin dynamics scenarios.
double outcomeCode(DynamicsOutcome outcome) {
  switch (outcome) {
    case DynamicsOutcome::kConverged:
      return 0.0;
    case DynamicsOutcome::kCycleDetected:
      return 1.0;
    case DynamicsOutcome::kRoundLimit:
      return 2.0;
  }
  return 2.0;
}

// --------------------------------------------------------------------
// fig1_2_construction — deterministic §3.1 torus construction check.
// Parts 0/1 are the Figure 1 / Figure 2 tori, part 2 the open variant
// next to Lemma 3.5; each part is one grid point with one trial.
// --------------------------------------------------------------------

TorusParams fig12Params(int part) {
  return part == 0 ? TorusParams{2, {15, 5}} : TorusParams{2, {3, 4}};
}

Scenario makeFig12Construction() {
  Scenario s;
  s.name = "fig1_2_construction";
  s.description =
      "Figures 1-2: the §3.1 torus construction at the figures' parameters, "
      "with the Lemma 3.3/3.5 distance-bound checks";
  s.title = "Figures 1-2 — the §3.1 torus construction";
  s.paperRef = "Bilò et al., Locality-based NCGs, Fig. 1 and Fig. 2";
  s.metricNames = {"nodes",   "intersections", "edges",
                   "diameter", "diameter_lb",  "center",
                   "view_nodes", "view_edges", "violations"};
  s.makePoints = [] {
    std::vector<ScenarioPoint> points;
    for (int part = 0; part < 3; ++part) {
      ScenarioPoint point;
      point.params = {{"part", static_cast<double>(part)}};
      point.baseSeed = 0xF1612C0ULL + static_cast<std::uint64_t>(part);
      point.trials = 1;
      points.push_back(std::move(point));
    }
    return points;
  };
  s.runTrialFn = [](const ScenarioPoint& point, int /*trial*/, Rng& /*rng*/) {
    const int part = static_cast<int>(point.param("part"));
    if (part == 2) {
      // The "open" variant next to Lemma 3.5.
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
      return std::vector<double>{
          static_cast<double>(open.graph.nodeCount()), 0.0,
          static_cast<double>(open.graph.edgeCount()), 0.0, 0.0,
          0.0, 0.0, 0.0, static_cast<double>(violations)};
    }
    const TorusParams params = fig12Params(part);
    const Dist k = 4;
    const TorusGraph tg = makeTorus(params);
    const Graph& g = tg.graph;

    // Lemma 3.3 spot check across a node sample.
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

    // The view of the intersection vertex (k*, ..., k*), coordinates
    // reduced modulo the per-dimension modulus.
    const int kStar = params.ell * (params.delta[0] - 1);
    std::vector<int> center(static_cast<std::size_t>(params.dims()));
    for (int i = 0; i < params.dims(); ++i) {
      center[static_cast<std::size_t>(i)] = kStar % params.modulus(i);
    }
    const NodeId centerId = tg.nodeAt(center);
    const LocalView view = buildView(g, centerId, k);

    return std::vector<double>{
        static_cast<double>(g.nodeCount()),
        static_cast<double>(tg.intersectionCount()),
        static_cast<double>(g.edgeCount()),
        static_cast<double>(diameter(g)),
        static_cast<double>(params.ell * params.delta.back()),
        static_cast<double>(centerId),
        static_cast<double>(view.size()),
        static_cast<double>(view.graph.edgeCount()),
        static_cast<double>(violations)};
  };
  s.render = [](const Scenario& scenario,
                const std::vector<ScenarioPoint>& points,
                const ScenarioResults& results) {
    std::string out = headerText(scenario.title, scenario.paperRef);
    char buf[160];
    for (std::size_t p = 0; p < points.size(); ++p) {
      const std::vector<double>& m = results.metrics(static_cast<int>(p), 0);
      const int part = static_cast<int>(points[p].param("part"));
      if (part == 2) {
        std::snprintf(buf, sizeof buf,
                      "open variant (Fig. 2 params): nodes=%d edges=%zu; "
                      "Lemma 3.5 violations: %zu (expect 0)\n",
                      static_cast<int>(m[0]), static_cast<std::size_t>(m[2]),
                      static_cast<std::size_t>(m[8]));
        out += buf;
        continue;
      }
      const TorusParams params = fig12Params(part);
      std::snprintf(buf, sizeof buf, "%s: ℓ=%d δ=(",
                    part == 0 ? "Figure 1 graph" : "Figure 2 graph",
                    params.ell);
      out += buf;
      for (int i = 0; i < params.dims(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%d", i ? "," : "",
                      params.delta[static_cast<std::size_t>(i)]);
        out += buf;
      }
      out += ")\n";
      std::snprintf(buf, sizeof buf,
                    "  nodes=%d (intersections=%d)  edges=%zu  diameter=%d "
                    "(>= ℓ·δ_d = %d)\n",
                    static_cast<int>(m[0]), static_cast<int>(m[1]),
                    static_cast<std::size_t>(m[2]), static_cast<int>(m[3]),
                    static_cast<int>(m[4]));
      out += buf;
      std::snprintf(buf, sizeof buf,
                    "  view of (k*,...,k*)=node %d at k=%d: %d nodes, "
                    "%zu edges\n",
                    static_cast<int>(m[5]), 4, static_cast<int>(m[6]),
                    static_cast<std::size_t>(m[7]));
      out += buf;
      std::snprintf(buf, sizeof buf,
                    "  Lemma 3.3 distance bound violations: %zu "
                    "(expect 0)\n\n",
                    static_cast<std::size_t>(m[8]));
      out += buf;
    }
    return out;
  };
  s.exitCode = [](const Scenario&, const std::vector<ScenarioPoint>&,
                  const ScenarioResults& results) {
    return results.metrics(2, 0)[8] == 0.0 ? 0 : 1;
  };
  return s;
}

// --------------------------------------------------------------------
// fig3_max_bounds / fig4_sum_bounds — closed-form bound maps over the
// (α, k) plane; deterministic, one trial per grid point.
// --------------------------------------------------------------------

Scenario makeFig3MaxBounds() {
  Scenario s;
  s.name = "fig3_max_bounds";
  s.description =
      "Figure 3: the MaxNCG PoA lower/upper bound map over the (α, k) plane "
      "with region labels";
  s.title = "Figure 3 — MaxNCG PoA bound map";
  s.paperRef =
      "Bilò et al., Locality-based NCGs, Fig. 3 "
      "(constants set to 1; shape reproduction)";
  s.metricNames = {"lower_bound", "upper_bound", "region"};
  s.makePoints = [] {
    std::vector<ScenarioPoint> points;
    const double alphas[] = {2, 4, 8, 16, 64, 256, 1024, 16384, 262144};
    const double ks[] = {2, 4, 8, 16, 32, 128, 1024, 16384, 262144};
    for (double k : ks) {
      for (double alpha : alphas) {
        ScenarioPoint point;
        point.params = {{"k", k}, {"alpha", alpha}};
        point.baseSeed = 0xF160300ULL + static_cast<std::uint64_t>(k) * 31 +
                         static_cast<std::uint64_t>(alpha);
        point.trials = 1;
        points.push_back(std::move(point));
      }
    }
    return points;
  };
  s.runTrialFn = [](const ScenarioPoint& point, int /*trial*/, Rng& /*rng*/) {
    const double n = 1e6;
    const double alpha = point.param("alpha");
    const double k = point.param("k");
    return std::vector<double>{
        maxPoaLowerBound(n, alpha, k), maxPoaUpperBound(n, alpha, k),
        static_cast<double>(
            static_cast<int>(classifyMaxRegion(n, alpha, k)))};
  };
  s.render = [](const Scenario& scenario,
                const std::vector<ScenarioPoint>& points,
                const ScenarioResults& results) {
    const double n = 1e6;
    std::string out = headerText(scenario.title, scenario.paperRef);
    TextTable table({"alpha", "k", "lower bound", "upper bound", "region"});
    for (std::size_t p = 0; p < points.size(); ++p) {
      const std::vector<double>& m = results.metrics(static_cast<int>(p), 0);
      table.addRow({formatFixed(points[p].param("alpha"), 0),
                    formatFixed(points[p].param("k"), 0),
                    formatFixed(m[0], 2), formatFixed(m[1], 2),
                    maxRegionName(
                        static_cast<MaxRegion>(static_cast<int>(m[2])))});
    }
    char buf[128];
    std::snprintf(buf, sizeof buf, "n = %.0f\n", n);
    out += buf;
    out += table.toString();
    out += "\n";
    out += "headline shapes:\n";
    std::snprintf(buf, sizeof buf,
                  "  k = Θ(1), α = 4: LB = Ω(n/(1+α)) -> %.0f "
                  "(linear in n)\n",
                  maxPoaLowerBound(n, 4, 2));
    out += buf;
    std::snprintf(buf, sizeof buf, "  k = α (diagonal): torus LB n/α -> %.0f\n",
                  maxPoaLowerBound(n, 16, 16));
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "  large α, small k: n^{1/Θ(k)} persists -> %.2f (k=4)\n",
                  maxPoaLowerBound(n, 1e5, 4));
    out += buf;
    std::snprintf(buf, sizeof buf, "  k = n^ε: NE ≡ LKE -> region %s\n",
                  maxRegionName(classifyMaxRegion(n, 4, 1e5)));
    out += buf;
    return out;
  };
  return s;
}

Scenario makeFig4SumBounds() {
  Scenario s;
  s.name = "fig4_sum_bounds";
  s.description =
      "Figure 4: the SumNCG PoA lower-bound map over the (α, k) plane with "
      "regime labels";
  s.title = "Figure 4 — SumNCG PoA bound map";
  s.paperRef =
      "Bilò et al., Locality-based NCGs, Fig. 4 "
      "(constants set to 1; shape reproduction)";
  s.metricNames = {"lower_bound", "regime"};
  s.makePoints = [] {
    std::vector<ScenarioPoint> points;
    const double alphas[] = {4, 32, 256, 2048, 65536, 1e6, 1e8};
    const double ks[] = {2, 3, 4, 8, 16, 64, 512};
    for (double k : ks) {
      for (double alpha : alphas) {
        ScenarioPoint point;
        point.params = {{"k", k}, {"alpha", alpha}};
        point.baseSeed = 0xF160400ULL + static_cast<std::uint64_t>(k) * 31 +
                         static_cast<std::uint64_t>(alpha);
        point.trials = 1;
        points.push_back(std::move(point));
      }
    }
    return points;
  };
  s.runTrialFn = [](const ScenarioPoint& point, int /*trial*/, Rng& /*rng*/) {
    const double n = 1e6;
    const double alpha = point.param("alpha");
    const double k = point.param("k");
    const double regime =
        fullKnowledgeRegionSum(alpha, k)
            ? 1.0
            : (sumRegimeOfFigure4(alpha, k) < 0 ? -1.0 : 0.0);
    return std::vector<double>{sumPoaLowerBound(n, alpha, k), regime};
  };
  s.render = [](const Scenario& scenario,
                const std::vector<ScenarioPoint>& points,
                const ScenarioResults& results) {
    const double n = 1e6;
    std::string out = headerText(scenario.title, scenario.paperRef);
    TextTable table({"alpha", "k", "lower bound", "regime"});
    for (std::size_t p = 0; p < points.size(); ++p) {
      const std::vector<double>& m = results.metrics(static_cast<int>(p), 0);
      const char* regime =
          m[1] == 1.0 ? "NE=LKE" : (m[1] == -1.0 ? "strong-LB" : "open");
      table.addRow({formatFixed(points[p].param("alpha"), 0),
                    formatFixed(points[p].param("k"), 0),
                    formatFixed(m[0], 2), regime});
    }
    char buf[128];
    std::snprintf(buf, sizeof buf, "n = %.0f\n", n);
    out += buf;
    out += table.toString();
    out += "\n";
    out += "headline shapes (§4):\n";
    std::snprintf(buf, sizeof buf,
                  "  α in [4k³, n], k=3: LB = n/k = %.0f (>= Ω(n^{2/3}))\n",
                  sumPoaLowerBound(n, 4.0 * 27.0, 3));
    out += buf;
    std::snprintf(buf, sizeof buf, "  α >= kn, k=2: LB = n^{1/2} = %.0f\n",
                  sumPoaLowerBound(n, 2.0 * n, 2));
    out += buf;
    std::snprintf(buf, sizeof buf, "  k > 1+2√α: NE ≡ LKE -> %s\n",
                  fullKnowledgeRegionSum(16.0, 10.0) ? "yes" : "no");
    out += buf;
    return out;
  };
  return s;
}

// --------------------------------------------------------------------
// ext_empirical_poa — multi-restart PoA band search. Each restart is
// one trial on the stream Rng(deriveSeed(baseSeed, i)), exactly the
// stream the legacy harness's restart loop gave restart i.
// --------------------------------------------------------------------

Scenario makeExtEmpiricalPoa() {
  Scenario s;
  s.name = "ext_empirical_poa";
  s.description =
      "Extension: empirical PoS/PoA bands from multi-restart equilibrium "
      "search vs the Fig. 3 bounds";
  s.title = "Extension — empirical PoA bands vs Fig. 3 bounds";
  s.paperRef = "multi-restart worst/best equilibrium search";
  s.metricNames = {"converged", "quality"};
  s.makePoints = [] {
    std::vector<ScenarioPoint> points;
    const int restarts = std::max(env::trials() * 3, 12);
    for (const double alpha : {1.0, 2.0, 5.0}) {
      for (const Dist k : {2, 3, 5, 1000}) {
        ScenarioPoint point;
        point.params = {{"alpha", alpha}, {"k", static_cast<double>(k)}};
        point.baseSeed =
            0xE0AULL + static_cast<std::uint64_t>(alpha * 100 + k);
        point.trials = restarts;
        points.push_back(std::move(point));
      }
    }
    return points;
  };
  s.runTrialFn = [](const ScenarioPoint& point, int /*trial*/, Rng& rng) {
    const NodeId n = 60;
    DynamicsConfig dynamics;
    dynamics.params = GameParams::max(point.param("alpha"),
                                      static_cast<Dist>(point.param("k")));
    dynamics.maxRounds = 60;
    const StrategyProfile initial =
        StrategyProfile::randomOwnership(makeRandomTree(n, rng), rng);
    dynamics.schedule = Schedule::kRandomPermutation;
    dynamics.scheduleSeed = rng.next();
    const DynamicsResult run = runBestResponseDynamics(initial, dynamics);
    if (run.outcome != DynamicsOutcome::kConverged) {
      return std::vector<double>{0.0, 0.0};
    }
    const double opt = socialOptimumReference(dynamics.params,
                                              run.profile.playerCount());
    return std::vector<double>{
        1.0, socialCost(dynamics.params, run.profile, run.graph) / opt};
  };
  s.render = [](const Scenario& scenario,
                const std::vector<ScenarioPoint>& points,
                const ScenarioResults& results) {
    const NodeId n = 60;
    std::string out = headerText(scenario.title, scenario.paperRef);
    TextTable table({"alpha", "k", "PoS est", "mean", "PoA est",
                     "theory LB", "theory UB", "converged"});
    for (std::size_t p = 0; p < points.size(); ++p) {
      const double alpha = points[p].param("alpha");
      const Dist k = static_cast<Dist>(points[p].param("k"));
      // Aggregated in restart order, exactly like the legacy harness.
      int converged = 0;
      double best = std::numeric_limits<double>::infinity();
      double worst = 0.0;
      double mean = 0.0;
      double sum = 0.0;
      for (int t = 0; t < points[p].trials; ++t) {
        const std::vector<double>& m = results.metrics(static_cast<int>(p), t);
        if (m[0] == 0.0) continue;
        ++converged;
        sum += m[1];
        if (m[1] < best) best = m[1];
        if (m[1] > worst) worst = m[1];
      }
      if (converged == 0) {
        best = 0.0;
      } else {
        mean = sum / converged;
      }
      table.addRow({formatFixed(alpha, 1), std::to_string(k),
                    formatFixed(best, 3), formatFixed(mean, 3),
                    formatFixed(worst, 3),
                    formatFixed(maxPoaLowerBound(n, alpha, k), 2),
                    formatFixed(maxPoaUpperBound(n, alpha, k), 2),
                    std::to_string(converged) + "/" +
                        std::to_string(points[p].trials)});
    }
    out += table.toString();
    out += "\n";
    out += "reading: dynamics-reachable equilibria usually sit far "
           "below the adversarial PoA constructions (the Fig. 3 LBs "
           "need hand-crafted tori), and the band tightens as k "
           "grows toward full knowledge.\n";
    return out;
  };
  return s;
}

// --------------------------------------------------------------------
// ext_regular_starts — dynamics from random d-regular initial networks.
// --------------------------------------------------------------------

Scenario makeExtRegularStarts() {
  Scenario s;
  s.name = "ext_regular_starts";
  s.description =
      "Extension: dynamics from random d-regular starts — does degree "
      "heterogeneity emerge or persist?";
  s.title = "Extension — dynamics from random d-regular starts";
  s.paperRef = "complements Fig. 8 (degree statistics of stable networks)";
  s.metricNames = {"outcome", "max_degree", "max_bought", "quality"};
  s.makePoints = [] {
    std::vector<ScenarioPoint> points;
    const int trials = env::trials();
    for (const NodeId d : {3, 4}) {
      for (const Dist k : {2, 3, 1000}) {
        for (const double alpha : {0.5, 2.0}) {
          ScenarioPoint point;
          point.params = {{"d", static_cast<double>(d)},
                          {"k", static_cast<double>(k)},
                          {"alpha", alpha}};
          point.baseSeed =
              0x4E600ULL + static_cast<std::uint64_t>(d * 1009 + k * 31 +
                                                      alpha * 10);
          point.trials = trials;
          points.push_back(std::move(point));
        }
      }
    }
    return points;
  };
  s.runTrialFn = [](const ScenarioPoint& point, int /*trial*/, Rng& rng) {
    const NodeId n = 60;
    const GameParams params = GameParams::max(
        point.param("alpha"), static_cast<Dist>(point.param("k")));
    const Graph start = makeConnectedRandomRegular(
        n, static_cast<NodeId>(point.param("d")), rng);
    const StrategyProfile profile =
        StrategyProfile::randomOwnership(start, rng);
    DynamicsConfig config;
    config.params = params;
    config.maxRounds = 60;
    const DynamicsResult result = runBestResponseDynamics(profile, config);
    const NetworkFeatures f =
        computeFeatures(result.graph, result.profile, params);
    return std::vector<double>{outcomeCode(result.outcome),
                               static_cast<double>(f.maxDegree),
                               static_cast<double>(f.maxBought), f.quality};
  };
  s.render = [](const Scenario& scenario,
                const std::vector<ScenarioPoint>& points,
                const ScenarioResults& results) {
    std::string out = headerText(scenario.title, scenario.paperRef);
    TextTable table({"d", "k", "alpha", "max degree", "max bought",
                     "quality", "converged"});
    for (std::size_t p = 0; p < points.size(); ++p) {
      RunningStat degree;
      RunningStat bought;
      RunningStat quality;
      int converged = 0;
      for (int t = 0; t < points[p].trials; ++t) {
        const std::vector<double>& m = results.metrics(static_cast<int>(p), t);
        if (m[0] != 0.0) continue;
        ++converged;
        degree.push(m[1]);
        bought.push(m[2]);
        quality.push(m[3]);
      }
      table.addRow(
          {std::to_string(static_cast<NodeId>(points[p].param("d"))),
           std::to_string(static_cast<Dist>(points[p].param("k"))),
           formatFixed(points[p].param("alpha"), 1), ciCell(degree, 1),
           ciCell(bought, 1), ciCell(quality),
           std::to_string(converged) + "/" +
               std::to_string(points[p].trials)});
    }
    out += table.toString();
    out += "\n";
    out += "reading: if max degree at equilibrium >> d, the dynamics "
           "itself builds hubs (degree heterogeneity is emergent, "
           "matching the paper's Fig. 8 story).\n";
    return out;
  };
  return s;
}

// --------------------------------------------------------------------
// ext_sum_experiments — SumNCG dynamics at small n.
// --------------------------------------------------------------------

Scenario makeExtSumExperiments() {
  Scenario s;
  s.name = "ext_sum_experiments";
  s.description =
      "Extension: the §5 protocol for SumNCG at small n (quality, rounds, "
      "diameter of the sum-game equilibria)";
  s.title = "Extension — SumNCG dynamics (small n)";
  s.paperRef =
      "the experiment §5 skips for feasibility reasons; "
      "our exact solver covers n<=24";
  s.metricNames = {"outcome", "quality", "rounds", "diameter"};
  s.makePoints = [] {
    std::vector<ScenarioPoint> points;
    const int trials = env::trials();
    for (const Dist k : {2, 3, 4, 1000}) {
      for (const double alpha : {0.5, 1.0, 2.0, 5.0}) {
        ScenarioPoint point;
        point.params = {{"k", static_cast<double>(k)}, {"alpha", alpha}};
        point.baseSeed = 0x50AA00ULL + static_cast<std::uint64_t>(k * 57) +
                         static_cast<std::uint64_t>(alpha * 1000);
        point.trials = trials;
        points.push_back(std::move(point));
      }
    }
    return points;
  };
  s.runTrialFn = [](const ScenarioPoint& point, int /*trial*/, Rng& rng) {
    TrialSpec spec;
    spec.source = Source::kRandomTree;
    spec.n = 20;
    spec.params = GameParams::sum(point.param("alpha"),
                                  static_cast<Dist>(point.param("k")));
    spec.maxRounds = 40;
    const TrialOutcome outcome = runTrial(spec, rng);
    return std::vector<double>{outcomeCode(outcome.outcome),
                               outcome.features.quality,
                               static_cast<double>(outcome.rounds),
                               static_cast<double>(outcome.features.diameter)};
  };
  s.render = [](const Scenario& scenario,
                const std::vector<ScenarioPoint>& points,
                const ScenarioResults& results) {
    std::string out = headerText(scenario.title, scenario.paperRef);
    TextTable table({"k", "alpha", "quality", "rounds",
                     "diameter", "converged"});
    for (std::size_t p = 0; p < points.size(); ++p) {
      RunningStat quality;
      RunningStat rounds;
      RunningStat diameterStat;
      int converged = 0;
      for (int t = 0; t < points[p].trials; ++t) {
        const std::vector<double>& m = results.metrics(static_cast<int>(p), t);
        if (m[0] != 0.0) continue;
        ++converged;
        quality.push(m[1]);
        rounds.push(m[2]);
        diameterStat.push(m[3]);
      }
      table.addRow({std::to_string(static_cast<Dist>(points[p].param("k"))),
                    formatFixed(points[p].param("alpha"), 2),
                    ciCell(quality), ciCell(rounds, 1),
                    ciCell(diameterStat, 1),
                    std::to_string(converged) + "/" +
                        std::to_string(points[p].trials)});
    }
    out += table.toString();
    out += "\n";
    out += "observations to check: small k forbids horizon-worsening "
           "rewires (Prop. 2.2) so equilibria keep higher diameter "
           "than the full-view star-like outcomes.\n";
    return out;
  };
  return s;
}

// --------------------------------------------------------------------
// frontier_ne_lke — empirical check of the NE ≡ LKE frontiers.
// --------------------------------------------------------------------

Scenario makeFrontierNeLke() {
  Scenario s;
  s.name = "frontier_ne_lke";
  s.description =
      "NE ≡ LKE frontier check: fraction of converged LKEs that are also "
      "Nash equilibria vs the Cor. 3.14 / Thm. 4.4 verdicts";
  s.title = "NE ≡ LKE frontier — empirical check";
  s.paperRef =
      "Bilò et al., Corollary 3.14 (Fig. 3 gray region) "
      "and Theorem 4.4 (Fig. 4 gray region)";
  s.metricNames = {"lke", "also_ne", "full_view"};
  s.makePoints = [] {
    std::vector<ScenarioPoint> points;
    const int trials = env::trials();
    // Part 0 — MaxNCG on trees, n = 40.
    for (const double alpha : {1.0, 2.0, 5.0}) {
      for (const Dist k : {2, 3, 5, 10, 1000}) {
        ScenarioPoint point;
        point.params = {{"part", 0.0},
                        {"alpha", alpha},
                        {"k", static_cast<double>(k)}};
        point.baseSeed =
            0xF407ULL + static_cast<std::uint64_t>(alpha * 100 + k);
        point.trials = trials;
        points.push_back(std::move(point));
      }
    }
    // Part 1 — SumNCG on trees, n = 12.
    for (const double alpha : {0.5, 1.5, 4.0}) {
      for (const Dist k : {2, 4, 8}) {
        ScenarioPoint point;
        point.params = {{"part", 1.0},
                        {"alpha", alpha},
                        {"k", static_cast<double>(k)}};
        point.baseSeed =
            0xF408ULL + static_cast<std::uint64_t>(alpha * 100 + k);
        point.trials = trials;
        points.push_back(std::move(point));
      }
    }
    return points;
  };
  s.runTrialFn = [](const ScenarioPoint& point, int /*trial*/, Rng& rng) {
    const bool maxPanel = point.param("part") == 0.0;
    const NodeId n = maxPanel ? 40 : 12;
    const GameParams params =
        maxPanel ? GameParams::max(point.param("alpha"),
                                   static_cast<Dist>(point.param("k")))
                 : GameParams::sum(point.param("alpha"),
                                   static_cast<Dist>(point.param("k")));
    const Graph tree = makeRandomTree(n, rng);
    DynamicsConfig config;
    config.params = params;
    config.maxRounds = 80;
    const DynamicsResult run = runBestResponseDynamics(
        StrategyProfile::randomOwnership(tree, rng), config);
    if (run.outcome != DynamicsOutcome::kConverged) {
      return std::vector<double>{0.0, 0.0, 0.0};
    }
    const double alsoNe =
        checkNash(run.graph, run.profile, params).isEquilibrium ? 1.0 : 0.0;
    const NetworkFeatures f =
        computeFeatures(run.graph, run.profile, params);
    return std::vector<double>{1.0, alsoNe,
                               f.minViewSize == n ? 1.0 : 0.0};
  };
  s.render = [](const Scenario& scenario,
                const std::vector<ScenarioPoint>& points,
                const ScenarioResults& results) {
    std::string out = headerText(scenario.title, scenario.paperRef);
    const auto counts = [&](std::size_t p, int index) {
      int total = 0;
      for (int t = 0; t < points[p].trials; ++t) {
        total += static_cast<int>(
            results.metrics(static_cast<int>(p), t)[index]);
      }
      return total;
    };
    out += "--- MaxNCG (trees, n=40) ---\n";
    TextTable maxTable(
        {"alpha", "k", "LKE runs", "also NE", "full view", "theory"});
    for (std::size_t p = 0; p < points.size(); ++p) {
      if (points[p].param("part") != 0.0) continue;
      const double alpha = points[p].param("alpha");
      const Dist k = static_cast<Dist>(points[p].param("k"));
      maxTable.addRow(
          {formatFixed(alpha, 1), std::to_string(k),
           std::to_string(counts(p, 0)), std::to_string(counts(p, 1)),
           std::to_string(counts(p, 2)),
           fullKnowledgeRegionMax(40, alpha, k) ? "NE=LKE" : "may differ"});
    }
    out += maxTable.toString();
    out += "\n";
    out += "--- SumNCG (trees, n=12) ---\n";
    TextTable sumTable(
        {"alpha", "k", "LKE runs", "also NE", "theory (Thm 4.4)"});
    for (std::size_t p = 0; p < points.size(); ++p) {
      if (points[p].param("part") != 1.0) continue;
      const double alpha = points[p].param("alpha");
      const Dist k = static_cast<Dist>(points[p].param("k"));
      sumTable.addRow(
          {formatFixed(alpha, 1), std::to_string(k),
           std::to_string(counts(p, 0)), std::to_string(counts(p, 1)),
           fullKnowledgeRegionSum(alpha, k) ? "NE=LKE" : "may differ"});
    }
    out += sumTable.toString();
    out += "\n";
    out += "expectation: in rows marked NE=LKE every converged LKE "
           "must also be an NE; below the frontier gaps may appear.\n";
    return out;
  };
  return s;
}

// --------------------------------------------------------------------
// lb_constructions — deterministic verification of the paper's
// lower-bound equilibrium families; one case per grid point.
// --------------------------------------------------------------------

const char* lbCaseLabel(int index) {
  if (index <= 3) return "Lemma 3.1 cycle";
  if (index <= 5) return "Lemma 3.2 PG(2,q) incidence";
  if (index <= 7) return "Theorem 3.12 torus (MaxNCG)";
  return "Lemma 4.1 torus (SumNCG)";
}

Scenario makeLbConstructions() {
  Scenario s;
  s.name = "lb_constructions";
  s.description =
      "Lower-bound constructions: builds the Lemma 3.1/3.2, Thm 3.12 and "
      "Lemma 4.1 families and verifies the LKE property exactly";
  s.title = "Lower-bound constructions — equilibrium verification";
  s.paperRef = "Bilò et al., Lemmas 3.1/3.2, Thm 3.12, Lemma 4.1";
  s.metricNames = {"stable", "poa", "bound", "n", "alpha", "k"};
  s.makePoints = [] {
    std::vector<ScenarioPoint> points;
    for (int index = 0; index < 10; ++index) {
      ScenarioPoint point;
      point.params = {{"case", static_cast<double>(index)}};
      point.baseSeed = 0x1BC0ULL + static_cast<std::uint64_t>(index);
      point.trials = 1;
      points.push_back(std::move(point));
    }
    return points;
  };
  s.runTrialFn = [](const ScenarioPoint& point, int /*trial*/, Rng& /*rng*/) {
    const int index = static_cast<int>(point.param("case"));
    StrategyProfile profile;
    GameParams params;
    double bound = 0.0;
    if (index <= 3) {
      // Lemma 3.1: cycles, α >= k−1; each i buys (i+1) mod n.
      const Dist k = index + 1;
      const NodeId n = 60;
      std::vector<std::vector<NodeId>> lists(static_cast<std::size_t>(n));
      for (NodeId i = 0; i < n; ++i) {
        lists[static_cast<std::size_t>(i)].push_back((i + 1) % n);
      }
      profile = StrategyProfile::fromBoughtLists(lists);
      params = GameParams::max(static_cast<double>(k), k);
      bound = lbCyclePoA(n, params.alpha);
    } else if (index <= 5) {
      // Lemma 3.2: PG(2,q) incidence at k = 2 (points own their edges).
      const int q = index == 4 ? 3 : 5;
      const Graph incidence = makeProjectivePlaneIncidence(q);
      const NodeId pointCount = projectivePlanePoints(q);
      std::vector<std::vector<NodeId>> lists(
          static_cast<std::size_t>(incidence.nodeCount()));
      for (NodeId p = 0; p < pointCount; ++p) {
        for (NodeId l : incidence.neighbors(p)) {
          lists[static_cast<std::size_t>(p)].push_back(l);
        }
      }
      profile = StrategyProfile::fromBoughtLists(lists);
      params = GameParams::max(1.5, 2);
      bound = lbHighGirthPoA(incidence.nodeCount(), 2);
    } else if (index <= 7) {
      // Theorem 3.12: stretched torus for MaxNCG.
      const double alpha = index == 6 ? 2.0 : 3.0;
      const int k = index == 6 ? 4 : 6;
      const TorusGraph tg =
          makeTorus(theorem312Params(alpha, k, index == 6 ? 8 : 6));
      profile = StrategyProfile::fromBoughtLists(tg.bought);
      params = GameParams::max(alpha, k);
      bound = lbTorusPoA(profile.buildGraph().nodeCount(), alpha, k);
    } else {
      // Lemma 4.1: d=2, ℓ=2 torus for SumNCG with α >= 4k³.
      const int k = index == 8 ? 2 : 3;
      const TorusGraph tg = makeTorus(lemma41Params(k, 8));
      profile = StrategyProfile::fromBoughtLists(tg.bought);
      params = GameParams::sum(4.0 * k * k * k, static_cast<Dist>(k));
      bound = lbSumTorusPoA(profile.buildGraph().nodeCount(), params.alpha, k);
    }
    const Graph g = profile.buildGraph();
    const bool stable = isLke(g, profile, params);
    const double poa = socialCost(params, profile, g) /
                       socialOptimumReference(params, g.nodeCount());
    return std::vector<double>{stable ? 1.0 : 0.0, poa, bound,
                               static_cast<double>(g.nodeCount()),
                               params.alpha, static_cast<double>(params.k)};
  };
  s.render = [](const Scenario& scenario,
                const std::vector<ScenarioPoint>& points,
                const ScenarioResults& results) {
    std::string out = headerText(scenario.title, scenario.paperRef);
    int failures = 0;
    char buf[160];
    for (std::size_t p = 0; p < points.size(); ++p) {
      const std::vector<double>& m = results.metrics(static_cast<int>(p), 0);
      const bool stable = m[0] == 1.0;
      if (!stable) ++failures;
      std::snprintf(buf, sizeof buf,
                    "%-34s n=%5d α=%-7.2f k=%-4d LKE=%s  PoA=%8.2f  "
                    "bound=%8.2f\n",
                    lbCaseLabel(static_cast<int>(points[p].param("case"))),
                    static_cast<int>(m[3]), m[4], static_cast<int>(m[5]),
                    stable ? "yes" : "NO ", m[1], m[2]);
      out += buf;
    }
    out += "\n";
    out += failures == 0 ? "all constructions verified stable"
                         : "SOME CONSTRUCTIONS WERE NOT STABLE";
    out += "\n";
    return out;
  };
  s.exitCode = [](const Scenario&, const std::vector<ScenarioPoint>& points,
                  const ScenarioResults& results) {
    for (std::size_t p = 0; p < points.size(); ++p) {
      if (results.metrics(static_cast<int>(p), 0)[0] != 1.0) return 1;
    }
    return 0;
  };
  return s;
}

// --------------------------------------------------------------------
// ablation_dynamics — design choices of the dynamics engine. The
// legacy harness printed wall-clock columns next to the deterministic
// ones; the port keeps exactly the deterministic set (quality, rounds,
// converged count) so the rendered text is a pure function of the
// trials — wall time now comes from the --timings sidecar like every
// other scenario. Trial bodies replicate the legacy measure() loop
// draw-for-draw (pinned by test_runtime_scenario.cpp).
// --------------------------------------------------------------------

std::vector<double> ablationTrial(const TrialSpec& spec, MoveRule rule,
                                  bool cache, Rng& rng) {
  const Graph initial = makeInitialGraph(spec, rng);
  const StrategyProfile profile =
      StrategyProfile::randomOwnership(initial, rng);
  DynamicsConfig config;
  config.params = spec.params;
  config.maxRounds = spec.maxRounds;
  config.moveRule = rule;
  config.useBestResponseCache = cache;
  const DynamicsResult result = runBestResponseDynamics(profile, config);
  const NetworkFeatures features =
      computeFeatures(result.graph, result.profile, spec.params);
  return {outcomeCode(result.outcome), static_cast<double>(result.rounds),
          features.quality};
}

/// Converged-only aggregation of one ablation point, the legacy
/// measure() reduction: mean quality, mean rounds, converged count.
struct AblationCell {
  RunningStat quality;
  RunningStat rounds;
  int converged = 0;
};

AblationCell ablationCell(const ScenarioResults& results, int point,
                          int trials) {
  AblationCell cell;
  for (int t = 0; t < trials; ++t) {
    const std::vector<double>& m = results.metrics(point, t);
    if (m[0] != 0.0) continue;
    ++cell.converged;
    cell.quality.push(m[2]);
    cell.rounds.push(m[1]);
  }
  return cell;
}

Scenario makeAblationDynamics() {
  Scenario s;
  s.name = "ablation_dynamics";
  s.description =
      "Ablation: exact vs greedy move rule and best-response cache on/off "
      "(deterministic columns; wall time via --timings)";
  s.metricNames = {"outcome", "rounds", "quality"};
  s.makePoints = [] {
    std::vector<ScenarioPoint> points;
    // Part 0 — move rule on trees, n=100: the legacy loop ran exact and
    // greedy on the *same* seed, so the paired points share baseSeed.
    for (const double alpha : {0.5, 2.0, 10.0}) {
      for (const Dist k : {3, 1000}) {
        for (const double rule : {0.0, 1.0}) {  // 0 = exact, 1 = greedy
          ScenarioPoint point;
          point.params = {{"alpha", alpha},
                          {"k", static_cast<double>(k)},
                          {"rule", rule}};
          point.baseSeed =
              0xAB1A0ULL + static_cast<std::uint64_t>(alpha * 100 + k);
          point.trials = env::trials();
          points.push_back(std::move(point));
        }
      }
    }
    // Part 1 — cache on/off on G(100, 0.1); results are provably
    // identical (the renderer shows both rows to pin that).
    for (const double cache : {1.0, 0.0}) {
      ScenarioPoint point;
      point.params = {{"cache", cache}};
      point.baseSeed = 0xAB1A1ULL;
      point.trials = env::trials();
      points.push_back(std::move(point));
    }
    return points;
  };
  s.runTrialFn = [](const ScenarioPoint& point, int /*trial*/, Rng& rng) {
    TrialSpec spec;
    spec.n = 100;
    if (point.tryParam("cache").has_value()) {
      spec.source = Source::kErdosRenyi;
      spec.p = 0.1;
      spec.params = GameParams::max(1.0, 3);
      return ablationTrial(spec, MoveRule::kBestResponse,
                           point.param("cache") == 1.0, rng);
    }
    spec.source = Source::kRandomTree;
    spec.params = GameParams::max(point.param("alpha"),
                                  static_cast<Dist>(point.param("k")));
    const MoveRule rule = point.param("rule") == 0.0 ? MoveRule::kBestResponse
                                                     : MoveRule::kGreedy;
    return ablationTrial(spec, rule, /*cache=*/true, rng);
  };
  s.render = [](const Scenario&, const std::vector<ScenarioPoint>& points,
                const ScenarioResults& results) {
    std::string out = headerText(
        "Ablation — move rule and best-response cache",
        "design choices called out in DESIGN.md §5");
    out += "--- move rule: exact best response vs greedy single-edge "
           "(trees, n=100) ---\n";
    TextTable moveTable(
        {"alpha", "k", "rule", "quality", "rounds", "converged"});
    TextTable cacheTable(
        {"source", "alpha", "k", "cache", "quality", "rounds", "converged"});
    for (std::size_t p = 0; p < points.size(); ++p) {
      const ScenarioPoint& point = points[p];
      const AblationCell cell =
          ablationCell(results, static_cast<int>(p), point.trials);
      if (point.tryParam("cache").has_value()) {
        cacheTable.addRow({"G(100,0.1)", "1.0", "3",
                           point.param("cache") == 1.0 ? "on" : "off",
                           formatFixed(cell.quality.mean(), 3),
                           formatFixed(cell.rounds.mean(), 2),
                           std::to_string(cell.converged)});
        continue;
      }
      moveTable.addRow(
          {formatFixed(point.param("alpha"), 1),
           std::to_string(static_cast<Dist>(point.param("k"))),
           point.param("rule") == 0.0 ? "exact" : "greedy",
           formatFixed(cell.quality.mean(), 3),
           formatFixed(cell.rounds.mean(), 2),
           std::to_string(cell.converged)});
    }
    out += moveTable.toString();
    out += "\n";
    out += "--- best-response cache on/off (identical deterministic "
           "columns; wall time via --timings) ---\n";
    out += cacheTable.toString();
    out += "\n";
    return out;
  };
  return s;
}

}  // namespace

void appendLegacyPortScenarios(std::vector<Scenario>& registry) {
  registry.push_back(makeFig12Construction());
  registry.push_back(makeFig3MaxBounds());
  registry.push_back(makeFig4SumBounds());
  registry.push_back(makeExtEmpiricalPoa());
  registry.push_back(makeExtRegularStarts());
  registry.push_back(makeExtSumExperiments());
  registry.push_back(makeFrontierNeLke());
  registry.push_back(makeLbConstructions());
  registry.push_back(makeAblationDynamics());
}

}  // namespace detail
}  // namespace ncg::runtime
