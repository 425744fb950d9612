// The PR-9 scenario families: workloads beyond the paper's §5 grids,
// each exercising one extension of the dynamics layer —
//
//   family_hetero_alpha   per-player edge prices (GameParams::playerAlpha)
//   family_churn          arrivals/departures mid-dynamics (dynamics/churn)
//   family_simultaneous   simultaneous rounds with the deterministic
//                         disconnect-revert conflict rule
//   family_adversarial    the wake-worst-off-player schedule
//   family_noisy          temperature-style noisy best response
//
// Every family is a pinned, env-independent grid (fixed trial count,
// small n) like smoke_dynamics: trial t of point p runs on the stream
// Rng(deriveSeed(baseSeed, t)), all auxiliary seeds (churn decisions,
// softmax draws) are drawn from that stream, and the metrics are plain
// doubles — so each family is bitwise deterministic across NCG_PROCS
// 1/2/8 and kill/resume (pinned by the runtime determinism suite), and
// each family's dynamics match a naive loop that rebuilds every view at
// every turn (pinned by the differential suite).
#include <algorithm>
#include <vector>

#include "core/cost.hpp"
#include "core/strategy.hpp"
#include "dynamics/churn.hpp"
#include "dynamics/round_robin.hpp"
#include "gen/random_tree.hpp"
#include "runtime/scenario.hpp"

namespace ncg::runtime {
namespace detail {

namespace {

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

/// Shared grid shape: k × alpha (or k × spread), 3 pinned trials.
std::vector<ScenarioPoint> familyGrid(const char* secondLabel,
                                      std::initializer_list<double> seconds,
                                      std::uint64_t base, std::uint64_t kMul,
                                      std::uint64_t secondMul) {
  std::vector<ScenarioPoint> points;
  for (const Dist k : {2, 3}) {
    for (const double second : seconds) {
      ScenarioPoint point;
      point.params = {{"k", static_cast<double>(k)}, {secondLabel, second}};
      point.baseSeed = base + static_cast<std::uint64_t>(k) * kMul +
                       static_cast<std::uint64_t>(second * secondMul);
      point.trials = 3;
      points.push_back(std::move(point));
    }
  }
  return points;
}

std::vector<double> dynamicsMetrics(const DynamicsResult& result,
                                    const GameParams& params) {
  return {outcomeCode(result.outcome), static_cast<double>(result.rounds),
          static_cast<double>(result.totalMoves),
          socialCost(params, result.profile, result.graph)};
}

Scenario makeHeteroAlphaFamily() {
  Scenario s;
  s.name = "family_hetero_alpha";
  s.description =
      "Family: heterogeneous per-player α (uniform in [0.5, 0.5+spread]) on "
      "20-node trees — pinned 2×2 grid, env-independent";
  s.metricNames = {"outcome", "rounds", "total_moves", "social_cost"};
  s.makePoints = [] {
    return familyGrid("spread", {0.5, 4.0}, 0xFA417A00ULL, 131, 97);
  };
  s.runTrialFn = [](const ScenarioPoint& point, int /*trial*/, Rng& rng) {
    const NodeId n = 20;
    const StrategyProfile initial =
        StrategyProfile::randomOwnership(makeRandomTree(n, rng), rng);
    GameParams params =
        GameParams::max(1.0, static_cast<Dist>(point.param("k")));
    const double spread = point.param("spread");
    params.playerAlpha.resize(static_cast<std::size_t>(n));
    for (NodeId u = 0; u < n; ++u) {
      params.playerAlpha[static_cast<std::size_t>(u)] =
          0.5 + spread * rng.nextDouble();
    }
    DynamicsConfig config;
    config.params = params;
    config.maxRounds = 60;
    return dynamicsMetrics(runBestResponseDynamics(initial, config), params);
  };
  return s;  // generic renderer
}

Scenario makeChurnFamily() {
  Scenario s;
  s.name = "family_churn";
  s.description =
      "Family: player churn (arrivals/departures every 3rd round, then a "
      "settle phase) on 16-node trees — pinned 2×2 grid, env-independent";
  s.metricNames = {"outcome", "rounds",           "total_moves",
                   "active",  "events",           "active_social_cost"};
  s.makePoints = [] {
    return familyGrid("alpha", {1.0, 2.0}, 0xC4BA900ULL, 157, 8209);
  };
  s.runTrialFn = [](const ScenarioPoint& point, int /*trial*/, Rng& rng) {
    const NodeId n = 16;
    const StrategyProfile initial =
        StrategyProfile::randomOwnership(makeRandomTree(n, rng), rng);
    ChurnConfig config;
    config.params = GameParams::max(point.param("alpha"),
                                    static_cast<Dist>(point.param("k")));
    config.churnRounds = 9;
    config.churnPeriod = 3;
    config.settleRounds = 40;
    config.churnSeed = rng.next();
    const ChurnResult result = runChurnDynamics(initial, config);
    const CompactState compact =
        compactActive(result.graph, result.profile, result.active);
    const double activeCount = static_cast<double>(
        std::count(result.active.begin(), result.active.end(), true));
    return std::vector<double>{
        outcomeCode(result.outcome), static_cast<double>(result.rounds),
        static_cast<double>(result.totalMoves), activeCount,
        static_cast<double>(result.events.size()),
        socialCost(config.params, compact.profile, compact.graph)};
  };
  return s;  // generic renderer
}

Scenario makeSimultaneousFamily() {
  Scenario s;
  s.name = "family_simultaneous";
  s.description =
      "Family: simultaneous-move rounds (all best-respond vs the round-start "
      "snapshot; disconnect-revert conflict rule) on 20-node trees";
  s.metricNames = {"outcome", "rounds", "total_moves", "social_cost"};
  s.makePoints = [] {
    return familyGrid("alpha", {1.0, 2.0}, 0x51E17A00ULL, 149, 6151);
  };
  s.runTrialFn = [](const ScenarioPoint& point, int /*trial*/, Rng& rng) {
    const NodeId n = 20;
    const StrategyProfile initial =
        StrategyProfile::randomOwnership(makeRandomTree(n, rng), rng);
    DynamicsConfig config;
    config.params = GameParams::max(point.param("alpha"),
                                    static_cast<Dist>(point.param("k")));
    config.roundMode = RoundMode::kSimultaneous;
    config.maxRounds = 80;
    return dynamicsMetrics(runBestResponseDynamics(initial, config),
                           config.params);
  };
  return s;  // generic renderer
}

Scenario makeAdversarialFamily() {
  Scenario s;
  s.name = "family_adversarial";
  s.description =
      "Family: adversarial schedule (always wake the worst-off player) on "
      "20-node trees — pinned 2×2 grid, env-independent";
  s.metricNames = {"outcome", "rounds", "total_moves", "social_cost"};
  s.makePoints = [] {
    return familyGrid("alpha", {1.0, 2.0}, 0xADE55A00ULL, 137, 4099);
  };
  s.runTrialFn = [](const ScenarioPoint& point, int /*trial*/, Rng& rng) {
    const NodeId n = 20;
    const StrategyProfile initial =
        StrategyProfile::randomOwnership(makeRandomTree(n, rng), rng);
    DynamicsConfig config;
    config.params = GameParams::max(point.param("alpha"),
                                    static_cast<Dist>(point.param("k")));
    config.schedule = Schedule::kAdversarial;
    config.maxRounds = 60;
    return dynamicsMetrics(runBestResponseDynamics(initial, config),
                           config.params);
  };
  return s;  // generic renderer
}

Scenario makeNoisyFamily() {
  Scenario s;
  s.name = "family_noisy";
  s.description =
      "Family: temperature-style noisy best response (seeded softmax over "
      "improving single-edge moves) on 20-node trees";
  s.metricNames = {"outcome", "rounds", "total_moves", "social_cost"};
  s.makePoints = [] {
    return familyGrid("alpha", {1.0, 2.0}, 0x9015E000ULL, 109, 5519);
  };
  s.runTrialFn = [](const ScenarioPoint& point, int /*trial*/, Rng& rng) {
    const NodeId n = 20;
    const StrategyProfile initial =
        StrategyProfile::randomOwnership(makeRandomTree(n, rng), rng);
    DynamicsConfig config;
    config.params = GameParams::max(point.param("alpha"),
                                    static_cast<Dist>(point.param("k")));
    config.moveRule = MoveRule::kNoisy;
    config.temperature = 0.5;
    config.noiseSeed = rng.next();
    config.maxRounds = 80;
    return dynamicsMetrics(runBestResponseDynamics(initial, config),
                           config.params);
  };
  return s;  // generic renderer
}

}  // namespace

void appendFamilyScenarios(std::vector<Scenario>& registry) {
  registry.push_back(makeHeteroAlphaFamily());
  registry.push_back(makeChurnFamily());
  registry.push_back(makeSimultaneousFamily());
  registry.push_back(makeAdversarialFamily());
  registry.push_back(makeNoisyFamily());
}

}  // namespace detail
}  // namespace ncg::runtime
