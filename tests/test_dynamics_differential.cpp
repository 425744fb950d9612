// Differential tests: runBestResponseDynamics and runChurnDynamics must
// replay a naive reference loop exactly — identical move sequences,
// profiles, networks and costs — across randomized instances of both game
// variants, both initial-network families and a spread of (k, α)
// settings.
//
// The reference loops below are written from the rules stated in
// dynamics/round_robin.hpp and dynamics/churn.hpp, not from the engines'
// bodies, and share none of their code. At every turn they rebuild G(σ)
// and the mover's view from the profile and call the allocating solvers;
// they keep no settled flags, cache or fingerprint. A bug in the
// engines' round loop, schedules, conflict rule, cycle check, churn
// events or settled skip therefore shows up as a diverging trajectory.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/best_response.hpp"
#include "core/cost.hpp"
#include "core/player_view.hpp"
#include "core/restricted_moves.hpp"
#include "dynamics/churn.hpp"
#include "dynamics/round_robin.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_tree.hpp"
#include "graph/metrics.hpp"
#include "support/random.hpp"

namespace ncg {
namespace {

// ---------------------------------------------------------------------
// The naive reference loops.

/// u's response to the current profile under the configured move rule,
/// from a view extracted from a freshly built G(σ).
BestResponse naiveResponse(const StrategyProfile& profile, NodeId u,
                           const DynamicsConfig& config, Rng& noiseRng) {
  const Graph g = profile.buildGraph();
  const PlayerView pv = buildPlayerView(g, profile, u, config.params.k);
  const GameParams params = config.params.forPlayer(u);
  if (config.moveRule == MoveRule::kGreedy) return greedyMove(pv, params);
  if (config.moveRule == MoveRule::kNoisy) {
    BestResponseScratch fresh;
    BestResponse br =
        noisyGreedyMove(pv, params, config.temperature, noiseRng, fresh);
    if (br.improving) return br;
  }
  return bestResponse(pv, params);
}

MoveRecord moveRecord(int round, NodeId u, const BestResponse& br) {
  return {round, u, br.strategyGlobal, br.currentCost, br.proposedCost};
}

/// runBestResponseDynamics by the rules of dynamics/round_robin.hpp.
DynamicsResult naiveDynamics(const StrategyProfile& initial,
                             const DynamicsConfig& config) {
  DynamicsResult result;
  result.profile = initial;
  result.outcome = DynamicsOutcome::kRoundLimit;
  const NodeId n = initial.playerCount();
  Rng scheduleRng(config.scheduleSeed);
  Rng noiseRng(config.noiseSeed);
  const bool deterministic = config.schedule != Schedule::kRandomPermutation &&
                             config.moveRule != MoveRule::kNoisy;
  std::vector<StrategyProfile> seen{initial};
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), NodeId{0});

  const auto accept = [&](int round, NodeId u, const BestResponse& br) {
    result.profile.setStrategy(u, br.strategyGlobal);
    result.moves.push_back(moveRecord(round, u, br));
    ++result.totalMoves;
  };
  // The next player of an adversarial round: the not-yet-woken player
  // with the highest current cost, lowest id on ties.
  const auto worstOff = [&](const std::vector<bool>& woken) {
    const Graph g = result.profile.buildGraph();
    NodeId next = -1;
    double worst = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      if (woken[static_cast<std::size_t>(u)]) continue;
      const double cost = playerCost(config.params, result.profile, g, u);
      if (next < 0 || cost > worst) {
        next = u;
        worst = cost;
      }
    }
    return next;
  };

  for (int round = 1; round <= config.maxRounds; ++round) {
    result.rounds = round;
    bool moved = false;
    if (config.roundMode == RoundMode::kSimultaneous) {
      std::vector<std::pair<NodeId, BestResponse>> proposals;
      for (NodeId u = 0; u < n; ++u) {
        BestResponse br = naiveResponse(result.profile, u, config, noiseRng);
        if (br.improving) proposals.emplace_back(u, std::move(br));
      }
      if (proposals.empty()) {
        result.outcome = DynamicsOutcome::kConverged;
        break;
      }
      for (const auto& [u, br] : proposals) {
        StrategyProfile next = result.profile;
        next.setStrategy(u, br.strategyGlobal);
        if (!isConnected(next.buildGraph())) continue;  // reverted
        accept(round, u, br);
        moved = true;
      }
    } else {
      if (config.schedule == Schedule::kRandomPermutation) {
        for (std::size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1], order[scheduleRng.nextBounded(i)]);
        }
      }
      std::vector<bool> woken(static_cast<std::size_t>(n), false);
      for (NodeId step = 0; step < n; ++step) {
        const NodeId u = config.schedule == Schedule::kAdversarial
                             ? worstOff(woken)
                             : order[static_cast<std::size_t>(step)];
        woken[static_cast<std::size_t>(u)] = true;
        const BestResponse br =
            naiveResponse(result.profile, u, config, noiseRng);
        if (br.improving) {
          accept(round, u, br);
          moved = true;
        }
      }
      if (!moved) {
        result.outcome = DynamicsOutcome::kConverged;
        break;
      }
    }
    if (deterministic) {
      if (std::find(seen.begin(), seen.end(), result.profile) != seen.end()) {
        result.outcome = DynamicsOutcome::kCycleDetected;
        break;
      }
      seen.push_back(result.profile);
    }
  }
  result.graph = result.profile.buildGraph();
  return result;
}

/// runChurnDynamics by the rules of dynamics/churn.hpp.
ChurnResult naiveChurn(const StrategyProfile& initial,
                       const ChurnConfig& config) {
  ChurnResult result;
  result.profile = initial;
  const NodeId capacity = initial.playerCount();
  result.active.assign(static_cast<std::size_t>(capacity), true);
  Rng churnRng(config.churnSeed);

  const auto playRound = [&](int round) {
    bool moved = false;
    for (NodeId u = 0; u < capacity; ++u) {
      if (!result.active[static_cast<std::size_t>(u)]) continue;
      const Graph g = result.profile.buildGraph();
      const BestResponse br = bestResponse(
          buildPlayerView(g, result.profile, u, config.params.k),
          config.params);
      if (!br.improving) continue;
      result.profile.setStrategy(u, br.strategyGlobal);
      result.moves.push_back(moveRecord(round, u, br));
      ++result.totalMoves;
      moved = true;
    }
    return moved;
  };
  // σ after u departs: u buys nothing and nobody buys toward u.
  const auto withoutPlayer = [&](NodeId u) {
    StrategyProfile after = result.profile;
    after.setStrategy(u, {});
    for (NodeId v = 0; v < capacity; ++v) {
      std::vector<NodeId> bought = after.strategyOf(v);
      bought.erase(std::remove(bought.begin(), bought.end(), u),
                   bought.end());
      after.setStrategy(v, bought);
    }
    return after;
  };
  const auto churnEvent = [&](int round) {
    const bool departure =
        churnRng.nextDouble() < config.departureProbability;
    std::vector<NodeId> ids;  // the active players in id order
    for (NodeId u = 0; u < capacity; ++u) {
      if (result.active[static_cast<std::size_t>(u)]) ids.push_back(u);
    }
    const std::size_t m = ids.size();
    if (departure) {
      if (m <= static_cast<std::size_t>(config.minActive)) return;
      const std::size_t start = churnRng.nextBounded(m);
      for (std::size_t i = 0; i < m; ++i) {
        const NodeId u = ids[(start + i) % m];
        const StrategyProfile after = withoutPlayer(u);
        std::vector<bool> rest = result.active;
        rest[static_cast<std::size_t>(u)] = false;
        if (isConnected(compactActive(after.buildGraph(), after, rest).graph)) {
          result.profile = after;
          result.active = rest;
          result.events.push_back({round, false, u, {}});
          return;
        }
      }
      return;
    }
    const auto freeSlot =
        std::find(result.active.begin(), result.active.end(), false);
    if (freeSlot == result.active.end()) return;
    const auto slot = static_cast<NodeId>(freeSlot - result.active.begin());
    const std::size_t edges =
        std::min(static_cast<std::size_t>(config.arrivalEdges), m);
    for (std::size_t j = 0; j < edges; ++j) {
      std::swap(ids[j], ids[j + churnRng.nextBounded(m - j)]);
    }
    std::vector<NodeId> bought(ids.begin(),
                               ids.begin() + static_cast<std::ptrdiff_t>(edges));
    std::sort(bought.begin(), bought.end());
    result.profile.setStrategy(slot, bought);
    result.active[static_cast<std::size_t>(slot)] = true;
    result.events.push_back({round, true, slot, bought});
  };

  int round = 0;
  while (round < config.churnRounds) {
    ++round;
    playRound(round);
    if (round % config.churnPeriod == 0) churnEvent(round);
  }
  for (int r = 0; r < config.settleRounds; ++r) {
    ++round;
    if (!playRound(round)) {
      result.outcome = DynamicsOutcome::kConverged;
      break;
    }
  }
  result.rounds = round;
  result.graph = result.profile.buildGraph();
  return result;
}

// ---------------------------------------------------------------------
// The differential wall.

struct Scenario {
  GameKind kind = GameKind::kMax;
  bool erdosRenyi = false;
  NodeId n = 20;
  double p = 0.2;
  double alpha = 1.0;
  Dist k = 2;
  MoveRule moveRule = MoveRule::kBestResponse;
  Schedule schedule = Schedule::kRoundRobin;
  RoundMode roundMode = RoundMode::kSequential;
  bool heteroAlpha = false;  ///< draw per-player α in [0.25, α+0.25)
  std::uint64_t seed = 0;
};

std::string describe(const Scenario& s) {
  return std::string(s.kind == GameKind::kMax ? "max" : "sum") + "/" +
         (s.erdosRenyi ? "er" : "tree") + "/n=" + std::to_string(s.n) +
         "/k=" + std::to_string(s.k) + "/alpha=" + std::to_string(s.alpha) +
         (s.heteroAlpha ? "/hetero" : "") +
         (s.schedule == Schedule::kAdversarial ? "/adversarial" : "") +
         (s.roundMode == RoundMode::kSimultaneous ? "/simultaneous" : "") +
         (s.moveRule == MoveRule::kNoisy ? "/noisy" : "") +
         "/seed=" + std::to_string(s.seed);
}

/// The engine's run must match the reference's move for move.
void expectSameRun(const DynamicsResult& reference,
                   const DynamicsResult& engine, const GameParams& params) {
  EXPECT_EQ(reference.outcome, engine.outcome);
  EXPECT_EQ(reference.rounds, engine.rounds);
  EXPECT_EQ(reference.totalMoves, engine.totalMoves);

  // The whole trajectory, not just the endpoint: every accepted move must
  // match in activation order, player, proposal and both in-view costs.
  ASSERT_EQ(reference.moves.size(), engine.moves.size());
  for (std::size_t i = 0; i < reference.moves.size(); ++i) {
    EXPECT_EQ(reference.moves[i], engine.moves[i]) << "move " << i;
  }

  EXPECT_EQ(reference.profile, engine.profile);
  // The engine's incrementally maintained network must equal a from-
  // scratch materialization of the final profile, neighbor order included.
  EXPECT_EQ(reference.graph, engine.graph);
  EXPECT_EQ(socialCost(params, reference.profile, reference.graph),
            socialCost(params, engine.profile, engine.graph));
}

void expectIdentical(const Scenario& s) {
  SCOPED_TRACE(describe(s));
  Rng rng(s.seed);
  const Graph initial =
      s.erdosRenyi ? makeConnectedErdosRenyi(s.n, s.p, rng)
                   : makeRandomTree(s.n, rng);
  const StrategyProfile start = StrategyProfile::randomOwnership(initial, rng);
  DynamicsConfig config;
  config.params = {s.kind, s.alpha, s.k, {}};
  if (s.heteroAlpha) {
    // Per-player prices drawn from the instance stream, after the
    // initial profile.
    config.params.playerAlpha.resize(static_cast<std::size_t>(s.n));
    for (NodeId u = 0; u < s.n; ++u) {
      config.params.playerAlpha[static_cast<std::size_t>(u)] =
          0.25 + s.alpha * rng.nextDouble();
    }
  }
  config.maxRounds = 40;
  config.moveRule = s.moveRule;
  if (s.moveRule == MoveRule::kNoisy) {
    config.temperature = 0.5;
    config.noiseSeed = s.seed ^ 0x9E3779B97F4A7C15ULL;
  }
  config.schedule = s.schedule;
  config.roundMode = s.roundMode;
  config.collectMoves = true;
  expectSameRun(naiveDynamics(start, config),
                runBestResponseDynamics(start, config),
                GameParams{s.kind, s.alpha, s.k, {}});
}

TEST(DynamicsDifferential, MaxVariantAcrossInstances) {
  std::uint64_t seed = 0xD1FF0000;
  std::vector<Scenario> scenarios;
  for (const bool er : {false, true}) {
    for (const Dist k : {2, 3, 1000}) {
      for (const double alpha : {0.5, 2.0, 6.0}) {
        for (int trial = 0; trial < 2; ++trial) {
          Scenario s;
          s.kind = GameKind::kMax;
          s.erdosRenyi = er;
          s.n = er ? 18 : 22;
          s.alpha = alpha;
          s.k = k;
          s.seed = ++seed;
          scenarios.push_back(s);
        }
      }
    }
  }
  ASSERT_EQ(scenarios.size(), 36u);
  for (const Scenario& s : scenarios) expectIdentical(s);
}

TEST(DynamicsDifferential, SumVariantAcrossInstances) {
  std::uint64_t seed = 0xD1FF5000;
  std::vector<Scenario> scenarios;
  for (const bool er : {false, true}) {
    for (const Dist k : {2, 3}) {
      for (const double alpha : {0.5, 1.5, 4.0}) {
        Scenario s;
        s.kind = GameKind::kSum;
        s.erdosRenyi = er;
        s.n = er ? 10 : 12;
        s.alpha = alpha;
        s.k = k;
        s.seed = ++seed;
        scenarios.push_back(s);
      }
    }
  }
  ASSERT_EQ(scenarios.size(), 12u);
  for (const Scenario& s : scenarios) expectIdentical(s);
}

TEST(DynamicsDifferential, GreedyMoveRuleAcrossInstances) {
  std::uint64_t seed = 0xD1FFA000;
  for (const bool er : {false, true}) {
    for (const double alpha : {0.5, 2.0}) {
      Scenario s;
      s.kind = GameKind::kMax;
      s.erdosRenyi = er;
      s.n = 20;
      s.alpha = alpha;
      s.k = 3;
      s.moveRule = MoveRule::kGreedy;
      s.seed = ++seed;
      expectIdentical(s);
    }
  }
}

TEST(DynamicsDifferential, CacheDisabledStillIdentical) {
  // useBestResponseCache=false makes the engine re-solve every player at
  // every turn, as the reference always does.
  Rng rng(0xD1FFC001);
  const Graph tree = makeRandomTree(16, rng);
  const StrategyProfile start = StrategyProfile::randomOwnership(tree, rng);
  for (const GameKind kind : {GameKind::kMax, GameKind::kSum}) {
    SCOPED_TRACE(kind == GameKind::kMax ? "max" : "sum");
    DynamicsConfig config;
    config.params = {kind, 1.5, 3, {}};
    config.maxRounds = 30;
    config.useBestResponseCache = false;
    config.collectMoves = true;
    expectSameRun(naiveDynamics(start, config),
                  runBestResponseDynamics(start, config), config.params);
  }
}

TEST(DynamicsDifferential, RandomPermutationScheduleIdentical) {
  Rng rng(0xD1FFC002);
  const Graph tree = makeRandomTree(18, rng);
  const StrategyProfile start = StrategyProfile::randomOwnership(tree, rng);
  DynamicsConfig config;
  config.params = GameParams::max(1.0, 3);
  config.maxRounds = 40;
  config.schedule = Schedule::kRandomPermutation;
  config.scheduleSeed = 77;
  config.collectMoves = true;
  expectSameRun(naiveDynamics(start, config),
                runBestResponseDynamics(start, config), config.params);
}

TEST(DynamicsDifferential, HeterogeneousAlphaAcrossInstances) {
  std::uint64_t seed = 0xD1FF7000;
  for (const bool er : {false, true}) {
    for (const Dist k : {2, 3}) {
      for (const double alpha : {0.5, 2.0, 6.0}) {
        Scenario s;
        s.kind = GameKind::kMax;
        s.erdosRenyi = er;
        s.n = er ? 18 : 22;
        s.alpha = alpha;
        s.k = k;
        s.heteroAlpha = true;
        s.seed = ++seed;
        expectIdentical(s);
      }
    }
  }
}

TEST(DynamicsDifferential, AdversarialScheduleAcrossInstances) {
  std::uint64_t seed = 0xD1FF8000;
  for (const bool er : {false, true}) {
    for (const Dist k : {2, 3}) {
      for (const double alpha : {0.5, 2.0}) {
        Scenario s;
        s.erdosRenyi = er;
        s.n = er ? 16 : 20;
        s.alpha = alpha;
        s.k = k;
        s.schedule = Schedule::kAdversarial;
        s.seed = ++seed;
        expectIdentical(s);
      }
    }
  }
}

TEST(DynamicsDifferential, SimultaneousRoundsAcrossInstances) {
  std::uint64_t seed = 0xD1FF9000;
  for (const bool er : {false, true}) {
    for (const Dist k : {2, 3}) {
      for (const double alpha : {0.5, 2.0}) {
        Scenario s;
        s.erdosRenyi = er;
        s.n = er ? 16 : 20;
        s.alpha = alpha;
        s.k = k;
        s.roundMode = RoundMode::kSimultaneous;
        s.seed = ++seed;
        expectIdentical(s);
      }
    }
  }
}

TEST(DynamicsDifferential, NoisyMoveRuleAcrossInstances) {
  // kNoisy draws from its own noise stream exactly once per solve with a
  // non-empty improving set. The reference re-solves settled players,
  // which draw nothing, so the draw sequences — and hence the
  // trajectories — must agree with the engine's settled skip.
  std::uint64_t seed = 0xD1FFB000;
  for (const bool er : {false, true}) {
    for (const Dist k : {2, 3}) {
      for (const double alpha : {0.5, 2.0}) {
        Scenario s;
        s.erdosRenyi = er;
        s.n = er ? 16 : 20;
        s.alpha = alpha;
        s.k = k;
        s.moveRule = MoveRule::kNoisy;
        s.seed = ++seed;
        expectIdentical(s);
      }
    }
  }
}

TEST(DynamicsDifferential, ChurnTrajectoryIdentical) {
  // Churn events (arrivals, departures, slot reuse) must replay
  // identically through the engine's cache and the naive rebuild loop:
  // same events, same active set, same moves, same final network.
  std::uint64_t seed = 0xD1FFD000;
  for (const Dist k : {2, 3}) {
    for (const double alpha : {1.0, 2.0}) {
      ++seed;
      SCOPED_TRACE("churn/k=" + std::to_string(k) +
                   "/alpha=" + std::to_string(alpha) +
                   "/seed=" + std::to_string(seed));
      Rng rng(seed);
      const Graph tree = makeRandomTree(16, rng);
      const StrategyProfile start =
          StrategyProfile::randomOwnership(tree, rng);
      ChurnConfig config;
      config.params = GameParams::max(alpha, k);
      config.collectMoves = true;
      config.churnSeed = seed ^ 0xC4BA9ULL;
      const ChurnResult reference = naiveChurn(start, config);
      const ChurnResult engine = runChurnDynamics(start, config);
      EXPECT_EQ(reference.outcome, engine.outcome);
      EXPECT_EQ(reference.rounds, engine.rounds);
      EXPECT_EQ(reference.totalMoves, engine.totalMoves);
      ASSERT_EQ(reference.events.size(), engine.events.size());
      for (std::size_t i = 0; i < reference.events.size(); ++i) {
        EXPECT_EQ(reference.events[i], engine.events[i]) << "event " << i;
      }
      EXPECT_EQ(reference.active, engine.active);
      ASSERT_EQ(reference.moves.size(), engine.moves.size());
      for (std::size_t i = 0; i < reference.moves.size(); ++i) {
        EXPECT_EQ(reference.moves[i], engine.moves[i]) << "move " << i;
      }
      EXPECT_EQ(reference.profile, engine.profile);
      EXPECT_EQ(reference.graph, engine.graph);
    }
  }
}

}  // namespace
}  // namespace ncg
