// Tests for dynamics variants: schedules, move rules and the
// best-response cache.
#include <gtest/gtest.h>

#include "core/equilibrium.hpp"
#include "core/restricted_moves.hpp"
#include "dynamics/round_robin.hpp"
#include "gen/classic.hpp"
#include "gen/random_tree.hpp"
#include "graph/metrics.hpp"

namespace ncg {
namespace {

StrategyProfile randomTreeStart(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  const Graph tree = makeRandomTree(n, rng);
  return StrategyProfile::randomOwnership(tree, rng);
}

TEST(Schedules, RandomPermutationConvergesToLke) {
  const StrategyProfile start = randomTreeStart(24, 31);
  DynamicsConfig config;
  config.params = GameParams::max(1.5, 3);
  config.schedule = Schedule::kRandomPermutation;
  config.scheduleSeed = 7;
  const DynamicsResult result = runBestResponseDynamics(start, config);
  ASSERT_EQ(result.outcome, DynamicsOutcome::kConverged);
  EXPECT_TRUE(isLke(result.graph, result.profile, config.params));
}

TEST(Schedules, RandomPermutationIsSeedDeterministic) {
  const StrategyProfile start = randomTreeStart(20, 33);
  DynamicsConfig config;
  config.params = GameParams::max(1.0, 3);
  config.schedule = Schedule::kRandomPermutation;
  config.scheduleSeed = 11;
  const DynamicsResult a = runBestResponseDynamics(start, config);
  const DynamicsResult b = runBestResponseDynamics(start, config);
  EXPECT_EQ(a.profile, b.profile);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(Schedules, DifferentSeedsMayTakeDifferentPaths) {
  const StrategyProfile start = randomTreeStart(24, 35);
  DynamicsConfig config;
  config.params = GameParams::max(1.0, 3);
  config.schedule = Schedule::kRandomPermutation;
  config.scheduleSeed = 1;
  const DynamicsResult a = runBestResponseDynamics(start, config);
  config.scheduleSeed = 2;
  const DynamicsResult b = runBestResponseDynamics(start, config);
  // Both must end in an LKE regardless of path.
  EXPECT_TRUE(isLke(a.graph, a.profile, config.params));
  EXPECT_TRUE(isLke(b.graph, b.profile, config.params));
}

TEST(MoveRules, GreedyDynamicsConverges) {
  const StrategyProfile start = randomTreeStart(30, 41);
  DynamicsConfig config;
  config.params = GameParams::max(2.0, 3);
  config.moveRule = MoveRule::kGreedy;
  const DynamicsResult result = runBestResponseDynamics(start, config);
  ASSERT_EQ(result.outcome, DynamicsOutcome::kConverged);
  // The greedy fixed point is immune to single-edge deviations; the
  // exact oracle may still find multi-edge improvements, so we check the
  // weaker property directly.
  for (NodeId u = 0; u < result.profile.playerCount(); ++u) {
    const PlayerView pv =
        buildPlayerView(result.graph, result.profile, u, config.params.k);
    EXPECT_FALSE(greedyMove(pv, config.params).improving) << "u=" << u;
  }
}

TEST(MoveRules, GreedyUsuallyNoWorseRoundsButWeakerEquilibria) {
  // Sanity on the ablation claim: greedy cannot produce a *better*
  // equilibrium than its own exact counterpart on average; here we just
  // check both terminate and report sane social costs.
  const StrategyProfile start = randomTreeStart(30, 43);
  DynamicsConfig exactConfig;
  exactConfig.params = GameParams::max(1.0, 4);
  DynamicsConfig greedyConfig = exactConfig;
  greedyConfig.moveRule = MoveRule::kGreedy;
  const DynamicsResult exact = runBestResponseDynamics(start, exactConfig);
  const DynamicsResult greedy = runBestResponseDynamics(start, greedyConfig);
  ASSERT_EQ(exact.outcome, DynamicsOutcome::kConverged);
  ASSERT_EQ(greedy.outcome, DynamicsOutcome::kConverged);
  EXPECT_GT(exact.trace.empty() ? 1.0 : 0.0, -1.0);  // both ran
  EXPECT_TRUE(isConnected(exact.graph));
  EXPECT_TRUE(isConnected(greedy.graph));
}

TEST(Cache, CacheOnAndOffAgree) {
  for (std::uint64_t seed : {51, 52, 53}) {
    const StrategyProfile start = randomTreeStart(22, seed);
    DynamicsConfig withCache;
    withCache.params = GameParams::max(1.5, 3);
    withCache.useBestResponseCache = true;
    DynamicsConfig withoutCache = withCache;
    withoutCache.useBestResponseCache = false;
    const DynamicsResult a = runBestResponseDynamics(start, withCache);
    const DynamicsResult b = runBestResponseDynamics(start, withoutCache);
    EXPECT_EQ(a.profile, b.profile) << "seed " << seed;
    EXPECT_EQ(a.rounds, b.rounds) << "seed " << seed;
    EXPECT_EQ(a.totalMoves, b.totalMoves) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ncg
