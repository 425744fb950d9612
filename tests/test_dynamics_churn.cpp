// Churn dynamics guards: the seed fully determines a churn run —
// including which node slots departures free and arrivals reuse — and a
// departure leaves its slot isolated, with no settled flag for the next
// occupant.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dynamics/cache.hpp"
#include "dynamics/churn.hpp"
#include "gen/random_tree.hpp"
#include "support/random.hpp"

namespace ncg {
namespace {

StrategyProfile randomTreeStart(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  const Graph tree = makeRandomTree(n, rng);
  return StrategyProfile::randomOwnership(tree, rng);
}

ChurnConfig churnConfig(double alpha, Dist k, std::uint64_t churnSeed) {
  ChurnConfig config;
  config.params = GameParams::max(alpha, k);
  config.churnRounds = 12;
  config.churnPeriod = 3;
  config.settleRounds = 60;
  config.churnSeed = churnSeed;
  config.collectMoves = true;
  return config;
}

TEST(ChurnReplay, SameSeedReplaysTheExactTrajectory) {
  for (const std::uint64_t seed : {0xC4B1ULL, 0xC4B2ULL, 0xC4B3ULL}) {
    SCOPED_TRACE(seed);
    const StrategyProfile start = randomTreeStart(16, seed);
    const ChurnConfig config = churnConfig(1.5, 3, seed ^ 0xABCDULL);
    const ChurnResult a = runChurnDynamics(start, config);
    const ChurnResult b = runChurnDynamics(start, config);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.totalMoves, b.totalMoves);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.active, b.active);
    EXPECT_EQ(a.moves, b.moves);
    EXPECT_EQ(a.profile, b.profile);
    EXPECT_EQ(a.graph, b.graph);
  }
}

TEST(ChurnReplay, ArrivalsReuseTheLowestFreeSlot) {
  // Replay the event stream against a model of the active set: every
  // departure frees exactly its slot, every arrival must claim the
  // smallest currently-free slot — the deterministic node-id reuse rule
  // the header documents.
  const StrategyProfile start = randomTreeStart(14, 0x5107ULL);
  const ChurnConfig config = churnConfig(1.0, 2, 0x5107F00DULL);
  const ChurnResult result = runChurnDynamics(start, config);
  std::vector<bool> active(14, true);
  bool sawReuse = false;
  for (const ChurnEvent& event : result.events) {
    const auto slot = static_cast<std::size_t>(event.player);
    if (event.arrival) {
      const auto lowestFree =
          std::find(active.begin(), active.end(), false) - active.begin();
      EXPECT_EQ(static_cast<std::size_t>(lowestFree), slot)
          << "arrival in round " << event.round;
      active[slot] = true;
      sawReuse = true;
    } else {
      EXPECT_TRUE(active[slot]) << "departure of an inactive slot";
      active[slot] = false;
    }
  }
  EXPECT_EQ(active, result.active);
  EXPECT_TRUE(sawReuse);  // the grid is tuned so slots actually recycle
}

TEST(ChurnReplay, SimultaneousRoundsReplayIdentically) {
  for (const std::uint64_t seed : {0x51AULL, 0x51BULL}) {
    SCOPED_TRACE(seed);
    const StrategyProfile start = randomTreeStart(18, seed);
    DynamicsConfig config;
    config.params = GameParams::max(1.0, 3);
    config.roundMode = RoundMode::kSimultaneous;
    config.collectMoves = true;
    const DynamicsResult a = runBestResponseDynamics(start, config);
    const DynamicsResult b = runBestResponseDynamics(start, config);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.moves, b.moves);
    EXPECT_EQ(a.profile, b.profile);
    EXPECT_EQ(a.graph, b.graph);
  }
}

TEST(ChurnEviction, DepartureLeavesTheSlotIsolated) {
  // Drive the cache directly: build u's view and settle u, depart u, and
  // check that nothing of the old occupant is left in the slot.
  constexpr NodeId n = 140;
  Rng rng(0xE71C7ULL);
  const Graph tree = makeRandomTree(n, rng);
  StrategyProfile profile = StrategyProfile::randomOwnership(tree, rng);
  Graph g = profile.buildGraph();
  DynamicsCache cache(n, /*k=*/1000);

  const NodeId u = 7;
  ASSERT_EQ(cache.viewOf(g, profile, u).view.size(), n);
  cache.markSettled(u);
  ASSERT_TRUE(cache.isSettled(u));

  cache.applyDeparture(g, profile, u);
  EXPECT_FALSE(cache.isSettled(u));
  EXPECT_EQ(cache.viewOf(g, profile, u).view.size(), 1);
  EXPECT_TRUE(profile.strategyOf(u).empty());
  EXPECT_EQ(g.degree(u), 0);
  for (NodeId v = 0; v < n; ++v) {
    const std::vector<NodeId>& strategy = profile.strategyOf(v);
    EXPECT_TRUE(std::find(strategy.begin(), strategy.end(), u) ==
                strategy.end())
        << "player " << v << " still buys an edge to the departed slot";
  }
}

}  // namespace
}  // namespace ncg
