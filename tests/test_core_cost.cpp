// Tests for player/social cost and the social-optimum references.
#include <gtest/gtest.h>

#include <cmath>

#include "core/cost.hpp"
#include "gen/classic.hpp"

namespace ncg {
namespace {

StrategyProfile pathProfile(NodeId n) {
  // Node i buys the edge to i+1.
  std::vector<std::vector<NodeId>> lists(static_cast<std::size_t>(n));
  for (NodeId i = 0; i + 1 < n; ++i) {
    lists[static_cast<std::size_t>(i)].push_back(i + 1);
  }
  return StrategyProfile::fromBoughtLists(lists);
}

TEST(Cost, UsageMaxIsEccentricity) {
  const Graph g = makePath(5);
  EXPECT_EQ(usageCost(GameKind::kMax, g, 0), 4.0);
  EXPECT_EQ(usageCost(GameKind::kMax, g, 2), 2.0);
}

TEST(Cost, UsageSumIsStatus) {
  const Graph g = makePath(4);
  EXPECT_EQ(usageCost(GameKind::kSum, g, 0), 1 + 2 + 3);
  EXPECT_EQ(usageCost(GameKind::kSum, g, 1), 1 + 1 + 2);
}

TEST(Cost, DisconnectedIsInfinite) {
  Graph g(3, {{0, 1}});
  EXPECT_TRUE(std::isinf(usageCost(GameKind::kMax, g, 0)));
  EXPECT_TRUE(std::isinf(usageCost(GameKind::kSum, g, 2)));
}

TEST(Cost, PlayerCostAddsBuildingCost) {
  const StrategyProfile profile = pathProfile(4);
  const Graph g = profile.buildGraph();
  const GameParams params = GameParams::max(2.5, 2);
  // Node 0 buys 1 edge, eccentricity 3.
  EXPECT_DOUBLE_EQ(playerCost(params, profile, g, 0), 2.5 + 3.0);
  // Node 3 buys nothing, eccentricity 3.
  EXPECT_DOUBLE_EQ(playerCost(params, profile, g, 3), 3.0);
}

TEST(Cost, SocialCostSumsPlayers) {
  const StrategyProfile profile = pathProfile(3);
  const Graph g = profile.buildGraph();
  const GameParams params = GameParams::max(1.0, 2);
  // Costs: node0 = 1+2, node1 = 1+1, node2 = 0+2.
  EXPECT_DOUBLE_EQ(socialCost(params, profile, g), 3.0 + 2.0 + 2.0);
}

TEST(Cost, StarSocialCostMax) {
  const GameParams params = GameParams::max(3.0, 2);
  // n=5: building 4α; usage 1 + 4·2 = 9.
  EXPECT_DOUBLE_EQ(starSocialCost(params, 5), 3.0 * 4 + 9.0);
  EXPECT_DOUBLE_EQ(starSocialCost(params, 1), 0.0);
  // n=2: both endpoints have eccentricity 1.
  EXPECT_DOUBLE_EQ(starSocialCost(params, 2), 3.0 + 2.0);
}

TEST(Cost, StarSocialCostSum) {
  const GameParams params = GameParams::sum(2.0, 2);
  // n=4: building 3α = 6; center status 3; each of 3 leaves 1+2·2 = 5.
  EXPECT_DOUBLE_EQ(starSocialCost(params, 4), 6.0 + 3.0 + 15.0);
}

TEST(Cost, StarMatchesExplicitConstruction) {
  for (NodeId n : {2, 3, 5, 9, 20}) {
    for (const GameParams& params :
         {GameParams::max(1.7, 3), GameParams::sum(0.4, 3)}) {
      std::vector<std::vector<NodeId>> lists(static_cast<std::size_t>(n));
      for (NodeId leaf = 1; leaf < n; ++leaf) {
        lists[0].push_back(leaf);
      }
      const auto profile = StrategyProfile::fromBoughtLists(lists);
      const Graph g = profile.buildGraph();
      EXPECT_NEAR(socialCost(params, profile, g),
                  starSocialCost(params, n), 1e-9)
          << "n=" << n;
    }
  }
}

TEST(Cost, CliqueMatchesExplicitConstruction) {
  for (NodeId n : {2, 3, 6}) {
    for (const GameParams& params :
         {GameParams::max(0.1, 2), GameParams::sum(0.1, 2)}) {
      std::vector<std::vector<NodeId>> lists(static_cast<std::size_t>(n));
      for (NodeId u = 0; u < n; ++u) {
        for (NodeId v = u + 1; v < n; ++v) {
          lists[static_cast<std::size_t>(u)].push_back(v);
        }
      }
      const auto profile = StrategyProfile::fromBoughtLists(lists);
      const Graph g = profile.buildGraph();
      EXPECT_NEAR(socialCost(params, profile, g),
                  cliqueSocialCost(params, n), 1e-9)
          << "n=" << n;
    }
  }
}

TEST(Cost, OptimumReferencePicksStarForLargeAlpha) {
  const GameParams params = GameParams::max(10.0, 2);
  EXPECT_DOUBLE_EQ(socialOptimumReference(params, 50),
                   starSocialCost(params, 50));
}

TEST(Cost, OptimumReferencePicksCliqueForTinyAlpha) {
  const GameParams params = GameParams::max(0.01, 2);
  EXPECT_DOUBLE_EQ(socialOptimumReference(params, 50),
                   cliqueSocialCost(params, 50));
}

}  // namespace
}  // namespace ncg
