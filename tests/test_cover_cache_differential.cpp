// Differential tests for the MaxNCG cover-instance storage: a best
// response solved through one BestResponseScratch, whose per-radius
// instances and ball masks are recycled from solve to solve, must be
// bit-for-bit the response of the allocating overload (fresh storage) —
// identical strategies, identical (not merely close) costs — whatever
// views, radii and α values the scratch served before. Every solve
// builds its instances from radius 0, so a recycled scratch also counts
// exactly the constructions a fresh one does.
#include <gtest/gtest.h>

#include <string>

#include "core/best_response.hpp"
#include "core/player_view.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_tree.hpp"
#include "support/random.hpp"

namespace ncg {
namespace {

void expectSameResponse(const BestResponse& a, const BestResponse& b,
                        const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.strategyGlobal, b.strategyGlobal);
  EXPECT_EQ(a.improving, b.improving);
  // Bit-identical, not approximately equal: all costs derive from the
  // same integer distance/coverage computations.
  EXPECT_EQ(a.currentCost, b.currentCost);
  EXPECT_EQ(a.proposedCost, b.proposedCost);
  EXPECT_EQ(a.exact, b.exact);
}

// 50+ randomized views, both generators, k in {1,2,3} and full
// knowledge: one scratch reused across the whole sweep matches the
// allocating overload on every view, and builds as many instances as a
// fresh scratch does.
TEST(CoverCacheDifferential, CachedEqualsRebuiltOnRandomizedViews) {
  int views = 0;
  Rng rng(0xC0FE);
  BestResponseScratch scratch;
  for (int trial = 0; trial < 5; ++trial) {
    const NodeId n = static_cast<NodeId>(10 + rng.nextBounded(8));
    const StrategyProfile profile =
        trial % 2 == 0
            ? StrategyProfile::randomOwnership(makeRandomTree(n, rng), rng)
            : StrategyProfile::randomOwnership(
                  makeConnectedErdosRenyi(n, 0.25, rng), rng);
    const Graph g = profile.buildGraph();
    for (const Dist k : {1, 2, 3, 1000}) {
      for (const double alpha : {0.5, 2.0}) {
        const GameParams params = GameParams::max(alpha, k);
        for (NodeId u = 0; u < profile.playerCount(); ++u) {
          const std::string label =
              "trial=" + std::to_string(trial) + "/k=" + std::to_string(k) +
              "/alpha=" + std::to_string(alpha) + "/u=" + std::to_string(u);
          const PlayerView pv = buildPlayerView(g, profile, u, params.k);
          const std::size_t before = scratch.cover.constructions;
          expectSameResponse(bestResponse(pv, params, {}),
                             bestResponse(pv, params, {}, scratch), label);
          BestResponseScratch fresh;
          (void)bestResponse(pv, params, {}, fresh);
          EXPECT_EQ(scratch.cover.constructions - before,
                    fresh.cover.constructions)
              << label;
          ++views;
        }
      }
    }
  }
  EXPECT_GE(views, 50);
}

// Storage recycling: one scratch serving a sequence of different views
// and α values must keep matching fresh solves while its buffers are
// reused in place. A small α ends the radius loop early and a large one
// needs deeper radii, so the second sweep solves each view shallow,
// deep and shallow again: a deep solve must build its own ball front
// rather than read the one a shallower solve left behind.
TEST(CoverCacheDifferential, StorageRecycledAcrossRevisions) {
  Rng rng(0xC101);
  const StrategyProfile profile =
      StrategyProfile::randomOwnership(makeRandomTree(16, rng), rng);
  const Graph g = profile.buildGraph();
  BestResponseScratch scratch;
  const auto check = [&](NodeId u, double alpha) {
    const GameParams params = GameParams::max(alpha, 1000);
    const PlayerView pv = buildPlayerView(g, profile, u, params.k);
    expectSameResponse(bestResponse(pv, params, {}),
                       bestResponse(pv, params, {}, scratch),
                       "alpha=" + std::to_string(alpha) +
                           "/u=" + std::to_string(u));
  };
  for (const double alpha : {6.0, 0.3, 2.0, 0.7}) {
    for (NodeId u = 0; u < profile.playerCount(); ++u) check(u, alpha);
  }
  for (NodeId u = 0; u < profile.playerCount(); ++u) {
    for (const double alpha : {0.3, 8.0, 0.3}) check(u, alpha);
  }
}

}  // namespace
}  // namespace ncg
