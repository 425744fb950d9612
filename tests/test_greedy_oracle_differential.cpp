// Differential tests for the greedy-move distance oracle: the oracle
// path (one batched all-sources BFS per view + O(|H₀|) folds per
// candidate) must reproduce the per-candidate-BFS reference
// (greedyMoveReference) bit-for-bit — identical proposed strategies,
// identical (not merely close) costs, identical improving flags — across
// both game variants, k ∈ {1,2,3}, random trees and ER graphs, fringe
// (Proposition 2.2) cutoff instances and equal-cost tie fields, with one
// scratch recycled through every view of a sweep.
#include <gtest/gtest.h>

#include <string>

#include "core/best_response.hpp"
#include "core/player_view.hpp"
#include "core/restricted_moves.hpp"
#include "gen/classic.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_tree.hpp"
#include "support/random.hpp"

namespace ncg {
namespace {

// `scratch` is shared by every view of a sweep, so the oracle path must
// also match the reference when its buffers last served another view,
// another radius or the other game variant.
void expectSameMove(const PlayerView& pv, const GameParams& params,
                    BestResponseScratch& scratch, const std::string& label) {
  SCOPED_TRACE(label);
  const BestResponse ref = greedyMoveReference(pv, params);
  const BestResponse fast = greedyMove(pv, params, scratch);

  EXPECT_EQ(ref.strategyGlobal, fast.strategyGlobal);
  EXPECT_EQ(ref.improving, fast.improving);
  // Bit-identical, not approximately equal: all costs derive from the
  // same integer distance sums.
  EXPECT_EQ(ref.currentCost, fast.currentCost);
  EXPECT_EQ(ref.proposedCost, fast.proposedCost);
  EXPECT_EQ(ref.exact, fast.exact);

  // The allocating overload must agree too.
  const BestResponse alloc = greedyMove(pv, params);
  EXPECT_EQ(ref.strategyGlobal, alloc.strategyGlobal);
  EXPECT_EQ(ref.proposedCost, alloc.proposedCost);
}

int compareAllPlayers(const Graph& g, const StrategyProfile& profile,
                      const GameParams& params, BestResponseScratch& scratch,
                      const std::string& label) {
  int views = 0;
  for (NodeId u = 0; u < profile.playerCount(); ++u) {
    const PlayerView pv = buildPlayerView(g, profile, u, params.k);
    expectSameMove(pv, params, scratch,
                   label + "/u=" + std::to_string(u));
    ++views;
  }
  return views;
}

TEST(GreedyOracleDifferential, RandomTreesBothKindsSmallK) {
  int views = 0;
  Rng rng(0x0E1);
  BestResponseScratch scratch;
  for (int trial = 0; trial < 6; ++trial) {
    const NodeId n = static_cast<NodeId>(8 + rng.nextBounded(10));
    const StrategyProfile profile =
        StrategyProfile::randomOwnership(makeRandomTree(n, rng), rng);
    const Graph g = profile.buildGraph();
    for (const GameKind kind : {GameKind::kMax, GameKind::kSum}) {
      for (const Dist k : {1, 2, 3}) {
        for (const double alpha : {0.4, 1.0, 3.0}) {
          const GameParams params{kind, alpha, k, {}};
          views += compareAllPlayers(
              g, profile, params, scratch,
              "tree/trial=" + std::to_string(trial) +
                  "/kind=" + (kind == GameKind::kMax ? "max" : "sum") +
                  "/k=" + std::to_string(k) +
                  "/alpha=" + std::to_string(alpha));
        }
      }
    }
  }
  EXPECT_GE(views, 50);
}

TEST(GreedyOracleDifferential, ErdosRenyiBothKinds) {
  Rng rng(0x0E2);
  BestResponseScratch scratch;
  for (int trial = 0; trial < 4; ++trial) {
    const StrategyProfile profile = StrategyProfile::randomOwnership(
        makeConnectedErdosRenyi(14, 0.25, rng), rng);
    const Graph g = profile.buildGraph();
    for (const GameKind kind : {GameKind::kMax, GameKind::kSum}) {
      for (const Dist k : {1, 2, 3}) {
        const GameParams params{kind, 1.5, k, {}};
        compareAllPlayers(
            g, profile, params, scratch,
            "er/trial=" + std::to_string(trial) +
                "/kind=" + (kind == GameKind::kMax ? "max" : "sum") +
                "/k=" + std::to_string(k));
      }
    }
  }
}

// SumNCG with a small radius on a path: nodes at distance exactly k make
// the Proposition 2.2 forbidden-set rule bite (deletes/swaps that push a
// fringe node beyond k must evaluate to +inf on both paths).
TEST(GreedyOracleDifferential, FringeCutoffCases) {
  BestResponseScratch scratch;
  for (const NodeId n : {6, 9, 12}) {
    std::vector<std::vector<NodeId>> lists(static_cast<std::size_t>(n));
    for (NodeId i = 0; i + 1 < n; ++i) {
      lists[static_cast<std::size_t>(i)].push_back(i + 1);
    }
    const StrategyProfile profile = StrategyProfile::fromBoughtLists(lists);
    const Graph g = profile.buildGraph();
    for (const Dist k : {1, 2, 3}) {
      for (const double alpha : {0.3, 2.0}) {
        const GameParams params = GameParams::sum(alpha, k);
        compareAllPlayers(g, profile, params, scratch,
                          "path/n=" + std::to_string(n) +
                              "/k=" + std::to_string(k));
      }
    }
  }
}

// A cycle is move-symmetric: many buy/swap candidates tie exactly, so
// the first-evaluated-wins order is the whole answer. The oracle must
// pick the same candidate as the reference, not just an equal-cost one.
TEST(GreedyOracleDifferential, EqualCostTieOrdering) {
  BestResponseScratch scratch;
  for (const NodeId n : {8, 11, 16}) {
    std::vector<std::vector<NodeId>> lists(static_cast<std::size_t>(n));
    for (NodeId i = 0; i < n; ++i) {
      lists[static_cast<std::size_t>(i)].push_back((i + 1) % n);
    }
    const StrategyProfile profile = StrategyProfile::fromBoughtLists(lists);
    const Graph g = profile.buildGraph();
    for (const GameKind kind : {GameKind::kMax, GameKind::kSum}) {
      for (const double alpha : {0.2, 1.0}) {
        const GameParams params{kind, alpha, 3, {}};
        compareAllPlayers(g, profile, params, scratch,
                          "cycle/n=" + std::to_string(n) +
                              "/alpha=" + std::to_string(alpha));
      }
    }
  }
}

}  // namespace
}  // namespace ncg
