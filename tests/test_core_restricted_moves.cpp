// Tests for the restricted (buy/delete/swap one edge) greedy deviations.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>

#include "core/best_response.hpp"
#include "core/equilibrium.hpp"
#include "core/restricted_moves.hpp"
#include "gen/classic.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_tree.hpp"
#include "support/random.hpp"

namespace ncg {
namespace {

StrategyProfile cycleProfile(NodeId n) {
  std::vector<std::vector<NodeId>> lists(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    lists[static_cast<std::size_t>(i)].push_back((i + 1) % n);
  }
  return StrategyProfile::fromBoughtLists(lists);
}

StrategyProfile pathProfile(NodeId n) {
  std::vector<std::vector<NodeId>> lists(static_cast<std::size_t>(n));
  for (NodeId i = 0; i + 1 < n; ++i) {
    lists[static_cast<std::size_t>(i)].push_back(i + 1);
  }
  return StrategyProfile::fromBoughtLists(lists);
}

BestResponse greedyFor(const Graph& g, const StrategyProfile& profile,
                       NodeId u, const GameParams& params) {
  return greedyMove(buildPlayerView(g, profile, u, params.k), params);
}

TEST(GreedyMove, AgreesWithCurrentCostAccounting) {
  const StrategyProfile profile = pathProfile(7);
  const Graph g = profile.buildGraph();
  const GameParams params = GameParams::max(2.0, 3);
  const BestResponse full = bestResponseFor(g, profile, 3, params);
  const BestResponse greedy = greedyFor(g, profile, 3, params);
  EXPECT_NEAR(full.currentCost, greedy.currentCost, 1e-9);
}

TEST(GreedyMove, NeverBeatsExactBestResponse) {
  Rng rng(555);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId n = static_cast<NodeId>(6 + rng.nextBounded(4));
    const StrategyProfile profile =
        StrategyProfile::randomOwnership(makeComplete(n), rng);
    const Graph g = profile.buildGraph();
    for (double alpha : {0.5, 2.0}) {
      for (Dist k : {2, 5}) {
        const GameParams params = GameParams::max(alpha, k);
        for (NodeId u = 0; u < n; ++u) {
          const BestResponse full = bestResponseFor(g, profile, u, params);
          const BestResponse greedy = greedyFor(g, profile, u, params);
          EXPECT_LE(full.proposedCost, greedy.proposedCost + 1e-9)
              << "trial=" << trial << " u=" << u;
          // A greedy improvement implies the exact one improves too.
          if (greedy.improving) {
            EXPECT_TRUE(full.improving);
          }
        }
      }
    }
  }
}

TEST(GreedyMove, FindsTheSingleEdgeChordOnCycle) {
  // On a full-view cycle with small α, a single chord is improving and
  // greedy must find one.
  const StrategyProfile profile = cycleProfile(16);
  const Graph g = profile.buildGraph();
  const GameParams params = GameParams::max(0.5, 16);
  const BestResponse greedy = greedyFor(g, profile, 0, params);
  EXPECT_TRUE(greedy.improving);
  // One move changes the strategy size by at most 1.
  EXPECT_LE(greedy.strategyGlobal.size(), 2u);
}

TEST(GreedyMove, DeletesWastedEdgeWhenAlphaHuge) {
  // Node 0 owns a redundant second edge on a cycle of 4 (0-1,1-2,2-3,3-0
  // plus 0-2). Deleting it saves α at small eccentricity cost.
  std::vector<std::vector<NodeId>> lists(4);
  lists[0] = {1, 2};
  lists[1] = {2};
  lists[2] = {3};
  lists[3] = {0};
  const auto profile = StrategyProfile::fromBoughtLists(lists);
  const Graph g = profile.buildGraph();
  const GameParams params = GameParams::max(10.0, 4);
  const BestResponse greedy = greedyFor(g, profile, 0, params);
  ASSERT_TRUE(greedy.improving);
  EXPECT_EQ(greedy.strategyGlobal.size(), 1u);
}

TEST(GreedyMove, SwapImprovesPathEndpoint) {
  // Path endpoint 0 owning (0,1): swapping to the center reduces
  // eccentricity at no building-cost change.
  const StrategyProfile profile = pathProfile(7);
  const Graph g = profile.buildGraph();
  const GameParams params = GameParams::max(5.0, 10);
  const BestResponse greedy = greedyFor(g, profile, 0, params);
  ASSERT_TRUE(greedy.improving);
  ASSERT_EQ(greedy.strategyGlobal.size(), 1u);
  EXPECT_EQ(greedy.strategyGlobal[0], 3);  // the path center
  EXPECT_NEAR(greedy.proposedCost, 5.0 + 1.0 + 3.0, 1e-9);
}

TEST(GreedyMove, StableWhenNoSingleMoveHelps) {
  const StrategyProfile profile = cycleProfile(12);
  const Graph g = profile.buildGraph();
  const GameParams params = GameParams::max(3.0, 3);
  for (NodeId u = 0; u < 12; ++u) {
    EXPECT_FALSE(greedyFor(g, profile, u, params).improving);
  }
}

TEST(GreedyMove, SumRespectsFringeRule) {
  const StrategyProfile profile = pathProfile(9);
  const Graph g = profile.buildGraph();
  const GameParams params = GameParams::sum(0.5, 3);
  for (NodeId u = 0; u < 9; ++u) {
    const PlayerView pv = buildPlayerView(g, profile, u, params.k);
    const BestResponse greedy = greedyMove(pv, params);
    if (!greedy.improving) continue;
    // Apply and verify no fringe node got pushed beyond k in the view.
    Graph h = pv.view.graph;
    for (NodeId v = 1; v < pv.view.size(); ++v) h.removeEdge(0, v);
    for (NodeId f : pv.freeNeighborsLocal) h.addEdge(0, f);
    for (NodeId globalV : greedy.strategyGlobal) {
      h.addEdge(0, pv.view.toLocal[static_cast<std::size_t>(globalV)]);
    }
    const auto dist = bfsDistances(h, 0);
    for (NodeId f : pv.fringeLocal) {
      EXPECT_LE(dist[static_cast<std::size_t>(f)], params.k) << "u=" << u;
    }
  }
}

TEST(GreedyMove, IsolatedPlayerNoMove) {
  StrategyProfile profile(3);
  profile.setStrategy(1, {2});
  const Graph g = profile.buildGraph();
  const BestResponse greedy =
      greedyFor(g, profile, 0, GameParams::max(1.0, 2));
  EXPECT_FALSE(greedy.improving);
}

TEST(GreedyMove, SumMatchesExactOnTinyInstances) {
  // With at most one ownership difference available, greedy and exact
  // coincide when the exact optimum is a single-move profile.
  Rng rng(808);
  for (int trial = 0; trial < 10; ++trial) {
    const StrategyProfile profile =
        StrategyProfile::randomOwnership(makeComplete(5), rng);
    const Graph g = profile.buildGraph();
    const GameParams params = GameParams::sum(1.5, 3);
    for (NodeId u = 0; u < 5; ++u) {
      const BestResponse full = bestResponseFor(g, profile, u, params);
      const BestResponse greedy = greedyFor(g, profile, u, params);
      EXPECT_LE(full.proposedCost, greedy.proposedCost + 1e-9);
      EXPECT_NEAR(full.currentCost, greedy.currentCost, 1e-9);
    }
  }
}

// ---- noisyGreedyMove, pinned directly. The dynamics suites reach it
// only through the noisy family, where the engine and the naive loop
// both call it, so they cannot catch a change in what it returns.

/// In-view cost of the center playing `ownLocal` (view-local ids), from
/// the definitions of Propositions 2.1/2.2 rather than the solvers' code:
/// a BFS over the view minus the center, seeded with the center's
/// neighbors free ∪ own. +inf when a view node is cut off or (SumNCG) a
/// fringe node ends farther than k.
double inViewCost(const PlayerView& pv, const GameParams& params,
                  const std::vector<NodeId>& ownLocal) {
  const Graph& h = pv.view.graph;
  std::vector<Dist> dist(static_cast<std::size_t>(h.nodeCount()),
                         kUnreachable);
  std::vector<NodeId> queue;
  const auto seed = [&](NodeId v) {
    if (dist[static_cast<std::size_t>(v)] == kUnreachable) {
      dist[static_cast<std::size_t>(v)] = 1;
      queue.push_back(v);
    }
  };
  for (const NodeId f : pv.freeNeighborsLocal) seed(f);
  for (const NodeId o : ownLocal) seed(o);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId v = queue[head];
    for (const NodeId w : h.neighbors(v)) {
      if (w == pv.view.center ||
          dist[static_cast<std::size_t>(w)] != kUnreachable) {
        continue;
      }
      dist[static_cast<std::size_t>(w)] =
          dist[static_cast<std::size_t>(v)] + 1;
      queue.push_back(w);
    }
  }
  Dist ecc = 0;
  std::int64_t sum = 0;
  for (NodeId v = 1; v < h.nodeCount(); ++v) {
    const Dist d = dist[static_cast<std::size_t>(v)];
    if (d == kUnreachable) return std::numeric_limits<double>::infinity();
    const bool fringe = std::binary_search(pv.fringeLocal.begin(),
                                           pv.fringeLocal.end(), v);
    if (params.kind == GameKind::kSum && fringe && d > params.k) {
      return std::numeric_limits<double>::infinity();
    }
    ecc = std::max(ecc, d);
    sum += d;
  }
  return params.alpha * static_cast<double>(ownLocal.size()) +
         static_cast<double>(params.kind == GameKind::kMax ? ecc : sum);
}

/// Every own-list one buy, one delete or one swap away from the
/// center's current one (view-local ids).
std::vector<std::vector<NodeId>> singleEdgeMoves(const PlayerView& pv) {
  const std::vector<NodeId>& own = pv.ownBoughtLocal;
  const auto buyable = [&](NodeId v) {
    return !std::binary_search(own.begin(), own.end(), v) &&
           !std::binary_search(pv.freeNeighborsLocal.begin(),
                               pv.freeNeighborsLocal.end(), v);
  };
  std::vector<std::vector<NodeId>> moves;
  for (NodeId v = 1; v < pv.view.size(); ++v) {
    if (!buyable(v)) continue;
    moves.push_back(own);
    moves.back().push_back(v);
  }
  for (std::size_t i = 0; i < own.size(); ++i) {
    moves.push_back(own);
    moves.back().erase(moves.back().begin() + static_cast<std::ptrdiff_t>(i));
    for (NodeId v = 1; v < pv.view.size(); ++v) {
      if (!buyable(v)) continue;
      moves.push_back(own);
      moves.back()[i] = v;
    }
  }
  return moves;
}

std::vector<NodeId> toLocal(const PlayerView& pv,
                            const std::vector<NodeId>& global) {
  std::vector<NodeId> local;
  for (const NodeId g : global) {
    local.push_back(pv.view.toLocal[static_cast<std::size_t>(g)]);
  }
  return local;
}

std::vector<NodeId> toGlobalSorted(const PlayerView& pv,
                                   const std::vector<NodeId>& local) {
  std::vector<NodeId> global;
  for (const NodeId v : local) {
    global.push_back(pv.view.toGlobal[static_cast<std::size_t>(v)]);
  }
  std::sort(global.begin(), global.end());
  return global;
}

/// Seeded small views over random trees and connected G(n, p) graphs,
/// both cost kinds, α ∈ {0.5, 3}, k ∈ {1, 2, 4}: every player's view.
template <typename Visit>
void forEachSmallView(Visit&& visit) {
  Rng gen(2024);
  for (int trial = 0; trial < 12; ++trial) {
    const auto n = static_cast<NodeId>(6 + gen.nextBounded(8));
    const Graph base = trial % 2 == 0 ? makeRandomTree(n, gen)
                                      : makeConnectedErdosRenyi(n, 0.3, gen);
    const StrategyProfile profile = StrategyProfile::randomOwnership(base, gen);
    const Graph g = profile.buildGraph();
    for (const bool sum : {false, true}) {
      for (const double alpha : {0.5, 3.0}) {
        for (const Dist k : {1, 2, 4}) {
          const GameParams params =
              sum ? GameParams::sum(alpha, k) : GameParams::max(alpha, k);
          for (NodeId u = 0; u < n; ++u) {
            visit(buildPlayerView(g, profile, u, k), params,
                  profile.strategyOf(u));
          }
        }
      }
    }
  }
}

TEST(NoisyGreedyMove, DrawsOnceExactlyWhenASingleEdgeMoveImproves) {
  BestResponseScratch scratch;
  int improving = 0;
  int stable = 0;
  std::uint64_t seed = 1;
  forEachSmallView([&](const PlayerView& pv, const GameParams& params,
                       const std::vector<NodeId>& sigma) {
    const double current = inViewCost(pv, params, pv.ownBoughtLocal);
    bool someMoveImproves = false;
    for (const std::vector<NodeId>& own : singleEdgeMoves(pv)) {
      someMoveImproves |= inViewCost(pv, params, own) < current - kCostEpsilon;
    }

    Rng rng(seed++);
    Rng untouched = rng;
    const BestResponse move = noisyGreedyMove(pv, params, 0.7, rng, scratch);
    EXPECT_EQ(move.currentCost, current);
    ASSERT_EQ(move.improving, someMoveImproves);
    if (move.improving) {
      ++improving;
      (void)untouched.next();  // the one draw
      std::vector<NodeId> dropped;
      std::vector<NodeId> bought;
      std::set_difference(sigma.begin(), sigma.end(),
                          move.strategyGlobal.begin(),
                          move.strategyGlobal.end(),
                          std::back_inserter(dropped));
      std::set_difference(move.strategyGlobal.begin(),
                          move.strategyGlobal.end(), sigma.begin(),
                          sigma.end(), std::back_inserter(bought));
      EXPECT_LE(dropped.size(), 1U);
      EXPECT_LE(bought.size(), 1U);
      EXPECT_GE(dropped.size() + bought.size(), 1U);
      EXPECT_EQ(inViewCost(pv, params, toLocal(pv, move.strategyGlobal)),
                move.proposedCost);
      EXPECT_LT(move.proposedCost, move.currentCost - kCostEpsilon);
    } else {
      ++stable;
      EXPECT_EQ(move.strategyGlobal, sigma);
      EXPECT_EQ(move.proposedCost, move.currentCost);
    }
    EXPECT_EQ(rng.next(), untouched.next());
  });
  EXPECT_GT(improving, 100);
  EXPECT_GT(stable, 100);
}

TEST(NoisyGreedyMove, UniqueMinimumAtTinyTemperatureIsTheGreedyMove) {
  BestResponseScratch scratch;
  int unique = 0;
  forEachSmallView([&](const PlayerView& pv, const GameParams& params,
                       const std::vector<NodeId>&) {
    const double current = inViewCost(pv, params, pv.ownBoughtLocal);
    double minCost = std::numeric_limits<double>::infinity();
    std::vector<NodeId> argmin;
    int atMin = 0;
    for (const std::vector<NodeId>& own : singleEdgeMoves(pv)) {
      const double cost = inViewCost(pv, params, own);
      if (cost < minCost - 1e-6) {
        minCost = cost;
        argmin = own;
        atMin = 1;
      } else if (cost < minCost + 1e-6) {
        ++atMin;
      }
    }
    if (atMin != 1 || !(minCost < current - kCostEpsilon)) return;
    ++unique;
    const std::vector<NodeId> expected = toGlobalSorted(pv, argmin);
    const BestResponse greedy = greedyMoveReference(pv, params);
    ASSERT_TRUE(greedy.improving);
    EXPECT_EQ(greedy.strategyGlobal, expected);
    for (const std::uint64_t seed : {3ULL, 77ULL}) {
      Rng rng(seed);
      const BestResponse move = noisyGreedyMove(pv, params, 1e-12, rng, scratch);
      ASSERT_TRUE(move.improving);
      EXPECT_EQ(move.strategyGlobal, expected);
      EXPECT_EQ(move.proposedCost, greedy.proposedCost);
    }
  });
  EXPECT_GT(unique, 100);
}

TEST(NoisyGreedyMove, ExactMinimumTiesAreDrawnUniformlyNotFirstEvaluated) {
  // Path 0–1–2–3–4, each i buying {i+1}; MaxNCG α = 0.5, k = 10. Player
  // 0 improves from 4.5 to 3 by buying 3 or by buying 4 (eccentricity 2
  // either way). The greedy scan keeps the first of the two it
  // evaluates; the noisy rule at a tiny temperature draws between them.
  const StrategyProfile profile = pathProfile(5);
  const Graph g = profile.buildGraph();
  const GameParams params = GameParams::max(0.5, 10);
  const PlayerView pv = buildPlayerView(g, profile, 0, params.k);
  const BestResponse greedy = greedyMoveReference(pv, params);
  ASSERT_TRUE(greedy.improving);
  EXPECT_EQ(greedy.strategyGlobal, (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(greedy.proposedCost, 3.0);

  BestResponseScratch scratch;
  int buysThree = 0;
  int buysFour = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const BestResponse move = noisyGreedyMove(pv, params, 1e-12, rng, scratch);
    ASSERT_TRUE(move.improving);
    EXPECT_EQ(move.proposedCost, 3.0);
    if (move.strategyGlobal == std::vector<NodeId>{1, 3}) {
      ++buysThree;
    } else if (move.strategyGlobal == std::vector<NodeId>{1, 4}) {
      ++buysFour;
    } else {
      ADD_FAILURE() << "seed " << seed << " left the tied minimum";
    }
  }
  EXPECT_EQ(buysThree, 105);
  EXPECT_EQ(buysFour, 95);
}

}  // namespace
}  // namespace ncg
