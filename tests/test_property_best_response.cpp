// Property tests on the best-response oracles, swept over (α, k) with
// parameterized gtest. Invariants checked on randomized instances:
//
//   P1. The proposal never exceeds the current cost.
//   P2. An "improving" proposal strictly lowers the player's own in-view
//       cost when applied (re-evaluated from scratch).
//   P3. Under FULL view, re-solving after applying a best response is
//       non-improving (idempotence). Under a bounded view this is not an
//       invariant: the move can bring previously invisible nodes inside
//       the k-ball, legitimately enabling a further improvement — that
//       is exactly the locality dynamics the paper studies.
//   P4. Proposed endpoints lie inside the view and exclude the player.
//   P5. Greedy single-edge moves never beat the exact best response.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/best_response.hpp"
#include "core/cost.hpp"
#include "core/equilibrium.hpp"
#include "core/restricted_moves.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_tree.hpp"
#include "support/random.hpp"

namespace ncg {
namespace {

struct Sweep {
  GameKind kind;
  double alpha;
  Dist k;
};

// Prints the fields: gtest_discover_tests appends this text to the
// CTest name, and gtest's fallback (a hex dump of the object, padding
// included) changes from build to build.
void PrintTo(const Sweep& s, std::ostream* os) {
  *os << '(' << (s.kind == GameKind::kMax ? "max" : "sum") << ", "
      << s.alpha << ", " << s.k << ')';
}

std::string sweepName(const ::testing::TestParamInfo<Sweep>& info) {
  const auto& s = info.param;
  std::string name = s.kind == GameKind::kMax ? "max" : "sum";
  // Built with += throughout: operator+(const char*, std::string&&)
  // trips GCC 12's -Wrestrict false positive (PR 105329) at -O3.
  name += "_a";
  name += std::to_string(static_cast<int>(s.alpha * 100));
  name += "_k";
  name += std::to_string(s.k);
  return name;
}

class BestResponseProperty : public ::testing::TestWithParam<Sweep> {};

TEST_P(BestResponseProperty, InvariantsHoldOnRandomTrees) {
  const Sweep sweep = GetParam();
  const GameParams params{sweep.kind, sweep.alpha, sweep.k, {}};
  Rng rng(0xBEEF + static_cast<std::uint64_t>(sweep.k) * 31 +
          static_cast<std::uint64_t>(sweep.alpha * 100));
  // SumNCG search is exponential in the view size; keep its instances
  // small enough for the exact solver.
  const NodeId n = sweep.kind == GameKind::kMax ? 24 : 12;

  for (int trial = 0; trial < 4; ++trial) {
    const Graph start = makeRandomTree(n, rng);
    StrategyProfile profile = StrategyProfile::randomOwnership(start, rng);
    Graph g = profile.buildGraph();

    for (NodeId u = 0; u < n; u += 3) {
      const PlayerView pv = buildPlayerView(g, profile, u, params.k);
      const BestResponse br = bestResponse(pv, params);
      ASSERT_TRUE(br.exact);

      // P1: proposal never exceeds the current cost.
      EXPECT_LE(br.proposedCost, br.currentCost + 1e-9);

      // P4: endpoints inside the view, never the player herself.
      for (NodeId v : br.strategyGlobal) {
        EXPECT_TRUE(pv.view.contains(v));
        EXPECT_NE(v, u);
      }

      // P5: greedy never beats exact.
      const BestResponse greedy = greedyMove(pv, params);
      EXPECT_LE(br.proposedCost, greedy.proposedCost + 1e-9);

      if (!br.improving) continue;

      // P2: applying strictly lowers the in-view cost, recomputed from
      // scratch on the updated game state.
      StrategyProfile next = profile;
      next.setStrategy(u, br.strategyGlobal);
      const Graph gNext = next.buildGraph();
      // The player evaluates on her OLD view modified by the move
      // (Propositions 2.1/2.2); reconstruct exactly that.
      Graph h = pv.view.graph;
      for (NodeId v = 1; v < pv.view.size(); ++v) h.removeEdge(0, v);
      for (NodeId f : pv.freeNeighborsLocal) h.addEdge(0, f);
      for (NodeId globalV : br.strategyGlobal) {
        h.addEdge(0, pv.view.toLocal[static_cast<std::size_t>(globalV)]);
      }
      const double usage = usageCost(params.kind, h, 0);
      const double applied =
          params.alpha * static_cast<double>(br.strategyGlobal.size()) +
          usage;
      EXPECT_NEAR(applied, br.proposedCost, 1e-9) << "u=" << u;
      EXPECT_LT(applied, br.currentCost - 1e-12);

      // P3: idempotence on the updated state — only guaranteed when the
      // player saw the whole graph (the view cannot grow further).
      if (pv.view.size() == n) {
        const BestResponse again = bestResponseFor(gNext, next, u, params);
        EXPECT_FALSE(again.improving) << "u=" << u;
      }

      profile = next;
      g = gNext;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BestResponseProperty,
    ::testing::Values(Sweep{GameKind::kMax, 0.3, 2},
                      Sweep{GameKind::kMax, 1.0, 2},
                      Sweep{GameKind::kMax, 1.0, 4},
                      Sweep{GameKind::kMax, 3.0, 3},
                      Sweep{GameKind::kMax, 10.0, 5},
                      Sweep{GameKind::kMax, 2.0, 1000},
                      Sweep{GameKind::kSum, 0.5, 2},
                      Sweep{GameKind::kSum, 1.5, 3},
                      Sweep{GameKind::kSum, 4.0, 2},
                      Sweep{GameKind::kSum, 2.0, 1000}),
    sweepName);

class BestResponseErProperty : public ::testing::TestWithParam<Sweep> {};

TEST_P(BestResponseErProperty, InvariantsHoldOnDenseGraphs) {
  const Sweep sweep = GetParam();
  const GameParams params{sweep.kind, sweep.alpha, sweep.k, {}};
  Rng rng(0xCAFE + static_cast<std::uint64_t>(sweep.k));
  const NodeId n = sweep.kind == GameKind::kMax ? 20 : 10;
  const double p = 0.3;

  const Graph start = makeConnectedErdosRenyi(n, p, rng);
  const StrategyProfile profile =
      StrategyProfile::randomOwnership(start, rng);
  const Graph g = profile.buildGraph();
  for (NodeId u = 0; u < n; u += 2) {
    const PlayerView pv = buildPlayerView(g, profile, u, params.k);
    const BestResponse br = bestResponse(pv, params);
    ASSERT_TRUE(br.exact);
    EXPECT_LE(br.proposedCost, br.currentCost + 1e-9);
    const BestResponse greedy = greedyMove(pv, params);
    EXPECT_LE(br.proposedCost, greedy.proposedCost + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BestResponseErProperty,
    ::testing::Values(Sweep{GameKind::kMax, 0.5, 2},
                      Sweep{GameKind::kMax, 2.0, 3},
                      Sweep{GameKind::kMax, 5.0, 1000},
                      Sweep{GameKind::kSum, 1.5, 2},
                      Sweep{GameKind::kSum, 3.0, 3}),
    sweepName);

}  // namespace
}  // namespace ncg
