// Property tests on the dynamics engine, swept over (α, k, schedule,
// move rule) with parameterized gtest:
//
//   D1. Converged dynamics end in a state stable under the move rule
//       used (an LKE for the exact rule).
//   D2. The final graph stays connected and equals the final profile's.
//   D3. Per-round social cost is finite and positive throughout.
//   D4. totalMoves == 0 iff the run converged in one round.
#include <gtest/gtest.h>

#include "core/equilibrium.hpp"
#include "core/restricted_moves.hpp"
#include "dynamics/round_robin.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_tree.hpp"
#include "graph/metrics.hpp"

namespace ncg {
namespace {

struct DynSweep {
  double alpha;
  Dist k;
  MoveRule rule;
  Schedule schedule;
};

// Prints the fields: gtest_discover_tests appends this text to the
// CTest name, and gtest's fallback (a hex dump of the object, padding
// included) changes from build to build.
void PrintTo(const DynSweep& s, std::ostream* os) {
  *os << '(' << s.alpha << ", " << s.k << ", "
      << (s.rule == MoveRule::kBestResponse ? "exact" : "greedy") << ", "
      << (s.schedule == Schedule::kRoundRobin ? "rr" : "perm") << ')';
}

std::string dynSweepName(const ::testing::TestParamInfo<DynSweep>& info) {
  const auto& s = info.param;
  // Built with += throughout: operator+(const char*, std::string&&)
  // trips GCC 12's -Wrestrict false positive (PR 105329) at -O3.
  std::string name = "a";
  name += std::to_string(static_cast<int>(s.alpha * 10));
  name += "_k";
  name += std::to_string(s.k);
  name += s.rule == MoveRule::kBestResponse ? "_exact" : "_greedy";
  name += s.schedule == Schedule::kRoundRobin ? "_rr" : "_perm";
  return name;
}

class DynamicsProperty : public ::testing::TestWithParam<DynSweep> {};

TEST_P(DynamicsProperty, ConvergedStatesAreStable) {
  const DynSweep sweep = GetParam();
  Rng rng(0xD11A + static_cast<std::uint64_t>(sweep.k) * 17 +
          static_cast<std::uint64_t>(sweep.alpha * 10));
  for (int trial = 0; trial < 3; ++trial) {
    const Graph tree = makeRandomTree(20, rng);
    const StrategyProfile start =
        StrategyProfile::randomOwnership(tree, rng);

    DynamicsConfig config;
    config.params = GameParams::max(sweep.alpha, sweep.k);
    config.moveRule = sweep.rule;
    config.schedule = sweep.schedule;
    config.scheduleSeed = 5 + static_cast<std::uint64_t>(trial);
    config.collectTrace = true;
    config.maxRounds = 200;
    const DynamicsResult result = runBestResponseDynamics(start, config);

    if (result.outcome != DynamicsOutcome::kConverged) continue;

    // D1: stability under the move rule used.
    for (NodeId u = 0; u < result.profile.playerCount(); ++u) {
      const PlayerView pv = buildPlayerView(result.graph, result.profile,
                                            u, config.params.k);
      const bool improving =
          sweep.rule == MoveRule::kBestResponse
              ? bestResponse(pv, config.params).improving
              : greedyMove(pv, config.params).improving;
      EXPECT_FALSE(improving) << "trial=" << trial << " u=" << u;
    }

    // D2: structural consistency.
    EXPECT_EQ(result.graph, result.profile.buildGraph());
    EXPECT_TRUE(isConnected(result.graph));

    // D3: sane trace.
    ASSERT_EQ(result.trace.size(),
              static_cast<std::size_t>(result.rounds));
    for (const NetworkFeatures& f : result.trace) {
      EXPECT_GT(f.socialCost, 0.0);
      EXPECT_LT(f.socialCost, 1e12);
      EXPECT_NE(f.diameter, kUnreachable);
    }

    // D4: move accounting.
    if (result.totalMoves == 0) {
      EXPECT_EQ(result.rounds, 1);
    } else {
      EXPECT_GE(result.rounds, 2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DynamicsProperty,
    ::testing::Values(
        DynSweep{0.5, 2, MoveRule::kBestResponse, Schedule::kRoundRobin},
        DynSweep{1.0, 3, MoveRule::kBestResponse, Schedule::kRoundRobin},
        DynSweep{2.0, 4, MoveRule::kBestResponse, Schedule::kRoundRobin},
        DynSweep{5.0, 2, MoveRule::kBestResponse, Schedule::kRoundRobin},
        DynSweep{1.0, 1000, MoveRule::kBestResponse,
                 Schedule::kRoundRobin},
        DynSweep{1.0, 3, MoveRule::kBestResponse,
                 Schedule::kRandomPermutation},
        DynSweep{2.0, 1000, MoveRule::kBestResponse,
                 Schedule::kRandomPermutation},
        DynSweep{0.5, 3, MoveRule::kGreedy, Schedule::kRoundRobin},
        DynSweep{2.0, 3, MoveRule::kGreedy, Schedule::kRoundRobin},
        DynSweep{1.0, 1000, MoveRule::kGreedy,
                 Schedule::kRandomPermutation}),
    dynSweepName);

class SumDynamicsProperty : public ::testing::TestWithParam<DynSweep> {};

TEST_P(SumDynamicsProperty, SumGameDynamicsReachSumLke) {
  const DynSweep sweep = GetParam();
  Rng rng(0x50FA + static_cast<std::uint64_t>(sweep.k));
  const Graph tree = makeRandomTree(12, rng);
  const StrategyProfile start = StrategyProfile::randomOwnership(tree, rng);

  DynamicsConfig config;
  config.params = GameParams::sum(sweep.alpha, sweep.k);
  config.moveRule = sweep.rule;
  config.maxRounds = 100;
  const DynamicsResult result = runBestResponseDynamics(start, config);
  if (result.outcome != DynamicsOutcome::kConverged) {
    GTEST_SKIP() << "did not converge";
  }
  if (sweep.rule == MoveRule::kBestResponse) {
    EXPECT_TRUE(isLke(result.graph, result.profile, config.params));
  }
  EXPECT_TRUE(isConnected(result.graph));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SumDynamicsProperty,
    ::testing::Values(
        DynSweep{0.8, 2, MoveRule::kBestResponse, Schedule::kRoundRobin},
        DynSweep{1.5, 3, MoveRule::kBestResponse, Schedule::kRoundRobin},
        DynSweep{3.0, 2, MoveRule::kGreedy, Schedule::kRoundRobin}),
    dynSweepName);

}  // namespace
}  // namespace ncg
