// Tests for the exact set-cover solver (the Gurobi substitute).
#include <gtest/gtest.h>

#include "gen/classic.hpp"
#include "graph/power.hpp"
#include "solver/set_cover.hpp"
#include "support/random.hpp"

namespace ncg {
namespace {

DynBitset maskOf(std::size_t bits, std::initializer_list<std::size_t> set) {
  DynBitset mask(bits);
  for (std::size_t i : set) mask.set(i);
  return mask;
}

DynBitset fullUniverse(std::size_t bits) {
  DynBitset mask(bits);
  mask.setAll();
  return mask;
}

TEST(SetCover, EmptyUniverseNeedsNothing) {
  const auto result = minSetCover(DynBitset(5), {maskOf(5, {0, 1})});
  EXPECT_TRUE(result.feasible);
  EXPECT_TRUE(result.optimal);
  EXPECT_TRUE(result.chosen.empty());
}

TEST(SetCover, SingleSetCoversAll) {
  const auto result =
      minSetCover(fullUniverse(4), {maskOf(4, {0, 1, 2, 3})});
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.chosen.size(), 1u);
}

TEST(SetCover, InfeasibleWhenElementUncovered) {
  const auto result =
      minSetCover(fullUniverse(3), {maskOf(3, {0}), maskOf(3, {1})});
  EXPECT_FALSE(result.feasible);
}

TEST(SetCover, NoSetsAtAll) {
  const auto result = minSetCover(fullUniverse(2), {});
  EXPECT_FALSE(result.feasible);
}

TEST(SetCover, FindsOptimumWhereGreedyFails) {
  // Classic greedy trap: universe {0..5}; greedy takes the size-4 set
  // first and needs 3 sets, optimum is the two size-3 sets.
  const std::vector<DynBitset> sets = {
      maskOf(6, {0, 1, 2, 3}),
      maskOf(6, {0, 2, 4}),
      maskOf(6, {1, 3, 5}),
      maskOf(6, {4}),
      maskOf(6, {5}),
  };
  const auto greedy = greedySetCover(fullUniverse(6), sets);
  EXPECT_TRUE(greedy.feasible);
  EXPECT_EQ(greedy.chosen.size(), 3u);

  const auto exact = minSetCover(fullUniverse(6), sets);
  EXPECT_TRUE(exact.feasible);
  EXPECT_TRUE(exact.optimal);
  EXPECT_EQ(exact.chosen.size(), 2u);
}

TEST(SetCover, ChosenSetsActuallyCover) {
  Rng rng(31);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 24;
    std::vector<DynBitset> sets;
    for (int s = 0; s < 14; ++s) {
      DynBitset mask(n);
      for (std::size_t e = 0; e < n; ++e) {
        if (rng.nextBernoulli(0.25)) mask.set(e);
      }
      sets.push_back(mask);
    }
    const auto result = minSetCover(fullUniverse(n), sets);
    if (!result.feasible) continue;
    DynBitset covered(n);
    for (int idx : result.chosen) {
      covered |= sets[static_cast<std::size_t>(idx)];
    }
    EXPECT_TRUE(covered.all()) << "trial " << trial;
  }
}

// Covering P_n with radius-r balls is distance-r domination of the path
// (the reduction MaxNCG's best response solves): the optimum is
// ⌈n / (2r+1)⌉. Returns the chosen balls after checking that they cover.
std::vector<int> coverPathWithBalls(NodeId n, Dist r) {
  const auto bits = static_cast<std::size_t>(n);
  const std::vector<DynBitset> balls = ballMasks(makePath(n), r);
  const auto result = minSetCover(fullUniverse(bits), balls);
  EXPECT_TRUE(result.feasible) << "n=" << n << " r=" << r;
  EXPECT_TRUE(result.optimal) << "n=" << n << " r=" << r;
  DynBitset covered(bits);
  for (int idx : result.chosen) {
    covered |= balls[static_cast<std::size_t>(idx)];
  }
  EXPECT_TRUE(covered.all()) << "n=" << n << " r=" << r;
  return result.chosen;
}

TEST(Domination, PathRadiusOneNeedsCeilNOver3) {
  EXPECT_EQ(coverPathWithBalls(9, 1).size(), 3u);
}

class DominationRadius : public ::testing::TestWithParam<Dist> {};

TEST_P(DominationRadius, PathCoverageInvariant) {
  const Dist r = GetParam();
  for (const NodeId n : {5, 9, 12, 20}) {
    EXPECT_EQ(coverPathWithBalls(n, r).size(),
              static_cast<std::size_t>((n + 2 * r) / (2 * r + 1)))
        << "n=" << n << " r=" << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Radii, DominationRadius,
                         ::testing::Values(1, 2, 3));

TEST(SetCover, MatchesBruteForceOnRandomInstances) {
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 10;
    const int s = 8;
    std::vector<DynBitset> sets;
    for (int i = 0; i < s; ++i) {
      DynBitset mask(n);
      for (std::size_t e = 0; e < n; ++e) {
        if (rng.nextBernoulli(0.3)) mask.set(e);
      }
      sets.push_back(mask);
    }
    // Brute force over all 2^s subsets.
    int bruteBest = s + 1;
    for (unsigned subset = 0; subset < (1u << s); ++subset) {
      DynBitset covered(n);
      int size = 0;
      for (int i = 0; i < s; ++i) {
        if (subset & (1u << i)) {
          covered |= sets[static_cast<std::size_t>(i)];
          ++size;
        }
      }
      if (covered.all() && size < bruteBest) bruteBest = size;
    }
    const auto result = minSetCover(fullUniverse(n), sets);
    if (bruteBest == s + 1) {
      EXPECT_FALSE(result.feasible) << "trial " << trial;
    } else {
      ASSERT_TRUE(result.feasible) << "trial " << trial;
      EXPECT_TRUE(result.optimal);
      EXPECT_EQ(static_cast<int>(result.chosen.size()), bruteBest)
          << "trial " << trial;
    }
  }
}

TEST(SetCover, SizeMismatchRejected) {
  EXPECT_THROW(minSetCover(fullUniverse(4), {maskOf(5, {0})}), Error);
}

TEST(SetCover, TinyBudgetStillReturnsValidCover) {
  // With an absurdly small node budget the solver must still return the
  // greedy incumbent and flag non-optimality.
  std::vector<DynBitset> sets;
  Rng rng(5);
  const std::size_t n = 30;
  for (int i = 0; i < 20; ++i) {
    DynBitset mask(n);
    for (std::size_t e = 0; e < n; ++e) {
      if (rng.nextBernoulli(0.2)) mask.set(e);
    }
    sets.push_back(mask);
  }
  const auto result = minSetCover(fullUniverse(n), sets, /*nodeBudget=*/1);
  if (result.feasible) {
    DynBitset covered(n);
    for (int idx : result.chosen) {
      covered |= sets[static_cast<std::size_t>(idx)];
    }
    EXPECT_TRUE(covered.all());
    EXPECT_FALSE(result.optimal);
  }
}

TEST(SetCover, SizeCapProvesAbsenceOfSmallCovers) {
  // Universe of 6, optimum is 2 sets; cap 1 must report no cover within
  // the cap while still confirming feasibility.
  const std::vector<DynBitset> sets = {
      maskOf(6, {0, 1, 2}),
      maskOf(6, {3, 4, 5}),
  };
  const auto result =
      minSetCover(fullUniverse(6), sets, /*nodeBudget=*/0, /*sizeCap=*/1);
  EXPECT_TRUE(result.feasible);
  EXPECT_TRUE(result.optimal);
  EXPECT_FALSE(result.withinCap);
}

TEST(SetCover, SizeCapStillFindsOptimumWhenItFits) {
  const std::vector<DynBitset> sets = {
      maskOf(6, {0, 1, 2, 3}),
      maskOf(6, {0, 2, 4}),
      maskOf(6, {1, 3, 5}),
  };
  const auto result =
      minSetCover(fullUniverse(6), sets, /*nodeBudget=*/0, /*sizeCap=*/2);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(result.withinCap);
  EXPECT_EQ(result.chosen.size(), 2u);
}

TEST(SetCover, SubsetReductionPreservesOptimum) {
  // Many duplicate/contained sets: the reduction must not change the
  // optimum and chosen indices must refer to the original list.
  const std::vector<DynBitset> sets = {
      maskOf(5, {0}),           // subset of 2
      maskOf(5, {0, 1}),        // subset of 2
      maskOf(5, {0, 1, 2}),
      maskOf(5, {0, 1, 2}),     // duplicate of 2
      maskOf(5, {3, 4}),
      maskOf(5, {3}),           // subset of 4
  };
  const auto result = minSetCover(fullUniverse(5), sets);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(result.optimal);
  ASSERT_EQ(result.chosen.size(), 2u);
  DynBitset covered(5);
  for (int idx : result.chosen) {
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, static_cast<int>(sets.size()));
    covered |= sets[static_cast<std::size_t>(idx)];
  }
  EXPECT_TRUE(covered.all());
}

TEST(SetCover, ElementDominationPreservesCorrectness) {
  // Element 4 is only covered together with element 0 (every set hitting
  // 0 hits 4): domination reduction may drop one, result must cover both.
  const std::vector<DynBitset> sets = {
      maskOf(5, {0, 4}),
      maskOf(5, {1, 0, 4}),
      maskOf(5, {2, 3}),
  };
  const auto result = minSetCover(fullUniverse(5), sets);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(result.optimal);
  EXPECT_EQ(result.chosen.size(), 2u);
  DynBitset covered(5);
  for (int idx : result.chosen) {
    covered |= sets[static_cast<std::size_t>(idx)];
  }
  EXPECT_TRUE(covered.all());
}

TEST(SetCover, RandomInstancesWithCapMatchBruteForce) {
  Rng rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 9;
    const int s = 7;
    std::vector<DynBitset> sets;
    for (int i = 0; i < s; ++i) {
      DynBitset mask(n);
      for (std::size_t e = 0; e < n; ++e) {
        if (rng.nextBernoulli(0.35)) mask.set(e);
      }
      sets.push_back(mask);
    }
    int bruteBest = s + 1;
    for (unsigned subset = 0; subset < (1u << s); ++subset) {
      DynBitset covered(n);
      int size = 0;
      for (int i = 0; i < s; ++i) {
        if (subset & (1u << i)) {
          covered |= sets[static_cast<std::size_t>(i)];
          ++size;
        }
      }
      if (covered.all() && size < bruteBest) bruteBest = size;
    }
    if (bruteBest == s + 1) continue;
    for (std::size_t cap = 1; cap <= static_cast<std::size_t>(s); ++cap) {
      const auto result = minSetCover(fullUniverse(n), sets, 0, cap);
      ASSERT_TRUE(result.feasible);
      ASSERT_TRUE(result.optimal);
      if (cap >= static_cast<std::size_t>(bruteBest)) {
        ASSERT_TRUE(result.withinCap) << "trial " << trial << " cap " << cap;
        EXPECT_EQ(static_cast<int>(result.chosen.size()), bruteBest);
      } else {
        EXPECT_FALSE(result.withinCap) << "trial " << trial << " cap "
                                       << cap;
      }
    }
  }
}

TEST(GreedySetCover, PrefersBiggestGain) {
  const std::vector<DynBitset> sets = {
      maskOf(4, {0}),
      maskOf(4, {0, 1, 2, 3}),
  };
  const auto result = greedySetCover(fullUniverse(4), sets);
  ASSERT_TRUE(result.feasible);
  ASSERT_EQ(result.chosen.size(), 1u);
  EXPECT_EQ(result.chosen[0], 1);
}

// One scratch shared across many differently-shaped solves must return
// exactly what fresh-scratch solves return (the dynamics loop reuses a
// single scratch for every radius of every best response).
TEST(SetCover, SharedScratchMatchesFreshScratch) {
  Rng rng(97);
  SetCoverScratch shared;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 6 + rng.nextBounded(60);
    const std::size_t count = 3 + rng.nextBounded(20);
    std::vector<DynBitset> sets;
    for (std::size_t s = 0; s < count; ++s) {
      DynBitset mask(n);
      for (std::size_t e = 0; e < n; ++e) {
        if (rng.nextBernoulli(0.3)) mask.set(e);
      }
      sets.push_back(mask);
    }
    DynBitset universe(n);
    for (std::size_t e = 0; e < n; ++e) {
      if (rng.nextBernoulli(0.8)) universe.set(e);
    }
    const std::size_t cap = trial % 3 == 0 ? 2 : SIZE_MAX;

    const auto viaShared = minSetCover(universe, sets, 0, cap, shared);
    const auto fresh = minSetCover(universe, sets, 0, cap);
    EXPECT_EQ(viaShared.feasible, fresh.feasible) << "trial " << trial;
    EXPECT_EQ(viaShared.optimal, fresh.optimal) << "trial " << trial;
    EXPECT_EQ(viaShared.withinCap, fresh.withinCap) << "trial " << trial;
    EXPECT_EQ(viaShared.chosen, fresh.chosen) << "trial " << trial;

    const auto greedyShared = greedySetCover(universe, sets, shared);
    const auto greedyFresh = greedySetCover(universe, sets);
    EXPECT_EQ(greedyShared.feasible, greedyFresh.feasible);
    EXPECT_EQ(greedyShared.chosen, greedyFresh.chosen);
  }
}

}  // namespace
}  // namespace ncg
