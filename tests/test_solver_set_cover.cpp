// Tests for the exact set-cover solver (the Gurobi substitute).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "gen/classic.hpp"
#include "gen/random_tree.hpp"
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

// ---- The wide tiers. The instances above stop at 23 sets and 66
// elements; the views of the dynamics rarely reduce to more than 64
// sets. This seeded corpus has 65–200 reduced sets over 129–300-bit
// universes, so it reaches the multi-word element-domination scan and
// the flat subsumption scan.

/// Sets left by reduction 1 (empty, duplicate and subsumed sets
/// dropped), counted the naive way.
std::size_t reducedSetCount(const std::vector<DynBitset>& sets) {
  std::vector<std::size_t> order(sets.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&sets](std::size_t a, std::size_t b) {
                     return sets[a].count() > sets[b].count();
                   });
  std::vector<std::size_t> kept;
  for (const std::size_t i : order) {
    if (sets[i].none()) continue;
    const bool subsumed =
        std::any_of(kept.begin(), kept.end(), [&](std::size_t k) {
          return sets[i].isSubsetOf(sets[k]);
        });
    if (!subsumed) kept.push_back(i);
  }
  return kept.size();
}

struct WideInstance {
  DynBitset universe;
  std::vector<DynBitset> sets;
  std::size_t cap = SIZE_MAX;
  std::size_t reduced = 0;
};

/// Alternates random-density sets with the radius-1/2 ball masks of
/// sparse connected graphs (the shape of the best-response reduction,
/// where many sets and elements are dominated), keeping instances whose
/// reduced set list has 65–200 sets.
std::vector<WideInstance> wideCorpus() {
  Rng rng(4101);
  std::vector<WideInstance> corpus;
  while (corpus.size() < 48) {
    WideInstance inst;
    const std::size_t bits = 129 + rng.nextBounded(172);
    if (corpus.size() % 2 == 0) {
      const std::size_t count = 70 + rng.nextBounded(140);
      const double density = 0.03 + 0.01 * static_cast<double>(rng.nextBounded(8));
      DynBitset covered(bits);
      for (std::size_t s = 0; s < count; ++s) {
        DynBitset mask(bits);
        for (std::size_t e = 0; e < bits; ++e) {
          if (rng.nextBernoulli(density)) mask.set(e);
        }
        covered |= mask;
        inst.sets.push_back(mask);
      }
      inst.universe = DynBitset(bits);
      for (std::size_t e = 0; e < bits; ++e) {
        if (covered.test(e) && rng.nextBernoulli(0.9)) inst.universe.set(e);
      }
    } else {
      const auto n = static_cast<NodeId>(bits);
      Graph g = makeRandomTree(n, rng);
      for (NodeId extra = 0; extra < n / 8; ++extra) {
        const auto u = static_cast<NodeId>(rng.nextBounded(bits));
        const auto v = static_cast<NodeId>(rng.nextBounded(bits));
        if (u != v) (void)g.addEdge(u, v);
      }
      inst.sets = ballMasks(g, 1 + static_cast<Dist>(rng.nextBounded(2)));
      inst.universe = fullUniverse(bits);
    }
    inst.reduced = reducedSetCount(inst.sets);
    if (inst.reduced < 65 || inst.reduced > 200) continue;
    inst.cap = corpus.size() % 3 == 0 ? 6 + corpus.size() % 11 : SIZE_MAX;
    corpus.push_back(std::move(inst));
  }
  return corpus;
}

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFF;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

TEST(SetCover, WideTiersCoverAndMatchTheirRecordedOutcomes) {
  constexpr std::uint64_t kBudget = 5000;
  const std::vector<WideInstance> corpus = wideCorpus();
  SetCoverScratch shared;
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  std::size_t twoWord = 0;
  std::size_t wider = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const WideInstance& inst = corpus[i];
    (inst.reduced <= 128 ? twoWord : wider) += 1;
    const auto viaShared =
        minSetCover(inst.universe, inst.sets, kBudget, inst.cap, shared);
    const auto fresh = minSetCover(inst.universe, inst.sets, kBudget, inst.cap);
    ASSERT_TRUE(viaShared.feasible) << "instance " << i;
    // The greedy-meets-bound shortcut returns before the element
    // reduction; every corpus instance must get past it.
    EXPECT_GT(viaShared.nodesExplored, 0U) << "instance " << i;
    EXPECT_EQ(viaShared.chosen, fresh.chosen) << "instance " << i;
    EXPECT_EQ(viaShared.nodesExplored, fresh.nodesExplored) << "instance " << i;
    EXPECT_EQ(viaShared.optimal, fresh.optimal) << "instance " << i;
    EXPECT_EQ(viaShared.withinCap, fresh.withinCap) << "instance " << i;

    DynBitset covered(inst.universe.size());
    for (const int index : viaShared.chosen) {
      covered |= inst.sets[static_cast<std::size_t>(index)];
    }
    EXPECT_TRUE(inst.universe.isSubsetOf(covered)) << "instance " << i;

    hash = fnv1a(hash, viaShared.chosen.size());
    for (const int index : viaShared.chosen) {
      hash = fnv1a(hash, static_cast<std::uint64_t>(index));
    }
    hash = fnv1a(hash, viaShared.nodesExplored);
    hash = fnv1a(hash, viaShared.optimal ? 1 : 0);
    hash = fnv1a(hash, viaShared.withinCap ? 1 : 0);

    // A narrow solve between two wide ones reuses the wide buffers.
    const auto narrow = minSetCover(fullUniverse(9), {maskOf(9, {0, 1, 2, 3}),
                                                      maskOf(9, {3, 4, 5}),
                                                      maskOf(9, {5, 6, 7, 8}),
                                                      maskOf(9, {0, 8})},
                                    0, SIZE_MAX, shared);
    EXPECT_EQ(narrow.chosen.size(), 3U);
  }
  EXPECT_EQ(twoWord, 17U);
  EXPECT_EQ(wider, 31U);
  // (chosen, nodesExplored, optimal, withinCap) over the corpus, recorded
  // while the 65–128-set two-word tier and the bitset tier still decided
  // element domination: one multi-word scan must decide it identically.
  EXPECT_EQ(hash, 0x6F3CE84A42F03078ULL);
}

}  // namespace
}  // namespace ncg
