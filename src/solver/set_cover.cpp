#include "solver/set_cover.hpp"

#include <algorithm>
#include <bit>

#include "support/error.hpp"

namespace ncg {

namespace {

constexpr std::uint64_t kDefaultNodeBudget = 500'000;

struct SearchState {
  const std::vector<DynBitset>* sets = nullptr;
  /// Flat element→covering-sets index (rows in coverStart/coverData;
  /// static: sets are never consumed, so it is valid throughout).
  const std::vector<std::int32_t>* coverStart = nullptr;
  const std::vector<int>* coverData = nullptr;
  SetCoverScratch* scratch = nullptr;
  std::vector<int> best;  // incumbent (may exceed sizeCap; see below)
  std::size_t pruneLimit = 0;  // branches reaching this size are cut
  std::uint64_t nodes = 0;
  std::uint64_t budget = 0;
  bool budgetHit = false;
  bool improved = false;  // found something below the initial limit
  std::size_t maxSetSize = 1;
};

/// Recursive branch-and-bound; `uncovered` is the universe minus the
/// coverage of the current partial cover (depth sets chosen so far).
void search(SearchState& state, const DynBitset& uncovered,
            std::size_t depth) {
  if (++state.nodes > state.budget) {
    state.budgetHit = true;
    return;
  }
  std::vector<int>& current = state.scratch->current;
  const std::size_t remaining = uncovered.count();
  if (remaining == 0) {
    if (current.size() < state.pruneLimit) {
      state.best = current;
      state.pruneLimit = current.size();
      state.improved = true;
    }
    return;
  }
  // Cardinality lower bound: every future set covers <= maxSetSize
  // elements.
  const std::size_t lower =
      (remaining + state.maxSetSize - 1) / state.maxSetSize;
  if (current.size() + lower >= state.pruneLimit) {
    return;
  }

  // Branch on the uncovered element with the fewest covering sets: its
  // branching factor is minimal, and zero means infeasible from here.
  // (Hand-rolled bit walk rather than DynBitset::forEachSetBit because
  // the scan stops early once a 1-cover element is found.)
  const std::vector<std::int32_t>& coverStart = *state.coverStart;
  std::size_t bestElement = uncovered.size();
  std::size_t bestCount = state.sets->size() + 1;
  {
    const auto words = uncovered.words();
    for (std::size_t wi = 0; wi < words.size() && bestCount > 1; ++wi) {
      std::uint64_t w = words[wi];
      while (w != 0) {
        const auto e =
            (wi << 6) + static_cast<std::size_t>(std::countr_zero(w));
        w &= w - 1;
        const auto covering = static_cast<std::size_t>(
            coverStart[e + 1] - coverStart[e]);
        if (covering < bestCount) {
          bestCount = covering;
          bestElement = e;
          if (covering <= 1) break;
        }
      }
    }
  }
  if (bestCount == 0) return;  // element uncoverable: infeasible branch

  // Candidates covering the chosen element, largest marginal gain first.
  // depthCandidates/depthUncovered are pre-sized to the maximum search
  // depth before the root call: ancestors hold references into them, so
  // they must never reallocate mid-search.
  const auto& sets = *state.sets;
  std::vector<std::pair<std::size_t, int>>& candidates =
      state.scratch->depthCandidates[depth];
  candidates.clear();
  candidates.reserve(bestCount);
  for (std::int32_t slot = coverStart[bestElement];
       slot < coverStart[bestElement + 1]; ++slot) {
    const int index = (*state.coverData)[static_cast<std::size_t>(slot)];
    candidates.emplace_back(
        sets[static_cast<std::size_t>(index)].countAnd(uncovered), index);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  DynBitset& next = state.scratch->depthUncovered[depth];
  for (const auto& [gain, index] : candidates) {
    (void)gain;
    current.push_back(index);
    next = uncovered;
    next.andNot(sets[static_cast<std::size_t>(index)]);
    search(state, next, depth + 1);
    current.pop_back();
    if (state.budgetHit) return;
    // A singleton incumbent cannot be beaten (covers from the root).
    if (state.pruneLimit <= 1) return;
  }
}

SetCoverResult greedySetCoverImpl(const DynBitset& universe,
                                  const std::vector<DynBitset>& sets,
                                  DynBitset& uncovered,
                                  std::vector<std::size_t>& countScratch) {
  SetCoverResult result;
  uncovered = universe;
  // Popcounts cap each set's possible gain, so sets that cannot strictly
  // beat the running best are skipped without touching their words; the
  // scan order and the arg-max (first strict maximum) are unchanged.
  countScratch.resize(sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    countScratch[i] = sets[i].count();
  }
  while (uncovered.any()) {
    std::size_t bestGain = 0;
    int bestIndex = -1;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      if (countScratch[i] <= bestGain) continue;
      const std::size_t gain = sets[i].countAnd(uncovered);
      if (gain > bestGain) {
        bestGain = gain;
        bestIndex = static_cast<int>(i);
      }
    }
    if (bestIndex < 0) {
      result.feasible = false;
      result.chosen.clear();
      return result;
    }
    result.chosen.push_back(bestIndex);
    uncovered.andNot(sets[static_cast<std::size_t>(bestIndex)]);
  }
  result.feasible = true;
  result.withinCap = true;
  return result;
}

}  // namespace

SetCoverResult greedySetCover(const DynBitset& universe,
                              const std::vector<DynBitset>& sets) {
  DynBitset uncovered;
  std::vector<std::size_t> counts;
  return greedySetCoverImpl(universe, sets, uncovered, counts);
}

SetCoverResult greedySetCover(const DynBitset& universe,
                              const std::vector<DynBitset>& sets,
                              SetCoverScratch& scratch) {
  return greedySetCoverImpl(universe, sets, scratch.greedyUncovered,
                            scratch.greedyCounts);
}

SetCoverResult minSetCover(const DynBitset& universe,
                           const std::vector<DynBitset>& sets,
                           std::uint64_t nodeBudget, std::size_t sizeCap) {
  SetCoverScratch scratch;
  return minSetCover(universe, sets, nodeBudget, sizeCap, scratch);
}

SetCoverResult minSetCover(const DynBitset& universe,
                           const std::vector<DynBitset>& sets,
                           std::uint64_t nodeBudget, std::size_t sizeCap,
                           SetCoverScratch& scratch) {
  for (const auto& s : sets) {
    NCG_REQUIRE(s.size() == universe.size(),
                "set mask size " << s.size() << " != universe size "
                                 << universe.size());
  }
  SetCoverResult result;
  if (universe.none()) {
    result.feasible = true;
    result.optimal = true;
    result.withinCap = true;
    return result;
  }

  // ---- Reduction 1: drop duplicate sets and sets contained in others.
  // Order by descending popcount so a set can only be subsumed by an
  // earlier (larger-or-equal) one.
  scratch.setCount.resize(sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    scratch.setCount[i] = sets[i].count();
  }
  std::vector<int>& order = scratch.order;
  order.resize(sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  std::sort(order.begin(), order.end(), [&scratch](int a, int b) {
    return scratch.setCount[static_cast<std::size_t>(a)] >
           scratch.setCount[static_cast<std::size_t>(b)];
  });
  std::vector<DynBitset>& kept = scratch.kept;
  std::vector<int>& keptOriginal = scratch.keptOriginal;
  std::size_t keptSize = 0;
  keptOriginal.clear();
  const auto acceptKept = [&](const DynBitset& candidate, int original) {
    if (kept.size() <= keptSize) {
      kept.push_back(candidate);
    } else {
      kept[keptSize] = candidate;
    }
    keptOriginal.push_back(original);
    ++keptSize;
  };
  const std::size_t universeWords = universe.words().size();
  if (universeWords <= 2) {
    // Fast path for the view-sized instances of the best-response
    // reduction: masks fit two machine words, so the subset test against
    // each kept set is a couple of register ops on flat arrays.
    std::vector<std::uint64_t>& keptLow = scratch.keptWordsLow;
    std::vector<std::uint64_t>& keptHigh = scratch.keptWordsHigh;
    keptLow.clear();
    keptHigh.clear();
    for (int original : order) {
      const DynBitset& candidate = sets[static_cast<std::size_t>(original)];
      if (scratch.setCount[static_cast<std::size_t>(original)] == 0) {
        continue;
      }
      const auto words = candidate.words();
      const std::uint64_t c0 = words[0];
      const std::uint64_t c1 = words.size() > 1 ? words[1] : 0;
      bool subsumed = false;
      for (std::size_t k = 0; k < keptSize; ++k) {
        if (((c0 & ~keptLow[k]) | (c1 & ~keptHigh[k])) == 0) {
          subsumed = true;
          break;
        }
      }
      if (!subsumed) {
        acceptKept(candidate, original);
        keptLow.push_back(c0);
        keptHigh.push_back(c1);
      }
    }
  } else {
    // General path (universe > 128 bits): same subsumption decisions,
    // but the kept masks are mirrored into one flat row-major word
    // array so each subset test streams contiguous memory instead of
    // chasing per-DynBitset allocations. Duplicate sets (equal-coverage
    // dedup) fall out of the same scan: an equal mask is subsumed by
    // its earlier copy.
    std::vector<std::uint64_t>& keptFlat = scratch.keptWordsFlat;
    keptFlat.clear();
    for (int original : order) {
      const DynBitset& candidate = sets[static_cast<std::size_t>(original)];
      if (scratch.setCount[static_cast<std::size_t>(original)] == 0) {
        continue;
      }
      const auto words = candidate.words();
      bool subsumed = false;
      for (std::size_t k = 0; k < keptSize && !subsumed; ++k) {
        const std::uint64_t* kw = keptFlat.data() + k * universeWords;
        subsumed = true;
        for (std::size_t w = 0; w < universeWords; ++w) {
          if ((words[w] & ~kw[w]) != 0) {
            subsumed = false;
            break;
          }
        }
      }
      if (!subsumed) {
        acceptKept(candidate, original);
        keptFlat.insert(keptFlat.end(), words.begin(), words.end());
      }
    }
  }
  kept.resize(keptSize);

  // Greedy incumbent on the reduced instance doubles as the feasibility
  // check.
  SetCoverResult greedy = greedySetCover(universe, kept, scratch);
  if (!greedy.feasible) {
    return result;  // infeasible
  }

  // Optimality shortcut: every set covers at most maxSetSize elements,
  // so any cover needs >= ceil(|U| / maxSetSize) sets. A greedy cover
  // meeting that bound is a minimum — the search could only ever return
  // the same greedy incumbent, so skip the element reduction and the
  // branch-and-bound outright. (On the ball-mask instances of the
  // best-response reduction this fires for the large majority of calls.)
  std::size_t maxSetSize = 1;
  for (std::size_t s = 0; s < keptSize; ++s) {
    maxSetSize = std::max(
        maxSetSize,
        scratch.setCount[static_cast<std::size_t>(keptOriginal[s])]);
  }
  const std::size_t lowerBound =
      (universe.count() + maxSetSize - 1) / maxSetSize;
  if (greedy.chosen.size() == lowerBound) {
    result.feasible = true;
    result.optimal = true;
    result.withinCap = greedy.chosen.size() <= sizeCap;
    result.chosen.reserve(greedy.chosen.size());
    for (int reducedIndex : greedy.chosen) {
      result.chosen.push_back(
          keptOriginal[static_cast<std::size_t>(reducedIndex)]);
    }
    return result;
  }

  // ---- Reduction 2: drop dominated elements. If every set covering e1
  // also covers e2, covering e1 covers e2 automatically — search only
  // needs e1. Compare per-element "which sets cover me" signatures,
  // packed row-major into ⌈kept/64⌉ words per element: e2 is dropped
  // when a surviving e1 has sig(e1) ⊆ sig(e2), strictly or tie-broken by
  // index so identical pairs drop exactly one.
  const std::size_t elementCount = universe.size();
  DynBitset& reducedUniverse = scratch.reducedUniverse;
  reducedUniverse = universe;
  std::vector<std::size_t>& active = scratch.activeElements;
  active.clear();
  universe.forEachSetBit([&active](std::size_t e) { active.push_back(e); });
  const std::size_t sigWords = (keptSize + 63) / 64;
  std::vector<std::uint64_t>& sig = scratch.signatureWords;
  sig.assign(elementCount * sigWords, 0);
  for (std::size_t s = 0; s < keptSize; ++s) {
    const std::size_t word = s / 64;
    const std::uint64_t bit = std::uint64_t{1} << (s % 64);
    kept[s].forEachSetBit(
        [&sig, sigWords, word, bit](std::size_t e) {
          sig[e * sigWords + word] |= bit;
        });
  }
  if (sigWords == 1) {
    // After reduction 1 the kept list nearly always fits one word (on
    // the ball-mask instances, typically about a dozen sets), so subset
    // tests and popcounts are single instructions.
    for (std::size_t e2 : active) {
      const std::uint64_t s2 = sig[e2];
      const int c2 = std::popcount(s2);
      for (std::size_t e1 : active) {
        if (e1 == e2) continue;
        if (!reducedUniverse.test(e1)) continue;
        const std::uint64_t s1 = sig[e1];
        if ((s1 & ~s2) != 0) continue;
        if (std::popcount(s1) < c2 || e1 < e2) {
          reducedUniverse.reset(e2);
          break;
        }
      }
    }
  } else {
    // Wider lists compare word rows. Popcounts are precomputed per
    // element, so the pair loop rejects impossible dominators on one
    // integer compare before it reads a row.
    std::vector<std::size_t>& count = scratch.signatureCount;
    count.resize(elementCount);
    for (std::size_t e : active) {
      count[e] = 0;
      for (std::size_t w = 0; w < sigWords; ++w) {
        count[e] += static_cast<std::size_t>(
            std::popcount(sig[e * sigWords + w]));
      }
    }
    for (std::size_t e2 : active) {
      const std::uint64_t* row2 = sig.data() + e2 * sigWords;
      for (std::size_t e1 : active) {
        if (e1 == e2) continue;
        if (count[e1] > count[e2]) continue;
        if (!reducedUniverse.test(e1)) continue;
        const std::uint64_t* row1 = sig.data() + e1 * sigWords;
        std::size_t w = 0;
        while (w < sigWords && (row1[w] & ~row2[w]) == 0) ++w;
        if (w < sigWords) continue;
        if (count[e1] < count[e2] || e1 < e2) {
          reducedUniverse.reset(e2);
          break;
        }
      }
    }
  }

  SearchState state;
  state.sets = &kept;
  state.scratch = &scratch;
  state.budget = nodeBudget == 0 ? kDefaultNodeBudget : nodeBudget;
  // Flat element→sets rows, in ascending kept order per element (the
  // same candidate order the per-element vectors used to produce).
  scratch.coverStart.assign(elementCount + 1, 0);
  for (std::size_t s = 0; s < keptSize; ++s) {
    kept[s].forEachSetBit(
        [&scratch](std::size_t e) { ++scratch.coverStart[e + 1]; });
  }
  state.maxSetSize = maxSetSize;
  for (std::size_t e = 0; e < elementCount; ++e) {
    scratch.coverStart[e + 1] += scratch.coverStart[e];
  }
  scratch.coverData.resize(
      static_cast<std::size_t>(scratch.coverStart[elementCount]));
  {
    // Fill rows front-to-back with a running write cursor per element.
    std::vector<std::int32_t>& cursor = scratch.coverCursor;
    cursor.assign(scratch.coverStart.begin(),
                  scratch.coverStart.end() - 1);
    for (std::size_t s = 0; s < keptSize; ++s) {
      kept[s].forEachSetBit([&scratch, &cursor, s](std::size_t e) {
        scratch.coverData[static_cast<std::size_t>(cursor[e]++)] =
            static_cast<int>(s);
      });
    }
  }
  state.coverStart = &scratch.coverStart;
  state.coverData = &scratch.coverData;

  // The search may improve on the greedy incumbent or prove nothing
  // within the cap exists. pruneLimit = best known size, clamped by cap.
  const bool greedyWithinCap = greedy.chosen.size() <= sizeCap;
  state.best = greedy.chosen;
  state.pruneLimit = std::min(greedy.chosen.size(),
                              sizeCap == SIZE_MAX ? SIZE_MAX : sizeCap + 1);
  scratch.current.clear();
  // Depth never exceeds the reduced candidate count; pre-size the
  // per-depth buffers so recursion never reallocates under live
  // ancestor references.
  if (scratch.depthUncovered.size() < keptSize + 1) {
    scratch.depthUncovered.resize(keptSize + 1);
  }
  if (scratch.depthCandidates.size() < keptSize + 1) {
    scratch.depthCandidates.resize(keptSize + 1);
  }
  search(state, reducedUniverse, 0);

  result.feasible = true;
  result.optimal = !state.budgetHit;
  result.nodesExplored = state.nodes;
  const std::vector<int>& reducedChosen =
      state.improved ? state.best : greedy.chosen;
  result.withinCap =
      state.improved ? state.best.size() <= sizeCap : greedyWithinCap;
  result.chosen.reserve(reducedChosen.size());
  for (int reducedIndex : reducedChosen) {
    result.chosen.push_back(
        keptOriginal[static_cast<std::size_t>(reducedIndex)]);
  }
  return result;
}

}  // namespace ncg
