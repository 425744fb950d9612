#include "core/best_response.hpp"

#include <algorithm>
#include <limits>

#include "graph/bfs.hpp"
#include "graph/power.hpp"
#include "solver/set_cover.hpp"
#include "support/bitset.hpp"
#include "support/error.hpp"

namespace ncg {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Maps a strategy given as H₀ ids back to global node ids, sorted.
std::vector<NodeId> toGlobalStrategy(const PlayerView& pv,
                                     const std::vector<NodeId>& h0Nodes) {
  std::vector<NodeId> global;
  global.reserve(h0Nodes.size());
  for (NodeId v : h0Nodes) {
    global.push_back(
        pv.view.toGlobal[static_cast<std::size_t>(v + 1)]);
  }
  std::sort(global.begin(), global.end());
  return global;
}

std::vector<NodeId> currentGlobalStrategy(const PlayerView& pv) {
  std::vector<NodeId> global;
  global.reserve(pv.ownBoughtLocal.size());
  for (NodeId v : pv.ownBoughtLocal) {
    global.push_back(pv.view.toGlobal[static_cast<std::size_t>(v)]);
  }
  std::sort(global.begin(), global.end());
  return global;
}

/// Status sum of the center inside the view (finite by construction).
/// The extraction BFS already recorded per-node center distances.
double centerStatusSum(const PlayerView& pv) {
  double sum = 0.0;
  for (Dist d : pv.view.centerDist) {
    NCG_ASSERT(d != kUnreachable, "view disconnected from center");
    sum += static_cast<double>(d);
  }
  return sum;
}

// ---------------------------------------------------------------------------
// MaxNCG best response: eccentricity guess + constrained domination.
// ---------------------------------------------------------------------------

BestResponse maxBestResponse(const PlayerView& pv, const GameParams& params,
                             const BestResponseOptions& options,
                             BestResponseScratch& scratch,
                             CoverInstanceCache& cover) {
  BestResponse res;
  res.strategyGlobal = currentGlobalStrategy(pv);
  res.currentCost = params.alpha * pv.alphaBought +
                    static_cast<double>(pv.eccInView);
  res.proposedCost = res.currentCost;

  const NodeId m = pv.view.size();
  if (m <= 1) return res;  // nobody visible: no move possible

  // H₀ and the free-neighbor mask are only needed to construct
  // instances, so they are built on the first construction: a player
  // whose current cost no radius can beat builds neither.
  const auto n0 = static_cast<std::size_t>(m - 1);
  std::size_t built = 0;   // radii [0, built) are in cover.instances
  bool saturated = false;  // the sweep passed the largest finite distance
  bool h0Ready = false;
  const auto ensureBuildInputs = [&] {
    if (h0Ready) return;
    removeCenterInto(pv.view.graph, pv.view.center, scratch.h0);
    NCG_ASSERT(static_cast<std::size_t>(scratch.h0.nodeCount()) == n0,
               "H₀ node count mismatch");
    scratch.coverFreeMask.reassign(n0);
    for (NodeId f : pv.freeNeighborsLocal) {
      scratch.coverFreeMask.set(static_cast<std::size_t>(f - 1));
    }
    h0Ready = true;
  };

  double bestCost = res.currentCost;
  std::vector<NodeId> bestStrategy;  // H₀ ids; empty sentinel = keep current
  bool haveBetter = false;

  // Per-radius instance: coverage masks of the non-free candidates plus
  // the residual universe once free neighbors have covered their balls.
  // Instances are built lazily in radius order — the radius-r balls come
  // from the radius-(r−1) balls by one closed-neighborhood union sweep —
  // into the cover storage, so the greedy and the exact pass below share
  // them and their bitset storage is recycled across calls. Lazy building
  // also bounds the radius range for free: the first sweep that leaves
  // every ball unchanged has passed the largest finite pairwise distance
  // (instanceAt returns nullptr from there on), so no all-pairs distance
  // computation is needed up front.
  const auto instanceAt = [&](Dist r) -> CoverInstance* {
    while (!saturated && static_cast<Dist>(built) <= r) {
      ensureBuildInputs();
      const CsrGraph& h0 = scratch.h0;
      std::vector<DynBitset>& balls = cover.balls;
      if (built == 0) {
        balls.resize(n0);
        cover.ballDone.assign(n0, 0);
        cover.ballCount.assign(n0, 1);
        for (std::size_t v = 0; v < n0; ++v) {
          balls[v].reassign(n0);
          balls[v].set(v);
        }
      } else {
        // ball_{r}(v) = ∪_{w ∈ N[v]} ball_{r−1}(w), with one exact skip:
        // the radius-r ball gains exactly the nodes at distance r from
        // v, so it grows at every radius up to ecc(v) and then never
        // again — the first sweep that leaves it unchanged proves it is
        // finished for good (`ballDone`), and later sweeps carry it over
        // without unions or popcounts. Growth detection is one popcount
        // compare (a union only ever grows a ball), and the counts
        // double as the maxBall input below, so no separate per-mask
        // count pass runs at instance-build time.
        scratch.ballsNext.resize(n0);
        std::uint8_t* done = cover.ballDone.data();
        std::size_t* ballCount = cover.ballCount.data();
        bool changed = false;
        for (std::size_t v = 0; v < n0; ++v) {
          DynBitset& ball = scratch.ballsNext[v];
          ball = balls[v];
          if (done[v] != 0) continue;
          for (NodeId w : h0.neighbors(static_cast<NodeId>(v))) {
            ball |= balls[static_cast<std::size_t>(w)];
          }
          const std::size_t grown = ball.count();
          if (grown == ballCount[v]) {
            done[v] = 1;  // r exceeded ecc(v): finished for good
          } else {
            ballCount[v] = grown;
            changed = true;
          }
        }
        if (!changed) {
          saturated = true;  // the previous radius reached everything
          break;
        }
        std::swap(balls, scratch.ballsNext);
      }
      if (cover.instances.size() <= built) {
        cover.instances.emplace_back();
      }
      CoverInstance& inst = cover.instances[built];
      inst.universe.reassign(n0);
      inst.universe.setAll();
      for (NodeId f : pv.freeNeighborsLocal) {
        inst.universe.andNot(balls[static_cast<std::size_t>(f - 1)]);
      }
      inst.maxBall = 1;
      std::size_t count = 0;
      for (std::size_t v = 0; v < n0; ++v) {
        if (!scratch.coverFreeMask.test(v)) {
          inst.maxBall = std::max(inst.maxBall, cover.ballCount[v]);
          if (inst.sets.size() <= count) {
            inst.sets.push_back(balls[v]);
            inst.setVertex.push_back(static_cast<NodeId>(v));
          } else {
            inst.sets[count] = balls[v];
            inst.setVertex[count] = static_cast<NodeId>(v);
          }
          ++count;
        }
      }
      inst.sets.resize(count);
      inst.setVertex.resize(count);
      ++built;
      ++cover.constructions;
    }
    if (static_cast<Dist>(built) <= r) return nullptr;
    return &cover.instances[static_cast<std::size_t>(r)];
  };

  const auto acceptCover = [&](const CoverInstance& inst,
                               const std::vector<int>& chosen, double h) {
    const double cost =
        params.alpha * static_cast<double>(chosen.size()) + h;
    if (cost < bestCost - kCostEpsilon) {
      bestCost = cost;
      bestStrategy.clear();
      for (int idx : chosen) {
        bestStrategy.push_back(
            inst.setVertex[static_cast<std::size_t>(idx)]);
      }
      haveBetter = true;
    }
  };

  // Pass A (cheap): greedy covers at every radius seed a strong cost
  // incumbent, so the exact pass below can skip most radii outright.
  // Radii where even an optimal cover provably cannot beat the incumbent
  // (cardinality lower bound) skip the greedy as well — its cover is at
  // least as large, so acceptCover would reject it anyway. Greedy sizes
  // are remembered per radius: whenever the greedy already meets the
  // cardinality lower bound it is provably optimal, and pass B can skip
  // the exact solve for that radius outright (nothing strictly smaller
  // exists, and acceptCover ignores equal-cost covers).
  constexpr std::size_t kNoGreedy = SIZE_MAX;
  std::vector<std::size_t>& greedySizeAt = scratch.coverGreedySize;
  greedySizeAt.clear();
  for (Dist r = 0;; ++r) {
    const double h = static_cast<double>(r) + 1.0;
    if (h >= bestCost - kCostEpsilon) break;
    CoverInstance* inst = instanceAt(r);
    if (inst == nullptr) break;  // past the largest finite distance
    greedySizeAt.push_back(kNoGreedy);
    if (inst->universe.none()) {
      acceptCover(*inst, {}, h);
      continue;
    }
    const double capDouble = (bestCost - kCostEpsilon - h) / params.alpha;
    if (capDouble < 1.0) continue;
    const std::size_t lower =
        (inst->universe.count() + inst->maxBall - 1) / inst->maxBall;
    if (lower > static_cast<std::size_t>(capDouble)) continue;
    const SetCoverResult greedy =
        greedySetCover(inst->universe, inst->sets, scratch.coverSolver);
    if (greedy.feasible) {
      greedySizeAt.back() = greedy.chosen.size();
      acceptCover(*inst, greedy.chosen, h);
    }
  }

  // Pass B (exact): per radius, prove optimality or skip radii whose
  // cardinality lower bound already rules them out. bestCost only shrank
  // since pass A, so every instance this pass needs is already built.
  for (Dist r = 0;; ++r) {
    const double h = static_cast<double>(r) + 1.0;
    // Even a zero-purchase strategy at this radius costs h; larger radii
    // only cost more, so stop once h alone can no longer win.
    if (h >= bestCost - kCostEpsilon) break;
    const CoverInstance* inst = instanceAt(r);
    if (inst == nullptr) break;  // past the largest finite distance
    if (inst->universe.none()) continue;  // handled in pass A

    // To strictly beat bestCost at this radius, |S'| must be <= cap.
    const double capDouble = (bestCost - kCostEpsilon - h) / params.alpha;
    if (capDouble < 1.0) continue;  // even one purchase is too expensive
    const auto cap = static_cast<std::size_t>(capDouble);

    // Cardinality lower bound rules out hopeless radii for free.
    const std::size_t lower =
        (inst->universe.count() + inst->maxBall - 1) / inst->maxBall;
    if (lower > cap) continue;

    // Pass A's greedy cover met the lower bound: it is optimal, so no
    // strictly smaller cover (the only kind pass B could accept) exists.
    // bestCost only shrank since pass A, so every radius reaching this
    // point also ran (or deliberately skipped) the pass-A greedy.
    if (static_cast<std::size_t>(r) < greedySizeAt.size() &&
        greedySizeAt[static_cast<std::size_t>(r)] == lower) {
      continue;
    }

    const SetCoverResult cover =
        minSetCover(inst->universe, inst->sets, options.coverNodeBudget, cap,
                    scratch.coverSolver);
    if (!cover.feasible) continue;
    res.exact = res.exact && cover.optimal;
    if (cover.withinCap) acceptCover(*inst, cover.chosen, h);
  }

  if (haveBetter) {
    res.proposedCost = bestCost;
    res.strategyGlobal = toGlobalStrategy(pv, bestStrategy);
    res.improving = true;
  }
  return res;
}

// ---------------------------------------------------------------------------
// SumNCG best response: branch-and-bound over neighbor sets with the
// Proposition 2.2 forbidden-set rule.
// ---------------------------------------------------------------------------

struct SumSearch {
  double alpha = 1.0;
  std::size_t n0 = 0;               // |H₀|
  const std::vector<Dist>* apd = nullptr;
  std::vector<NodeId> candidates;   // H₀ ids, search order
  std::vector<std::vector<Dist>>* suffixMin = nullptr;  // [idx][v]
  std::vector<std::vector<Dist>>* depthDist = nullptr;  // include buffers
  /// Per-include-depth net-gain bound arrays (see sumBestResponse): any
  /// completion that buys j >= 1 of candidates idx..end improves the
  /// distance sum by at most bound[idx] beyond what its α charges, where
  /// `bound` is valid for every node whose minDist is pointwise <= the
  /// distance vector the array was computed against. Each include within
  /// the first kDynamicGainDepth purchases recomputes the array against
  /// its (smaller) distances, which tightens the bound exactly where the
  /// biggest subtrees hang.
  std::vector<std::vector<double>>* depthGainBound = nullptr;
  static constexpr std::size_t kDynamicGainDepth = 6;
  /// Largest admissible distance per node: k−1 for fringe nodes
  /// (Proposition 2.2), kUnreachable−1 otherwise (any finite distance).
  /// Encoding both rules as one cap keeps the bound loops branch-free.
  std::vector<Dist> distCap;
  double bestCost = kInf;
  std::vector<NodeId> bestChosen;   // H₀ ids
  std::uint64_t nodes = 0;
  std::uint64_t budget = 0;
  bool budgetHit = false;

  /// Recomputes the net-gain bound array for suffixes of `idx` against
  /// the distance vector `minDist` into the depth-`level` slot:
  /// bound[j] = max over j' >= 1 of (sum of j' largest gains among
  /// candidates j..end − j'·α), where gain(c) = Σ_v max(0, minDist[v] −
  /// d(c,v)). Admissible for every descendant (distances only shrink).
  const std::vector<double>& refreshGainBound(std::size_t level,
                                              std::size_t idx,
                                              const std::vector<Dist>&
                                                  minDist) {
    std::vector<double>& bound = (*depthGainBound)[level];
    const std::size_t cCount = candidates.size();
    bound.resize(cCount + 1);
    bound[cCount] = 0.0;
    double positiveMass = 0.0;
    double bestSingle = -kInf;
    for (std::size_t j = cCount; j-- > idx;) {
      const std::size_t row =
          static_cast<std::size_t>(candidates[j]) * n0;
      std::int64_t gain = 0;
      for (std::size_t v = 0; v < n0; ++v) {
        const auto improvement =
            static_cast<std::int64_t>(minDist[v]) -
            static_cast<std::int64_t>((*apd)[row + v]);
        if (improvement > 0) gain += improvement;
      }
      const double net = static_cast<double>(gain) - alpha;
      positiveMass += std::max(0.0, net);
      bestSingle = std::max(bestSingle, net);
      bound[j] = positiveMass > 0.0 ? positiveMass : bestSingle;
    }
    return bound;
  }

  /// `sumZero` / `zeroFeasible` carry Σ minDist and its cap-feasibility
  /// down the tree (the include loop computes them for its child as a
  /// byproduct), so leaves evaluate in O(1) and internal nodes scan the
  /// distance arrays exactly once. `gainBound` is the innermost
  /// refreshed bound array valid for this node's minDist.
  void search(std::size_t idx, const std::vector<Dist>& minDist,
              std::vector<NodeId>& chosen, std::int64_t sumZero,
              bool zeroFeasible, const std::vector<double>& gainBound) {
    if (++nodes > budget) {
      budgetHit = true;
      return;
    }
    const double base = alpha * static_cast<double>(chosen.size()) +
                        static_cast<double>(n0);
    const double zeroCost = base + static_cast<double>(sumZero);
    if (idx == candidates.size()) {
      if (!zeroFeasible) return;  // unreachable or fringe-capped node
      if (zeroCost < bestCost - kCostEpsilon) {
        bestCost = zeroCost;
        bestChosen = chosen;
      }
      return;
    }
    // O(1) admissible pre-check: a completion buying j >= 1 candidates
    // pays j·α for at most gainBound[idx] net distance improvement, so
    // it costs at least zeroCost − gainBound[idx]; buying none costs
    // zeroCost. Both bounds need no per-node scan. (Stronger pruning
    // never changes the incumbent sequence — cut subtrees contain no
    // strict improvement — it only reaches budget-limited instances
    // later, where the seed search was already inexact.)
    const double gainsOptimistic = zeroCost - gainBound[idx];
    if ((zeroFeasible ? std::min(zeroCost, gainsOptimistic)
                      : gainsOptimistic) >= bestCost - kCostEpsilon) {
      return;
    }

    // Distance-relaxation bound: buy-at-least-one completions can do no
    // better than the suffix minima. Distances are summed as integers so
    // the loop vectorizes; totals are exact (well below 2^53), so the
    // double compares are unchanged.
    std::int64_t sumStar = 0;   // Σ min(minDist, suffix)
    bool feasiblySolvable = true;
    const std::vector<Dist>& suffix = (*suffixMin)[idx];
    for (std::size_t v = 0; v < n0; ++v) {
      const Dist d = std::min(minDist[v], suffix[v]);
      feasiblySolvable = feasiblySolvable && d <= distCap[v];
      sumStar += d;
    }
    if (!feasiblySolvable) return;
    const double withMore =
        std::max(base + alpha + static_cast<double>(sumStar),
                 gainsOptimistic);
    const double optimistic =
        zeroFeasible ? std::min(zeroCost, withMore) : withMore;
    if (optimistic >= bestCost - kCostEpsilon) {
      return;
    }

    const NodeId c = candidates[idx];
    // Include branch first: with small α the optimum buys many links, so
    // diving on inclusions reaches strong incumbents quickly. The depth-
    // indexed include buffer is safe to reuse: only ancestors' buffers
    // are live while a node runs, and a node writes only its own depth.
    // A candidate that improves no distance is skipped outright: dropping
    // it from any completion keeps every distance and saves α > 0, so no
    // minimum-cost strategy contains it.
    std::vector<Dist>& included = (*depthDist)[idx];
    included.resize(n0);
    const std::size_t row = static_cast<std::size_t>(c) * n0;
    bool improvesAny = false;
    std::int64_t includedSum = 0;
    bool includedFeasible = true;
    for (std::size_t v = 0; v < n0; ++v) {
      const Dist dc = (*apd)[row + v];
      const Dist d = std::min(minDist[v], dc);
      improvesAny = improvesAny || dc < minDist[v];
      includedFeasible = includedFeasible && d <= distCap[v];
      includedSum += d;
      included[v] = d;
    }
    if (improvesAny || alpha <= kCostEpsilon) {  // skip only when α is real
      // The include child's distances shrank, so the net-gain bound can
      // be tightened for its whole subtree; only the first few purchase
      // levels are refreshed (they hang the biggest subtrees, and each
      // refresh costs one row sweep per remaining candidate). The
      // exclude child keeps this node's distances and therefore its
      // bound array.
      const std::size_t level = chosen.size();
      const std::vector<double>& childBound =
          level < kDynamicGainDepth
              ? refreshGainBound(level, idx + 1, included)
              : gainBound;
      chosen.push_back(c);
      search(idx + 1, included, chosen, includedSum, includedFeasible,
             childBound);
      chosen.pop_back();
      if (budgetHit) return;
    }

    search(idx + 1, minDist, chosen, sumZero, zeroFeasible, gainBound);
  }
};

BestResponse sumBestResponse(const PlayerView& pv, const GameParams& params,
                             const BestResponseOptions& options,
                             BestResponseScratch& scratch) {
  BestResponse res;
  res.strategyGlobal = currentGlobalStrategy(pv);
  res.currentCost =
      params.alpha * pv.alphaBought + centerStatusSum(pv);
  res.proposedCost = res.currentCost;

  const NodeId m = pv.view.size();
  if (m <= 1) return res;

  removeCenterInto(pv.view.graph, pv.view.center, scratch.h0);
  const CsrGraph& h0 = scratch.h0;
  const auto n0 = static_cast<std::size_t>(h0.nodeCount());
  allPairsDistances(h0, scratch.bfs, scratch.apd);
  const std::vector<Dist>& apd = scratch.apd;

  SumSearch search;
  search.alpha = params.alpha;
  search.n0 = n0;
  search.apd = &apd;
  search.budget = options.sumNodeBudget == 0 ? 4'000'000
                                             : options.sumNodeBudget;
  search.distCap.assign(n0, kUnreachable - 1);
  for (NodeId f : pv.fringeLocal) {
    search.distCap[static_cast<std::size_t>(f - 1)] = pv.view.radius - 1;
  }

  std::vector<bool> isFree(n0, false);
  for (NodeId f : pv.freeNeighborsLocal) {
    isFree[static_cast<std::size_t>(f - 1)] = true;
  }
  for (std::size_t v = 0; v < n0; ++v) {
    if (!isFree[v]) search.candidates.push_back(static_cast<NodeId>(v));
  }
  // Order candidates by ascending total distance (most central first):
  // good incumbents appear early and sharpen the bound.
  std::vector<std::int64_t> centrality(n0, 0);
  for (std::size_t v = 0; v < n0; ++v) {
    std::int64_t total = 0;
    for (std::size_t w = 0; w < n0; ++w) {
      const Dist d = apd[v * n0 + w];
      total += d == kUnreachable ? static_cast<Dist>(n0) : d;
    }
    centrality[v] = total;
  }
  std::sort(search.candidates.begin(), search.candidates.end(),
            [&centrality](NodeId a, NodeId b) {
              return centrality[static_cast<std::size_t>(a)] <
                     centrality[static_cast<std::size_t>(b)];
            });

  // suffixMin[idx][v] = best distance to v over candidates idx..end.
  const std::size_t cCount = search.candidates.size();
  if (scratch.sumSuffixMin.size() < cCount + 1) {
    scratch.sumSuffixMin.resize(cCount + 1);
  }
  if (scratch.sumDepth.size() < cCount + 1) {
    scratch.sumDepth.resize(cCount + 1);
  }
  scratch.sumSuffixMin[cCount].assign(n0, kUnreachable);
  for (std::size_t idx = cCount; idx-- > 0;) {
    const NodeId c = search.candidates[idx];
    const std::size_t row = static_cast<std::size_t>(c) * n0;
    std::vector<Dist>& suffix = scratch.sumSuffixMin[idx];
    const std::vector<Dist>& below = scratch.sumSuffixMin[idx + 1];
    suffix.resize(n0);
    for (std::size_t v = 0; v < n0; ++v) {
      suffix[v] = std::min(below[v], apd[row + v]);
    }
  }
  search.suffixMin = &scratch.sumSuffixMin;
  search.depthDist = &scratch.sumDepth;

  // Baseline distances: the free neighbors dominate at no cost.
  scratch.sumBaseline.assign(n0, kUnreachable);
  for (NodeId f : pv.freeNeighborsLocal) {
    const std::size_t row = static_cast<std::size_t>(f - 1) * n0;
    for (std::size_t v = 0; v < n0; ++v) {
      scratch.sumBaseline[v] = std::min(scratch.sumBaseline[v], apd[row + v]);
    }
  }

  // Net-gain completion bound (see SumSearch::refreshGainBound): the
  // root array is computed against the free-neighbor baseline; include
  // branches near the root refresh it against their tightened distances.
  if (scratch.sumGainBound.size() < SumSearch::kDynamicGainDepth + 1) {
    scratch.sumGainBound.resize(SumSearch::kDynamicGainDepth + 1);
  }
  search.depthGainBound = &scratch.sumGainBound;
  const std::vector<double>& rootBound = search.refreshGainBound(
      SumSearch::kDynamicGainDepth, 0, scratch.sumBaseline);

  search.bestCost = res.currentCost;  // only strictly better proposals win
  std::vector<NodeId> chosen;
  std::int64_t rootSum = 0;
  bool rootFeasible = true;
  for (std::size_t v = 0; v < n0; ++v) {
    rootSum += scratch.sumBaseline[v];
    rootFeasible = rootFeasible && scratch.sumBaseline[v] <= search.distCap[v];
  }
  search.search(0, scratch.sumBaseline, chosen, rootSum, rootFeasible,
                rootBound);

  res.exact = !search.budgetHit;
  if (search.bestCost < res.currentCost - kCostEpsilon) {
    res.proposedCost = search.bestCost;
    res.strategyGlobal = toGlobalStrategy(pv, search.bestChosen);
    res.improving = true;
  }
  return res;
}

}  // namespace

BestResponse bestResponse(const PlayerView& pv, const GameParams& params,
                          const BestResponseOptions& options) {
  BestResponseScratch scratch;
  return bestResponse(pv, params, options, scratch);
}

BestResponse bestResponse(const PlayerView& pv, const GameParams& params,
                          const BestResponseOptions& options,
                          BestResponseScratch& scratch) {
  NCG_REQUIRE(params.alpha > 0.0, "α must be positive, got " << params.alpha);
  return params.kind == GameKind::kMax
             ? maxBestResponse(pv, params, options, scratch, scratch.cover)
             : sumBestResponse(pv, params, options, scratch);
}

BestResponse bestResponse(const PlayerView& pv, const GameParams& params,
                          const BestResponseOptions& options,
                          BestResponseScratch& scratch,
                          CoverInstanceCache& cover,
                          std::uint64_t /*revision*/) {
  NCG_REQUIRE(params.alpha > 0.0, "α must be positive, got " << params.alpha);
  return params.kind == GameKind::kMax
             ? maxBestResponse(pv, params, options, scratch, cover)
             : sumBestResponse(pv, params, options, scratch);
}

}  // namespace ncg
