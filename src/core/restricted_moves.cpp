#include "core/restricted_moves.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "graph/bfs.hpp"
#include "graph/power.hpp"
#include "graph/view.hpp"
#include "support/error.hpp"

namespace ncg {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The single definition of the center's usage cost, as a fold over a
/// per-target distance functor (both the reference path's BFS result
/// and the oracle path's per-candidate min-compositions go through
/// here, so the two cannot diverge). Returns +inf when some view node
/// is unreachable or (SumNCG) a fringe node is pushed beyond distance k
/// (Proposition 2.2).
template <typename DistAt>
double usageFold(std::size_t m0, const GameParams& params,
                 const std::vector<bool>& isFringe, DistAt&& distAt) {
  if (params.kind == GameKind::kMax) {
    Dist ecc = 0;
    for (std::size_t x = 0; x < m0; ++x) {
      const Dist d = distAt(x);
      if (d == kUnreachable) return kInf;
      ecc = std::max(ecc, d);
    }
    return static_cast<double>(ecc) + 1.0;
  }
  std::int64_t sum = 0;
  for (std::size_t x = 0; x < m0; ++x) {
    const Dist d = distAt(x);
    if (d == kUnreachable) return kInf;
    if (isFringe[x] && d > params.k - 1) return kInf;  // Prop. 2.2
    sum += d;
  }
  return static_cast<double>(sum) + static_cast<double>(m0);
}

/// Usage of the center with neighbor set `sources` (local ids in the
/// center-less view graph h0, shifted by -1): the center reaches v via
/// its cheapest neighbor, so usage derives from a multi-source BFS
/// (reference path).
double usageOf(const CsrGraph& h0, std::span<const NodeId> sources,
               const GameParams& params,
               const std::vector<bool>& isFringe, BfsEngine& engine) {
  if (h0.nodeCount() == 0) return 0.0;
  if (sources.empty()) return kInf;
  const std::vector<Dist>& dist = engine.runMulti(h0, sources);
  return usageFold(dist.size(), params, isFringe,
                   [&dist](std::size_t x) { return dist[x]; });
}

/// Shared enumeration state: the current strategy in H₀ ids, its BFS
/// source set free ∪ (own \ free), and the membership masks. Both the
/// oracle path and the reference path fill it from the scratch buffers.
struct MoveSetup {
  NodeId m0 = 0;  // |H₀|
  std::vector<bool>* isFringe = nullptr;
  std::vector<bool>* isFree = nullptr;
  std::vector<bool>* isOwn = nullptr;
  std::vector<NodeId>* currentOwn = nullptr;
  std::vector<NodeId>* currentSources = nullptr;
};

MoveSetup prepareSetup(const PlayerView& pv, BestResponseScratch& scratch) {
  MoveSetup setup;
  setup.m0 = pv.view.size() - 1;
  const auto count = static_cast<std::size_t>(setup.m0);

  scratch.moveFringe.assign(count, false);
  for (NodeId f : pv.fringeLocal) {
    scratch.moveFringe[static_cast<std::size_t>(f - 1)] = true;
  }
  scratch.moveFree.assign(count, false);
  for (NodeId f : pv.freeNeighborsLocal) {
    scratch.moveFree[static_cast<std::size_t>(f - 1)] = true;
  }
  scratch.moveOwn.assign(count, false);
  for (NodeId o : pv.ownBoughtLocal) {
    scratch.moveOwn[static_cast<std::size_t>(o - 1)] = true;
  }

  scratch.moveOwnList.clear();
  for (NodeId o : pv.ownBoughtLocal) scratch.moveOwnList.push_back(o - 1);
  scratch.moveSources.clear();
  for (NodeId f : pv.freeNeighborsLocal) {
    scratch.moveSources.push_back(f - 1);
  }
  for (NodeId o : scratch.moveOwnList) {
    if (!scratch.moveFree[static_cast<std::size_t>(o)]) {
      scratch.moveSources.push_back(o);
    }
  }

  setup.isFringe = &scratch.moveFringe;
  setup.isFree = &scratch.moveFree;
  setup.isOwn = &scratch.moveOwn;
  setup.currentOwn = &scratch.moveOwnList;
  setup.currentSources = &scratch.moveSources;
  return setup;
}

/// Fills the result's current strategy/cost preamble and handles the
/// degenerate single-node view. Returns true when the caller can return
/// immediately.
bool prepareResult(const PlayerView& pv, const GameParams& params,
                   BestResponse& res) {
  NCG_REQUIRE(params.alpha > 0.0, "α must be positive");
  NCG_REQUIRE(pv.view.center == 0, "view center must have local id 0");
  for (NodeId v : pv.ownBoughtLocal) {
    res.strategyGlobal.push_back(
        pv.view.toGlobal[static_cast<std::size_t>(v)]);
  }
  std::sort(res.strategyGlobal.begin(), res.strategyGlobal.end());
  if (pv.view.size() <= 1) {
    res.currentCost = params.alpha * pv.alphaBought;
    res.proposedCost = res.currentCost;
    return true;
  }
  return false;
}

void finalizeResult(const PlayerView& pv, double bestCost,
                    const std::vector<NodeId>& bestOwn, BestResponse& res) {
  if (bestCost < res.currentCost - kCostEpsilon) {
    res.improving = true;
    res.proposedCost = bestCost;
    res.strategyGlobal.clear();
    for (NodeId o : bestOwn) {
      res.strategyGlobal.push_back(
          pv.view.toGlobal[static_cast<std::size_t>(o + 1)]);
    }
    std::sort(res.strategyGlobal.begin(), res.strategyGlobal.end());
  }
}

/// Views past this size skip the oracle (its |H₀|² distance matrix
/// would dominate memory) and fall back to the per-candidate-BFS
/// enumeration, which is O(|H₀| + edges) in memory and produces
/// bit-identical results. 4096² Dist entries ≈ 64 MB transient.
constexpr NodeId kOracleMaxViewNodes = 4096;

BestResponse greedyMoveOracle(const PlayerView& pv, const GameParams& params,
                              BestResponseScratch& scratch) {
  BestResponse res;
  if (prepareResult(pv, params, res)) return res;
  const MoveSetup setup = prepareSetup(pv, scratch);
  const auto m0 = static_cast<std::size_t>(setup.m0);
  const std::vector<NodeId>& currentOwn = *setup.currentOwn;
  const std::vector<NodeId>& currentSources = *setup.currentSources;
  const std::vector<bool>& isFringe = *setup.isFringe;
  const std::vector<bool>& isFree = *setup.isFree;
  const std::vector<bool>& isOwn = *setup.isOwn;

  // The oracle: the all-sources distance matrix of H₀.
  removeCenterInto(pv.view.graph, pv.view.center, scratch.h0);
  allPairsDistances(scratch.h0, scratch.bfs, scratch.apd);
  const Dist* apd = scratch.apd.data();
  const auto rowOf = [&](NodeId v) { return apd + static_cast<std::size_t>(v) * m0; };

  // Per-target best and second-best distances over the current source
  // set, with the attaining source: delete candidates repair exactly the
  // targets whose argmin was dropped.
  std::vector<Dist>& best = scratch.moveBest;
  std::vector<Dist>& second = scratch.moveSecond;
  std::vector<NodeId>& argBest = scratch.moveArgBest;
  best.assign(m0, kUnreachable);
  second.assign(m0, kUnreachable);
  argBest.assign(m0, NodeId{-1});
  for (NodeId s : currentSources) {
    const Dist* row = rowOf(s);
    for (std::size_t x = 0; x < m0; ++x) {
      const Dist d = row[x];
      if (d < best[x]) {
        second[x] = best[x];
        best[x] = d;
        argBest[x] = s;
      } else if (d < second[x]) {
        second[x] = d;
      }
    }
  }

  // Every candidate folds its per-target distances through the shared
  // usage definition (usageFold), so oracle costs are bit-identical to
  // the reference path's.
  const auto usageOver = [&](auto&& distAt) -> double {
    return usageFold(m0, params, isFringe,
                     std::forward<decltype(distAt)>(distAt));
  };

  res.currentCost =
      params.alpha * static_cast<double>(currentOwn.size()) +
      (currentSources.empty() ? kInf
                              : usageOver([&](std::size_t x) {
                                  return best[x];
                                }));
  res.proposedCost = res.currentCost;

  double bestCost = res.currentCost;
  std::vector<NodeId>& bestOwn = scratch.moveBestOwn;
  bestOwn = currentOwn;

  // Buy one new edge (to any view node not already adjacent-for-free or
  // already bought): min-fold the candidate's distance row over best[].
  for (NodeId v = 0; v < setup.m0; ++v) {
    if (isOwn[static_cast<std::size_t>(v)] ||
        isFree[static_cast<std::size_t>(v)]) {
      continue;
    }
    const Dist* row = rowOf(v);
    const double cost =
        params.alpha * static_cast<double>(currentOwn.size() + 1) +
        usageOver([&](std::size_t x) { return std::min(best[x], row[x]); });
    if (cost < bestCost - kCostEpsilon) {
      bestCost = cost;
      bestOwn = currentOwn;
      bestOwn.push_back(v);
    }
  }
  // Delete one owned edge (a free link stays a BFS source when dropped).
  // Deletes are all evaluated before any swap — among equal-cost
  // improvements the first evaluated wins, so the move order is part of
  // the semantics.
  for (std::size_t i = 0; i < currentOwn.size(); ++i) {
    const NodeId dropped = currentOwn[i];
    const bool sourceDropped = !isFree[static_cast<std::size_t>(dropped)];
    const double cost =
        params.alpha * static_cast<double>(currentOwn.size() - 1) +
        usageOver([&](std::size_t x) {
          return sourceDropped && argBest[x] == dropped ? second[x]
                                                        : best[x];
        });
    if (cost < bestCost - kCostEpsilon) {
      bestCost = cost;
      bestOwn = currentOwn;
      bestOwn.erase(bestOwn.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  // Swap: delete one owned, buy one elsewhere. The dropped-source
  // distance vector is materialized once per i and composed with every
  // buy row in the inner loop.
  std::vector<Dist>& droppedDist = scratch.moveDropped;
  for (std::size_t i = 0; i < currentOwn.size(); ++i) {
    const NodeId dropped = currentOwn[i];
    const bool sourceDropped = !isFree[static_cast<std::size_t>(dropped)];
    droppedDist.resize(m0);
    for (std::size_t x = 0; x < m0; ++x) {
      droppedDist[x] =
          sourceDropped && argBest[x] == dropped ? second[x] : best[x];
    }
    for (NodeId v = 0; v < setup.m0; ++v) {
      if (v == dropped || isOwn[static_cast<std::size_t>(v)] ||
          isFree[static_cast<std::size_t>(v)]) {
        continue;
      }
      const Dist* row = rowOf(v);
      const double cost =
          params.alpha * static_cast<double>(currentOwn.size()) +
          usageOver([&](std::size_t x) {
            return std::min(droppedDist[x], row[x]);
          });
      if (cost < bestCost - kCostEpsilon) {
        bestCost = cost;
        bestOwn = currentOwn;
        bestOwn[i] = v;
      }
    }
  }

  finalizeResult(pv, bestCost, bestOwn, res);
  return res;
}

}  // namespace

BestResponse greedyMove(const PlayerView& pv, const GameParams& params) {
  BestResponseScratch scratch;
  return greedyMove(pv, params, scratch);
}

BestResponse greedyMove(const PlayerView& pv, const GameParams& params,
                        BestResponseScratch& scratch) {
  if (pv.view.size() - 1 > kOracleMaxViewNodes) {
    return greedyMoveReference(pv, params, scratch);  // O(m)-memory path
  }
  return greedyMoveOracle(pv, params, scratch);
}

BestResponse greedyMoveReference(const PlayerView& pv,
                                 const GameParams& params) {
  BestResponseScratch scratch;
  return greedyMoveReference(pv, params, scratch);
}

BestResponse greedyMoveReference(const PlayerView& pv,
                                 const GameParams& params,
                                 BestResponseScratch& scratch) {
  BestResponse res;
  if (prepareResult(pv, params, res)) return res;
  const MoveSetup setup = prepareSetup(pv, scratch);
  const std::vector<NodeId>& currentOwn = *setup.currentOwn;
  const std::vector<NodeId>& currentSources = *setup.currentSources;
  const std::vector<bool>& isFringe = *setup.isFringe;
  const std::vector<bool>& isFree = *setup.isFree;
  const std::vector<bool>& isOwn = *setup.isOwn;

  // H₀ = view minus center, ids shifted by -1, rebuilt into the
  // reusable scratch slot.
  removeCenterInto(pv.view.graph, pv.view.center, scratch.h0);
  const CsrGraph& h0 = scratch.h0;
  BfsEngine& engine = scratch.bfs;

  res.currentCost =
      params.alpha * static_cast<double>(currentOwn.size()) +
      usageOf(h0, currentSources, params, isFringe, engine);
  res.proposedCost = res.currentCost;

  double bestCost = res.currentCost;
  std::vector<NodeId> bestOwn = currentOwn;

  std::vector<NodeId> sources;
  // Evaluates the current source set with `ownCount` purchases; on strict
  // improvement, records the own-list produced by `makeOwn`.
  const auto consider = [&](std::size_t ownCount, const auto& makeOwn) {
    const double cost = params.alpha * static_cast<double>(ownCount) +
                        usageOf(h0, sources, params, isFringe, engine);
    if (cost < bestCost - kCostEpsilon) {
      bestCost = cost;
      bestOwn = makeOwn();
    }
  };

  // Buy one new edge: push/pop the candidate on the shared source list.
  sources = currentSources;
  for (NodeId v = 0; v < setup.m0; ++v) {
    if (isOwn[static_cast<std::size_t>(v)] ||
        isFree[static_cast<std::size_t>(v)]) {
      continue;
    }
    sources.push_back(v);
    consider(currentOwn.size() + 1, [&] {
      std::vector<NodeId> own = currentOwn;
      own.push_back(v);
      return own;
    });
    sources.pop_back();
  }
  // Delete one owned edge.
  for (std::size_t i = 0; i < currentOwn.size(); ++i) {
    const NodeId dropped = currentOwn[i];
    sources = currentSources;
    if (!isFree[static_cast<std::size_t>(dropped)]) {
      sources.erase(std::find(sources.begin(), sources.end(), dropped));
    }
    consider(currentOwn.size() - 1, [&] {
      std::vector<NodeId> own = currentOwn;
      own.erase(own.begin() + static_cast<std::ptrdiff_t>(i));
      return own;
    });
  }
  // Swap: delete one owned, buy one elsewhere.
  for (std::size_t i = 0; i < currentOwn.size(); ++i) {
    const NodeId dropped = currentOwn[i];
    sources = currentSources;
    if (!isFree[static_cast<std::size_t>(dropped)]) {
      sources.erase(std::find(sources.begin(), sources.end(), dropped));
    }
    for (NodeId v = 0; v < setup.m0; ++v) {
      if (v == dropped || isOwn[static_cast<std::size_t>(v)] ||
          isFree[static_cast<std::size_t>(v)]) {
        continue;
      }
      sources.push_back(v);
      consider(currentOwn.size(), [&] {
        std::vector<NodeId> own = currentOwn;
        own[i] = v;
        return own;
      });
      sources.pop_back();
    }
  }

  finalizeResult(pv, bestCost, bestOwn, res);
  return res;
}

BestResponse noisyGreedyMove(const PlayerView& pv, const GameParams& params,
                             double temperature, Rng& rng,
                             BestResponseScratch& scratch) {
  NCG_REQUIRE(temperature > 0.0, "temperature must be positive");
  BestResponse res;
  if (prepareResult(pv, params, res)) return res;
  const MoveSetup setup = prepareSetup(pv, scratch);
  const std::vector<NodeId>& currentOwn = *setup.currentOwn;
  const std::vector<NodeId>& currentSources = *setup.currentSources;
  const std::vector<bool>& isFringe = *setup.isFringe;
  const std::vector<bool>& isFree = *setup.isFree;
  const std::vector<bool>& isOwn = *setup.isOwn;

  removeCenterInto(pv.view.graph, pv.view.center, scratch.h0);
  const CsrGraph& h0 = scratch.h0;
  BfsEngine& engine = scratch.bfs;

  res.currentCost =
      params.alpha * static_cast<double>(currentOwn.size()) +
      usageOf(h0, currentSources, params, isFringe, engine);
  res.proposedCost = res.currentCost;

  // Every strictly improving candidate, in the canonical buy → delete →
  // swap enumeration order (the same order greedyMove resolves ties in).
  struct Candidate {
    double cost;
    std::vector<NodeId> own;
  };
  std::vector<Candidate> improving;
  std::vector<NodeId> sources;
  const auto consider = [&](std::size_t ownCount, const auto& makeOwn) {
    const double cost = params.alpha * static_cast<double>(ownCount) +
                        usageOf(h0, sources, params, isFringe, engine);
    if (cost < res.currentCost - kCostEpsilon) {
      improving.push_back({cost, makeOwn()});
    }
  };

  sources = currentSources;
  for (NodeId v = 0; v < setup.m0; ++v) {
    if (isOwn[static_cast<std::size_t>(v)] ||
        isFree[static_cast<std::size_t>(v)]) {
      continue;
    }
    sources.push_back(v);
    consider(currentOwn.size() + 1, [&] {
      std::vector<NodeId> own = currentOwn;
      own.push_back(v);
      return own;
    });
    sources.pop_back();
  }
  for (std::size_t i = 0; i < currentOwn.size(); ++i) {
    const NodeId dropped = currentOwn[i];
    sources = currentSources;
    if (!isFree[static_cast<std::size_t>(dropped)]) {
      sources.erase(std::find(sources.begin(), sources.end(), dropped));
    }
    consider(currentOwn.size() - 1, [&] {
      std::vector<NodeId> own = currentOwn;
      own.erase(own.begin() + static_cast<std::ptrdiff_t>(i));
      return own;
    });
  }
  for (std::size_t i = 0; i < currentOwn.size(); ++i) {
    const NodeId dropped = currentOwn[i];
    sources = currentSources;
    if (!isFree[static_cast<std::size_t>(dropped)]) {
      sources.erase(std::find(sources.begin(), sources.end(), dropped));
    }
    for (NodeId v = 0; v < setup.m0; ++v) {
      if (v == dropped || isOwn[static_cast<std::size_t>(v)] ||
          isFree[static_cast<std::size_t>(v)]) {
        continue;
      }
      sources.push_back(v);
      consider(currentOwn.size(), [&] {
        std::vector<NodeId> own = currentOwn;
        own[i] = v;
        return own;
      });
      sources.pop_back();
    }
  }

  if (improving.empty()) return res;

  // Softmax over improvement depth, anchored at the best candidate so
  // weights stay in (0, 1] regardless of the cost scale.
  double minCost = improving.front().cost;
  for (const Candidate& c : improving) minCost = std::min(minCost, c.cost);
  double total = 0.0;
  std::vector<double> weight;
  weight.reserve(improving.size());
  for (const Candidate& c : improving) {
    const double w = std::exp((minCost - c.cost) / temperature);
    weight.push_back(w);
    total += w;
  }
  const double target = rng.nextDouble() * total;
  std::size_t chosen = 0;
  double acc = 0.0;
  for (std::size_t i = 0; i < improving.size(); ++i) {
    acc += weight[i];
    if (target < acc) {
      chosen = i;
      break;
    }
    chosen = i;  // fp-slack fallback: the last candidate absorbs the tail
  }

  finalizeResult(pv, improving[chosen].cost, improving[chosen].own, res);
  return res;
}

}  // namespace ncg
