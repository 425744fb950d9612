#include "dynamics/churn.hpp"

#include <algorithm>

#include "dynamics/cache.hpp"
#include "graph/metrics.hpp"
#include "support/error.hpp"
#include "support/random.hpp"

namespace ncg {

namespace {

/// True when the active players minus u are still one connected
/// component: BFS from any other active player avoiding u. Inactive
/// slots are isolated, so plain adjacency never leads into them.
bool removalKeepsConnected(const Graph& g, const std::vector<bool>& active,
                           NodeId capacity, NodeId activeCount, NodeId u,
                           std::vector<NodeId>& stack,
                           std::vector<bool>& seen) {
  NodeId source = -1;
  for (NodeId v = 0; v < capacity; ++v) {
    if (v != u && active[static_cast<std::size_t>(v)]) {
      source = v;
      break;
    }
  }
  if (source < 0) return true;  // nobody left to disconnect
  seen.assign(static_cast<std::size_t>(capacity), false);
  seen[static_cast<std::size_t>(u)] = true;  // removed
  seen[static_cast<std::size_t>(source)] = true;
  stack.clear();
  stack.push_back(source);
  NodeId reached = 1;
  while (!stack.empty()) {
    const NodeId x = stack.back();
    stack.pop_back();
    for (const NodeId y : g.neighborsUnchecked(x)) {
      if (!seen[static_cast<std::size_t>(y)]) {
        seen[static_cast<std::size_t>(y)] = true;
        stack.push_back(y);
        ++reached;
      }
    }
  }
  return reached == activeCount - 1;
}

}  // namespace

ChurnResult runChurnDynamics(const StrategyProfile& initial,
                             const ChurnConfig& config) {
  NCG_REQUIRE(config.params.k >= 1, "view radius must be >= 1");
  NCG_REQUIRE(config.churnRounds >= 1 && config.settleRounds >= 1,
              "need at least one round in each phase");
  NCG_REQUIRE(config.churnPeriod >= 1, "churn period must be >= 1");
  NCG_REQUIRE(config.minActive >= 2, "keep at least two active players");
  NCG_REQUIRE(config.arrivalEdges >= 1, "an arrival buys at least one edge");
  NCG_REQUIRE(!config.params.heterogeneous(),
              "churn runs the homogeneous game (slots change hands)");

  ChurnResult result;
  result.profile = initial;
  result.graph = initial.buildGraph();
  NCG_REQUIRE(isConnected(result.graph),
              "the model assumes players start on a connected network");

  const NodeId capacity = result.profile.playerCount();
  result.active.assign(static_cast<std::size_t>(capacity), true);
  NodeId activeCount = capacity;

  BestResponseScratch scratch;
  DynamicsCache cache(capacity, config.params.k);
  Rng churnRng(config.churnSeed);
  const BestResponseOptions options;
  const auto solve = [&](const PlayerView& pv) {
    return bestResponse(pv, config.params, options, scratch);
  };

  const auto recordMove = [&](int round, NodeId u, const BestResponse& br) {
    if (!config.collectMoves) return;
    MoveRecord record;
    record.round = round;
    record.player = u;
    record.strategy = br.strategyGlobal;
    record.costBefore = br.currentCost;
    record.costAfter = br.proposedCost;
    result.moves.push_back(std::move(record));
  };

  // One activation of active player u — the sequential turn of
  // runBestResponseDynamics restricted to the live population.
  const auto activate = [&](int round, NodeId u) -> bool {
    const BestResponse br = cache.solveTurn(result.graph, result.profile, u,
                                            /*settle=*/true, solve);
    result.exact = result.exact && br.exact;
    if (!br.improving) return false;
    recordMove(round, u, br);
    cache.applyMove(result.graph, result.profile, u, br.strategyGlobal);
    ++result.totalMoves;
    return true;
  };

  const auto roundPass = [&](int round) -> bool {
    bool moved = false;
    for (NodeId u = 0; u < capacity; ++u) {
      if (result.active[static_cast<std::size_t>(u)] && activate(round, u)) {
        moved = true;
      }
    }
    return moved;
  };

  std::vector<NodeId> actives;
  std::vector<NodeId> bfsStack;
  std::vector<bool> bfsSeen;

  const auto depart = [&](int round, NodeId u) {
    cache.applyDeparture(result.graph, result.profile, u);
    result.active[static_cast<std::size_t>(u)] = false;
    --activeCount;
    result.events.push_back({round, false, u, {}});
  };

  const auto arrive = [&](int round, NodeId slot,
                          std::vector<NodeId> strategy) {
    std::sort(strategy.begin(), strategy.end());
    cache.applyArrival(result.graph, result.profile, slot, strategy);
    result.active[static_cast<std::size_t>(slot)] = true;
    ++activeCount;
    result.events.push_back({round, true, slot, std::move(strategy)});
  };

  // One seeded churn decision. The coin is always tossed (a fixed-shape
  // rng stream per event), infeasible events are dropped: a departure
  // at the population floor, an arrival with no free slot.
  const auto churnEvent = [&](int round) {
    const bool wantDeparture =
        churnRng.nextDouble() < config.departureProbability;
    if (wantDeparture) {
      if (activeCount <= config.minActive) return;
      actives.clear();
      for (NodeId u = 0; u < capacity; ++u) {
        if (result.active[static_cast<std::size_t>(u)]) {
          actives.push_back(u);
        }
      }
      // Seeded start, then the first player whose removal keeps the
      // survivors connected (a connected graph always has one).
      const auto start = static_cast<std::size_t>(
          churnRng.nextBounded(actives.size()));
      for (std::size_t i = 0; i < actives.size(); ++i) {
        const NodeId u = actives[(start + i) % actives.size()];
        if (removalKeepsConnected(result.graph, result.active, capacity,
                                  activeCount, u, bfsStack, bfsSeen)) {
          depart(round, u);
          return;
        }
      }
      return;
    }
    NodeId slot = -1;
    for (NodeId u = 0; u < capacity; ++u) {
      if (!result.active[static_cast<std::size_t>(u)]) {
        slot = u;  // lowest free slot: deterministic node-id reuse
        break;
      }
    }
    if (slot < 0) return;
    actives.clear();
    for (NodeId u = 0; u < capacity; ++u) {
      if (result.active[static_cast<std::size_t>(u)]) actives.push_back(u);
    }
    const auto edges = static_cast<std::size_t>(
        std::min(config.arrivalEdges, activeCount));
    for (std::size_t j = 0; j < edges; ++j) {  // partial Fisher–Yates
      const std::size_t pick =
          j + static_cast<std::size_t>(churnRng.nextBounded(
                  actives.size() - j));
      std::swap(actives[j], actives[pick]);
    }
    arrive(round, slot,
           std::vector<NodeId>(actives.begin(),
                               actives.begin() +
                                   static_cast<std::ptrdiff_t>(edges)));
  };

  int round = 0;
  for (int r = 1; r <= config.churnRounds; ++r) {
    round = r;
    (void)roundPass(round);
    if (r % config.churnPeriod == 0) churnEvent(round);
  }
  for (int r = 1; r <= config.settleRounds; ++r) {
    ++round;
    if (!roundPass(round)) {
      result.outcome = DynamicsOutcome::kConverged;
      break;
    }
  }
  result.rounds = round;
  return result;
}

CompactState compactActive(const Graph& g, const StrategyProfile& profile,
                           const std::vector<bool>& active) {
  NCG_REQUIRE(g.nodeCount() == profile.playerCount() &&
                  active.size() == static_cast<std::size_t>(g.nodeCount()),
              "graph/profile/active size mismatch");
  CompactState out;
  std::vector<NodeId> toCompact(active.size(), -1);
  for (NodeId u = 0; u < g.nodeCount(); ++u) {
    if (active[static_cast<std::size_t>(u)]) {
      toCompact[static_cast<std::size_t>(u)] =
          static_cast<NodeId>(out.toOriginal.size());
      out.toOriginal.push_back(u);
    }
  }
  std::vector<std::vector<NodeId>> bought(out.toOriginal.size());
  for (std::size_t i = 0; i < out.toOriginal.size(); ++i) {
    for (const NodeId v : profile.strategyOf(out.toOriginal[i])) {
      NCG_REQUIRE(active[static_cast<std::size_t>(v)],
                  "active player buys toward a departed slot");
      bought[i].push_back(toCompact[static_cast<std::size_t>(v)]);
    }
  }
  out.profile = StrategyProfile::fromBoughtLists(bought);
  out.graph = out.profile.buildGraph();
  return out;
}

}  // namespace ncg
