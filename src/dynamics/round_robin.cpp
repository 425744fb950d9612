#include "dynamics/round_robin.hpp"

#include <cstdint>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "core/cost.hpp"
#include "core/player_view.hpp"
#include "core/restricted_moves.hpp"
#include "dynamics/cache.hpp"
#include "graph/metrics.hpp"
#include "support/error.hpp"
#include "support/random.hpp"

namespace ncg {

DynamicsResult runBestResponseDynamics(const StrategyProfile& initial,
                                       const DynamicsConfig& config) {
  NCG_REQUIRE(config.maxRounds >= 1, "need at least one round");
  NCG_REQUIRE(config.params.k >= 1, "view radius must be >= 1");
  NCG_REQUIRE(config.roundMode == RoundMode::kSequential ||
                  config.schedule == Schedule::kRoundRobin,
              "simultaneous rounds activate everyone against the same "
              "snapshot; the fixed id order is the only schedule");

  DynamicsResult result;
  result.profile = initial;
  result.graph = initial.buildGraph();
  NCG_REQUIRE(isConnected(result.graph),
              "the model assumes players start on a connected network");

  const NodeId n = result.profile.playerCount();
  BestResponseScratch scratch;
  DynamicsCache cache(n, config.params.k);
  Rng scheduleRng(config.scheduleSeed);
  Rng noiseRng(config.noiseSeed);

  // Heterogeneous pricing: the solvers only ever price the solving
  // player's own edges, so each player solves under a scalar-α view of
  // the params (GameParams::forPlayer). The homogeneous path hands
  // `config.params` through untouched — bit-identical to before.
  const bool hetero = config.params.heterogeneous();
  std::vector<GameParams> perPlayerParams;
  if (hetero) {
    NCG_REQUIRE(config.params.playerAlpha.size() ==
                    static_cast<std::size_t>(n),
                "playerAlpha must have one entry per player");
    perPlayerParams.reserve(static_cast<std::size_t>(n));
    for (NodeId u = 0; u < n; ++u) {
      NCG_REQUIRE(config.params.alphaOf(u) > 0.0,
                  "player α must be positive");
      perPlayerParams.push_back(config.params.forPlayer(u));
    }
  }

  // Noisy rule: one seeded softmax draw over the improving single-edge
  // moves; quiet enumerations advance nothing, and a quiet player is
  // then held to the exact best response so convergence still certifies
  // an LKE. A settled player would draw nothing, so skipping her turn
  // leaves the draw sequence unchanged.
  const BestResponseOptions options;
  const auto solve = [&](const PlayerView& pv) {
    const GameParams& params =
        hetero ? perPlayerParams[static_cast<std::size_t>(pv.globalPlayer)]
               : config.params;
    if (config.moveRule == MoveRule::kGreedy) {
      return greedyMove(pv, params, scratch);
    }
    if (config.moveRule == MoveRule::kNoisy) {
      BestResponse br = noisyGreedyMove(pv, params, config.temperature,
                                        noiseRng, scratch);
      if (br.improving) return br;
    }
    return bestResponse(pv, params, options, scratch);
  };
  const auto turn = [&](NodeId u) {
    BestResponse br = cache.solveTurn(result.graph, result.profile, u,
                                      config.useBestResponseCache, solve);
    result.exact = result.exact && br.exact;
    return br;
  };

  // Cycle detection is only sound when the round map profile -> next
  // profile is a function: any deterministic schedule qualifies
  // (round-robin, adversarial, simultaneous application in id order),
  // random permutations and the noisy rule's softmax draws do not.
  const bool detectCycles =
      config.schedule != Schedule::kRandomPermutation &&
      config.moveRule != MoveRule::kNoisy;
  std::unordered_map<std::uint64_t, std::vector<StrategyProfile>> seen;
  if (detectCycles) {
    seen[result.profile.hash()].push_back(result.profile);
  }

  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), NodeId{0});

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

  // One sequential activation of player u: solve against the current
  // state, apply on strict improvement. Returns whether a move happened.
  const auto activate = [&](int round, NodeId u) -> bool {
    const BestResponse br = turn(u);
    if (!br.improving) return false;
    recordMove(round, u, br);
    cache.applyMove(result.graph, result.profile, u, br.strategyGlobal);
    ++result.totalMoves;
    return true;
  };

  // Adversarial bookkeeping: current player costs, recomputed only for
  // the not-yet-woken players after an accepted move.
  std::vector<double> advCost;
  std::vector<bool> woken;
  const auto refreshAdvCosts = [&] {
    for (NodeId u = 0; u < n; ++u) {
      if (!woken[static_cast<std::size_t>(u)]) {
        advCost[static_cast<std::size_t>(u)] =
            playerCost(config.params, result.profile, result.graph, u);
      }
    }
  };

  for (int round = 1; round <= config.maxRounds; ++round) {
    bool moved = false;

    if (config.roundMode == RoundMode::kSimultaneous) {
      // Phase 1: everyone best-responds against the round-start snapshot
      // (no state mutates until every solve is done).
      struct Proposal {
        NodeId player;
        BestResponse br;
      };
      std::vector<Proposal> proposals;
      for (NodeId u = 0; u < n; ++u) {
        BestResponse br = turn(u);
        if (br.improving) proposals.push_back({u, std::move(br)});
      }
      if (proposals.empty()) {
        // Nobody improves on the snapshot: it is an equilibrium of the
        // configured rule.
        result.rounds = round;
        if (config.collectTrace) {
          result.trace.push_back(computeFeatures(result.graph,
                                                 result.profile,
                                                 config.params));
        }
        result.outcome = DynamicsOutcome::kConverged;
        return result;
      }
      // Phase 2: apply in ascending player id (proposals are already in
      // id order). The deterministic conflict rule: an application that
      // disconnects the played network is reverted — those players keep
      // their old strategy this round.
      for (Proposal& p : proposals) {
        const std::vector<NodeId> oldStrategy =
            result.profile.strategyOf(p.player);
        cache.applyMove(result.graph, result.profile, p.player,
                        p.br.strategyGlobal);
        if (!isConnected(result.graph)) {
          cache.applyMove(result.graph, result.profile, p.player,
                          oldStrategy);
          continue;
        }
        recordMove(round, p.player, p.br);
        moved = true;
        ++result.totalMoves;
      }
    } else if (config.schedule == Schedule::kAdversarial) {
      // Always wake the worst-off player: each activation picks the
      // not-yet-woken player with the highest current cost (ties →
      // lowest id), re-evaluated after every accepted move.
      advCost.assign(static_cast<std::size_t>(n), 0.0);
      woken.assign(static_cast<std::size_t>(n), false);
      refreshAdvCosts();
      for (NodeId step = 0; step < n; ++step) {
        NodeId next = -1;
        double worst = -std::numeric_limits<double>::infinity();
        for (NodeId u = 0; u < n; ++u) {
          const auto slot = static_cast<std::size_t>(u);
          if (!woken[slot] && advCost[slot] > worst) {
            worst = advCost[slot];
            next = u;
          }
        }
        woken[static_cast<std::size_t>(next)] = true;
        if (activate(round, next)) {
          moved = true;
          refreshAdvCosts();
        }
      }
    } else {
      if (config.schedule == Schedule::kRandomPermutation) {
        for (std::size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1], order[scheduleRng.nextBounded(i)]);
        }
      }
      for (NodeId u : order) {
        if (activate(round, u)) moved = true;
      }
    }

    result.rounds = round;
    if (config.collectTrace) {
      result.trace.push_back(
          computeFeatures(result.graph, result.profile, config.params));
    }
    if (!moved && config.roundMode == RoundMode::kSequential) {
      result.outcome = DynamicsOutcome::kConverged;
      return result;
    }
    if (detectCycles) {
      auto& bucket = seen[result.profile.hash()];
      for (const StrategyProfile& previous : bucket) {
        if (previous == result.profile) {
          result.outcome = DynamicsOutcome::kCycleDetected;
          return result;
        }
      }
      bucket.push_back(result.profile);
    }
  }
  result.outcome = DynamicsOutcome::kRoundLimit;
  return result;
}

}  // namespace ncg
