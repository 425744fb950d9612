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
  const bool incremental = config.engine == EngineMode::kIncremental;
  BfsEngine engine;
  BestResponseScratch scratch;
  DynamicsCache cache(incremental ? n : 0, config.params.k);
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
  const auto playerParams = [&](NodeId u) -> const GameParams& {
    return hetero ? perPlayerParams[static_cast<std::size_t>(u)]
                  : config.params;
  };

  const auto bestResponseSolve = [&](const PlayerView& pv, NodeId u) {
    return bestResponse(pv, playerParams(u), config.br, scratch);
  };
  // Noisy rule: one seeded softmax draw over the improving single-edge
  // moves; quiet enumerations advance nothing, and a quiet player is
  // then held to the exact best response so convergence still certifies
  // an LKE. The draw sequence is engine-invariant: a draw happens
  // exactly when the improving set is non-empty, and such players are
  // never settled-skipped by either engine.
  const auto noisySolve = [&](const PlayerView& pv, NodeId u) {
    BestResponse br = noisyGreedyMove(pv, playerParams(u),
                                      config.temperature, noiseRng, scratch);
    if (br.improving) return br;
    return bestResponseSolve(pv, u);
  };

  // Cycle detection is only sound when the round map profile -> next
  // profile is a function: any deterministic schedule qualifies
  // (round-robin, adversarial, simultaneous application in id order),
  // random permutations and the noisy rule's softmax draws do not.
  const bool deterministicRounds =
      config.schedule != Schedule::kRandomPermutation &&
      config.moveRule != MoveRule::kNoisy;
  const bool detectCycles = config.detectCycles && deterministicRounds;
  std::unordered_map<std::uint64_t, std::vector<StrategyProfile>> seen;
  if (detectCycles) {
    seen[result.profile.hash()].push_back(result.profile);
  }

  // Reference-mode best-response memoization: a player whose view
  // fingerprint is unchanged since her last non-improving check cannot
  // have gained an improving move (moves depend only on the view), so the
  // expensive solve is skipped. The incremental engine reaches the same
  // conclusion for free from the cache's dirty tracking — an untouched
  // cached view IS an unchanged view — without hashing anything.
  std::vector<std::uint64_t> settledFingerprint(
      static_cast<std::size_t>(n), 0);
  std::vector<bool> hasSettled(static_cast<std::size_t>(n), false);

  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), NodeId{0});

  const auto solve = [&](const PlayerView& pv, NodeId u) {
    if (config.moveRule == MoveRule::kBestResponse) {
      return bestResponseSolve(pv, u);
    }
    if (config.moveRule == MoveRule::kGreedy) {
      return greedyMove(pv, playerParams(u), scratch);
    }
    return noisySolve(pv, u);
  };
  const auto referenceSolve = [&](const PlayerView& pv, NodeId u) {
    if (config.moveRule == MoveRule::kBestResponse) {
      return bestResponse(pv, playerParams(u), config.br);
    }
    if (config.moveRule == MoveRule::kGreedy) {
      return greedyMove(pv, playerParams(u));
    }
    BestResponse br = noisyGreedyMove(pv, playerParams(u),
                                      config.temperature, noiseRng, scratch);
    if (br.improving) return br;
    return bestResponse(pv, playerParams(u), config.br);
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

  // One sequential activation of player u: solve against the current
  // state, apply on strict improvement. Returns whether a move happened.
  const auto activate = [&](int round, NodeId u) -> bool {
    if (incremental) {
      if (config.useBestResponseCache && cache.isSettled(u)) {
        return false;  // view untouched since a non-improving check
      }
      const BestResponse br =
          solve(cache.viewOf(result.graph, result.profile, u), u);
      result.exact = result.exact && br.exact;
      if (br.improving) {
        recordMove(round, u, br);
        cache.applyMove(result.graph, result.profile, u, br.strategyGlobal);
        ++result.totalMoves;
        return true;
      }
      if (config.useBestResponseCache) cache.markSettled(u);
      return false;
    }

    // Reference path: re-extract the view and rebuild the network from
    // scratch, exactly as the seed implementation did.
    const PlayerView pv = buildPlayerView(result.graph, result.profile, u,
                                          config.params.k, engine);
    const auto slot = static_cast<std::size_t>(u);
    std::uint64_t fingerprint = 0;
    if (config.useBestResponseCache) {
      fingerprint = viewFingerprint(pv);
      if (hasSettled[slot] && settledFingerprint[slot] == fingerprint) {
        return false;  // unchanged situation, known non-improving
      }
    }
    const BestResponse br = referenceSolve(pv, u);
    result.exact = result.exact && br.exact;
    if (br.improving) {
      recordMove(round, u, br);
      result.profile.setStrategy(u, br.strategyGlobal);
      result.graph = result.profile.buildGraph();
      ++result.totalMoves;
      hasSettled[slot] = false;
      return true;
    }
    if (config.useBestResponseCache) {
      hasSettled[slot] = true;
      settledFingerprint[slot] = fingerprint;
    }
    return false;
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
      // (no state mutates until every solve is done, so cached and
      // re-extracted views alike see the snapshot).
      struct Proposal {
        NodeId player;
        BestResponse br;
      };
      std::vector<Proposal> proposals;
      for (NodeId u = 0; u < n; ++u) {
        if (incremental) {
          if (config.useBestResponseCache && cache.isSettled(u)) continue;
          BestResponse br =
              solve(cache.viewOf(result.graph, result.profile, u), u);
          result.exact = result.exact && br.exact;
          if (br.improving) {
            proposals.push_back({u, std::move(br)});
          } else if (config.useBestResponseCache) {
            cache.markSettled(u);
          }
          continue;
        }
        const PlayerView pv = buildPlayerView(
            result.graph, result.profile, u, config.params.k, engine);
        const auto slot = static_cast<std::size_t>(u);
        std::uint64_t fingerprint = 0;
        if (config.useBestResponseCache) {
          fingerprint = viewFingerprint(pv);
          if (hasSettled[slot] && settledFingerprint[slot] == fingerprint) {
            continue;
          }
        }
        BestResponse br = referenceSolve(pv, u);
        result.exact = result.exact && br.exact;
        if (br.improving) {
          proposals.push_back({u, std::move(br)});
        } else if (config.useBestResponseCache) {
          hasSettled[slot] = true;
          settledFingerprint[slot] = fingerprint;
        }
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
        if (incremental) {
          cache.applyMove(result.graph, result.profile, p.player,
                          p.br.strategyGlobal);
          if (!isConnected(result.graph)) {
            cache.applyMove(result.graph, result.profile, p.player,
                            oldStrategy);
            continue;
          }
        } else {
          result.profile.setStrategy(p.player, p.br.strategyGlobal);
          result.graph = result.profile.buildGraph();
          if (!isConnected(result.graph)) {
            result.profile.setStrategy(p.player, oldStrategy);
            result.graph = result.profile.buildGraph();
            continue;
          }
          hasSettled[static_cast<std::size_t>(p.player)] = false;
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
