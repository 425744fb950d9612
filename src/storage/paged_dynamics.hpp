// Backend-agnostic greedy round-robin dynamics for out-of-core graphs.
//
// The large-scale scenario family wakes a fixed window of players for a
// few greedy (single-edge) rounds on networks far bigger than the
// in-RAM pipeline handles. The loop is a template over a *backend*
// providing the three capabilities the engine needs:
//
//   graph()     — adjacency satisfying buildView's surface
//   strategy()  — profile concept (playerCount/boughtCount/strategyOf)
//   applyStrategy(u, σ'_u) — commit a move
//
// Two backends are supplied: ArenaDynamicsBackend (PagedGraph over an
// mmap arena; moves written back as row patches) and RamDynamicsBackend
// (Graph + StrategyProfile). Both keep every neighbor row sorted
// ascending — the arena's canonical order — after every mutation, so
// BFS visit order, views, greedy evaluations and therefore whole
// trajectories are bit-identical across backends. That equivalence is
// the differential wall of the out-of-core subsystem.
#pragma once

#include <cstdint>
#include <vector>

#include "core/best_response.hpp"
#include "core/game.hpp"
#include "core/player_view.hpp"
#include "core/restricted_moves.hpp"
#include "core/strategy.hpp"
#include "dynamics/round_robin.hpp"
#include "graph/graph.hpp"
#include "storage/paged_graph.hpp"

namespace ncg {

/// Configuration of one paged-dynamics run.
struct PagedDynamicsConfig {
  GameParams params;
  /// Players woken each round, in wake order (fixed across rounds).
  std::vector<NodeId> active;
  int maxRounds = 3;
};

struct PagedDynamicsResult {
  DynamicsOutcome outcome = DynamicsOutcome::kRoundLimit;
  int rounds = 0;
  std::int64_t totalMoves = 0;
  /// Σ over the active window of each player's current cost as
  /// evaluated in the last executed round (== the converged costs when
  /// outcome is kConverged). Deterministic for identical trajectories.
  double activeCostSum = 0.0;
};

/// Arena-backed side: PagedGraph + the ownership plane as the profile.
class ArenaDynamicsBackend {
 public:
  ArenaDynamicsBackend(CsrArena& arena, std::uint64_t byteBudget)
      : paged_(arena, byteBudget), strategy_(paged_) {}

  const PagedGraph& graph() const { return paged_; }
  const ArenaStrategyView& strategy() const { return strategy_; }
  PagedGraph& paged() { return paged_; }

  void applyStrategy(NodeId u, const std::vector<NodeId>& newSigma);

 private:
  PagedGraph paged_;
  ArenaStrategyView strategy_;
  // Row-rebuild scratch (steady-state allocation-free).
  std::vector<NodeId> oldSigma_, removed_, added_, rowIds_;
  std::vector<std::uint8_t> rowOwned_;
};

/// In-RAM twin: same canonical sorted-row discipline on a Graph.
class RamDynamicsBackend {
 public:
  RamDynamicsBackend(Graph graph, StrategyProfile profile)
      : graph_(std::move(graph)), profile_(std::move(profile)) {}

  const Graph& graph() const { return graph_; }
  const StrategyProfile& strategy() const { return profile_; }

  void applyStrategy(NodeId u, const std::vector<NodeId>& newSigma);

 private:
  Graph graph_;
  StrategyProfile profile_;
  std::vector<NodeId> removed_, added_, touched_;
};

/// Round-robin greedy dynamics over the active window. Converges when a
/// full round produces no improving move.
template <typename Backend>
PagedDynamicsResult runPagedGreedyDynamics(Backend& backend,
                                           const PagedDynamicsConfig& config) {
  BfsEngine engine;
  BestResponseScratch scratch;
  PlayerView pv;
  PagedDynamicsResult result;

  for (int round = 1; round <= config.maxRounds; ++round) {
    bool improvedAny = false;
    double costSum = 0.0;
    for (NodeId u : config.active) {
      buildPlayerView(backend.graph(), backend.strategy(), u,
                      config.params.k, engine, pv);
      const BestResponse move =
          greedyMove(pv, config.params.forPlayer(u), scratch);
      costSum += move.currentCost;
      if (move.improving) {
        backend.applyStrategy(u, move.strategyGlobal);
        improvedAny = true;
        ++result.totalMoves;
      }
    }
    result.rounds = round;
    result.activeCostSum = costSum;
    if (!improvedAny) {
      result.outcome = DynamicsOutcome::kConverged;
      return result;
    }
  }
  result.outcome = DynamicsOutcome::kRoundLimit;
  return result;
}

}  // namespace ncg
