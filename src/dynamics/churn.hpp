// Best-response dynamics under player churn: players arrive and depart
// mid-run while the survivors keep best-responding.
//
// The game model has a fixed vertex set, so churn runs on a fixed
// capacity of node slots: departed players become isolated nodes with
// empty strategies (invisible to everyone — an isolated node is in no
// other player's k-view and no solver ever proposes an edge to a node
// outside the view), and arrivals re-occupy the lowest free slot —
// deterministic node-id reuse, pinned by the seed-replay regression
// tests. The active subgraph is kept connected by construction:
// departures are only drawn from players whose removal leaves the
// remaining active players connected, and arrivals buy their first edge
// into the active component.
//
// The rules, which the differential suite's naive loop follows:
//  * A round activates the active players in ascending id, each playing
//    the exact best response of her k-view and moving at once when it
//    strictly improves (the sequential turn of runBestResponseDynamics).
//  * The churn phase plays rounds 1..churnRounds; after every round r
//    with r % churnPeriod == 0 one churn event happens, stamped round r.
//    The settle phase then plays up to settleRounds more rounds and
//    converges at the first round in which nobody moved.
//  * An event tosses one coin, churnRng.nextDouble() <
//    departureProbability for a departure. An infeasible event is
//    dropped after that coin: a departure with at most minActive active
//    players, an arrival with no free slot.
//  * A departure draws start = churnRng.nextBounded(m) over the m active
//    players in id order and removes the first of active[(start + i) % m],
//    i = 0..m−1, whose removal keeps the other active players connected.
//  * An arrival takes the lowest free slot and buys min(arrivalEdges, m)
//    endpoints, drawn by a partial Fisher–Yates over the active list in
//    id order: for j = 0, 1, …, swap slot j with slot
//    j + churnRng.nextBounded(m − j), and buy the first entries.
//
// Cache correctness: churn events go through DynamicsCache::
// applyArrival / applyDeparture, which extend the distance-<= k dirty
// tracking to node insertion/removal; the cache holds no per-player
// view or solver state, so a recycled slot starts from a freshly built
// view.
#pragma once

#include <cstdint>
#include <vector>

#include "dynamics/round_robin.hpp"

namespace ncg {

/// One churn event, in occurrence order.
struct ChurnEvent {
  int round = 0;
  bool arrival = false;          ///< true: joined; false: departed
  NodeId player = -1;            ///< the slot that changed hands
  std::vector<NodeId> strategy;  ///< purchases made on arrival (empty
                                 ///< for departures)

  friend bool operator==(const ChurnEvent&, const ChurnEvent&) = default;
};

/// Configuration of a churn run.
struct ChurnConfig {
  GameParams params;
  bool collectMoves = false;  ///< record every accepted move in `moves`
  int churnRounds = 12;   ///< rounds of the churn phase
  int churnPeriod = 3;    ///< every churnPeriod-th round ends in an event
  int settleRounds = 40;  ///< post-churn rounds to reach an equilibrium
  double departureProbability = 0.5;  ///< event coin: depart vs arrive
  NodeId arrivalEdges = 2;  ///< edges a newcomer buys (capped to active)
  NodeId minActive = 4;     ///< never depart below this population
  std::uint64_t churnSeed = 0;  ///< seeds every churn decision
};

/// Result of a churn run. `outcome` describes the settle phase:
/// kConverged means the final active population reached an LKE.
struct ChurnResult {
  DynamicsOutcome outcome = DynamicsOutcome::kRoundLimit;
  int rounds = 0;              ///< total rounds played (both phases)
  std::size_t totalMoves = 0;  ///< strategy changes by active players
  bool exact = true;
  StrategyProfile profile;  ///< final profile over all capacity slots
  Graph graph;              ///< final network (departed slots isolated)
  std::vector<bool> active;
  std::vector<ChurnEvent> events;
  std::vector<MoveRecord> moves;  ///< if collectMoves
};

/// Runs churn dynamics from `initial` (connected; everyone starts
/// active). The capacity is initial.playerCount() — arrivals beyond the
/// current population reuse departed slots and are skipped when none is
/// free (the event is simply dropped for that round, deterministically).
ChurnResult runChurnDynamics(const StrategyProfile& initial,
                             const ChurnConfig& config);

/// The active sub-network relabeled to 0..m-1 (ascending original id),
/// for features / equilibrium checks over the surviving population.
struct CompactState {
  Graph graph;
  StrategyProfile profile;
  std::vector<NodeId> toOriginal;  ///< compact id -> original slot
};
CompactState compactActive(const Graph& g, const StrategyProfile& profile,
                           const std::vector<bool>& active);

}  // namespace ncg
