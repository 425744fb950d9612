// Round-robin best-response dynamics, exactly as run by the paper's
// experiments (§5.1):
//
//   "The players play in turns, following a round-robin policy […] we
//    compute a best-response strategy according to her local knowledge of
//    the network, and whenever this strategy is strictly better than the
//    current one we update the network. […] We continue this process until
//    we attain an equilibrium […] we check if the last strategy profile of
//    the current round already appeared as the last strategy profile of
//    any previous round. In this case […] the best-response dynamics
//    admits a cycle."
//
// Each turn depends only on the mover's radius-k view: player u solves
// her view under params.forPlayer(u) with the configured MoveRule and
// moves when the response strictly improves her in-view cost. The loop
// runs on DynamicsCache, which skips a player whose view is unchanged
// since a non-improving solve; the differential suite checks every
// trajectory against a naive loop written from the rules stated in this
// header, which rebuilds G(σ) and the view from the profile at every
// turn.
//
// Round structure:
//  * A sequential round activates every player once in the schedule's
//    order and applies each improving move at once; it converges when
//    nobody moved.
//  * A simultaneous round (RoundMode::kSimultaneous) converges when
//    nobody proposes a move.
//  * Cycles are checked only when rounds are deterministic (neither
//    kRandomPermutation nor kNoisy): the profile after a round that did
//    not converge is compared with the initial profile and with the
//    profile after every earlier round, and a repeat ends the run with
//    kCycleDetected.
//  * Otherwise the run stops after maxRounds rounds with kRoundLimit.
#pragma once

#include <vector>

#include "core/best_response.hpp"
#include "core/game.hpp"
#include "core/strategy.hpp"
#include "dynamics/features.hpp"

namespace ncg {

/// How a dynamics run ended.
enum class DynamicsOutcome {
  kConverged,      ///< a full round produced no move: the profile is an LKE
  kCycleDetected,  ///< end-of-round profile repeated: best-response cycle
  kRoundLimit,     ///< maxRounds elapsed without either of the above
};

/// What a player computes when it is her turn.
enum class MoveRule {
  kBestResponse,  ///< exact best response (the paper's protocol)
  kGreedy,        ///< best single-edge move: buy/delete/swap one edge
                  ///< (the Lenzner-style restricted variant; ablation)
  kNoisy,         ///< temperature-style noisy best response: a seeded
                  ///< softmax draw over the improving single-edge moves
                  ///< (noisyGreedyMove, which draws from the noise stream
                  ///< only when some move improves); when none improves,
                  ///< the exact best response is consulted, so a
                  ///< converged run is still a certified LKE
};

/// Player activation order within a round.
enum class Schedule {
  kRoundRobin,         ///< 0..n−1 every round (the paper's protocol)
  kRandomPermutation,  ///< a fresh uniform order each round: the
                       ///< previous round's order (initially 0..n−1) is
                       ///< reshuffled in place by Fisher–Yates from the
                       ///< back, swapping slot i−1 with slot
                       ///< scheduleRng.nextBounded(i) for i = n..2
  kAdversarial,        ///< always wake the worst-off player next: each
                       ///< activation picks the not-yet-woken player with
                       ///< the highest current cost C_u(σ) in G(σ)
                       ///< (playerCost; ties → lowest id),
                       ///< re-evaluated after every accepted move (costs
                       ///< change only with the profile, so recomputing
                       ///< them before every pick gives the same order).
                       ///< Deterministic, so cycle detection stays sound.
};

/// How a round applies the players' computed responses.
enum class RoundMode {
  kSequential,    ///< one player moves at a time (the paper's protocol)
  kSimultaneous,  ///< every player best-responds against the same
                  ///< round-start snapshot; improving proposals are then
                  ///< applied in ascending player id, and a proposal
                  ///< whose application would disconnect G(σ) is reverted
                  ///< (the deterministic conflict rule). Converging means
                  ///< no player improves on the snapshot — an LKE.
};

/// One accepted strategy change, in activation order (recorded when
/// DynamicsConfig::collectMoves is set; the differential suite compares
/// these with the naive loop's).
struct MoveRecord {
  int round = 0;
  NodeId player = -1;
  std::vector<NodeId> strategy;  ///< the new σ_u (sorted global ids)
  double costBefore = 0.0;       ///< in-view cost of the replaced strategy
  double costAfter = 0.0;        ///< in-view cost of the accepted one

  friend bool operator==(const MoveRecord&, const MoveRecord&) = default;
};

/// Configuration of a dynamics run.
struct DynamicsConfig {
  GameParams params;
  int maxRounds = 1000;
  bool collectTrace = false;  ///< record NetworkFeatures after every round
  MoveRule moveRule = MoveRule::kBestResponse;
  Schedule schedule = Schedule::kRoundRobin;
  std::uint64_t scheduleSeed = 0;  ///< for kRandomPermutation
  RoundMode roundMode = RoundMode::kSequential;
  double temperature = 0.5;       ///< softmax temperature for kNoisy
  std::uint64_t noiseSeed = 0;    ///< seeds kNoisy's softmax draws
  bool collectMoves = false;  ///< record every accepted move in `moves`
  /// Skip re-solving players whose view is provably unchanged since
  /// their last non-improving solve (sound: DynamicsCache's settled
  /// flags). Off, every player is solved at every turn.
  bool useBestResponseCache = true;
};

/// Result of a dynamics run.
struct DynamicsResult {
  DynamicsOutcome outcome = DynamicsOutcome::kConverged;
  int rounds = 0;              ///< rounds played (converged: incl. final
                               ///< all-quiet round)
  std::size_t totalMoves = 0;  ///< strategy changes applied
  bool exact = true;           ///< every best response proven optimal
  StrategyProfile profile;     ///< final profile
  Graph graph;                 ///< final network G(σ)
  std::vector<NetworkFeatures> trace;  ///< per-round features if enabled
  std::vector<MoveRecord> moves;       ///< accepted moves if enabled
};

/// Runs the dynamics from `initial` (whose graph must be connected, per
/// the model's assumption that players start on a connected network).
DynamicsResult runBestResponseDynamics(const StrategyProfile& initial,
                                       const DynamicsConfig& config);

}  // namespace ncg
