// Restricted ("greedy") deviations, after the move-limited NCG variants
// the paper surveys (Alon et al.'s basic network creation games, Lenzner's
// greedy selfish network creation): instead of an arbitrary strategy
// reset, a player may only
//   * buy ONE new edge,
//   * delete ONE owned edge, or
//   * swap ONE owned edge for a new one,
// evaluated — like everything in this library — on her local view with
// the worst-case semantics of Propositions 2.1/2.2.
//
// Greedy moves are polynomial (no dominating-set solve), so they scale to
// much larger views; the ablation bench measures what that buys and what
// equilibrium quality it costs.
//
// Candidate evaluation runs on a per-view distance oracle (one batched
// all-sources BFS over H₀, then per-target best / second-best source
// distances): a buy folds min(best[x], d_v[x]) in O(|H₀|), a delete
// repairs only targets whose nearest source was the dropped one via the
// second-best entry, and a swap composes the two. Every candidate is one
// linear scan instead of a multi-source BFS, with move selection
// bit-identical to the per-candidate-BFS reference (greedyMoveReference),
// which the differential suite pins. The oracle's |H₀|² distance matrix
// is only materialized for views up to a few thousand nodes; larger
// views automatically take the O(|H₀|)-memory per-candidate-BFS route,
// so the greedy rule keeps scaling to view sizes the exact solver never
// could.
#pragma once

#include "core/best_response.hpp"
#include "core/game.hpp"
#include "core/player_view.hpp"
#include "support/random.hpp"

namespace ncg {

/// The best single-edge deviation (buy one / delete one / swap one).
/// The result mirrors bestResponse(): strategyGlobal is the full new
/// strategy, improving is set iff the best move strictly lowers the
/// player's in-view cost. Always exact (the move space is enumerated).
BestResponse greedyMove(const PlayerView& pv, const GameParams& params);

/// As above, reusing caller-owned scratch buffers (dynamics hot path).
/// Produces bit-identical results to the allocating overload.
BestResponse greedyMove(const PlayerView& pv, const GameParams& params,
                        BestResponseScratch& scratch);

/// Reference implementation: enumerates the same candidates but evaluates
/// each with a fresh multi-source BFS over H₀ (the pre-oracle semantics).
/// Kept as the differential-testing oracle for greedyMove; not used on
/// any hot path.
BestResponse greedyMoveReference(const PlayerView& pv,
                                 const GameParams& params);

/// As above with reusable scratch.
BestResponse greedyMoveReference(const PlayerView& pv,
                                 const GameParams& params,
                                 BestResponseScratch& scratch);

/// Temperature-style noisy best response over the single-edge move space:
/// enumerates the same buy/delete/swap candidates as greedyMove, collects
/// every strictly improving one, and softmax-selects among them with
/// weight exp(-(cost_i - cost_min)/temperature) using exactly one
/// `rng.nextDouble()` draw. temperature → 0 degrades to the greedy argmin
/// (first-evaluated winner on ties); larger temperatures spread
/// probability toward weaker improvements. When no candidate improves the
/// result is non-improving and the rng is NOT advanced — callers can rely
/// on "one draw per accepted enumeration" for cross-engine determinism.
BestResponse noisyGreedyMove(const PlayerView& pv, const GameParams& params,
                             double temperature, Rng& rng,
                             BestResponseScratch& scratch);

}  // namespace ncg
