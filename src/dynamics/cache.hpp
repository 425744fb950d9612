// Incremental state for best-response dynamics.
//
// The naive dynamics loop rebuilds every player's k-view (and, after each
// accepted move, the whole network) from scratch. This cache exploits the
// locality of the game instead: a move by player u only changes edges
// incident to u, so the k-view of a player w can differ from its cached
// copy only if w lies within distance <= k of u in the pre- or the
// post-move network — any shortest path of length <= k that gains or
// loses a changed edge passes through u within the first k hops. Views of
// all other players are provably byte-identical, so they are neither
// re-extracted nor re-solved ("settled" players), which makes quiet
// rounds near-free. The cache keeps views and settled flags only: a best
// response depends on nothing but the solving player's view, and a
// settled player is skipped rather than re-solved, so no solver state is
// kept per player (every solve starts from the view, reusing only the
// shared BestResponseScratch buffers).
//
// The cache is an optimization layer only: runBestResponseDynamics with
// EngineMode::kIncremental produces exactly the move sequence of
// EngineMode::kReference (the retained naive path), and the differential
// test suite (`ctest -L differential`) holds it to that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/best_response.hpp"
#include "core/player_view.hpp"
#include "core/strategy.hpp"
#include "graph/bfs.hpp"
#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace ncg {

/// Memoized per-player views with distance-<=k dirty tracking.
/// Not thread-safe; one cache per dynamics run.
class DynamicsCache {
 public:
  /// Cache for `players` players at view radius `k`.
  DynamicsCache(NodeId players, Dist k);

  /// The view of u for the current state. `g` and `profile` must be the
  /// state every prior applyMove() call produced; the cached copy is
  /// returned when still valid, otherwise it is rebuilt in place.
  /// The reference stays valid until the next applyMove().
  const PlayerView& viewOf(const Graph& g, const StrategyProfile& profile,
                           NodeId u);

  /// True when u's cached view is valid and recorded non-improving: the
  /// solve can be skipped because an identical view yields an identical
  /// (non-improving) best response.
  bool isSettled(NodeId u) const {
    const auto slot = static_cast<std::size_t>(u);
    return valid_[slot] && settled_[slot];
  }

  /// Records that u's current (valid) view admits no improving move.
  void markSettled(NodeId u) { settled_[static_cast<std::size_t>(u)] = true; }

  /// Applies u's accepted strategy change in place: edits only the edges
  /// that actually differ (respecting double-bought links) instead of
  /// rebuilding G(σ), and invalidates every cached view within distance
  /// <= k of u in the pre- or post-move network. `newStrategy` must be
  /// sorted (bestResponse/greedyMove proposals are). The flat CSR mirror
  /// of G is patched in place for exactly the rows the move touched.
  void applyMove(Graph& g, StrategyProfile& profile, NodeId u,
                 const std::vector<NodeId>& newStrategy);

  /// Applies the arrival of player u (churn): u must currently be an
  /// isolated node with an empty strategy and no inbound purchases; it
  /// joins by buying `strategy` (sorted). Dirty-tracking-wise an arrival
  /// IS a move — the pre-move ball around an isolated node is {u}, and
  /// the post-move ball covers everyone who can now see the new edges.
  void applyArrival(Graph& g, StrategyProfile& profile, NodeId u,
                    const std::vector<NodeId>& strategy);

  /// Applies the departure of player u (churn): every incident edge is
  /// severed — u's own purchases and any other player's link to u, whose
  /// buyers get u stripped from their strategies — leaving u isolated
  /// with an empty strategy. Unlike a move this rewrites several
  /// players' strategies at once, but every changed edge is still
  /// incident to u, so the pre-departure distance-<= k ball around u
  /// covers every view that can change (removals only grow distances).
  /// u's own cached view is invalidated too.
  void applyDeparture(Graph& g, StrategyProfile& profile, NodeId u);

  /// Stubs for perfbench/ncg_trace.cpp, which changes only together with
  /// the benchmark and still calls them (with the six-argument
  /// bestResponse stub): no per-player cover storage exists, so
  /// coverCacheFor always returns nullptr, and viewRevision returns 0.
  /// Delete them once that file calls the four-argument bestResponse.
  CoverInstanceCache* coverCacheFor(NodeId, NodeId, std::uint64_t) {
    return nullptr;
  }
  std::uint64_t viewRevision(NodeId) const { return 0; }

  /// View rebuilds performed so far (diagnostics for benches/tests).
  std::size_t rebuilds() const { return rebuilds_; }

 private:
  void invalidateBall(NodeId u);
  void syncMirror(const Graph& g);

  Dist k_ = 1;
  std::vector<PlayerView> views_;
  std::vector<bool> valid_;
  std::vector<bool> settled_;
  CsrGraph mirror_;     ///< flat CSR copy of G, patched per applyMove
  bool mirrorValid_ = false;
  std::vector<NodeId> patchRows_;
  // Canonicalization scratch (applyMove): (insertion event, neighbor)
  // pairs and the resulting order, reused across moves.
  std::vector<std::pair<std::pair<NodeId, NodeId>, NodeId>> sortKeyed_;
  std::vector<NodeId> sortOrder_;
  BfsEngine engine_;
  std::size_t rebuilds_ = 0;
};

}  // namespace ncg
