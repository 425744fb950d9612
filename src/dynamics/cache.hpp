// Incremental state for best-response dynamics.
//
// A move by player u only changes edges incident to u, so the k-view of a
// player w can change only if w lies within distance <= k of u in the
// pre- or the post-move network — any shortest path of length <= k that
// gains or loses a changed edge passes through u within the first k hops.
// The cache exploits that locality: a player whose last solve was
// non-improving is "settled", and every move clears the settled flag of
// each player in both balls. A settled player's view is therefore
// byte-identical to the one its verdict was computed on, so its turn is
// skipped outright, which makes quiet rounds near-free. Nothing else is
// kept per player: a best response depends on nothing but the solving
// player's view, so viewOf rebuilds the view into one reused buffer and
// every solve starts from it, reusing only the shared BestResponseScratch
// buffers.
//
// The cache is an optimization layer only: the differential suite
// (`ctest -L differential`) holds the dynamics loops built on it to a
// naive loop that rebuilds G(σ) and every view from the profile at every
// turn.
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

/// Settled flags with distance-<=k dirty tracking, plus a CSR mirror of
/// G that views are extracted from. Not thread-safe; one cache per
/// dynamics run.
class DynamicsCache {
 public:
  /// Cache for `players` players at view radius `k`.
  DynamicsCache(NodeId players, Dist k);

  /// The view of u for the current state, rebuilt into one reused buffer
  /// by a BFS over the CSR mirror. `g` and `profile` must be the state
  /// every prior applyMove() call produced. The reference stays valid
  /// until the next viewOf() or applyMove().
  const PlayerView& viewOf(const Graph& g, const StrategyProfile& profile,
                           NodeId u);

  /// True when u's last solve was non-improving and no change since has
  /// come within distance k of u: the view is the one that verdict was
  /// computed on, so the solve can be skipped.
  bool isSettled(NodeId u) const {
    return settled_[static_cast<std::size_t>(u)];
  }

  /// Records that u's current view admits no improving move.
  void markSettled(NodeId u) { settled_[static_cast<std::size_t>(u)] = true; }

  /// One player turn. A settled u is skipped and gets a default (not
  /// improving, exact) response. Otherwise `solve` runs on u's view, and
  /// when its response does not improve and `settle` is set, u is marked
  /// settled. The caller applies an improving response.
  template <typename Solve>
  BestResponse solveTurn(const Graph& g, const StrategyProfile& profile,
                         NodeId u, bool settle, Solve&& solve) {
    if (isSettled(u)) return {};
    BestResponse br = solve(viewOf(g, profile, u));
    if (settle && !br.improving) markSettled(u);
    return br;
  }

  /// Applies u's accepted strategy change in place: edits only the edges
  /// that actually differ (respecting double-bought links) instead of
  /// rebuilding G(σ), and clears the settled flag of every player within
  /// distance <= k of u in the pre- or post-move network. `newStrategy`
  /// must be sorted (bestResponse/greedyMove proposals are). The flat CSR
  /// mirror of G is patched in place for exactly the rows the move
  /// touched.
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
  /// incident to u, so the pre-departure distance-<= k ball around u,
  /// u included, covers every view that can change (removals only grow
  /// distances).
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

  /// View rebuilds performed so far, one per viewOf() call (diagnostics
  /// for benches/tests).
  std::size_t rebuilds() const { return rebuilds_; }

 private:
  void invalidateBall(NodeId u);
  void syncMirror(const Graph& g);

  Dist k_ = 1;
  std::vector<bool> settled_;
  PlayerView view_;     ///< the buffer viewOf rebuilds into
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
