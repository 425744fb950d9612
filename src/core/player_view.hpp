// Per-player view assembly: everything a player knows when she moves.
//
// A player u with view radius k sees the subgraph induced by her k-ball
// (LocalView), knows which of her incident edges she pays for (σ_u) and
// which exist regardless of her strategy (edges bought *toward* her by
// neighbors — "free" edges she cannot remove), and — for SumNCG — which
// visible nodes sit exactly on her horizon (distance exactly k), whose
// distance she must not increase (Proposition 2.2).
#pragma once

#include <algorithm>
#include <vector>

#include "core/game.hpp"
#include "core/strategy.hpp"
#include "graph/bfs.hpp"
#include "graph/view.hpp"

namespace ncg {

/// Everything the best-response computation needs about one player.
struct PlayerView {
  LocalView view;          ///< induced k-ball; center has local id 0
  NodeId globalPlayer = -1;
  double alphaBought = 0;  ///< |σ_u| (number of edges u currently pays for)

  /// Local ids of σ_u's endpoints (all within the view by model
  /// definition — strategies are subsets of the k-neighborhood).
  std::vector<NodeId> ownBoughtLocal;

  /// Local ids of neighbors v with u ∈ σ_v: these links exist no matter
  /// what u plays (link severance is unilateral per owner).
  std::vector<NodeId> freeNeighborsLocal;

  /// Local ids of nodes at distance exactly k from u (the set F of
  /// Proposition 2.2); empty when the whole ball is strictly inside.
  std::vector<NodeId> fringeLocal;

  /// Eccentricity of the center inside the view (<= k).
  Dist eccInView = 0;
};

/// Assembles u's view of the game state into `out`, reusing all of its
/// member vectors (the dynamics hot path: zero allocations in steady
/// state), with a caller-owned BFS engine. G must be the profile's graph.
///
/// Runs on any adjacency backend buildView accepts (`nodeCount()` + ADL
/// `neighborRow`) and any profile-like source of strategy state:
/// `playerCount()`, `boughtCount(u)` and `strategyOf(u)` returning an
/// ascending-sorted range of bought endpoints. StrategyProfile satisfies
/// the concept as-is; the paged out-of-core backend pairs PagedGraph with
/// a strategy reader over the arena's ownership plane.
///
/// Pager safety: after the view is extracted, the free-neighbor scan
/// walks the *view graph's* center row (a resident RAM copy of u's
/// neighbors) rather than the backend row, so interleaved strategyOf
/// faults can never invalidate the row being iterated. The scan order
/// differs from the backend row only up to permutation, and
/// freeNeighborsLocal is sorted afterwards, so results are identical.
template <typename AnyGraph, typename AnyProfile>
void buildPlayerView(const AnyGraph& g, const AnyProfile& profile, NodeId u,
                     Dist k, BfsEngine& engine, PlayerView& out) {
  NCG_REQUIRE(g.nodeCount() == profile.playerCount(),
              "graph/profile size mismatch");
  NCG_REQUIRE(k >= 1, "view radius k must be >= 1, got " << k);

  out.globalPlayer = u;
  out.eccInView = 0;
  out.ownBoughtLocal.clear();
  out.freeNeighborsLocal.clear();
  out.fringeLocal.clear();
  buildView(g, u, k, engine, out.view);

  // Distances from the center inside the induced ball coincide with
  // distances in G (shortest paths to nodes at distance <= k stay inside
  // the ball), so the fringe and the in-view eccentricity come straight
  // from the extraction BFS's distances (LocalView::centerDist) — no
  // second BFS over the view graph.
  for (NodeId v = 0; v < out.view.graph.nodeCount(); ++v) {
    const Dist d = out.view.centerDist[static_cast<std::size_t>(v)];
    NCG_ASSERT(d != kUnreachable, "view must be connected to its center");
    out.eccInView = std::max(out.eccInView, d);
    if (d == k) out.fringeLocal.push_back(v);
  }

  out.alphaBought = static_cast<double>(profile.boughtCount(u));
  for (NodeId v : profile.strategyOf(u)) {
    NCG_REQUIRE(out.view.contains(v),
                "strategy endpoint " << v << " of player " << u
                                     << " escaped the view — corrupt state");
    out.ownBoughtLocal.push_back(
        out.view.toLocal[static_cast<std::size_t>(v)]);
  }
  std::sort(out.ownBoughtLocal.begin(), out.ownBoughtLocal.end());

  // u's neighbors are all at distance 1 <= k, so the view's center row
  // enumerates exactly them (in local ids).
  for (NodeId vLocal : out.view.graph.neighborsUnchecked(out.view.center)) {
    const NodeId v = out.view.toGlobal[static_cast<std::size_t>(vLocal)];
    const auto& sigmaV = profile.strategyOf(v);
    if (std::binary_search(sigmaV.begin(), sigmaV.end(), u)) {
      out.freeNeighborsLocal.push_back(vLocal);
    }
  }
  std::sort(out.freeNeighborsLocal.begin(), out.freeNeighborsLocal.end());
}

/// As above into a fresh view, with a fresh engine (allocates per call).
PlayerView buildPlayerView(const Graph& g, const StrategyProfile& profile,
                           NodeId u, Dist k);

/// A stub for perfbench/ncg_trace.cpp, which changes only together with
/// the benchmark and still calls this name. Delete it once that file
/// calls buildPlayerView.
template <typename AnyGraph, typename AnyProfile>
void buildPlayerViewT(const AnyGraph& g, const AnyProfile& profile, NodeId u,
                      Dist k, BfsEngine& engine, PlayerView& out) {
  buildPlayerView(g, profile, u, k, engine, out);
}

}  // namespace ncg
