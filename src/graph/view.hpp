// k-neighborhood views: the induced subgraph a player actually sees.
//
// In the locality model of the paper, player u knows the subgraph induced
// by all nodes at distance <= k from her. LocalView materializes that
// subgraph with a compact local id space plus bidirectional id maps, so the
// game layer can run full-knowledge algorithms on it (Propositions 2.1/2.2).
#pragma once

#include <vector>

#include "graph/bfs.hpp"
#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace ncg {

/// Induced subgraph on a ball, with id translation.
struct LocalView {
  Graph graph;                      ///< induced subgraph, local ids 0..m-1
  std::vector<NodeId> toGlobal;     ///< local id -> global id
  std::vector<NodeId> toLocal;      ///< global id -> local id, -1 if outside
  /// Distance from the center per local id (== the in-view distance:
  /// shortest paths to nodes at distance <= radius stay inside the
  /// ball). A byproduct of the extraction BFS, so consumers never re-run
  /// a center BFS on the view graph.
  std::vector<Dist> centerDist;
  NodeId center = -1;               ///< local id of the ball's center
  Dist radius = 0;                  ///< the k it was built with

  /// Number of nodes in the view.
  NodeId size() const { return graph.nodeCount(); }

  /// True iff global node g is inside the view.
  bool contains(NodeId g) const {
    return g >= 0 && g < static_cast<NodeId>(toLocal.size()) &&
           toLocal[static_cast<std::size_t>(g)] >= 0;
  }
};

/// Global ids of all nodes at distance <= radius from center
/// (in non-decreasing distance order; center first).
std::vector<NodeId> ballAround(const Graph& g, NodeId center, Dist radius);

/// Builds the induced subgraph on ballAround(g, center, radius) into
/// `out`, reusing its id maps and graph storage, with a caller-provided
/// BFS engine (the dynamics hot path). Local ids follow the BFS order, so
/// the center is always local id 0.
///
/// Runs on any adjacency backend with `nodeCount()` and an ADL-visible
/// `neighborRow(g, u)` (the surface BfsEngine::run consumes). The
/// extraction loop holds at most one neighbor row at a time, so paged
/// backends whose rows are invalidated by the next `neighborRow` call are
/// safe, and every backend with matching row order yields a
/// byte-identical LocalView.
template <typename AnyGraph>
void buildView(const AnyGraph& g, NodeId center, Dist radius,
               BfsEngine& engine, LocalView& out) {
  NCG_REQUIRE(radius >= 0, "view radius must be non-negative");
  engine.run(g, center, radius);
  const std::vector<NodeId>& members = engine.visited();

  out.radius = radius;
  out.toGlobal = members;
  out.toLocal.assign(static_cast<std::size_t>(g.nodeCount()), NodeId{-1});
  const std::vector<Dist>& dist = engine.distances();
  out.centerDist.resize(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    out.toLocal[static_cast<std::size_t>(members[i])] =
        static_cast<NodeId>(i);
    out.centerDist[i] = dist[static_cast<std::size_t>(members[i])];
  }
  out.center = out.toLocal[static_cast<std::size_t>(center)];
  NCG_ASSERT(out.center == 0, "BFS order must place the center first");

  out.graph.reset(static_cast<NodeId>(members.size()));
  for (std::size_t i = 0; i < members.size(); ++i) {
    const NodeId globalU = members[i];
    for (NodeId globalV : neighborRow(g, globalU)) {
      const NodeId localV = out.toLocal[static_cast<std::size_t>(globalV)];
      if (localV >= 0 && static_cast<NodeId>(i) < localV) {
        // Induced edges are enumerated once (i < localV), so skip the
        // membership scan of addEdge.
        out.graph.addEdgeNew(static_cast<NodeId>(i), localV);
      }
    }
  }
}

/// As above into a fresh view, with a fresh engine (allocates per call).
LocalView buildView(const Graph& g, NodeId center, Dist radius);

/// Rebuilds `out` as the view graph minus its center — the "H₀" both
/// best-response solvers work on (Propositions 2.1/2.2): node i of `out`
/// corresponds to view node i+1. The center must have local id 0
/// (buildView guarantees it). `out`'s storage is reused.
void removeCenterInto(const Graph& viewGraph, NodeId center, Graph& out);

/// As above, into the flat CSR form the solver scratch and the greedy-move
/// distance oracle iterate (graph/csr.hpp).
void removeCenterInto(const Graph& viewGraph, NodeId center, CsrGraph& out);

}  // namespace ncg
