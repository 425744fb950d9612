// Graph powers and distance-ball coverage masks.
//
// The best-response reduction of §5.3 needs, for a view graph H and a
// radius r, the r-th power of H (edge iff distance <= r) — equivalently,
// for each node v the bitmask of nodes within distance r of v. We expose
// both forms; the mask form feeds the set-cover solver directly.
#pragma once

#include <algorithm>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/graph.hpp"
#include "graph/types.hpp"
#include "support/bitset.hpp"

namespace ncg {

/// The r-th power of g: same nodes, edge (u,v) iff 1 <= d_g(u,v) <= r.
/// r == 0 yields the empty graph on the same nodes.
Graph powerGraph(const Graph& g, Dist r);

/// For each node v, the set of nodes at distance <= r from v (v included).
std::vector<DynBitset> ballMasks(const Graph& g, Dist r);

/// All-pairs distance matrix as a flat row-major vector
/// (entry [u * n + v] = d(u,v), kUnreachable if disconnected).
/// O(n·m) time, O(n²) space — intended for view-sized graphs.
std::vector<Dist> allPairsDistances(const Graph& g);

/// As above, writing into a caller-owned matrix and reusing a BFS engine
/// (zero allocations in steady state), on any adjacency BfsEngine::run
/// accepts — on the flat CSR form it is the batched all-sources pass
/// behind the SumNCG solver and the greedy-move distance oracle.
template <typename AnyGraph>
void allPairsDistances(const AnyGraph& g, BfsEngine& engine,
                       std::vector<Dist>& matrix) {
  const auto n = static_cast<std::size_t>(g.nodeCount());
  matrix.resize(n * n);
  for (NodeId u = 0; u < g.nodeCount(); ++u) {
    const auto& dist = engine.run(g, u);
    std::copy(dist.begin(), dist.end(),
              matrix.begin() + static_cast<std::ptrdiff_t>(
                                   static_cast<std::size_t>(u) * n));
  }
}

}  // namespace ncg
