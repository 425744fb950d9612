// Breadth-first search with a reusable workspace.
//
// BFS is the single hottest primitive in the library (every cost
// evaluation, view extraction and equilibrium check runs one or more).
// BfsEngine owns the distance and queue buffers so repeated searches on
// graphs of the same node count perform zero allocations — and, because
// the previous run's visit queue records exactly which distance entries
// are finite, each run resets only those entries (O(visited), not O(n)),
// which makes depth-bounded searches on large graphs near-free to set up.
//
// Searches run on any adjacency with a `neighborRow`: the mutable Graph,
// the flat CsrGraph mirror (graph/csr.hpp) or the paged out-of-core
// backend. All walk neighbor lists in the same order, so visit order —
// which downstream local-id assignment depends on — is
// representation-independent.
#pragma once

#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "graph/types.hpp"
#include "support/error.hpp"

namespace ncg {

/// Uniform unchecked neighbor-row access over the two adjacency
/// representations, for hot loops whose node ids are valid by
/// construction (validated BFS sources, queue-popped frontier nodes,
/// members of an extracted view). Shared by BFS and the view builders.
inline std::span<const NodeId> neighborRow(const Graph& g, NodeId u) {
  return g.neighborsUnchecked(u);
}
inline std::span<const NodeId> neighborRow(const CsrGraph& g, NodeId u) {
  return g.neighbors(u);
}

/// Reusable BFS engine. Not thread-safe; use one engine per thread.
class BfsEngine {
 public:
  BfsEngine() = default;

  /// Single-source BFS from `source`, optionally stopping at `maxDepth`
  /// (nodes farther than maxDepth keep kUnreachable). maxDepth < 0 means
  /// unbounded. Returns distances indexed by node.
  ///
  /// Runs on any adjacency with `nodeCount()` and a `neighborRow(g, u)`
  /// overload found by ADL: Graph, CsrGraph and the paged out-of-core
  /// backend (storage/paged_graph.hpp). The loop holds at most one
  /// neighbor row at a time, so backends whose rows are only valid until
  /// the next `neighborRow` call (a faulting, evicting pager) are safe.
  template <typename AnyGraph>
  const std::vector<Dist>& run(const AnyGraph& g, NodeId source,
                               Dist maxDepth = -1) {
    const NodeId sources[1] = {source};
    return runMulti(g, sources, maxDepth);
  }

  /// Multi-source BFS: distance to the nearest of `sources`.
  /// Requires at least one source.
  template <typename AnyGraph>
  const std::vector<Dist>& runMulti(const AnyGraph& g,
                                    std::span<const NodeId> sources,
                                    Dist maxDepth = -1) {
    NCG_REQUIRE(!sources.empty(), "BFS requires at least one source");
    prepare(g.nodeCount());
    for (NodeId s : sources) {
      NCG_REQUIRE(s >= 0 && s < g.nodeCount(),
                  "BFS source " << s << " out of range");
      if (dist_[static_cast<std::size_t>(s)] != 0) {
        dist_[static_cast<std::size_t>(s)] = 0;
        queue_.push_back(s);
      }
    }
    // Classic array-backed frontier walk; queue_ doubles as the visit
    // order. Every frontier node came off the queue, so its neighbor row
    // needs no range re-check. Exactly one neighbor row is live per
    // iteration — the contract paged backends rely on.
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const NodeId u = queue_[head];
      const Dist du = dist_[static_cast<std::size_t>(u)];
      if (maxDepth >= 0 && du >= maxDepth) continue;
      for (NodeId v : neighborRow(g, u)) {
        auto& dv = dist_[static_cast<std::size_t>(v)];
        if (dv == kUnreachable) {
          dv = du + 1;
          queue_.push_back(v);
        }
      }
    }
    return dist_;
  }

  /// Distances from the last run (valid until the next run on this engine).
  const std::vector<Dist>& distances() const { return dist_; }

  /// Nodes reached by the last run, in BFS (non-decreasing distance) order.
  const std::vector<NodeId>& visited() const { return queue_; }

  /// Eccentricity of the last run's source set: max finite distance.
  /// Returns kUnreachable if some node of g was not reached.
  Dist eccentricityOfLastRun(const Graph& g) const;

 private:
  void prepare(NodeId n);

  std::vector<Dist> dist_;
  std::vector<NodeId> queue_;
};

/// Convenience one-shot single-source distances (allocates per call).
std::vector<Dist> bfsDistances(const Graph& g, NodeId source,
                               Dist maxDepth = -1);

}  // namespace ncg
