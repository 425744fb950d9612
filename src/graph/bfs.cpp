#include "graph/bfs.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace ncg {

void BfsEngine::prepare(NodeId n) {
  const auto count = static_cast<std::size_t>(n);
  if (dist_.size() != count) {
    dist_.assign(count, kUnreachable);
    queue_.clear();
    queue_.reserve(count);
    return;
  }
  // Same-sized workspace: the previous queue lists exactly the finite
  // entries, so resetting those restores the all-kUnreachable state in
  // O(previously visited) instead of O(n).
  for (NodeId v : queue_) dist_[static_cast<std::size_t>(v)] = kUnreachable;
  queue_.clear();
}

Dist BfsEngine::eccentricityOfLastRun(const Graph& g) const {
  NCG_REQUIRE(dist_.size() == static_cast<std::size_t>(g.nodeCount()),
              "engine was not run on this graph");
  Dist ecc = 0;
  for (Dist d : dist_) {
    if (d == kUnreachable) return kUnreachable;
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::vector<Dist> bfsDistances(const Graph& g, NodeId source, Dist maxDepth) {
  BfsEngine engine;
  return engine.run(g, source, maxDepth);
}

}  // namespace ncg
