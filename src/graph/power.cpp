#include "graph/power.hpp"

#include "graph/bfs.hpp"
#include "support/error.hpp"

namespace ncg {

Graph powerGraph(const Graph& g, Dist r) {
  NCG_REQUIRE(r >= 0, "power radius must be non-negative, got " << r);
  Graph out(g.nodeCount());
  if (r == 0) return out;
  BfsEngine engine;
  for (NodeId u = 0; u < g.nodeCount(); ++u) {
    engine.run(g, u, r);
    for (NodeId v : engine.visited()) {
      if (u < v) out.addEdge(u, v);
    }
  }
  return out;
}

std::vector<DynBitset> ballMasks(const Graph& g, Dist r) {
  NCG_REQUIRE(r >= 0, "ball radius must be non-negative, got " << r);
  const auto n = static_cast<std::size_t>(g.nodeCount());
  std::vector<DynBitset> masks(n, DynBitset(n));
  BfsEngine engine;
  for (NodeId u = 0; u < g.nodeCount(); ++u) {
    engine.run(g, u, r);
    auto& mask = masks[static_cast<std::size_t>(u)];
    for (NodeId v : engine.visited()) {
      mask.set(static_cast<std::size_t>(v));
    }
  }
  return masks;
}

std::vector<Dist> allPairsDistances(const Graph& g) {
  std::vector<Dist> matrix;
  BfsEngine engine;
  allPairsDistances(g, engine, matrix);
  return matrix;
}

}  // namespace ncg
