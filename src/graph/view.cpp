#include "graph/view.hpp"

#include "support/error.hpp"

namespace ncg {

std::vector<NodeId> ballAround(const Graph& g, NodeId center, Dist radius) {
  NCG_REQUIRE(radius >= 0, "ball radius must be non-negative");
  BfsEngine engine;
  engine.run(g, center, radius);
  return engine.visited();
}

LocalView buildView(const Graph& g, NodeId center, Dist radius) {
  BfsEngine engine;
  LocalView view;
  buildView(g, center, radius, engine, view);
  return view;
}

void removeCenterInto(const Graph& viewGraph, NodeId center, Graph& out) {
  NCG_REQUIRE(center == 0, "view center must have local id 0");
  out.reset(viewGraph.nodeCount() - 1);
  for (NodeId u = 1; u < viewGraph.nodeCount(); ++u) {
    for (NodeId v : viewGraph.neighborsUnchecked(u)) {
      if (v > u) out.addEdgeNew(u - 1, v - 1);  // each edge emitted once
    }
  }
}

void removeCenterInto(const Graph& viewGraph, NodeId center, CsrGraph& out) {
  NCG_REQUIRE(center == 0, "view center must have local id 0");
  out.assignViewMinusCenter(viewGraph);
}

}  // namespace ncg
