// Microbenchmarks and ablation for distance-r domination, solved as set
// cover over radius-r ball masks (the reduction MaxNCG's best response
// solves): exact branch-and-bound vs greedy (the design choice that
// replaces Gurobi).
#include <benchmark/benchmark.h>

#include "gen/classic.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_tree.hpp"
#include "graph/power.hpp"
#include "solver/set_cover.hpp"
#include "support/random.hpp"

namespace {

using namespace ncg;

DynBitset allNodes(const Graph& g) {
  DynBitset universe(static_cast<std::size_t>(g.nodeCount()));
  universe.setAll();
  return universe;
}

void BM_DominatingSetExactTree(benchmark::State& state) {
  Rng rng(11);
  const Graph g = makeRandomTree(static_cast<NodeId>(state.range(0)), rng);
  const DynBitset universe = allNodes(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(minSetCover(universe, ballMasks(g, 1)));
  }
}
BENCHMARK(BM_DominatingSetExactTree)->Arg(50)->Arg(100)->Arg(200);

void BM_DominatingSetExactEr(benchmark::State& state) {
  Rng rng(12);
  const Graph g =
      makeConnectedErdosRenyi(static_cast<NodeId>(state.range(0)), 0.1, rng);
  const DynBitset universe = allNodes(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(minSetCover(universe, ballMasks(g, 1)));
  }
}
BENCHMARK(BM_DominatingSetExactEr)->Arg(50)->Arg(100);

void BM_GreedyCoverAblation(benchmark::State& state) {
  // Ablation: greedy-only on the same instance class as the exact bench.
  Rng rng(12);
  const Graph g =
      makeConnectedErdosRenyi(static_cast<NodeId>(state.range(0)), 0.1, rng);
  const auto balls = ballMasks(g, 1);
  const DynBitset universe = allNodes(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedySetCover(universe, balls));
  }
}
BENCHMARK(BM_GreedyCoverAblation)->Arg(50)->Arg(100);

void BM_DominatingSetRadius(benchmark::State& state) {
  Rng rng(13);
  const Graph g = makeRandomTree(120, rng);
  const auto r = static_cast<Dist>(state.range(0));
  const DynBitset universe = allNodes(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(minSetCover(universe, ballMasks(g, r)));
  }
}
BENCHMARK(BM_DominatingSetRadius)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
