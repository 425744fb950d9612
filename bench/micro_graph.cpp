// Microbenchmarks for the graph substrate (BFS, diameter, views).
#include <benchmark/benchmark.h>

#include "gen/classic.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_tree.hpp"
#include "graph/bfs.hpp"
#include "graph/metrics.hpp"
#include "graph/power.hpp"
#include "graph/view.hpp"
#include "support/random.hpp"

namespace {

using namespace ncg;

void BM_BfsCycle(benchmark::State& state) {
  const Graph g = makeCycle(static_cast<NodeId>(state.range(0)));
  BfsEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(g, 0));
  }
}
BENCHMARK(BM_BfsCycle)->Arg(100)->Arg(1000)->Arg(10000);

void BM_BfsErdosRenyi(benchmark::State& state) {
  Rng rng(1);
  const Graph g =
      makeConnectedErdosRenyi(static_cast<NodeId>(state.range(0)), 0.05, rng);
  BfsEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(g, 0));
  }
}
BENCHMARK(BM_BfsErdosRenyi)->Arg(100)->Arg(500);

void BM_DiameterTree(benchmark::State& state) {
  Rng rng(2);
  const Graph g = makeRandomTree(static_cast<NodeId>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(diameter(g));
  }
}
BENCHMARK(BM_DiameterTree)->Arg(100)->Arg(200);

void BM_ViewExtraction(benchmark::State& state) {
  Rng rng(3);
  const Graph g = makeConnectedErdosRenyi(200, 0.035, rng);
  BfsEngine engine;
  LocalView view;
  for (auto _ : state) {
    buildView(g, 0, static_cast<Dist>(state.range(0)), engine, view);
    benchmark::DoNotOptimize(view);
  }
}
BENCHMARK(BM_ViewExtraction)->Arg(2)->Arg(3)->Arg(5);

void BM_AllPairs(benchmark::State& state) {
  Rng rng(4);
  const Graph g =
      makeConnectedErdosRenyi(static_cast<NodeId>(state.range(0)), 0.1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(allPairsDistances(g));
  }
}
BENCHMARK(BM_AllPairs)->Arg(50)->Arg(100)->Arg(200);

void BM_Girth(benchmark::State& state) {
  Rng rng(5);
  const Graph g =
      makeConnectedErdosRenyi(static_cast<NodeId>(state.range(0)), 0.1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(girth(g));
  }
}
BENCHMARK(BM_Girth)->Arg(50)->Arg(100);

}  // namespace
