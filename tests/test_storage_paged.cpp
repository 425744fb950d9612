// PagedGraph under the engine's generic layers: BFS / view /
// player-view equivalence against the in-RAM Graph kinds on seeded
// instances, and the LRU pager's budget, pinning and drop semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/player_view.hpp"
#include "core/strategy.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/random_tree.hpp"
#include "graph/bfs.hpp"
#include "graph/csr.hpp"
#include "graph/view.hpp"
#include "storage/arena.hpp"
#include "storage/paged_graph.hpp"
#include "support/random.hpp"

namespace ncg {
namespace {

std::string tempPath(const char* name) {
  return ::testing::TempDir() + "ncg_paged_test_" + name + ".arena";
}

void removeArena(const std::string& path) { std::remove(path.c_str()); }

/// Arena edges of a Graph with the profile's ownership flags.
std::vector<ArenaEdge> arenaEdgesOf(const Graph& g,
                                    const StrategyProfile& profile) {
  std::vector<ArenaEdge> edges;
  edges.reserve(g.edgeCount());
  for (const Edge& e : g.edges()) {
    const auto& su = profile.strategyOf(e.u);
    const auto& sv = profile.strategyOf(e.v);
    edges.push_back({e.u, e.v,
                     std::binary_search(su.begin(), su.end(), e.v),
                     std::binary_search(sv.begin(), sv.end(), e.u)});
  }
  return edges;
}

/// A seeded connected instance plus its sorted-ownership profile.
struct Instance {
  Graph graph;  // canonical ascending rows (materialized from the arena)
  StrategyProfile profile;
};

Instance makeInstance(const std::string& path, std::uint64_t seed,
                      bool tree, NodeId partitionRows) {
  Rng rng(seed);
  const NodeId n = 60;
  const Graph raw =
      tree ? makeRandomTree(n, rng) : makeConnectedErdosRenyi(n, 0.08, rng);
  const StrategyProfile profile = StrategyProfile::randomOwnership(raw, rng);
  ArenaOptions options;
  options.partitionRows = partitionRows;
  CsrArena::build(path, n, arenaEdgesOf(raw, profile), options);
  CsrArena arena;
  arena.open(path);
  Instance instance{materializeGraph(arena), materializeProfile(arena)};
  arena.close();
  return instance;
}

bool sameView(const LocalView& a, const LocalView& b) {
  return a.graph == b.graph && a.toGlobal == b.toGlobal &&
         a.centerDist == b.centerDist && a.radius == b.radius;
}

TEST(PagedGraph, BfsMatchesGraphAndCsrOnSeededSweep) {
  for (const bool tree : {true, false}) {
    for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
      const std::string path = tempPath("bfs");
      removeArena(path);
      const Instance inst =
          makeInstance(path, seed, tree, /*partitionRows=*/8);
      CsrGraph csr;
      csr.assignFrom(inst.graph);
      CsrArena arena;
      arena.open(path);
      PagedGraph paged(arena);

      BfsEngine engineA;
      BfsEngine engineB;
      BfsEngine engineC;
      for (NodeId s = 0; s < inst.graph.nodeCount(); s += 7) {
        const std::vector<Dist> viaGraph = engineA.run(inst.graph, s);
        EXPECT_EQ(engineB.run(csr, s), viaGraph);
        EXPECT_EQ(engineC.run(paged, s), viaGraph);
        // Same visit order too: rows are canonical on every backend.
        EXPECT_EQ(engineB.visited(), engineA.visited());
        EXPECT_EQ(engineC.visited(), engineA.visited());
      }
      arena.close();
      removeArena(path);
    }
  }
}

TEST(PagedGraph, ViewsMatchGraphForAllK) {
  const std::string path = tempPath("views");
  removeArena(path);
  const Instance inst =
      makeInstance(path, 77, /*tree=*/false, /*partitionRows=*/8);
  CsrArena arena;
  arena.open(path);
  PagedGraph paged(arena);

  BfsEngine engineA;
  BfsEngine engineB;
  LocalView ramView;
  LocalView pagedView;
  for (const Dist k : {1, 2, 3}) {
    for (NodeId u = 0; u < inst.graph.nodeCount(); u += 5) {
      buildView(inst.graph, u, k, engineA, ramView);
      buildView(paged, u, k, engineB, pagedView);
      EXPECT_TRUE(sameView(ramView, pagedView)) << "k=" << k << " u=" << u;
    }
  }
  arena.close();
  removeArena(path);
}

TEST(PagedGraph, PlayerViewsMatchProfileForAllK) {
  const std::string path = tempPath("pviews");
  removeArena(path);
  const Instance inst =
      makeInstance(path, 99, /*tree=*/true, /*partitionRows=*/8);
  CsrArena arena;
  arena.open(path);
  PagedGraph paged(arena);
  ArenaStrategyView arenaProfile(paged);

  BfsEngine engineA;
  BfsEngine engineB;
  PlayerView ramPv;
  PlayerView pagedPv;
  for (const Dist k : {1, 2, 3}) {
    for (NodeId u = 0; u < inst.graph.nodeCount(); u += 3) {
      buildPlayerView(inst.graph, inst.profile, u, k, engineA, ramPv);
      buildPlayerView(paged, arenaProfile, u, k, engineB, pagedPv);
      EXPECT_TRUE(sameView(ramPv.view, pagedPv.view));
      EXPECT_EQ(ramPv.alphaBought, pagedPv.alphaBought);
      EXPECT_EQ(ramPv.ownBoughtLocal, pagedPv.ownBoughtLocal);
      EXPECT_EQ(ramPv.freeNeighborsLocal, pagedPv.freeNeighborsLocal);
    }
  }
  arena.close();
  removeArena(path);
}

TEST(PagedGraph, BudgetEvictsButNeverChangesAnswers) {
  const std::string pathA = tempPath("budget_a");
  const std::string pathB = tempPath("budget_b");
  removeArena(pathA);
  removeArena(pathB);
  const Instance inst =
      makeInstance(pathA, 5, /*tree=*/false, /*partitionRows=*/4);
  makeInstance(pathB, 5, /*tree=*/false, /*partitionRows=*/4);

  CsrArena arenaFree;
  arenaFree.open(pathA);
  PagedGraph unlimited(arenaFree);
  CsrArena arenaTight;
  arenaTight.open(pathB);
  // Two partitions' worth of budget out of 15.
  PagedGraph tight(arenaTight, 2 * arenaTight.partitionBytes(0));

  BfsEngine engineA;
  BfsEngine engineB;
  for (NodeId s = 0; s < inst.graph.nodeCount(); s += 4) {
    EXPECT_EQ(engineB.run(tight, s), engineA.run(unlimited, s));
  }
  EXPECT_GT(tight.stats().evictions, 0u);
  EXPECT_EQ(unlimited.stats().evictions, 0u);
  // The budget binds the steady state (the MRU partition is exempt, so
  // allow one partition of slack at the peak).
  EXPECT_LE(tight.stats().peakResidentBytes,
            tight.byteBudget() + arenaTight.partitionBytes(0));
  arenaFree.close();
  arenaTight.close();
  removeArena(pathA);
  removeArena(pathB);
}

TEST(PagedGraph, PinningExemptsPartitionFromDropAll) {
  const std::string path = tempPath("pin");
  removeArena(path);
  makeInstance(path, 21, /*tree=*/true, /*partitionRows=*/8);
  CsrArena arena;
  arena.open(path);
  PagedGraph paged(arena);

  for (NodeId u = 0; u < arena.nodeCount(); ++u) (void)paged.degree(u);
  EXPECT_GT(paged.stats().residentBytes, 0u);

  paged.pinPartition(0);
  paged.dropAll();
  EXPECT_EQ(paged.stats().residentBytes, arena.partitionBytes(0));
  paged.unpinPartition(0);
  paged.dropAll();
  EXPECT_EQ(paged.stats().residentBytes, 0u);
  arena.close();
  removeArena(path);
}

TEST(PagedGraph, MaterializedTwinsMatchArenaRows) {
  const std::string path = tempPath("twins");
  removeArena(path);
  const Instance inst =
      makeInstance(path, 31, /*tree=*/false, /*partitionRows=*/8);
  CsrArena arena;
  arena.open(path);
  for (NodeId u = 0; u < arena.nodeCount(); ++u) {
    const ArenaRowRef row = arena.row(u);
    const auto neighbors = inst.graph.neighborsUnchecked(u);
    ASSERT_EQ(static_cast<std::size_t>(neighbors.size()), row.ids.size());
    EXPECT_TRUE(std::equal(row.ids.begin(), row.ids.end(),
                           neighbors.begin()));
    std::vector<NodeId> bought;
    for (std::size_t i = 0; i < row.ids.size(); ++i) {
      if (row.owned[i]) bought.push_back(row.ids[i]);
    }
    EXPECT_EQ(inst.profile.strategyOf(u), bought);
  }
  arena.close();
  removeArena(path);
}

}  // namespace
}  // namespace ncg
