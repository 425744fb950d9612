// The Barabási–Albert generator: determinism, edge accounting, the
// newcomer-buys ownership convention, and streaming straight into an
// arena without a Graph intermediate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gen/barabasi_albert.hpp"
#include "graph/bfs.hpp"
#include "storage/paged_graph.hpp"
#include "support/error.hpp"

namespace ncg {
namespace {

std::string tempPath(const char* name) {
  return ::testing::TempDir() + "ncg_ba_test_" + name + ".arena";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

BarabasiAlbertParams params(NodeId nodes, NodeId attach,
                            std::uint64_t seed) {
  BarabasiAlbertParams p;
  p.nodes = nodes;
  p.attach = attach;
  p.seed = seed;
  return p;
}

bool sameEdges(const std::vector<ArenaEdge>& a,
               const std::vector<ArenaEdge>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].u != b[i].u || a[i].v != b[i].v || a[i].uOwns != b[i].uOwns ||
        a[i].vOwns != b[i].vOwns) {
      return false;
    }
  }
  return true;
}

TEST(BarabasiAlbert, DeterministicPerSeed) {
  const auto once = barabasiAlbertEdges(params(200, 2, 42));
  const auto twice = barabasiAlbertEdges(params(200, 2, 42));
  EXPECT_TRUE(sameEdges(once, twice));
  const auto other = barabasiAlbertEdges(params(200, 2, 43));
  EXPECT_FALSE(sameEdges(once, other));
}

TEST(BarabasiAlbert, EdgeAccounting) {
  // Seed clique on attach+1 nodes, then `attach` distinct picks per
  // arriving node.
  for (const NodeId attach : {1, 2, 3}) {
    const NodeId n = 100;
    const auto edges = barabasiAlbertEdges(params(n, attach, 7));
    const std::size_t clique =
        static_cast<std::size_t>(attach + 1) * attach / 2;
    const std::size_t arrivals =
        static_cast<std::size_t>(n - attach - 1) *
        static_cast<std::size_t>(attach);
    EXPECT_EQ(edges.size(), clique + arrivals);
  }
}

TEST(BarabasiAlbert, LaterEndpointBuysEveryEdge) {
  for (const ArenaEdge& e : barabasiAlbertEdges(params(150, 2, 9))) {
    EXPECT_LT(e.u, e.v);  // emitted as (earlier, later)
    EXPECT_FALSE(e.uOwns);
    EXPECT_TRUE(e.vOwns);
  }
}

TEST(BarabasiAlbert, RejectsDegenerateParams) {
  EXPECT_THROW(barabasiAlbertEdges(params(10, 0, 1)), Error);
  EXPECT_THROW(barabasiAlbertEdges(params(2, 2, 1)), Error);
}

TEST(BarabasiAlbert, ArenaIsConnectedAndDuplicateFree) {
  const std::string path = tempPath("connected");
  std::remove(path.c_str());
  // CsrArena::build rejects duplicate edges, so a successful build is
  // itself the duplicate-freeness check.
  buildBarabasiAlbertArena(path, params(400, 2, 5));
  CsrArena arena;
  arena.open(path);
  PagedGraph paged(arena);
  BfsEngine engine;
  const std::vector<Dist>& dist = engine.run(paged, 0);
  EXPECT_EQ(std::count(dist.begin(), dist.end(), kUnreachable), 0);
  arena.close();
  std::remove(path.c_str());
}

TEST(BarabasiAlbert, StreamingBuildMatchesBufferedBuild) {
  const std::string streamed = tempPath("streamed");
  const std::string buffered = tempPath("buffered");
  std::remove(streamed.c_str());
  std::remove(buffered.c_str());
  const auto p = params(300, 2, 77);
  buildBarabasiAlbertArena(streamed, p);
  CsrArena::build(buffered, p.nodes, barabasiAlbertEdges(p));
  EXPECT_EQ(slurp(streamed), slurp(buffered));
  std::remove(streamed.c_str());
  std::remove(buffered.c_str());
}

TEST(BarabasiAlbert, HubsEmerge) {
  // Preferential attachment must concentrate degree: the maximum degree
  // far exceeds the attach count on any non-trivial instance.
  const std::string path = tempPath("hubs");
  std::remove(path.c_str());
  buildBarabasiAlbertArena(path, params(2000, 2, 3));
  CsrArena arena;
  arena.open(path);
  NodeId maxDegree = 0;
  for (NodeId u = 0; u < arena.nodeCount(); ++u) {
    maxDegree = std::max(maxDegree, arena.degree(u));
  }
  EXPECT_GE(maxDegree, 20);
  arena.close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ncg
