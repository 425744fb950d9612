// Parameterized property tests of the §3.1 torus construction over a
// grid of (ℓ, δ) parameters: counting formulas, regularity, ownership
// and the coordinate distance bounds must hold for every instance.
#include <gtest/gtest.h>

#include <numeric>

#include "core/strategy.hpp"
#include "gen/torus.hpp"
#include "graph/bfs.hpp"
#include "graph/metrics.hpp"

namespace ncg {

// Prints the fields: gtest_discover_tests appends this text to the
// CTest name, and gtest's fallback (a hex dump of the object, with its
// padding and the vector's heap pointers) changes from build to build.
// TorusParams lives in ncg, so argument-dependent lookup finds this
// overload here and not in the unnamed namespace below.
void PrintTo(const TorusParams& params, std::ostream* os) {
  *os << '(' << params.ell << ", "
      << ::testing::PrintToString(params.delta) << ')';
}

namespace {

TEST(TorusParamsPrinting, PrintsFieldsNotBytes) {
  EXPECT_EQ(::testing::PrintToString(TorusParams{2, {2, 2, 3}}),
            "(2, { 2, 2, 3 })");
}

std::string torusName(
    const ::testing::TestParamInfo<TorusParams>& info) {
  // Built with += throughout: operator+(const char*, std::string&&)
  // trips GCC 12's -Wrestrict false positive (PR 105329) at -O3.
  std::string name = "l";
  name += std::to_string(info.param.ell);
  for (int d : info.param.delta) {
    name += '_';
    name += std::to_string(d);
  }
  return name;
}

class TorusProperty : public ::testing::TestWithParam<TorusParams> {};

TEST_P(TorusProperty, CountingFormulasHold) {
  const TorusParams params = GetParam();
  const TorusGraph tg = makeTorus(params);

  // N = 2·Π δ_i intersection vertices.
  long long bigN = 2;
  for (int d : params.delta) bigN *= d;
  EXPECT_EQ(static_cast<long long>(tg.intersectionCount()), bigN);

  // n = N·(2^{d−1}(ℓ−1) + 1) total vertices (Theorem 3.12).
  const long long pathsPerClass = 1LL << (params.dims() - 1);
  EXPECT_EQ(static_cast<long long>(tg.graph.nodeCount()),
            bigN * (pathsPerClass * (params.ell - 1) + 1));

  // m = N·2^{d−1}·ℓ edges (each of the N·2^{d−1} paths has ℓ edges).
  EXPECT_EQ(static_cast<long long>(tg.graph.edgeCount()),
            bigN * pathsPerClass * params.ell);
}

TEST_P(TorusProperty, DegreesMatchVertexClass) {
  const TorusParams params = GetParam();
  const TorusGraph tg = makeTorus(params);
  const NodeId intersectionDegree =
      static_cast<NodeId>(1u << params.dims());
  for (NodeId v = 0; v < tg.graph.nodeCount(); ++v) {
    if (tg.isIntersection[static_cast<std::size_t>(v)]) {
      EXPECT_EQ(tg.graph.degree(v), intersectionDegree) << "node " << v;
    } else {
      EXPECT_EQ(tg.graph.degree(v), 2) << "node " << v;
    }
  }
}

TEST_P(TorusProperty, ConnectedAndOwnershipIsAPartition) {
  const TorusParams params = GetParam();
  const TorusGraph tg = makeTorus(params);
  EXPECT_TRUE(isConnected(tg.graph));

  std::size_t owned = 0;
  for (NodeId u = 0; u < tg.graph.nodeCount(); ++u) {
    for (NodeId v : tg.bought[static_cast<std::size_t>(u)]) {
      EXPECT_TRUE(tg.graph.hasEdge(u, v));
      ++owned;
    }
  }
  EXPECT_EQ(owned, tg.graph.edgeCount());

  // The ownership lists feed StrategyProfile without modification and
  // rebuild the same graph.
  const auto profile = StrategyProfile::fromBoughtLists(tg.bought);
  EXPECT_EQ(profile.buildGraph(), tg.graph);
}

TEST_P(TorusProperty, Lemma33LowerBoundsSampledPairs) {
  const TorusParams params = GetParam();
  const TorusGraph tg = makeTorus(params);
  BfsEngine engine;
  const NodeId stride = std::max<NodeId>(1, tg.graph.nodeCount() / 12);
  for (NodeId u = 0; u < tg.graph.nodeCount(); u += stride) {
    const auto& dist = engine.run(tg.graph, u);
    for (NodeId v = 0; v < tg.graph.nodeCount(); ++v) {
      const Dist lower = torusDistanceLowerBound(
          params, tg.coords[static_cast<std::size_t>(u)],
          tg.coords[static_cast<std::size_t>(v)]);
      EXPECT_GE(dist[static_cast<std::size_t>(v)], lower)
          << "u=" << u << " v=" << v;
    }
  }
}

TEST_P(TorusProperty, DiameterAtLeastCorollary34) {
  const TorusParams params = GetParam();
  const TorusGraph tg = makeTorus(params);
  EXPECT_GE(diameter(tg.graph), params.ell * params.delta.back());
}

TEST_P(TorusProperty, OpenVariantEmbedsInClosed) {
  const TorusParams params = GetParam();
  const TorusGraph open = makeOpenTorus(params);
  const TorusGraph closed = makeTorus(params);
  // Open drops exactly the wraparound paths: never more nodes/edges.
  EXPECT_LE(open.graph.nodeCount(), closed.graph.nodeCount());
  EXPECT_LT(open.graph.edgeCount(), closed.graph.edgeCount());
  // Every open edge exists between the same coordinates in the closed
  // graph whenever both endpoints exist there.
  for (const Edge& e : open.graph.edges()) {
    const NodeId cu =
        closed.nodeAt(open.coords[static_cast<std::size_t>(e.u)]);
    const NodeId cv =
        closed.nodeAt(open.coords[static_cast<std::size_t>(e.v)]);
    if (cu >= 0 && cv >= 0) {
      EXPECT_TRUE(closed.graph.hasEdge(cu, cv))
          << "open edge missing in closed torus";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TorusProperty,
    ::testing::Values(TorusParams{1, {2, 2}}, TorusParams{1, {3, 5}},
                      TorusParams{2, {2, 2}}, TorusParams{2, {3, 4}},
                      TorusParams{2, {4, 2}}, TorusParams{3, {2, 3}},
                      TorusParams{2, {2, 2, 2}},
                      TorusParams{2, {2, 2, 3}},
                      TorusParams{4, {2, 2}}),
    torusName);

}  // namespace
}  // namespace ncg
