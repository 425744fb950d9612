#include "core/equilibrium.hpp"

#include "core/player_view.hpp"
#include "support/error.hpp"

namespace ncg {

BestResponse bestResponseFor(const Graph& g, const StrategyProfile& profile,
                             NodeId u, const GameParams& params,
                             const BestResponseOptions& options) {
  const PlayerView pv = buildPlayerView(g, profile, u, params.k);
  return bestResponse(
      pv, params.heterogeneous() ? params.forPlayer(u) : params, options);
}

EquilibriumReport checkLke(const Graph& g, const StrategyProfile& profile,
                           const GameParams& params, bool stopAtFirst,
                           const BestResponseOptions& options) {
  NCG_REQUIRE(g.nodeCount() == profile.playerCount(),
              "graph/profile size mismatch");
  EquilibriumReport report;
  BfsEngine engine;
  PlayerView pv;
  for (NodeId u = 0; u < g.nodeCount(); ++u) {
    buildPlayerView(g, profile, u, params.k, engine, pv);
    const BestResponse br = bestResponse(
        pv, params.heterogeneous() ? params.forPlayer(u) : params, options);
    report.exact = report.exact && br.exact;
    if (br.improving) {
      report.isEquilibrium = false;
      report.improvingPlayers.push_back(u);
      if (stopAtFirst) return report;
    }
  }
  return report;
}

bool isLke(const Graph& g, const StrategyProfile& profile,
           const GameParams& params) {
  return checkLke(g, profile, params).isEquilibrium;
}

EquilibriumReport checkNash(const Graph& g, const StrategyProfile& profile,
                            GameParams params, bool stopAtFirst,
                            const BestResponseOptions& options) {
  params.k = std::max<Dist>(1, g.nodeCount());  // sees everything
  return checkLke(g, profile, params, stopAtFirst, options);
}

}  // namespace ncg
