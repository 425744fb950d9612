#include "core/player_view.hpp"

#include "support/error.hpp"

namespace ncg {

PlayerView buildPlayerView(const Graph& g, const StrategyProfile& profile,
                           NodeId u, Dist k) {
  BfsEngine engine;
  return buildPlayerView(g, profile, u, k, engine);
}

PlayerView buildPlayerView(const Graph& g, const StrategyProfile& profile,
                           NodeId u, Dist k, BfsEngine& engine) {
  PlayerView pv;
  buildPlayerView(g, profile, u, k, engine, pv);
  return pv;
}

void buildPlayerView(const Graph& g, const StrategyProfile& profile,
                     NodeId u, Dist k, BfsEngine& engine, PlayerView& out) {
  buildPlayerViewT(g, profile, u, k, engine, out);
}

void buildPlayerView(const CsrGraph& g, const StrategyProfile& profile,
                     NodeId u, Dist k, BfsEngine& engine, PlayerView& out) {
  buildPlayerViewT(g, profile, u, k, engine, out);
}

}  // namespace ncg
