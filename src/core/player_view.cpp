#include "core/player_view.hpp"

namespace ncg {

PlayerView buildPlayerView(const Graph& g, const StrategyProfile& profile,
                           NodeId u, Dist k) {
  BfsEngine engine;
  PlayerView pv;
  buildPlayerView(g, profile, u, k, engine, pv);
  return pv;
}

}  // namespace ncg
