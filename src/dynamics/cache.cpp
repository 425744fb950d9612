#include "dynamics/cache.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace ncg {

DynamicsCache::DynamicsCache(NodeId players, Dist k)
    : k_(k), settled_(static_cast<std::size_t>(players), false) {
  NCG_REQUIRE(players >= 0, "player count must be non-negative");
  NCG_REQUIRE(k >= 1, "view radius must be >= 1, got " << k);
}

void DynamicsCache::syncMirror(const Graph& g) {
  // Full build on first contact; from then on applyMove patches exactly
  // the rows each move touches, so the mirror tracks g at O(move size).
  if (!mirrorValid_) {
    mirror_.assignFrom(g);
    mirrorValid_ = true;
  }
}

const PlayerView& DynamicsCache::viewOf(const Graph& g,
                                        const StrategyProfile& profile,
                                        NodeId u) {
  syncMirror(g);
  buildPlayerView(mirror_, profile, u, k_, engine_, view_);
  ++rebuilds_;
  return view_;
}

void DynamicsCache::invalidateBall(NodeId u) {
  engine_.run(mirror_, u, k_);
  for (NodeId w : engine_.visited()) {
    settled_[static_cast<std::size_t>(w)] = false;
  }
}

namespace {

/// Canonical insertion event of the edge {x,y} in a from-scratch
/// StrategyProfile::buildGraph(): the (owner, endpoint) pair at which the
/// rebuild loop would first insert it — (min,max) when the lower-id
/// endpoint buys the link, (max,min) otherwise. Neighbor lists of a
/// rebuilt graph are exactly in ascending event order.
std::pair<NodeId, NodeId> insertionEvent(const StrategyProfile& profile,
                                         NodeId x, NodeId y) {
  const NodeId a = std::min(x, y);
  const NodeId b = std::max(x, y);
  const std::vector<NodeId>& sigmaA = profile.strategyOf(a);
  return std::binary_search(sigmaA.begin(), sigmaA.end(), b)
             ? std::pair<NodeId, NodeId>{a, b}
             : std::pair<NodeId, NodeId>{b, a};
}

/// Restores x's neighbor list to canonical (rebuild) order. The sort key
/// is computed once per neighbor (decorate–sort–undecorate) instead of
/// per comparison: insertionEvent walks the profile, which dominates the
/// cost of sorting these short lists.
void canonicalizeNeighbors(Graph& g, const StrategyProfile& profile,
                           NodeId x,
                           std::vector<std::pair<std::pair<NodeId, NodeId>,
                                                 NodeId>>& keyed,
                           std::vector<NodeId>& order) {
  keyed.clear();
  for (NodeId y : g.neighborsUnchecked(x)) {
    keyed.emplace_back(insertionEvent(profile, x, y), y);
  }
  std::sort(keyed.begin(), keyed.end());
  order.clear();
  for (const auto& [event, y] : keyed) {
    (void)event;
    order.push_back(y);
  }
  g.setNeighborOrder(x, order);
}

}  // namespace

void DynamicsCache::applyMove(Graph& g, StrategyProfile& profile, NodeId u,
                              const std::vector<NodeId>& newStrategy) {
  // Pre-move ball: players that could see a removed edge or a distance
  // that is about to grow.
  syncMirror(g);
  invalidateBall(u);

  // Edge diff against the current strategy. Every changed edge is
  // incident to u; an edge to a dropped endpoint survives only when the
  // endpoint buys it too.
  std::vector<NodeId> touched(profile.strategyOf(u));  // σ_u before the move
  for (NodeId v : touched) {
    if (std::binary_search(newStrategy.begin(), newStrategy.end(), v)) {
      continue;
    }
    const std::vector<NodeId>& sigmaV = profile.strategyOf(v);
    if (!std::binary_search(sigmaV.begin(), sigmaV.end(), u)) {
      g.removeEdge(u, v);
    }
  }
  for (NodeId v : newStrategy) {
    g.addEdge(u, v);  // no-op when the edge already exists
  }
  profile.setStrategy(u, newStrategy);

  // The diff preserves the edge set but not the neighbor order a full
  // rebuild would produce (removeEdge swap-erases, addEdge appends), and
  // BFS-based view extraction — hence best-response tie-breaking — is
  // order-sensitive. Restore canonical order for every list the move
  // could have perturbed: u's own, and those of all endpoints u bought
  // before or buys now (ownership changes can reorder even surviving
  // double-bought links). All other lists are untouched and their edges
  // keep their insertion events, so they stay canonical by induction.
  touched.insert(touched.end(), newStrategy.begin(), newStrategy.end());
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  canonicalizeNeighbors(g, profile, u, sortKeyed_, sortOrder_);
  for (NodeId v : touched) {
    canonicalizeNeighbors(g, profile, v, sortKeyed_, sortOrder_);
  }

  // Re-sync the CSR mirror for exactly the rows whose adjacency lists
  // the diff (or the canonicalization above) could have rewritten.
  patchRows_.clear();
  patchRows_.push_back(u);
  for (NodeId v : touched) {
    if (v != u) patchRows_.push_back(v);
  }
  mirror_.patchRows(g, patchRows_);

  // Post-move ball: players that can now see an added edge or a distance
  // that just shrank.
  invalidateBall(u);
}

void DynamicsCache::applyArrival(Graph& g, StrategyProfile& profile, NodeId u,
                                 const std::vector<NodeId>& strategy) {
  NCG_REQUIRE(profile.strategyOf(u).empty() && g.degree(u) == 0,
              "arrival slot must be isolated");
  applyMove(g, profile, u, strategy);
}

void DynamicsCache::applyDeparture(Graph& g, StrategyProfile& profile,
                                   NodeId u) {
  syncMirror(g);
  // Pre-departure ball: a departure only removes edges through u, so
  // distances can only grow — everyone whose view can change sees u
  // within k right now. (The post-state ball is just {u}, already in.)
  invalidateBall(u);

  const std::vector<NodeId> former(g.neighborsUnchecked(u).begin(),
                                   g.neighborsUnchecked(u).end());
  std::vector<NodeId> trimmed;
  for (const NodeId v : former) {
    g.removeEdge(u, v);
    const std::vector<NodeId>& sigmaV = profile.strategyOf(v);
    if (std::binary_search(sigmaV.begin(), sigmaV.end(), u)) {
      trimmed.assign(sigmaV.begin(), sigmaV.end());
      trimmed.erase(std::find(trimmed.begin(), trimmed.end(), u));
      profile.setStrategy(v, trimmed);
    }
  }
  profile.setStrategy(u, {});

  // removeEdge swap-erases, so the survivors' neighbor order must be
  // restored to what a full rebuild would produce (their insertion
  // events are unchanged: none involves u).
  patchRows_.clear();
  patchRows_.push_back(u);
  for (const NodeId v : former) {
    canonicalizeNeighbors(g, profile, v, sortKeyed_, sortOrder_);
    patchRows_.push_back(v);
  }
  mirror_.patchRows(g, patchRows_);
}

}  // namespace ncg
