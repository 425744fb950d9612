// PagedGraph: the adjacency surface of a CsrArena under a byte budget.
//
// The adapter satisfies the access surface the engine's generic layers
// consume — `nodeCount()` plus an ADL `neighborRow` (BfsEngine::run,
// buildView, buildPlayerView) — while keeping only a bounded set of
// arena partitions resident. Access faults a partition in (CRC-verified
// once per open by the arena), an explicit LRU with a byte budget
// (`NCG_ARENA_BUDGET`) decides what stays, and eviction is
// `CsrArena::dropResidency` — dirty partitions are flushed, the pages
// are madvise(MADV_DONTNEED)ed away, and process RSS drops while the
// mapping (and thus any outstanding row span) stays valid. The most
// recently touched partition is never evicted, and callers holding a
// view open can pin partitions outright.
//
// Writes go through `patchRow` (row-patch write-back into the arena's
// slack/compaction discipline), so a dynamics loop running on a
// PagedGraph mutates the file-backed network in place.
#pragma once

#include <cstdint>
#include <list>
#include <span>
#include <vector>

#include "core/strategy.hpp"
#include "graph/graph.hpp"
#include "graph/types.hpp"
#include "storage/arena.hpp"

namespace ncg {

/// Pager statistics, for diagnostics and the out-of-core tests.
struct PagedGraphStats {
  std::uint64_t faults = 0;     ///< partitions brought resident
  std::uint64_t evictions = 0;  ///< partitions dropped for budget
  std::uint64_t residentBytes = 0;
  std::uint64_t peakResidentBytes = 0;
};

/// LRU-resident adapter over an open CsrArena. Does not own the arena.
/// Single-threaded, like the arena itself.
class PagedGraph {
 public:
  /// `byteBudget` caps the summed region bytes of resident partitions;
  /// 0 means unlimited (everything faulted stays). A budget smaller
  /// than one partition still works: the most recently used partition
  /// is exempt from eviction, so progress is always possible.
  explicit PagedGraph(CsrArena& arena, std::uint64_t byteBudget = 0);

  NodeId nodeCount() const { return arena_->nodeCount(); }

  /// Degree of u. Faults u's partition.
  NodeId degree(NodeId u) const;

  /// Neighbors of u, ascending. The span stays address-valid for the
  /// arena's lifetime (eviction only drops residency), but consumers
  /// should follow the engine-wide convention of holding at most one
  /// row at a time — a dropped row re-faults transparently on touch,
  /// costing budget accounting accuracy, not correctness.
  std::span<const NodeId> neighbors(NodeId u) const;

  /// Row with the ownership plane (who bought each incident link).
  ArenaRowRef rowWithOwnership(NodeId u) const;

  /// Write-back: replaces u's row (ids ascending, owned parallel).
  void patchRow(NodeId u, std::span<const NodeId> ids,
                std::span<const std::uint8_t> owned);

  /// Pins partition p: exempt from eviction until unpinned.
  void pinPartition(std::int64_t p);
  void unpinPartition(std::int64_t p);

  /// Flushes dirty partitions and drops every unpinned resident
  /// partition (end-of-trial hygiene between scenario units).
  void dropAll();

  const PagedGraphStats& stats() const { return stats_; }
  std::uint64_t byteBudget() const { return budget_; }
  CsrArena& arena() const { return *arena_; }

 private:
  void touch(std::int64_t p) const;
  void evictOverBudget() const;

  CsrArena* arena_;
  std::uint64_t budget_;
  /// Resident partitions, most recently used first.
  mutable std::list<std::int64_t> lru_;
  /// Per-partition iterator into lru_ (end() = not resident).
  mutable std::vector<std::list<std::int64_t>::iterator> where_;
  mutable std::vector<bool> resident_;
  mutable std::vector<std::uint32_t> pinned_;  ///< pin counts
  mutable PagedGraphStats stats_;
};

/// ADL hook: lets BfsEngine::run / buildView / buildPlayerView walk a
/// PagedGraph exactly like a Graph or CsrGraph.
inline std::span<const NodeId> neighborRow(const PagedGraph& g, NodeId u) {
  return g.neighbors(u);
}

/// Profile-concept adapter over the arena's ownership plane: σ_u is the
/// set of neighbors whose arc u bought. strategyOf materializes into an
/// internal scratch buffer — the returned span is valid until the next
/// strategyOf call (the access pattern buildPlayerView guarantees).
class ArenaStrategyView {
 public:
  explicit ArenaStrategyView(const PagedGraph& graph) : graph_(&graph) {}

  NodeId playerCount() const { return graph_->nodeCount(); }

  NodeId boughtCount(NodeId u) const {
    NodeId count = 0;
    for (std::uint8_t o : graph_->rowWithOwnership(u).owned) count += o;
    return count;
  }

  std::span<const NodeId> strategyOf(NodeId u) const {
    const ArenaRowRef row = graph_->rowWithOwnership(u);
    scratch_.clear();
    for (std::size_t i = 0; i < row.ids.size(); ++i) {
      if (row.owned[i]) scratch_.push_back(row.ids[i]);
    }
    return scratch_;  // ascending: rows are
  }

 private:
  const PagedGraph* graph_;
  mutable std::vector<NodeId> scratch_;
};

/// Materializes the arena's network as an in-RAM Graph whose neighbor
/// rows are ascending — i.e. byte-identically the rows a PagedGraph
/// serves — so RAM-backed and arena-backed runs share BFS visit order.
Graph materializeGraph(CsrArena& arena);

/// Materializes the arena's ownership plane as a StrategyProfile
/// (σ_u = bought endpoints of u), the RAM twin of ArenaStrategyView.
StrategyProfile materializeProfile(CsrArena& arena);

}  // namespace ncg
