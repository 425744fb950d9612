// Minimum-cardinality set cover over bitset masks.
//
// This is the engine behind the best-response computation: the paper (§5.3)
// reduces a MaxNCG best response to a *constrained minimum dominating set*
// on a power of the player's view and solves it with Gurobi; we solve the
// equivalent set-cover instances exactly with branch-and-bound
// (see DESIGN.md, substitutions).
//
// Before searching, two classic reductions shrink the instance (both are
// exact): duplicate/subset sets are dropped (a set contained in another is
// never needed), and dominated elements are dropped (if every set covering
// e1 also covers e2, covering e1 covers e2 for free). On the ball-mask
// instances arising from views these reductions routinely remove most of
// the instance. Both reductions run on packed machine words at every
// instance size: set subsumption streams a flat row-major mask array
// (two registers when the universe fits 128 bits), and element
// domination compares per-element signatures packed into ⌈kept/64⌉
// words, with a single-word scan for the usual case of at most 64
// reduced sets. All paths make identical decisions — the reductions are
// part of the solver's deterministic result contract, not heuristics.
//
// The solver is exact but carries an explicit exploration budget so callers
// can bound worst-case latency; when the budget trips, the best incumbent
// is returned with `optimal = false`.
//
// The dynamics hot path solves hundreds of thousands of view-sized
// instances per run, so every working buffer — the reduced candidate
// list, the flat element→sets index, per-element signatures, and the
// per-depth uncovered masks of the search — can live in a caller-owned
// SetCoverScratch. The scratch overloads produce results bit-identical
// to the allocating entry points.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "support/bitset.hpp"

namespace ncg {

/// Outcome of a set-cover solve.
struct SetCoverResult {
  /// Indices (into the candidate list) of the chosen sets.
  std::vector<int> chosen;
  /// True iff a cover exists at all (universe coverable by the union).
  bool feasible = false;
  /// True iff the verdict is proven (minimum found, or proven that no
  /// cover under `sizeCap` exists) within the node budget.
  bool optimal = false;
  /// True iff a cover within `sizeCap` was found (`chosen` holds it).
  bool withinCap = false;
  /// Branch-and-bound nodes explored (diagnostics / benches).
  std::uint64_t nodesExplored = 0;
};

/// Reusable buffers for repeated set-cover solves (one per thread).
/// Contents are per-call; only the storage persists across calls.
struct SetCoverScratch {
  std::vector<int> order;              ///< popcount-descending set order
  std::vector<std::size_t> setCount;   ///< popcounts of the input sets
  std::vector<DynBitset> kept;         ///< reduced candidate list
  std::vector<int> keptOriginal;       ///< reduced index -> original index
  std::vector<std::uint64_t> keptWordsLow;   ///< flat kept masks (<=128b)
  std::vector<std::uint64_t> keptWordsHigh;
  std::vector<std::uint64_t> keptWordsFlat;  ///< row-major masks (>128b)
  std::vector<std::int32_t> coverStart;  ///< flat element→sets index rows
  std::vector<std::int32_t> coverCursor;
  std::vector<int> coverData;
  /// Per-element covering-set masks, ⌈kept/64⌉ words each, row-major.
  std::vector<std::uint64_t> signatureWords;
  std::vector<std::size_t> signatureCount;  ///< popcounts (> 64 kept)
  DynBitset reducedUniverse;
  DynBitset greedyUncovered;
  std::vector<std::size_t> greedyCounts;
  std::vector<std::size_t> activeElements;
  std::vector<DynBitset> depthUncovered;  ///< per-depth search masks
  std::vector<std::vector<std::pair<std::size_t, int>>> depthCandidates;
  std::vector<int> current;
};

/// Greedy cover: repeatedly pick the set covering the most uncovered
/// elements. Returns indices; empty result with feasible=false if the
/// union of all sets misses part of the universe.
SetCoverResult greedySetCover(const DynBitset& universe,
                              const std::vector<DynBitset>& sets);

/// As above, reusing caller-owned scratch (dynamics hot path).
SetCoverResult greedySetCover(const DynBitset& universe,
                              const std::vector<DynBitset>& sets,
                              SetCoverScratch& scratch);

/// Exact minimum set cover by branch-and-bound.
///
/// universe  — elements that must be covered (positions set to 1)
/// sets      — candidate coverage masks, all of universe's size
/// nodeBudget— cap on explored B&B nodes (0 = default 500 000)
/// sizeCap   — only covers of size <= sizeCap are of interest; branches
///             provably exceeding it are pruned (default: unlimited).
///             When no cover within the cap exists, the result has
///             feasible=true (some cover exists), withinCap=false.
///
/// Branching: select the uncovered element covered by the fewest sets and
/// branch on each set covering it (most-coverage first). Pruning: greedy
/// incumbent, the sizeCap, and the ceil(uncovered / maxSetSize) bound.
SetCoverResult minSetCover(const DynBitset& universe,
                           const std::vector<DynBitset>& sets,
                           std::uint64_t nodeBudget = 0,
                           std::size_t sizeCap = SIZE_MAX);

/// As above, reusing caller-owned scratch (dynamics hot path).
SetCoverResult minSetCover(const DynBitset& universe,
                           const std::vector<DynBitset>& sets,
                           std::uint64_t nodeBudget, std::size_t sizeCap,
                           SetCoverScratch& scratch);

}  // namespace ncg
