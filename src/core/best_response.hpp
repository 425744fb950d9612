// Exact best-response computation under local knowledge.
//
// MaxNCG (Proposition 2.1 + §5.3): the player evaluates strategies on her
// view H as if it were the whole network. With u removed from H (graph
// H₀), a strategy is a neighbor set S = free ∪ S' and the resulting
// eccentricity is 1 + max_v d_{H₀}(S, v); guessing the post-move
// eccentricity h reduces the problem to a constrained minimum dominating
// set at radius h−1, solved exactly per radius and minimized over h.
//
// SumNCG (Proposition 2.2): same view semantics, cost
// α·|S'| + Σ_v (1 + d_{H₀}(S, v)), with the additional *forbidden set*
// rule: no strategy may increase the distance of a node currently at
// distance exactly k (in the worst case such a node hides arbitrarily many
// invisible nodes behind it). Solved by branch-and-bound over candidate
// neighbor sets with suffix-min distance bounds.
#pragma once

#include <cstdint>
#include <vector>

#include "core/game.hpp"
#include "core/player_view.hpp"
#include "graph/bfs.hpp"
#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "solver/set_cover.hpp"
#include "support/bitset.hpp"

namespace ncg {

/// Knobs bounding the exact solvers' effort.
struct BestResponseOptions {
  /// Branch-and-bound node budget for the set-cover solver (0 = default).
  std::uint64_t coverNodeBudget = 0;
  /// Node budget for the SumNCG subset search.
  std::uint64_t sumNodeBudget = 4'000'000;
};

/// Outcome of a best-response computation.
struct BestResponse {
  /// Proposed σ'_u as *global* node ids (sorted). Equals the current
  /// strategy when no strictly better one exists.
  std::vector<NodeId> strategyGlobal;
  /// Cost of the proposal, evaluated on the (modified) view.
  double proposedCost = 0.0;
  /// Cost of the current strategy, evaluated on the view.
  double currentCost = 0.0;
  /// True iff proposedCost < currentCost − ε.
  bool improving = false;
  /// True iff optimality was proven within the budgets.
  bool exact = true;
};

/// One radius of the MaxNCG cover reduction (Proposition 2.1 + §5.3):
/// for radius r, `sets[i]` is the radius-r ball mask of the i-th
/// non-free candidate vertex `setVertex[i]` in H₀, and `universe` is
/// the residual element set once the free neighbors have covered their
/// own balls. A cover of `universe` by `sets` of size s is exactly a
/// strategy with s purchases and post-move eccentricity <= r + 1.
/// `maxBall` (the largest ball popcount) feeds the cardinality lower
/// bound ceil(|universe| / maxBall).
struct CoverInstance {
  std::vector<DynBitset> sets;     ///< radius-r ball masks, non-free only
  std::vector<NodeId> setVertex;   ///< H₀ vertex behind each mask
  DynBitset universe;              ///< elements the purchases must cover
  std::size_t maxBall = 1;         ///< max popcount over `sets`
};

/// Storage for the per-radius cover instances of one MaxNCG solve, plus
/// the ball front that extends them to deeper radii: `balls[v]` is the
/// ball mask of H₀ vertex v at the deepest radius built so far. Every
/// solve builds its instances from radius 0, lazily and only as deep as
/// its passes read; only the storage is recycled across solves.
/// `constructions` counts per-radius instance builds over the object's
/// lifetime (a work counter).
struct CoverInstanceCache {
  std::vector<CoverInstance> instances;  ///< one per radius built
  std::vector<DynBitset> balls;          ///< deepest built ball masks
  std::vector<std::uint8_t> ballDone;    ///< ball stopped growing for good
  std::vector<std::size_t> ballCount;    ///< popcounts of `balls`
  std::size_t constructions = 0;         ///< instances built (lifetime)
};

/// Reusable buffers for repeated best-response solves. Keep one instance
/// per thread (the incremental dynamics engine keeps one for the whole
/// run); buffers grow to the largest view solved and are reused
/// afterwards, eliminating the per-call allocation of distance matrices,
/// coverage masks and branch-and-bound search stacks. Default-constructed
/// state is valid, and no result survives from one call to the next.
struct BestResponseScratch {
  BfsEngine bfs;
  CsrGraph h0;                       ///< the view graph minus its center
  std::vector<Dist> apd;             ///< |H₀|² distances (SumNCG, greedy)
  std::vector<DynBitset> ballsNext;  ///< ping-pong buffer for radius r+1
  CoverInstanceCache cover;          ///< MaxNCG per-radius instances
  SetCoverScratch coverSolver;       ///< set-cover working buffers
  std::vector<std::size_t> coverGreedySize;  ///< pass-A sizes per radius
  DynBitset coverFreeMask;           ///< free-neighbor mask (MaxNCG)
  std::vector<std::vector<Dist>> sumDepth;      ///< per-depth include buffers
  std::vector<std::vector<Dist>> sumSuffixMin;  ///< suffix distance bounds
  std::vector<Dist> sumBaseline;     ///< free-neighbor baseline distances
  std::vector<std::vector<double>> sumGainBound;  ///< per-depth B&B bounds

  // greedyMove working set (oracle path; the oracle's distance matrix
  // is `apd`): candidate/source lists and per-target best / second-best
  // source distances. Hoisted here so every move of every trial reuses
  // the same storage.
  std::vector<bool> moveFringe;
  std::vector<bool> moveFree;
  std::vector<bool> moveOwn;
  std::vector<NodeId> moveOwnList;
  std::vector<NodeId> moveSources;
  std::vector<NodeId> moveBestOwn;
  std::vector<Dist> moveBest;        ///< per-target nearest source distance
  std::vector<Dist> moveSecond;      ///< nearest distinct-source runner-up
  std::vector<NodeId> moveArgBest;   ///< source attaining moveBest
  std::vector<Dist> moveDropped;     ///< best distances after one drop
};

/// Best response for either game variant, per GameParams::kind.
BestResponse bestResponse(const PlayerView& pv, const GameParams& params,
                          const BestResponseOptions& options = {});

/// As above, reusing caller-owned scratch buffers (dynamics hot path).
/// Produces bit-identical results to the allocating overload.
BestResponse bestResponse(const PlayerView& pv, const GameParams& params,
                          const BestResponseOptions& options,
                          BestResponseScratch& scratch);

/// A stub for perfbench/ncg_trace.cpp, which changes only together with
/// the benchmark and still calls this overload (and the
/// DynamicsCache::coverCacheFor / viewRevision stubs). It runs the
/// overload above with `cover` as the instance storage and ignores
/// `revision`. Delete it once that file calls the overload above.
BestResponse bestResponse(const PlayerView& pv, const GameParams& params,
                          const BestResponseOptions& options,
                          BestResponseScratch& scratch,
                          CoverInstanceCache& cover, std::uint64_t revision);

}  // namespace ncg
