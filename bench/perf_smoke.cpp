// Perf smoke harness: fixed-seed slices of the heaviest reproduction
// workloads (fig10 convergence grid, table1 tree statistics, the
// micro_dynamics end-to-end cases), timed and emitted as machine-readable
// JSON so the perf trajectory is tracked from PR to PR.
//
// Unlike the paper harnesses this binary ignores NCG_TRIALS/NCG_SCALE:
// every slice is pinned (seeds, grids, trial counts) so that two runs on
// the same machine measure the same work. Output goes to
// $NCG_BENCH_JSON, default "BENCH_perf_smoke.json" in the working
// directory; timings also print to stdout for humans.
//
// CI runs this in Release and uploads the JSON as a (non-gating)
// artifact; docs/REPRODUCING.md records the numbers per PR.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "support/build_info.hpp"
#include "dynamics/round_robin.hpp"
#include "gen/random_tree.hpp"
#include "graph/metrics.hpp"
#include "stats/accumulator.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"

using namespace ncg;

namespace {

struct CaseResult {
  std::string name;
  double seconds = 0.0;
  std::size_t work = 0;  ///< case-specific unit count (trials, moves, ...)
};

/// fig10 slice: the reduced k × α convergence grid on n=100 trees,
/// 3 trials per point, seeds exactly as fig10_convergence derives them.
CaseResult fig10Slice() {
  WallTimer timer;
  std::size_t dynamicsRuns = 0;
  for (const Dist k : {2, 5, 1000}) {
    for (const double alpha : {1.0, 5.0}) {
      bench::TrialSpec spec;
      spec.source = bench::Source::kRandomTree;
      spec.n = 100;
      spec.params = GameParams::max(alpha, k);
      const std::uint64_t base =
          0xF161000ULL + static_cast<std::uint64_t>(k * 101) +
          static_cast<std::uint64_t>(alpha * 5407);
      for (int trial = 0; trial < 3; ++trial) {
        Rng rng(deriveSeed(base, static_cast<std::uint64_t>(trial)));
        (void)bench::runTrial(spec, rng);
        ++dynamicsRuns;
      }
    }
  }
  return {"fig10_slice", timer.seconds(), dynamicsRuns};
}

/// table1 slice: tree statistics at the full n grid, 5 trials per n.
CaseResult table1Slice() {
  WallTimer timer;
  std::size_t trees = 0;
  for (const NodeId n : {20, 30, 50, 70, 100, 200}) {
    for (int trial = 0; trial < 5; ++trial) {
      Rng rng(deriveSeed(0x7AB1E100ULL + static_cast<std::uint64_t>(n),
                         static_cast<std::uint64_t>(trial)));
      const Graph tree = makeRandomTree(n, rng);
      const StrategyProfile profile =
          StrategyProfile::randomOwnership(tree, rng);
      (void)diameter(tree);
      (void)tree.maxDegree();
      for (NodeId u = 0; u < n; ++u) (void)profile.boughtCount(u);
      ++trees;
    }
  }
  return {"table1_slice", timer.seconds(), trees};
}

/// One pinned dynamics run mirroring a micro_dynamics benchmark case.
CaseResult dynamicsCase(const char* name, std::uint64_t seed, NodeId n,
                        const GameParams& params, MoveRule rule,
                        int maxRounds) {
  Rng rng(seed);
  const Graph tree = makeRandomTree(n, rng);
  const StrategyProfile start = StrategyProfile::randomOwnership(tree, rng);
  DynamicsConfig config;
  config.params = params;
  config.moveRule = rule;
  config.maxRounds = maxRounds;
  WallTimer timer;
  const DynamicsResult result = runBestResponseDynamics(start, config);
  return {name, timer.seconds(), result.totalMoves};
}

/// Clean-wakeup slice: full-knowledge MaxNCG dynamics with the
/// best-response memoization off, so after round 1 almost every wakeup
/// rebuilds and re-solves an unchanged view. Pins the view extraction
/// and the construction path those re-solves take (lazy per-radius
/// instances, ballDone retirement), which every MaxNCG solve runs from
/// radius 0.
CaseResult noBrCacheSlice() {
  WallTimer timer;
  std::size_t moves = 0;
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    Rng rng(deriveSeed(0xD4ULL, trial));
    const Graph tree = makeRandomTree(100, rng);
    const StrategyProfile start = StrategyProfile::randomOwnership(tree, rng);
    DynamicsConfig config;
    config.params = GameParams::max(2.0, 1000);
    config.maxRounds = 1000;
    config.useBestResponseCache = false;
    const DynamicsResult result = runBestResponseDynamics(start, config);
    moves += result.totalMoves;
  }
  return {"micro_nocache_max_100", timer.seconds(), moves};
}

}  // namespace

int main() {
  std::vector<CaseResult> cases;
  cases.push_back(fig10Slice());
  cases.push_back(table1Slice());
  // The micro_dynamics slice (same generators/seeds as the Google
  // Benchmark cases, one run each — steady-state enough for smoke).
  cases.push_back(dynamicsCase("micro_tree_max_100_k3", 0xD0, 100,
                               GameParams::max(2.0, 3),
                               MoveRule::kBestResponse, 1000));
  cases.push_back(dynamicsCase("micro_greedy_rule_100", 0xD2, 100,
                               GameParams::max(2.0, 3), MoveRule::kGreedy,
                               1000));
  cases.push_back(dynamicsCase("micro_sum_small_24", 0xD3, 24,
                               GameParams::sum(1.5, 3),
                               MoveRule::kBestResponse, 40));
  cases.push_back(noBrCacheSlice());

  double total = 0.0;
  std::printf("=== perf smoke (fixed seeds, fixed grids) ===\n");
  for (const CaseResult& c : cases) {
    std::printf("%-24s %8.3f s  (work units: %zu)\n", c.name.c_str(),
                c.seconds, c.work);
    total += c.seconds;
  }
  std::printf("%-24s %8.3f s\n", "total", total);

  const char* path = std::getenv("NCG_BENCH_JSON");
  const std::string jsonPath =
      path != nullptr && path[0] != '\0' ? path : "BENCH_perf_smoke.json";
  std::FILE* out = std::fopen(jsonPath.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perf_smoke: cannot write %s\n", jsonPath.c_str());
    return 1;
  }
  // Provenance: which commit produced these numbers, when, and under
  // which env knobs (the workload itself is pinned and ignores them,
  // but the uploaded trajectory must be self-describing).
  std::fprintf(out,
               "{\n  \"bench\": \"perf_smoke\",\n"
               "  \"commit\": \"%s\",\n"
               "  \"generated_utc\": \"%s\",\n"
               "  \"ncg_scale\": %d,\n"
               "  \"ncg_trials\": %d,\n"
               "  \"pinned_workload\": true,\n"
               "  \"cases\": [\n",
               buildGitCommit(), utcTimestamp().c_str(),
               bench::fullScale() ? 1 : 0, bench::trialsFromEnv());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"seconds\": %.6f, "
                 "\"work\": %zu}%s\n",
                 cases[i].name.c_str(), cases[i].seconds, cases[i].work,
                 i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"total_seconds\": %.6f\n}\n", total);
  std::fclose(out);
  std::printf("wrote %s\n", jsonPath.c_str());
  return 0;
}
