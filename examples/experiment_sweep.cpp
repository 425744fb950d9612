// A miniature version of the paper's §5 experiment pipeline with CSV
// output — the building block for regenerating Figures 5-10 at custom
// parameters.
//
//   $ ./experiment_sweep [n] [trials] > sweep.csv
#include <cstdio>
#include <cstdlib>

#include "core/cost.hpp"
#include "dynamics/round_robin.hpp"
#include "gen/random_tree.hpp"
#include "stats/accumulator.hpp"
#include "support/random.hpp"

using namespace ncg;

int main(int argc, char** argv) {
  const NodeId n = argc > 1 ? std::atoi(argv[1]) : 50;
  const int trials = argc > 2 ? std::atoi(argv[2]) : 8;

  std::printf("alpha,k,quality,rounds,avg_view,converged,trials\n");

  for (const Dist k : {2, 3, 5, 1000}) {
    for (const double alpha : {0.5, 1.0, 2.0, 5.0}) {
      const GameParams params = GameParams::max(alpha, k);
      const std::uint64_t baseSeed = deriveSeed(
          0x5EEDULL, static_cast<std::uint64_t>(k * 1000 + alpha * 10));
      RunningStat quality;
      RunningStat rounds;
      RunningStat view;
      int converged = 0;
      for (int trial = 0; trial < trials; ++trial) {
        // Trial t runs on stream deriveSeed(baseSeed, t), whatever else
        // runs before it.
        Rng rng(deriveSeed(baseSeed, static_cast<std::uint64_t>(trial)));
        const Graph tree = makeRandomTree(n, rng);
        DynamicsConfig config;
        config.params = params;
        const DynamicsResult r = runBestResponseDynamics(
            StrategyProfile::randomOwnership(tree, rng), config);
        if (r.outcome != DynamicsOutcome::kConverged) continue;
        ++converged;
        const NetworkFeatures f =
            computeFeatures(r.graph, r.profile, params);
        quality.push(f.quality);
        rounds.push(static_cast<double>(r.rounds));
        view.push(f.avgViewSize);
      }
      std::printf("%.3f,%d,%.4f,%.2f,%.2f,%d,%d\n", alpha, k,
                  quality.mean(), rounds.mean(), view.mean(), converged,
                  trials);
    }
  }
  return 0;
}
