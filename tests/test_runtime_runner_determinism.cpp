// The scenario runner must be bitwise deterministic: a registered
// scenario run sequentially (1 process) or on 2, 4 or 8 forked workers
// produces identical results, and a run killed mid-grid and resumed
// from its checkpoint equals an uninterrupted run exactly. A unit that
// fails fails the run, and no worker outlives it.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/checkpoint.hpp"
#include "runtime/durable_log.hpp"
#include "runtime/runner.hpp"
#include "runtime/scenario.hpp"
#include "runtime/trial.hpp"
#include "support/error.hpp"

namespace ncg::runtime {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A small but real scenario: 3×2 grid of MaxNCG dynamics on 16-node
/// trees, 4 trials each — 24 units, enough to spread over 8 workers
/// and to split at an interesting point for resume.
const Scenario& testScenario() {
  static std::once_flag once;
  std::call_once(once, [] {
    Scenario s;
    s.name = "runner_determinism_fixture";
    s.description = "test fixture";
    s.metricNames = {"outcome", "rounds", "social_cost"};
    s.makePoints = [] {
      std::vector<ScenarioPoint> points;
      for (const Dist k : {2, 3, 1000}) {
        for (const double alpha : {0.5, 2.0}) {
          ScenarioPoint point;
          point.params = {{"k", static_cast<double>(k)}, {"alpha", alpha}};
          point.baseSeed = 0x7E57ULL + static_cast<std::uint64_t>(k * 17) +
                           static_cast<std::uint64_t>(alpha * 1009);
          point.trials = 4;
          points.push_back(std::move(point));
        }
      }
      return points;
    };
    s.runTrialFn = [](const ScenarioPoint& point, int /*trial*/, Rng& rng) {
      TrialSpec spec;
      spec.source = Source::kRandomTree;
      spec.n = 16;
      spec.params = GameParams::max(point.param("alpha"),
                                    static_cast<Dist>(point.param("k")));
      const TrialOutcome outcome = runTrial(spec, rng);
      return std::vector<double>{
          static_cast<double>(static_cast<int>(outcome.outcome)),
          static_cast<double>(outcome.rounds), outcome.features.socialCost};
    };
    registerScenario(std::move(s));
  });
  const Scenario* scenario = findScenario("runner_determinism_fixture");
  EXPECT_NE(scenario, nullptr);
  return *scenario;
}

std::string tempPath(const char* name) {
  return ::testing::TempDir() + "ncg_runner_test_" + name + ".jsonl";
}

/// Bit-pattern view of a full result set — equality means *bitwise*
/// identical, including any signed zeros.
std::vector<std::uint64_t> bitPatterns(const ScenarioResults& results) {
  std::vector<std::uint64_t> bits;
  for (const TrialRecord& record : results.records()) {
    bits.push_back(static_cast<std::uint64_t>(record.point));
    bits.push_back(static_cast<std::uint64_t>(record.trial));
    for (const double metric : record.metrics) {
      bits.push_back(std::bit_cast<std::uint64_t>(metric));
    }
  }
  return bits;
}

RunReport runWithProcs(int procs) {
  RunOptions options;
  options.procs = procs;
  return runScenario(testScenario(), options);
}

TEST(RunnerDeterminism, ProcessCountDoesNotChangeResults) {
  const RunReport one = runWithProcs(1);
  const RunReport two = runWithProcs(2);
  const RunReport eight = runWithProcs(8);
  ASSERT_TRUE(one.complete);
  ASSERT_TRUE(two.complete);
  ASSERT_TRUE(eight.complete);
  EXPECT_EQ(bitPatterns(one.results), bitPatterns(two.results));
  EXPECT_EQ(bitPatterns(one.results), bitPatterns(eight.results));
}

TEST(RunnerDeterminism, MoreWorkersThanUnitsIsFine) {
  // 3 units for 8 requested workers: only 3 are forked, and between
  // them they claim every unit exactly once.
  RunOptions eight;
  eight.procs = 8;
  eight.maxUnits = 3;
  const RunReport report = runScenario(testScenario(), eight);
  EXPECT_EQ(report.unitsRun, 3U);
  RunOptions one;
  one.procs = 1;
  one.maxUnits = 3;
  EXPECT_EQ(bitPatterns(report.results),
            bitPatterns(runScenario(testScenario(), one).results));
}

TEST(RunnerDeterminism, BuiltinSmokeScenarioIsProcessCountInvariant) {
  const Scenario* smoke = findScenario("smoke_dynamics");
  ASSERT_NE(smoke, nullptr);
  RunOptions one;
  one.procs = 1;
  RunOptions eight;
  eight.procs = 8;
  EXPECT_EQ(bitPatterns(runScenario(*smoke, one).results),
            bitPatterns(runScenario(*smoke, eight).results));
}

/// The PR-9 workload families (runtime/scenarios_families.cpp) — every
/// new scenario must hold the same bitwise process-count invariance the
/// fixture and smoke grids do.
const char* const kFamilyScenarios[] = {
    "family_hetero_alpha", "family_churn", "family_simultaneous",
    "family_adversarial", "family_noisy"};

TEST(RunnerDeterminism, FamilyScenariosAreProcessCountInvariant) {
  for (const char* name : kFamilyScenarios) {
    SCOPED_TRACE(name);
    const Scenario* scenario = findScenario(name);
    ASSERT_NE(scenario, nullptr);
    RunOptions one;
    one.procs = 1;
    RunOptions two;
    two.procs = 2;
    RunOptions eight;
    eight.procs = 8;
    const RunReport reference = runScenario(*scenario, one);
    ASSERT_TRUE(reference.complete);
    const std::vector<std::uint64_t> bits = bitPatterns(reference.results);
    EXPECT_EQ(bits, bitPatterns(runScenario(*scenario, two).results));
    EXPECT_EQ(bits, bitPatterns(runScenario(*scenario, eight).results));
  }
}

/// Sets an environment variable for one scope and unsets it after.
struct ScopedEnv {
  ScopedEnv(const char* name, const std::string& value) : name(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name); }
  const char* name;
};

TEST(RunnerDeterminism, LargeBaOnAColdArenaDirIsProcessCountInvariant) {
  // family_large_ba builds its base arena into NCG_ARENA_DIR on first
  // use and gives every trial a scratch copy. On a cold directory under
  // a tight pager budget, the sequential loop and four workers (two of
  // which may build the same arena at once) must give the same bits,
  // and leave only the cached *.arena files behind.
  const Scenario* scenario = findScenario("family_large_ba");
  ASSERT_NE(scenario, nullptr);
  const ScopedEnv budget("NCG_ARENA_BUDGET", "262144");
  std::vector<std::vector<std::uint64_t>> bits;
  for (const int procs : {1, 4}) {
    SCOPED_TRACE(procs);
    const std::string dir = ::testing::TempDir() + "ncg_runner_arena_" +
                            std::to_string(::getpid()) + "_p" +
                            std::to_string(procs);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directory(dir);
    const ScopedEnv arenaDir("NCG_ARENA_DIR", dir);
    RunOptions options;
    options.procs = procs;
    const RunReport report = runScenario(*scenario, options);
    ASSERT_TRUE(report.complete);
    bits.push_back(bitPatterns(report.results));
    std::size_t arenas = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      EXPECT_EQ(entry.path().extension(), ".arena") << entry.path();
      ++arenas;
    }
    EXPECT_GE(arenas, 1U);
    std::filesystem::remove_all(dir);
  }
  EXPECT_EQ(bits[0], bits[1]);
}

/// A cheap 3×4 grid whose trial body throws on unit (1, 2); a point's
/// base seed is its index.
const Scenario& failingScenario() {
  static std::once_flag once;
  std::call_once(once, [] {
    Scenario s;
    s.name = "runner_failure_fixture";
    s.description = "test fixture";
    s.metricNames = {"trial"};
    s.makePoints = [] {
      std::vector<ScenarioPoint> points(3);
      for (std::size_t p = 0; p < points.size(); ++p) {
        points[p].baseSeed = p;
        points[p].trials = 4;
      }
      return points;
    };
    s.runTrialFn = [](const ScenarioPoint& point, int trial, Rng&) {
      NCG_REQUIRE(point.baseSeed != 1 || trial != 2, "planted unit failure");
      return std::vector<double>{static_cast<double>(trial)};
    };
    registerScenario(std::move(s));
  });
  return *findScenario("runner_failure_fixture");
}

TEST(RunnerFailure, AFailingUnitFailsTheRunAndNoWorkerOutlivesIt) {
  for (const int procs : {1, 4}) {
    SCOPED_TRACE(procs);
    RunOptions options;
    options.procs = procs;
    EXPECT_THROW(runScenario(failingScenario(), options), Error);
    // Every forked worker was reaped before runScenario threw.
    int status = 0;
    errno = 0;
    EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
  }
}

TEST(RunnerFailure, APipeFailureWhileForkingLeavesNoChild) {
  // Leave file descriptors for only a few pipes, so pipe() fails after
  // some workers are already forked: those must be reaped all the same.
  const int lowestFree = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(lowestFree, 0);
  ::close(lowestFree);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(lowestFree + 4);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  RunOptions options;
  options.procs = 8;
  EXPECT_THROW(runScenario(testScenario(), options), Error);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  int status = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(CheckpointResume, FamilyScenarioKillAndResumeEqualsUninterrupted) {
  for (const char* name : kFamilyScenarios) {
    SCOPED_TRACE(name);
    const Scenario* scenario = findScenario(name);
    ASSERT_NE(scenario, nullptr);
    RunOptions plain;
    plain.procs = 1;
    const std::vector<std::uint64_t> uninterrupted =
        bitPatterns(runScenario(*scenario, plain).results);

    const std::string path = tempPath(name);
    std::remove(path.c_str());
    RunOptions first;
    first.procs = 2;
    first.checkpointPath = path;
    first.maxUnits = 5;  // the 2×2×3 family grids have 12 units
    const RunReport partial = runScenario(*scenario, first);
    EXPECT_FALSE(partial.complete);

    RunOptions resume;
    resume.procs = 4;
    resume.checkpointPath = path;
    const RunReport resumed = runScenario(*scenario, resume);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.unitsFromCheckpoint, 5U);
    EXPECT_EQ(bitPatterns(resumed.results), uninterrupted);
    std::remove(path.c_str());
  }
}

TEST(CheckpointResume, KillAndResumeEqualsUninterruptedRun) {
  const std::vector<std::uint64_t> uninterrupted =
      bitPatterns(runWithProcs(1).results);

  for (const std::size_t killAfter : {1UL, 5UL, 11UL, 23UL}) {
    const std::string path = tempPath("resume");
    std::remove(path.c_str());

    RunOptions first;
    first.procs = 2;
    first.checkpointPath = path;
    first.maxUnits = killAfter;
    const RunReport partial = runScenario(testScenario(), first);
    EXPECT_FALSE(partial.complete) << "killAfter=" << killAfter;
    EXPECT_EQ(partial.unitsRun, killAfter);

    RunOptions resume;
    resume.procs = 4;  // resume with a different worker count
    resume.checkpointPath = path;
    const RunReport resumed = runScenario(testScenario(), resume);
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.unitsFromCheckpoint, killAfter);
    EXPECT_EQ(resumed.unitsRun, 24U - killAfter);
    EXPECT_EQ(bitPatterns(resumed.results), uninterrupted)
        << "killAfter=" << killAfter;
    std::remove(path.c_str());
  }
}

TEST(CheckpointResume, TornFinalLineIsIgnoredOnResume) {
  const std::string path = tempPath("torn_resume");
  std::remove(path.c_str());
  RunOptions first;
  first.procs = 1;
  first.checkpointPath = path;
  first.maxUnits = 6;
  (void)runScenario(testScenario(), first);
  {
    std::FILE* f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"point\":2,\"trial\":1,\"bits\":[\"0x40", f);  // torn
    std::fclose(f);
  }
  RunOptions resume;
  resume.procs = 3;
  resume.checkpointPath = path;
  const RunReport resumed = runScenario(testScenario(), resume);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.unitsFromCheckpoint, 6U);
  EXPECT_EQ(bitPatterns(resumed.results),
            bitPatterns(runWithProcs(1).results));
  // The resume must not have merged its first append into the torn
  // fragment: reopening moved the fragment to the quarantine file, so
  // reloading the healed manifest finds every trial decodable and no
  // malformed line left behind.
  const CheckpointLoad reloaded = loadCheckpoint(path);
  EXPECT_TRUE(reloaded.headerValid);
  EXPECT_EQ(reloaded.records.size(), 24U);
  EXPECT_EQ(reloaded.malformedLines, 0U);
  EXPECT_FALSE(reloaded.corruptTail);
  const std::string quarantined = slurp(quarantinePath(path));
  EXPECT_NE(quarantined.find("\"bits\":[\"0x40"), std::string::npos);
  std::remove(path.c_str());
  std::remove(quarantinePath(path).c_str());
}

TEST(CheckpointResume, ResumingACompletedRunRecomputesNothing) {
  const std::string path = tempPath("noop_resume");
  std::remove(path.c_str());
  RunOptions options;
  options.procs = 2;
  options.checkpointPath = path;
  const RunReport full = runScenario(testScenario(), options);
  ASSERT_TRUE(full.complete);
  const RunReport again = runScenario(testScenario(), options);
  EXPECT_TRUE(again.complete);
  EXPECT_EQ(again.unitsRun, 0U);
  EXPECT_EQ(again.unitsFromCheckpoint, 24U);
  EXPECT_EQ(bitPatterns(again.results), bitPatterns(full.results));
  std::remove(path.c_str());
}

TEST(CheckpointResume, MismatchedManifestIsRefused) {
  const std::string path = tempPath("mismatch");
  std::remove(path.c_str());
  RunOptions options;
  options.checkpointPath = path;
  options.maxUnits = 2;
  (void)runScenario(testScenario(), options);

  const Scenario* smoke = findScenario("smoke_dynamics");
  ASSERT_NE(smoke, nullptr);
  RunOptions other;
  other.checkpointPath = path;
  EXPECT_THROW(runScenario(*smoke, other), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ncg::runtime
