// The per-unit timing layer: codec strictness, sidecar writer/loader,
// summary math — and the load-bearing invariant that timing NEVER
// touches the result manifest: a checkpointed run with timing enabled
// produces a manifest byte-identical to one without, while the sidecar
// holds exactly one line per computed unit, across the in-process,
// forked and socket executors.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "runtime/checkpoint.hpp"
#include "runtime/durable_log.hpp"
#include "runtime/runner.hpp"
#include "runtime/scenario.hpp"
#include "runtime/serve.hpp"
#include "runtime/timing.hpp"
#include "runtime/trial.hpp"
#include "runtime/wire.hpp"
#include "support/clock.hpp"

namespace ncg::runtime {
namespace {

// -------------------------------------------------------------------
// Codec

TEST(TimingCodec, UnitLineRoundTrips) {
  const UnitTiming timing{3, 7, 123456789, 4242, 11};
  const auto decoded = decodeTimingLine(encodeTimingLine(timing));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, timing);
}

TEST(TimingCodec, NegativeStartRoundTrips) {
  // Monotonic clocks have an arbitrary epoch; the codec must not
  // assume non-negative timestamps.
  const UnitTiming timing{0, 0, -5, 0, 0};
  const auto decoded = decodeTimingLine(encodeTimingLine(timing));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, timing);
}

TEST(TimingCodec, HeaderLineRoundTrips) {
  const ResultHeader header{"fixture", 0xDEADBEEFCAFE1234ULL, 6, 24};
  const auto decoded = decodeTimingHeaderLine(encodeTimingHeaderLine(header));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, header);
}

TEST(TimingCodec, MalformedLinesAreRejected) {
  const std::string good = encodeTimingLine({1, 2, 3, 4, 5});
  EXPECT_TRUE(decodeTimingLine(good).has_value());
  // Truncations at every prefix length.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(decodeTimingLine(good.substr(0, len)).has_value())
        << "prefix length " << len;
  }
  // Trailing garbage.
  EXPECT_FALSE(decodeTimingLine(good + " ").has_value());
  EXPECT_FALSE(decodeTimingLine(good + "x").has_value());
  // Result-manifest lines are not timing lines and vice versa.
  EXPECT_FALSE(
      decodeTimingLine("{\"point\":0,\"trial\":0,\"bits\":[],\"values\":[]}")
          .has_value());
  EXPECT_FALSE(decodeTimingHeaderLine(
                   encodeHeaderLine({"fixture", 1, 2, 3}))
                   .has_value());
  EXPECT_FALSE(decodeTrialLine(good).has_value());
}

TEST(TimingCodec, SidecarPathAppendsSuffix) {
  EXPECT_EQ(timingSidecarPath("ck.jsonl"), "ck.jsonl.timings.jsonl");
  EXPECT_EQ(timingSidecarPath("/tmp/a/b"), "/tmp/a/b.timings.jsonl");
}

// -------------------------------------------------------------------
// Summary math

std::vector<ScenarioPoint> summaryPoints(std::size_t n) {
  std::vector<ScenarioPoint> points(n);
  for (std::size_t i = 0; i < n; ++i) points[i].trials = 8;
  return points;
}

TEST(TimingSummaryMath, PerPointTotalsMaxAndMedian) {
  // Point 0: durations 4, 1, 3, 2 ms → total 10 ms, max 4 ms, p50 =
  // lower middle of {1,2,3,4} = 2 ms. Point 1: single 5 ms unit.
  const std::vector<UnitTiming> timings = {
      {0, 0, 0, 4000, 0}, {0, 1, 0, 1000, 0}, {0, 2, 0, 3000, 0},
      {0, 3, 0, 2000, 0}, {1, 0, 0, 5000, 0},
  };
  const TimingSummary summary = summarizeTimings(summaryPoints(2), timings);
  ASSERT_EQ(summary.perPoint.size(), 2U);
  EXPECT_EQ(summary.perPoint[0].units, 4U);
  EXPECT_DOUBLE_EQ(summary.perPoint[0].totalSeconds, 0.010);
  EXPECT_DOUBLE_EQ(summary.perPoint[0].maxSeconds, 0.004);
  EXPECT_DOUBLE_EQ(summary.perPoint[0].p50Seconds, 0.002);
  EXPECT_EQ(summary.perPoint[1].units, 1U);
  EXPECT_DOUBLE_EQ(summary.perPoint[1].p50Seconds, 0.005);
  EXPECT_EQ(summary.units, 5U);
  EXPECT_DOUBLE_EQ(summary.totalSeconds, 0.015);
  EXPECT_DOUBLE_EQ(summary.maxSeconds, 0.005);
  EXPECT_GT(summary.peakRssKb, 0);
}

TEST(TimingSummaryMath, OddCountMedianIsTheMiddleUnit) {
  const std::vector<UnitTiming> timings = {
      {0, 0, 0, 9000, 0}, {0, 1, 0, 1000, 0}, {0, 2, 0, 5000, 0}};
  const TimingSummary summary = summarizeTimings(summaryPoints(1), timings);
  EXPECT_DOUBLE_EQ(summary.perPoint[0].p50Seconds, 0.005);
}

TEST(TimingSummaryMath, OutOfRangePointsAreIgnored) {
  const std::vector<UnitTiming> timings = {
      {0, 0, 0, 1000, 0}, {5, 0, 0, 9000, 0}, {-1, 0, 0, 9000, 0}};
  const TimingSummary summary = summarizeTimings(summaryPoints(1), timings);
  EXPECT_EQ(summary.units, 1U);
  EXPECT_DOUBLE_EQ(summary.totalSeconds, 0.001);
}

TEST(TimingSummaryMath, CaseNamesComeFromPointParams) {
  ScenarioPoint labeled;
  labeled.params = {{"k", 2.0}, {"alpha", 0.5}};
  EXPECT_EQ(pointCaseName(labeled, 3), "k=2,alpha=0.5");
  EXPECT_EQ(pointCaseName(ScenarioPoint{}, 3), "point3");
}

// -------------------------------------------------------------------
// Sidecar writer / loader

std::string tempPath(const char* name) {
  return ::testing::TempDir() + "ncg_timing_test_" + name + ".jsonl";
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TimingWriterIo, AppendReloadAndTornTailHealing) {
  const std::string path = tempPath("writer");
  std::remove(path.c_str());
  const ResultHeader header{"fixture", 42, 1, 4};
  {
    TimingWriter writer(path, header);
    ASSERT_TRUE(writer.enabled());
    writer.append({0, 0, 100, 10, 1});
    writer.append({0, 1, 200, 20, 2});
  }
  // Tear the tail, then reopen: the writer must move the torn fragment
  // to the sidecar's quarantine file, not extend it in place.
  {
    std::FILE* f = std::fopen(path.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"unit_timing\":1,\"point\":0,\"tri", f);
    std::fclose(f);
  }
  {
    TimingWriter writer(path, header);  // existing file: no second header
    writer.append({0, 2, 300, 30, 1});
  }
  const TimingLoad load = loadTimingSidecar(path);
  EXPECT_TRUE(load.exists);
  EXPECT_TRUE(load.headerValid);
  EXPECT_EQ(load.header, header);
  ASSERT_EQ(load.timings.size(), 3U);
  EXPECT_EQ(load.timings[2], (UnitTiming{0, 2, 300, 30, 1}));
  EXPECT_EQ(load.malformedLines, 0U);  // the fragment left the file...
  const std::string quarantined = readFile(quarantinePath(path));
  EXPECT_NE(quarantined.find("{\"unit_timing\":1,\"point\":0,\"tri"),
            std::string::npos);  // ...into quarantine, byte-preserved
  std::remove(path.c_str());
  std::remove(quarantinePath(path).c_str());
}

TEST(TimingWriterIo, DisabledWriterIsANoOp) {
  TimingWriter writer;
  EXPECT_FALSE(writer.enabled());
  writer.append({0, 0, 0, 0, 0});  // must not crash
  const TimingLoad load = loadTimingSidecar(tempPath("never_written"));
  EXPECT_FALSE(load.exists);
}

// -------------------------------------------------------------------
// Executor integration

/// Same shape as the runner-determinism fixture: 3×2 grid, 4 trials —
/// 24 units, enough to fork over and to split for resume.
const Scenario& timingScenario() {
  static std::once_flag once;
  std::call_once(once, [] {
    Scenario s;
    s.name = "timing_fixture";
    s.description = "test fixture";
    s.metricNames = {"outcome", "rounds", "social_cost"};
    s.makePoints = [] {
      std::vector<ScenarioPoint> points;
      for (const Dist k : {2, 3, 1000}) {
        for (const double alpha : {0.5, 2.0}) {
          ScenarioPoint point;
          point.params = {{"k", static_cast<double>(k)}, {"alpha", alpha}};
          point.baseSeed = 0x7131ULL + static_cast<std::uint64_t>(k * 17) +
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
  return *findScenario("timing_fixture");
}

/// Every (point, trial) pair of `timings`, asserting no duplicates.
std::set<std::pair<int, int>> unitSet(const std::vector<UnitTiming>& timings) {
  std::set<std::pair<int, int>> units;
  for (const UnitTiming& t : timings) {
    EXPECT_TRUE(units.emplace(t.point, t.trial).second)
        << "unit (" << t.point << ", " << t.trial << ") timed twice";
  }
  return units;
}

std::set<std::pair<int, int>> fullGrid() {
  std::set<std::pair<int, int>> units;
  for (int p = 0; p < 6; ++p) {
    for (int t = 0; t < 4; ++t) units.emplace(p, t);
  }
  return units;
}

TEST(RunnerTiming, ManifestIsByteIdenticalWithTimingOnOrOff) {
  // procs = 1 appends in unit order, so the two manifests can differ
  // only through the *timing knob*, not through arrival order.
  const std::string ckOff = tempPath("manifest_off");
  const std::string ckOn = tempPath("manifest_on");
  std::remove(ckOff.c_str());
  std::remove(ckOn.c_str());
  std::remove(timingSidecarPath(ckOff).c_str());
  std::remove(timingSidecarPath(ckOn).c_str());

  RunOptions off;
  off.procs = 1;
  off.checkpointPath = ckOff;
  off.recordTimings = false;
  const RunReport reportOff = runScenario(timingScenario(), off);
  ASSERT_TRUE(reportOff.complete);
  EXPECT_TRUE(reportOff.timings.empty());
  EXPECT_FALSE(loadTimingSidecar(timingSidecarPath(ckOff)).exists);

  RunOptions on;
  on.procs = 1;
  on.checkpointPath = ckOn;
  const RunReport reportOn = runScenario(timingScenario(), on);
  ASSERT_TRUE(reportOn.complete);
  EXPECT_EQ(reportOn.timings.size(), 24U);

  // The invariant this whole layer hangs on: timing never enters the
  // result manifest.
  EXPECT_EQ(readFile(ckOff), readFile(ckOn));
  const CheckpointLoad manifest = loadCheckpoint(ckOn);
  EXPECT_TRUE(manifest.headerValid);
  EXPECT_EQ(manifest.records.size(), 24U);
  EXPECT_EQ(manifest.malformedLines, 0U);

  // The sidecar holds exactly one line per computed unit.
  const TimingLoad sidecar = loadTimingSidecar(timingSidecarPath(ckOn));
  EXPECT_TRUE(sidecar.exists);
  EXPECT_TRUE(sidecar.headerValid);
  EXPECT_EQ(sidecar.malformedLines, 0U);
  EXPECT_EQ(unitSet(sidecar.timings), fullGrid());

  std::remove(ckOff.c_str());
  std::remove(ckOn.c_str());
  std::remove(timingSidecarPath(ckOn).c_str());
}

TEST(RunnerTiming, InProcessTimingsRunOnTheInjectedClock) {
  ManualClock clock(5);  // frozen: every unit starts at 5000 us, 0 long
  RunOptions options;
  options.procs = 1;
  options.clock = &clock;
  const RunReport report = runScenario(timingScenario(), options);
  ASSERT_TRUE(report.complete);
  ASSERT_EQ(report.timings.size(), 24U);
  for (const UnitTiming& t : report.timings) {
    EXPECT_EQ(t.startUs, 5000);
    EXPECT_EQ(t.durationUs, 0);
    EXPECT_EQ(t.worker, 0U);
  }
  EXPECT_EQ(unitSet(report.timings), fullGrid());
}

TEST(RunnerTiming, ForkedWorkersTimeEveryUnitExactlyOnce) {
  const std::string ck = tempPath("forked");
  std::remove(ck.c_str());
  std::remove(timingSidecarPath(ck).c_str());
  RunOptions options;
  options.procs = 3;
  options.checkpointPath = ck;
  const RunReport report = runScenario(timingScenario(), options);
  ASSERT_TRUE(report.complete);
  EXPECT_EQ(unitSet(report.timings), fullGrid());
  const TimingLoad sidecar = loadTimingSidecar(timingSidecarPath(ck));
  EXPECT_TRUE(sidecar.headerValid);
  EXPECT_EQ(sidecar.malformedLines, 0U);
  EXPECT_EQ(unitSet(sidecar.timings), fullGrid());
  // The manifest took no timing lines even over the worker pipes.
  const CheckpointLoad manifest = loadCheckpoint(ck);
  EXPECT_EQ(manifest.records.size(), 24U);
  EXPECT_EQ(manifest.malformedLines, 0U);
  std::remove(ck.c_str());
  std::remove(timingSidecarPath(ck).c_str());
}

TEST(RunnerTiming, ResumeAppendsOnlyTheRemainingUnits) {
  const std::string ck = tempPath("resume");
  std::remove(ck.c_str());
  std::remove(timingSidecarPath(ck).c_str());
  RunOptions first;
  first.procs = 2;
  first.checkpointPath = ck;
  first.maxUnits = 5;
  const RunReport partial = runScenario(timingScenario(), first);
  EXPECT_FALSE(partial.complete);
  EXPECT_EQ(partial.timings.size(), 5U);
  EXPECT_EQ(loadTimingSidecar(timingSidecarPath(ck)).timings.size(), 5U);

  RunOptions resume;
  resume.procs = 2;
  resume.checkpointPath = ck;
  const RunReport resumed = runScenario(timingScenario(), resume);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.timings.size(), 19U);  // only what this call computed
  const TimingLoad sidecar = loadTimingSidecar(timingSidecarPath(ck));
  EXPECT_EQ(unitSet(sidecar.timings), fullGrid());
  std::remove(ck.c_str());
  std::remove(timingSidecarPath(ck).c_str());
}

// -------------------------------------------------------------------
// Serve-layer timing frames

struct RawWorker {
  int fd = -1;
  FrameReader reader;

  void connect(const ShardServer& server) {
    fd = connectToServeAddress(server.address(), 1, 0);
    ASSERT_GE(fd, 0);
  }
  ~RawWorker() {
    if (fd >= 0) ::close(fd);
  }
};

TEST(ServeTiming, FramesAreStampedDedupedAndSidecarred) {
  const Scenario& scenario = timingScenario();
  const std::string ck = tempPath("serve");
  std::remove(ck.c_str());
  std::remove(timingSidecarPath(ck).c_str());
  ManualClock clock(0);
  ServeOptions options;
  options.address = "127.0.0.1:0";
  options.heartbeatMs = 100000;
  options.shardSize = 24;  // the whole grid in one lease
  options.checkpointPath = ck;
  options.clock = &clock;
  ShardServer server(scenario, options);
  const std::vector<ScenarioPoint> points = server.points();

  RawWorker worker;
  worker.connect(server);
  ASSERT_TRUE(sendFrameBlocking(worker.fd, FrameType::kHello, scenario.name));
  ASSERT_TRUE(sendFrameBlocking(worker.fd, FrameType::kLeaseRequest, ""));
  for (int i = 0; i < 5; ++i) server.pollOnce(20);
  ASSERT_EQ(readFrameBlocking(worker.fd, worker.reader)->type,
            FrameType::kWelcome);
  ASSERT_EQ(readFrameBlocking(worker.fd, worker.reader)->type,
            FrameType::kLeaseGrant);

  for (int point = 0; point < 6; ++point) {
    for (int trial = 0; trial < 4; ++trial) {
      const TrialRecord record =
          computeScenarioUnit(scenario, points, point, trial);
      ASSERT_TRUE(sendFrameBlocking(worker.fd, FrameType::kResult,
                                    encodeTrialLine(record)));
      // Worker-side ids are a placeholder; the server stamps the
      // reporting connection's id.
      ASSERT_TRUE(sendFrameBlocking(
          worker.fd, FrameType::kTiming,
          encodeTimingLine({point, trial, 1000 + trial, 7, 0})));
      for (int i = 0; i < 5; ++i) server.pollOnce(20);
    }
  }
  // A re-leased shard reporting a unit twice: first report wins.
  ASSERT_TRUE(sendFrameBlocking(worker.fd, FrameType::kTiming,
                                encodeTimingLine({0, 0, 999999, 999, 0})));
  for (int i = 0; i < 5; ++i) server.pollOnce(20);

  EXPECT_TRUE(server.complete());
  ASSERT_EQ(server.timings().size(), 24U);
  EXPECT_EQ(unitSet(server.timings()), fullGrid());
  for (const UnitTiming& t : server.timings()) {
    EXPECT_EQ(t.worker, 1U);  // first connection's id
    EXPECT_EQ(t.durationUs, 7);
  }

  const TimingLoad sidecar = loadTimingSidecar(timingSidecarPath(ck));
  EXPECT_TRUE(sidecar.headerValid);
  EXPECT_EQ(sidecar.malformedLines, 0U);
  EXPECT_EQ(unitSet(sidecar.timings), fullGrid());
  const CheckpointLoad manifest = loadCheckpoint(ck);
  EXPECT_EQ(manifest.records.size(), 24U);
  EXPECT_EQ(manifest.malformedLines, 0U);

  // A timing frame for a unit outside the grid is a protocol violation.
  RawWorker rogue;
  rogue.connect(server);
  ASSERT_TRUE(sendFrameBlocking(rogue.fd, FrameType::kHello, scenario.name));
  for (int i = 0; i < 5; ++i) server.pollOnce(20);
  const std::size_t droppedBefore = server.stats().droppedConnections;
  ASSERT_TRUE(sendFrameBlocking(rogue.fd, FrameType::kTiming,
                                encodeTimingLine({99, 0, 0, 0, 0})));
  for (int i = 0; i < 5; ++i) server.pollOnce(20);
  EXPECT_EQ(server.stats().droppedConnections, droppedBefore + 1);

  std::remove(ck.c_str());
  std::remove(timingSidecarPath(ck).c_str());
}

}  // namespace
}  // namespace ncg::runtime
