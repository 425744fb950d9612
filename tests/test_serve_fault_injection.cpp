// Fault-injection differential suite for the shard-lease service: the
// assembled results must be bitwise identical to an in-process
// NCG_PROCS=1 run for any worker count, under seeded SIGKILLs of
// workers mid-shard, under a full server kill + restart mid-run, and
// through the dedupe path where a re-leased shard completes twice.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/checkpoint.hpp"
#include "runtime/runner.hpp"
#include "runtime/scenario.hpp"
#include "runtime/serve.hpp"
#include "runtime/trial.hpp"
#include "runtime/wire.hpp"
#include "support/clock.hpp"

namespace ncg::runtime {
namespace {

/// 3×2 points × 4 trials = 24 units of MaxNCG dynamics on 16-node
/// random trees — the same shape the runner determinism suite pins,
/// under this suite's own registry name and seed.
const Scenario& faultScenario() {
  static std::once_flag once;
  std::call_once(once, [] {
    Scenario s;
    s.name = "serve_fault_fixture";
    s.description = "test fixture";
    s.metricNames = {"outcome", "rounds", "social_cost"};
    s.makePoints = [] {
      std::vector<ScenarioPoint> points;
      for (const Dist k : {2, 3, 1000}) {
        for (const double alpha : {0.5, 2.0}) {
          ScenarioPoint point;
          point.params = {{"k", static_cast<double>(k)}, {"alpha", alpha}};
          point.baseSeed = 0xFA017ULL + static_cast<std::uint64_t>(k * 17) +
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
      // Pace each unit so the seeded kill/restart schedule has time to
      // interleave with the grid — a sleep cannot perturb the metrics,
      // so bitwise identity still holds against the paced reference.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      return std::vector<double>{
          static_cast<double>(static_cast<int>(outcome.outcome)),
          static_cast<double>(outcome.rounds), outcome.features.socialCost};
    };
    registerScenario(std::move(s));
  });
  return *findScenario("serve_fault_fixture");
}

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

/// The uninterrupted in-process single-proc reference every serve
/// configuration must reproduce bit for bit.
const std::vector<std::uint64_t>& reference() {
  static const std::vector<std::uint64_t> bits = [] {
    RunOptions options;
    options.procs = 1;
    return bitPatterns(runScenario(faultScenario(), options).results);
  }();
  return bits;
}

TEST(ServeFaultInjection, AnyWorkerCountMatchesSingleProc) {
  const Scenario& scenario = faultScenario();
  for (const int workers : {1, 2, 4}) {
    ServeOptions options;
    options.address = "127.0.0.1:0";
    options.heartbeatMs = 60000;
    options.shardSize = 2;
    ShardServer server(scenario, options);

    std::atomic<int> remaining{workers};
    std::vector<std::thread> fleet;
    std::vector<int> exits(static_cast<std::size_t>(workers), -1);
    for (int w = 0; w < workers; ++w) {
      fleet.emplace_back([&, w] {
        exits[static_cast<std::size_t>(w)] =
            runConnectedWorker(scenario, server.address());
        remaining.fetch_sub(1);
      });
    }
    while (!server.complete()) server.pollOnce(50);
    while (remaining.load() > 0) server.pollOnce(10);
    for (std::thread& t : fleet) t.join();
    for (const int code : exits) EXPECT_EQ(code, 0) << workers;
    EXPECT_EQ(bitPatterns(server.results()), reference())
        << "workers=" << workers;
    EXPECT_EQ(server.stats().unitsRecorded, 24U);
  }
}

/// Forks a worker process for the fixture scenario. The child shares
/// no state with the test: it recomputes the grid from the registry
/// and talks to the server only through the socket — exactly what a
/// worker on another host would do. SIGKILLing it mid-shard is then a
/// real crash, not a simulated one.
pid_t forkWorker(const std::string& address) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    WorkerOptions options;
    options.connectAttempts = 100;  // outlive a server restart gap
    options.connectDelayMs = 50;
    ::_exit(runConnectedWorker(faultScenario(), address, options));
  }
  EXPECT_GT(pid, 0);
  return pid;
}

TEST(ServeFaultInjection, SeededWorkerKillsAndServerRestartStayBitExact) {
  const Scenario& scenario = faultScenario();
  const std::string socketPath =
      ::testing::TempDir() + "ncg_fault.sock";
  const std::string manifest =
      ::testing::TempDir() + "ncg_fault_ckpt.jsonl";
  std::remove(manifest.c_str());

  ServeOptions options;
  options.address = "unix:" + socketPath;
  options.checkpointPath = manifest;
  options.heartbeatMs = 200;  // real clock: dead workers expire fast
  options.shardSize = 2;
  options.lingerMs = 2000;  // generous: every survivor must hear kDone

  auto server = std::make_unique<ShardServer>(scenario, options);

  // The fault schedule, keyed on completed-trial counts so it is
  // reproducible run to run: kill a live worker mid-grid at 4, 9 and
  // 15 completions (forking a replacement each time), and kill the
  // *server* at 11 — destroying it drops every connection and loses
  // all in-memory lease state; the restart must rebuild from the
  // manifest alone.
  std::deque<std::size_t> killAt{4, 9, 15};
  std::size_t restartAt = 11;
  bool restarted = false;

  std::vector<pid_t> workers;
  for (int w = 0; w < 3; ++w) workers.push_back(forkWorker(server->address()));
  std::size_t kills = 0;

  while (!server->complete()) {
    server->pollOnce(50);
    const std::size_t done = server->results().completedTrials();
    if (!killAt.empty() && done >= killAt.front() && !workers.empty()) {
      killAt.pop_front();
      // Kill the oldest live worker — likely mid-shard, often with
      // results already streamed for part of its lease.
      const pid_t victim = workers.front();
      workers.erase(workers.begin());
      ASSERT_EQ(::kill(victim, SIGKILL), 0);
      (void)::waitpid(victim, nullptr, 0);
      ++kills;
      workers.push_back(forkWorker(server->address()));
    }
    if (!restarted && done >= restartAt) {
      restarted = true;
      const ShardServer::Stats before = server->stats();
      server.reset();  // closes every socket: the SIGKILL equivalent
      server = std::make_unique<ShardServer>(scenario, options);
      // The manifest is the only state that survived; everything the
      // old server recorded must be back.
      EXPECT_GE(server->stats().unitsFromCheckpoint,
                before.unitsRecorded + before.unitsFromCheckpoint);
      EXPECT_FALSE(server->complete());
    }
  }
  EXPECT_EQ(kills, 3U);
  EXPECT_TRUE(restarted);

  // Linger so surviving workers hear kDone, then reap them. A worker
  // that happened to die with the server gap is still a pass — crash
  // tolerance is the server's job — but none may report a protocol
  // failure after a successful handshake... their exit codes are 0
  // (kDone) by construction once the grid completes.
  server->serveUntilComplete();
  for (const pid_t pid : workers) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  EXPECT_EQ(bitPatterns(server->results()), reference());

  // The manifest holds exactly one well-formed line per unit: the
  // dedupe path dropped every double completion before the writer.
  const CheckpointLoad load = loadCheckpoint(manifest);
  EXPECT_TRUE(load.headerValid);
  EXPECT_EQ(load.records.size(), 24U);
  std::vector<std::pair<int, int>> slots;
  for (const TrialRecord& record : load.records) {
    slots.emplace_back(record.point, record.trial);
  }
  std::sort(slots.begin(), slots.end());
  EXPECT_EQ(std::adjacent_find(slots.begin(), slots.end()), slots.end())
      << "manifest holds a duplicated (point, trial) slot";

  // And a cold restart from the finished manifest agrees instantly.
  ShardServer resumed(scenario, options);
  EXPECT_TRUE(resumed.complete());
  EXPECT_EQ(resumed.stats().unitsFromCheckpoint, 24U);
  EXPECT_EQ(bitPatterns(resumed.results()), reference());

  std::remove(manifest.c_str());
}

/// Two units, the second slow: whichever worker finishes the first one
/// asks again while the second is leased out and is told kRetry, so it
/// is idle when the grid completes.
const Scenario& slowTailScenario() {
  static std::once_flag once;
  std::call_once(once, [] {
    Scenario s;
    s.name = "serve_slow_tail_fixture";
    s.description = "test fixture";
    s.metricNames = {"trial"};
    s.makePoints = [] {
      ScenarioPoint point;
      point.params = {{"k", 1.0}};
      point.baseSeed = 0x51017ULL;
      point.trials = 2;
      return std::vector<ScenarioPoint>{point};
    };
    s.runTrialFn = [](const ScenarioPoint&, int trial, Rng&) {
      if (trial == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
      }
      return std::vector<double>{static_cast<double>(trial)};
    };
    registerScenario(std::move(s));
  });
  return *findScenario("serve_slow_tail_fixture");
}

TEST(ServeFaultInjection, IdleWorkersHearDoneFromAServerThatDoesNotLinger) {
  const Scenario& scenario = slowTailScenario();
  ServeOptions options;
  options.address = "unix:" + ::testing::TempDir() + "ncg_no_linger.sock";
  options.heartbeatMs = 4000;  // kRetry then suggests a 1000 ms wait
  options.shardSize = 1;
  options.lingerMs = 0;  // exit the moment the grid completes
  WorkerOptions workerOptions;  // give up at once on a vanished server
  workerOptions.connectAttempts = 1;
  workerOptions.connectDelayMs = 10;
  workerOptions.retryBudget = 1;

  std::vector<int> exits(2, -1);
  std::vector<WorkerReport> reports(2);
  std::vector<std::thread> fleet;
  {
    ShardServer server(scenario, options);
    const std::string address = server.address();
    for (std::size_t w = 0; w < 2; ++w) {
      fleet.emplace_back([&, address, w] {
        exits[w] = runConnectedWorker(scenario, address, workerOptions,
                                      &reports[w]);
      });
    }
    server.serveUntilComplete();
    EXPECT_TRUE(server.complete());
  }  // the server is gone: every socket is closed
  for (std::thread& t : fleet) t.join();
  EXPECT_EQ(exits[0], 0);
  EXPECT_EQ(exits[1], 0);
  EXPECT_EQ(reports[0].reconnects + reports[1].reconnects, 0U);
}

TEST(ServeFaultInjection, ReLeasedShardCompletingTwiceIsDeduped) {
  const Scenario& scenario = faultScenario();
  const std::string manifest =
      ::testing::TempDir() + "ncg_fault_dedupe.jsonl";
  std::remove(manifest.c_str());

  ManualClock clock(0);
  ServeOptions options;
  options.address = "127.0.0.1:0";
  options.checkpointPath = manifest;
  options.heartbeatMs = 100;
  options.shardSize = 4;
  options.clock = &clock;
  ShardServer server(scenario, options);
  const std::vector<ScenarioPoint> points = server.points();

  const auto step = [&](int rounds = 5) {
    for (int i = 0; i < rounds; ++i) server.pollOnce(20);
  };
  const auto handshake = [&](int fd, FrameReader& reader) {
    ASSERT_TRUE(sendFrameBlocking(fd, FrameType::kHello, scenario.name));
    step();
    const auto welcome = readFrameBlocking(fd, reader);
    ASSERT_TRUE(welcome.has_value());
    ASSERT_EQ(welcome->type, FrameType::kWelcome);
  };
  const auto lease = [&](int fd, FrameReader& reader) {
    EXPECT_TRUE(sendFrameBlocking(fd, FrameType::kLeaseRequest, ""));
    step();
    const auto frame = readFrameBlocking(fd, reader);
    EXPECT_TRUE(frame.has_value());
    return frame.value_or(Frame{});
  };
  const auto sendUnit = [&](int fd, std::uint64_t unit) {
    const int point = static_cast<int>(unit) / 4;  // 4 trials per point
    const int trial = static_cast<int>(unit) % 4;
    const TrialRecord record =
        computeScenarioUnit(scenario, points, point, trial);
    EXPECT_TRUE(sendFrameBlocking(fd, FrameType::kResult,
                                  encodeTrialLine(record)));
  };

  // Worker A leases the first shard...
  const int slow = connectToServeAddress(server.address(), 1, 0);
  ASSERT_GE(slow, 0);
  FrameReader slowReader;
  handshake(slow, slowReader);
  const Frame slowGrant = lease(slow, slowReader);
  ASSERT_EQ(slowGrant.type, FrameType::kLeaseGrant);
  const auto slowUnits = decodeLeaseGrant(slowGrant.payload);
  ASSERT_TRUE(slowUnits.has_value());
  ASSERT_EQ(slowUnits->units.size(), 4U);

  // ...then goes silent past its deadline: the shard re-leases to B.
  clock.advance(100);
  server.pollOnce(0);
  EXPECT_EQ(server.stats().reLeases, 1U);

  const int heir = connectToServeAddress(server.address(), 1, 0);
  ASSERT_GE(heir, 0);
  FrameReader heirReader;
  handshake(heir, heirReader);
  const Frame heirGrant = lease(heir, heirReader);
  ASSERT_EQ(heirGrant.type, FrameType::kLeaseGrant);
  const auto heirUnits = decodeLeaseGrant(heirGrant.payload);
  ASSERT_TRUE(heirUnits.has_value());
  EXPECT_EQ(heirUnits->units, slowUnits->units);

  // BOTH complete the shard — A wasn't dead, just slow (the classic
  // re-lease race). Every unit arrives twice; the second copy of each
  // must be dropped without touching results or manifest.
  for (const std::uint64_t unit : heirUnits->units) sendUnit(heir, unit);
  step();
  EXPECT_EQ(server.stats().unitsRecorded, 4U);
  for (const std::uint64_t unit : slowUnits->units) sendUnit(slow, unit);
  step();
  EXPECT_EQ(server.stats().unitsRecorded, 4U);
  EXPECT_EQ(server.stats().duplicateResults, 4U);
  ::close(slow);

  // B drains the rest of the grid alone.
  for (;;) {
    const Frame frame = lease(heir, heirReader);
    if (frame.type == FrameType::kDone) break;
    ASSERT_EQ(frame.type, FrameType::kLeaseGrant);
    const auto units = decodeLeaseGrant(frame.payload);
    ASSERT_TRUE(units.has_value());
    for (const std::uint64_t unit : units->units) sendUnit(heir, unit);
    step();
  }
  ::close(heir);

  EXPECT_TRUE(server.complete());
  EXPECT_EQ(bitPatterns(server.results()), reference());

  // One manifest line per unit despite the double completion.
  const CheckpointLoad load = loadCheckpoint(manifest);
  EXPECT_TRUE(load.headerValid);
  EXPECT_EQ(load.records.size(), 24U);
  EXPECT_EQ(load.malformedLines, 0U);
  std::remove(manifest.c_str());
}

}  // namespace
}  // namespace ncg::runtime
