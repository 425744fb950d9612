// Wire-protocol robustness: the frame codec round-trips every payload
// bit-exactly and the FrameReader refuses malformed streams instead of
// guessing; a live ShardServer answering raw sockets survives garbage
// bytes, oversized length prefixes, truncated frames, mid-frame
// disconnects and malformed payloads by dropping the connection and
// re-leasing — never by crashing or corrupting the manifest.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/checkpoint.hpp"
#include "runtime/runner.hpp"
#include "runtime/scenario.hpp"
#include "runtime/serve.hpp"
#include "runtime/trial.hpp"
#include "runtime/wire.hpp"
#include "support/error.hpp"

namespace ncg::runtime {
namespace {

// -------------------------------------------------------------------
// Codec

const std::vector<FrameType> kAllTypes = {
    FrameType::kHello,  FrameType::kWelcome, FrameType::kLeaseRequest,
    FrameType::kLeaseGrant, FrameType::kRetry, FrameType::kDone,
    FrameType::kResult, FrameType::kHeartbeat,
};

std::string binaryPayload(std::size_t size) {
  std::string payload;
  payload.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    payload.push_back(static_cast<char>(i % 251));  // includes \n and \0
  }
  return payload;
}

TEST(FrameCodec, RoundTripsEveryTypeAndSize) {
  for (const FrameType type : kAllTypes) {
    for (const std::size_t size : {0UL, 1UL, 5UL, 1000UL}) {
      const std::string payload = binaryPayload(size);
      const std::string bytes = encodeFrame(type, payload);
      ASSERT_EQ(bytes.size(), 5 + size);
      FrameReader reader;
      reader.feed(bytes.data(), bytes.size());
      const auto frame = reader.next();
      ASSERT_TRUE(frame.has_value());
      EXPECT_EQ(frame->type, type);
      EXPECT_EQ(frame->payload, payload);
      EXPECT_FALSE(reader.corrupt());
      EXPECT_EQ(reader.pendingBytes(), 0U);
      EXPECT_FALSE(reader.next().has_value());
    }
  }
}

TEST(FrameCodec, ByteAtATimeFeedYieldsTheSameFrames) {
  const std::string payload = binaryPayload(97);
  const std::string bytes = encodeFrame(FrameType::kResult, payload) +
                            encodeFrame(FrameType::kHeartbeat, "");
  FrameReader reader;
  std::vector<Frame> frames;
  for (const char byte : bytes) {
    reader.feed(&byte, 1);
    while (const auto frame = reader.next()) frames.push_back(*frame);
  }
  ASSERT_EQ(frames.size(), 2U);
  EXPECT_EQ(frames[0], (Frame{FrameType::kResult, payload}));
  EXPECT_EQ(frames[1], (Frame{FrameType::kHeartbeat, ""}));
  EXPECT_FALSE(reader.corrupt());
}

TEST(FrameCodec, ManyFramesInOneFeed) {
  std::string bytes;
  for (int i = 0; i < 50; ++i) {
    bytes += encodeFrame(FrameType::kRetry, std::to_string(i));
  }
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  for (int i = 0; i < 50; ++i) {
    const auto frame = reader.next();
    ASSERT_TRUE(frame.has_value()) << i;
    EXPECT_EQ(frame->payload, std::to_string(i));
  }
  EXPECT_FALSE(reader.next().has_value());
}

TEST(FrameCodec, TruncatedFrameWaitsWithoutCorruption) {
  const std::string bytes = encodeFrame(FrameType::kHello, "scenario_name");
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size() - 4);  // cut mid-payload
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.corrupt());
  reader.feed(bytes.data() + bytes.size() - 4, 4);
  const auto frame = reader.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->payload, "scenario_name");
}

TEST(FrameCodec, OversizedLengthPrefixPoisonsImmediately) {
  // Header only: the reader must reject before any payload arrives —
  // it may never try to buffer attacker-chosen gigabytes.
  std::string bytes = encodeFrame(FrameType::kHello, "x");
  bytes[3] = static_cast<char>(0x7F);  // length now ~2 GiB
  FrameReader reader;
  reader.feed(bytes.data(), 5);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.corrupt());
  EXPECT_NE(reader.error().find("exceeds"), std::string::npos);
  // Poisoned for good: further feeds are discarded.
  const std::string good = encodeFrame(FrameType::kHeartbeat, "");
  reader.feed(good.data(), good.size());
  EXPECT_FALSE(reader.next().has_value());
}

TEST(FrameCodec, UnknownFrameTypePoisons) {
  for (const std::uint8_t type : {0, 10, 42, 255}) {
    std::string bytes = encodeFrame(FrameType::kHello, "abc");
    bytes[4] = static_cast<char>(type);
    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    EXPECT_FALSE(reader.next().has_value()) << int(type);
    EXPECT_TRUE(reader.corrupt()) << int(type);
  }
}

TEST(FrameCodec, GarbageBytesPoison) {
  const std::string garbage = "GET / HTTP/1.1\r\nHost: nope\r\n\r\n";
  FrameReader reader;
  reader.feed(garbage.data(), garbage.size());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.corrupt());
}

TEST(FrameCodec, EncodeRejectsOversizedPayload) {
  const std::string big(kMaxFramePayload + 1, 'x');
  EXPECT_THROW(encodeFrame(FrameType::kResult, big), Error);
}

TEST(FrameCodec, LeaseGrantRoundTrip) {
  for (const LeaseGrant& grant :
       {LeaseGrant{1, {}}, LeaseGrant{7, {0}},
        LeaseGrant{123456789, {5, 6, 7, 1000000}},
        LeaseGrant{2, {9223372036854775807ULL}}}) {
    const auto decoded = decodeLeaseGrant(encodeLeaseGrant(grant));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, grant);
  }
}

TEST(FrameCodec, LeaseGrantRejectsMalformedPayloads) {
  for (const char* bad :
       {"", "{}", "{\"lease\":1,\"units\":[]}x",
        "{\"lease\":,\"units\":[]}", "{\"lease\":1,\"units\":[1,]}",
        "{\"lease\":1,\"units\":[1,2}", "{\"lease\":1,\"units\":[1 2]}",
        "{\"lease\":1}", "{\"Lease\":1,\"units\":[]}",
        "{\"lease\":1,\"units\":[18446744073709551616]}"}) {
    EXPECT_FALSE(decodeLeaseGrant(bad).has_value()) << bad;
  }
}

TEST(FrameCodec, WelcomeRoundTrip) {
  const Welcome welcome{ResultHeader{"grid", 0xDEADBEEFCAFEF00DULL, 6, 24},
                        5000};
  const auto decoded = decodeWelcome(encodeWelcome(welcome));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, welcome);
}

TEST(FrameCodec, WelcomeRejectsMalformedPayloads) {
  const std::string headerLine =
      encodeHeaderLine(ResultHeader{"grid", 1, 2, 3});
  for (const std::string& bad :
       {std::string(""), headerLine, headerLine + "\n",
        headerLine + "\nxyz", headerLine + "\n-5",
        headerLine + "\n99999999999",  // over a day: nonsense TTL
        std::string("not a header\n100")}) {
    EXPECT_FALSE(decodeWelcome(bad).has_value()) << bad;
  }
}

TEST(FrameCodec, DecodeDecimal) {
  EXPECT_EQ(decodeDecimal("0"), 0U);
  EXPECT_EQ(decodeDecimal("5000"), 5000U);
  for (const char* bad : {"", " 5", "5 ", "12x", "x12", "-3",
                          "999999999999999999999", "18446744073709551617"}) {
    EXPECT_FALSE(decodeDecimal(bad).has_value()) << bad;
  }
}

// -------------------------------------------------------------------
// Live server under protocol abuse

/// Same grid as the runner determinism fixture, under its own name:
/// 3×2 points × 4 trials = 24 units of MaxNCG dynamics on small trees.
const Scenario& wireScenario() {
  static std::once_flag once;
  std::call_once(once, [] {
    Scenario s;
    s.name = "serve_wire_fixture";
    s.description = "test fixture";
    s.metricNames = {"outcome", "rounds", "social_cost"};
    s.makePoints = [] {
      std::vector<ScenarioPoint> points;
      for (const Dist k : {2, 3, 1000}) {
        for (const double alpha : {0.5, 2.0}) {
          ScenarioPoint point;
          point.params = {{"k", static_cast<double>(k)}, {"alpha", alpha}};
          point.baseSeed = 0x517EULL + static_cast<std::uint64_t>(k * 17) +
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
  return *findScenario("serve_wire_fixture");
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

/// Connects a raw client to `server` (single attempt; the server is
/// live). The caller interleaves sends with server.pollOnce().
int rawClient(const ShardServer& server) {
  const int fd = connectToServeAddress(server.address(), 1, 0);
  EXPECT_GE(fd, 0);
  return fd;
}

void sendRaw(int fd, const std::string& bytes) {
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(bytes.size()));
}

/// True when the peer (the server) closed this connection.
bool peerClosed(int fd) {
  char byte;
  for (int i = 0; i < 100; ++i) {
    const ssize_t n = ::recv(fd, &byte, 1, MSG_DONTWAIT);
    if (n == 0) return true;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return true;
    if (n < 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

TEST(ServeWire, ServerSurvivesProtocolAbuseAndStaysCorrect) {
  const Scenario& scenario = wireScenario();
  const std::string manifest =
      ::testing::TempDir() + "ncg_serve_wire_abuse.jsonl";
  std::remove(manifest.c_str());

  ServeOptions options;
  options.address = "127.0.0.1:0";
  options.checkpointPath = manifest;
  options.heartbeatMs = 60000;  // abuse test: nothing should expire
  options.shardSize = 2;
  ShardServer server(scenario, options);

  const auto step = [&](int rounds = 5) {
    for (int i = 0; i < rounds; ++i) server.pollOnce(20);
  };

  // (a) Plain garbage bytes.
  int fd = rawClient(server);
  sendRaw(fd, "GET / HTTP/1.1\r\n\r\n");
  step();
  EXPECT_TRUE(peerClosed(fd));
  ::close(fd);

  // (b) Oversized length prefix — dropped on the 5 header bytes alone.
  fd = rawClient(server);
  sendRaw(fd, std::string("\xFF\xFF\xFF\x7F\x01", 5));
  step();
  EXPECT_TRUE(peerClosed(fd));
  ::close(fd);

  // (c) Mid-frame disconnect: valid header, half the payload, gone.
  fd = rawClient(server);
  sendRaw(fd, encodeFrame(FrameType::kHello, scenario.name)
                  .substr(0, 5 + scenario.name.size() / 2));
  ::close(fd);
  step();

  // (d) HELLO for the wrong scenario.
  fd = rawClient(server);
  sendRaw(fd, encodeFrame(FrameType::kHello, "no_such_scenario"));
  step();
  EXPECT_TRUE(peerClosed(fd));
  ::close(fd);

  // (e) Skipping the handshake: a lease request before HELLO.
  fd = rawClient(server);
  sendRaw(fd, encodeFrame(FrameType::kLeaseRequest, ""));
  step();
  EXPECT_TRUE(peerClosed(fd));
  ::close(fd);

  // (f) Proper handshake + lease, then a malformed RESULT payload; the
  // leased shard must return to the pool when the client is dropped.
  fd = rawClient(server);
  {
    FrameReader reader;
    sendRaw(fd, encodeFrame(FrameType::kHello, scenario.name));
    step();
    const auto welcome = readFrameBlocking(fd, reader);
    ASSERT_TRUE(welcome.has_value());
    ASSERT_EQ(welcome->type, FrameType::kWelcome);
    sendRaw(fd, encodeFrame(FrameType::kLeaseRequest, ""));
    step();
    const auto grant = readFrameBlocking(fd, reader);
    ASSERT_TRUE(grant.has_value());
    ASSERT_EQ(grant->type, FrameType::kLeaseGrant);
    EXPECT_EQ(server.stats().reLeases, 0U);
    sendRaw(fd, encodeFrame(FrameType::kResult, "{\"point\":huh}"));
    step();
    EXPECT_TRUE(peerClosed(fd));
  }
  ::close(fd);
  EXPECT_EQ(server.stats().reLeases, 1U);

  // (g) Valid JSON, out-of-range unit: also a drop, not a crash.
  fd = rawClient(server);
  {
    FrameReader reader;
    sendRaw(fd, encodeFrame(FrameType::kHello, scenario.name));
    step();
    (void)readFrameBlocking(fd, reader);
    TrialRecord bogus;
    bogus.point = 999;
    bogus.trial = 0;
    bogus.metrics = {1.0, 2.0, 3.0};
    sendRaw(fd, encodeFrame(FrameType::kResult, encodeTrialLine(bogus)));
    step();
    EXPECT_TRUE(peerClosed(fd));
  }
  ::close(fd);

  // (h) Wrong metric count for the scenario.
  fd = rawClient(server);
  {
    FrameReader reader;
    sendRaw(fd, encodeFrame(FrameType::kHello, scenario.name));
    step();
    (void)readFrameBlocking(fd, reader);
    TrialRecord bogus;
    bogus.point = 0;
    bogus.trial = 0;
    bogus.metrics = {1.0};  // scenario has 3 metrics
    sendRaw(fd, encodeFrame(FrameType::kResult, encodeTrialLine(bogus)));
    step();
    EXPECT_TRUE(peerClosed(fd));
  }
  ::close(fd);

  EXPECT_GE(server.stats().droppedConnections, 7U);
  EXPECT_EQ(server.stats().unitsRecorded, 0U);
  EXPECT_FALSE(server.complete());

  // After all that abuse: one honest worker completes the grid and the
  // results equal the in-process single-proc reference bit for bit.
  std::atomic<int> workerExit{-1};
  std::thread worker([&] {
    workerExit = runConnectedWorker(scenario, server.address());
  });
  while (!server.complete()) server.pollOnce(50);
  while (workerExit.load() < 0) server.pollOnce(10);
  worker.join();
  EXPECT_EQ(workerExit.load(), 0);

  RunOptions reference;
  reference.procs = 1;
  EXPECT_EQ(bitPatterns(server.results()),
            bitPatterns(runScenario(scenario, reference).results));

  // The manifest survived the abuse unscathed: a header plus exactly
  // one well-formed line per unit.
  const CheckpointLoad load = loadCheckpoint(manifest);
  EXPECT_TRUE(load.headerValid);
  EXPECT_EQ(load.records.size(), 24U);
  EXPECT_EQ(load.malformedLines, 0U);
  std::remove(manifest.c_str());
}

TEST(ServeWire, SecondWorkerGetsRetryWhenEverythingIsLeased) {
  const Scenario& scenario = wireScenario();
  ServeOptions options;
  options.address = "127.0.0.1:0";
  options.heartbeatMs = 60000;
  options.shardSize = 1000;  // one shard holds the whole grid
  ShardServer server(scenario, options);

  const auto step = [&](int rounds = 5) {
    for (int i = 0; i < rounds; ++i) server.pollOnce(20);
  };

  const int first = rawClient(server);
  FrameReader firstReader;
  sendRaw(first, encodeFrame(FrameType::kHello, scenario.name));
  sendRaw(first, encodeFrame(FrameType::kLeaseRequest, ""));
  step();
  ASSERT_EQ(readFrameBlocking(first, firstReader)->type, FrameType::kWelcome);
  const auto grant = readFrameBlocking(first, firstReader);
  ASSERT_TRUE(grant.has_value());
  ASSERT_EQ(grant->type, FrameType::kLeaseGrant);
  const auto decoded = decodeLeaseGrant(grant->payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->units.size(), 24U);

  const int second = rawClient(server);
  FrameReader secondReader;
  sendRaw(second, encodeFrame(FrameType::kHello, scenario.name));
  sendRaw(second, encodeFrame(FrameType::kLeaseRequest, ""));
  step();
  ASSERT_EQ(readFrameBlocking(second, secondReader)->type,
            FrameType::kWelcome);
  const auto retry = readFrameBlocking(second, secondReader);
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->type, FrameType::kRetry);
  EXPECT_TRUE(decodeDecimal(retry->payload).has_value());

  ::close(first);
  ::close(second);
}

}  // namespace
}  // namespace ncg::runtime
