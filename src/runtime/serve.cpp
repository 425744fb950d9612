#include "runtime/serve.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <utility>

#include "runtime/runner.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/random.hpp"

namespace ncg::runtime {

// ---------------------------------------------------------------------
// LeaseTable

LeaseTable::LeaseTable(std::size_t unitCount, std::size_t shardSize,
                       std::int64_t leaseTtlMs)
    : unitCount_(unitCount),
      shardSize_(std::max<std::size_t>(shardSize, 1)),
      leaseTtlMs_(leaseTtlMs) {
  unitDone_.assign(unitCount_, 0);
  const std::size_t shardCount =
      (unitCount_ + shardSize_ - 1) / shardSize_;
  shards_.resize(shardCount);
  for (std::size_t s = 0; s < shardCount; ++s) {
    shards_[s].begin = s * shardSize_;
    shards_[s].end = std::min(unitCount_, (s + 1) * shardSize_);
    shards_[s].remaining = shards_[s].end - shards_[s].begin;
  }
}

bool LeaseTable::markCompleted(std::size_t unit) { return completeUnit(unit); }

bool LeaseTable::completeUnit(std::size_t unit) {
  NCG_REQUIRE(unit < unitCount_, "unit index " << unit << " out of range");
  if (unitDone_[unit]) return false;
  unitDone_[unit] = 1;
  ++completedUnits_;
  Shard& shard = shards_[unit / shardSize_];
  --shard.remaining;
  if (shard.remaining == 0) {
    // Retiring the shard ends any lease on it; the leaseholder's other
    // leases are untouched.
    shard.state = State::kDone;
    shard.leaseId = 0;
    shard.owner = 0;
  }
  return true;
}

std::optional<LeaseTable::Grant> LeaseTable::acquire(std::uint64_t owner,
                                                     std::int64_t nowMs) {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    if (shard.state != State::kPending) continue;
    shard.state = State::kLeased;
    shard.leaseId = ++nextLeaseId_;
    shard.owner = owner;
    shard.deadline = nowMs + leaseTtlMs_;
    Grant grant;
    grant.leaseId = shard.leaseId;
    grant.shard = s;
    for (std::size_t unit = shard.begin; unit < shard.end; ++unit) {
      if (!unitDone_[unit]) grant.units.push_back(unit);
    }
    return grant;
  }
  return std::nullopt;
}

void LeaseTable::heartbeat(std::uint64_t owner, std::int64_t nowMs) {
  for (Shard& shard : shards_) {
    if (shard.state == State::kLeased && shard.owner == owner) {
      shard.deadline = nowMs + leaseTtlMs_;
    }
  }
}

std::size_t LeaseTable::releaseOwner(std::uint64_t owner) {
  std::size_t requeued = 0;
  for (Shard& shard : shards_) {
    if (shard.state == State::kLeased && shard.owner == owner) {
      shard.state = State::kPending;
      shard.leaseId = 0;
      shard.owner = 0;
      ++requeued;
      ++reLeases_;
    }
  }
  return requeued;
}

std::size_t LeaseTable::expireLeases(std::int64_t nowMs) {
  std::size_t requeued = 0;
  for (Shard& shard : shards_) {
    if (shard.state == State::kLeased && shard.deadline <= nowMs) {
      shard.state = State::kPending;
      shard.leaseId = 0;
      shard.owner = 0;
      ++requeued;
      ++reLeases_;
    }
  }
  return requeued;
}

std::optional<std::int64_t> LeaseTable::nextDeadline() const {
  std::optional<std::int64_t> earliest;
  for (const Shard& shard : shards_) {
    if (shard.state != State::kLeased) continue;
    if (!earliest.has_value() || shard.deadline < *earliest) {
      earliest = shard.deadline;
    }
  }
  return earliest;
}

std::size_t LeaseTable::pendingShards() const {
  return static_cast<std::size_t>(
      std::count_if(shards_.begin(), shards_.end(), [](const Shard& s) {
        return s.state == State::kPending;
      }));
}

std::size_t LeaseTable::leasedShards() const {
  return static_cast<std::size_t>(
      std::count_if(shards_.begin(), shards_.end(), [](const Shard& s) {
        return s.state == State::kLeased;
      }));
}

// ---------------------------------------------------------------------
// Socket plumbing

namespace {

void sleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

struct ParsedAddress {
  bool isUnix = false;
  std::string path;           // unix
  struct in_addr host = {};   // tcp
  std::uint16_t port = 0;     // tcp
  std::string hostText;
};

std::optional<ParsedAddress> parseServeAddress(const std::string& address) {
  ParsedAddress parsed;
  if (address.rfind("unix:", 0) == 0) {
    parsed.isUnix = true;
    parsed.path = address.substr(5);
    if (parsed.path.empty() || parsed.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      return std::nullopt;
    }
    return parsed;
  }
  const std::size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0) return std::nullopt;
  parsed.hostText = address.substr(0, colon);
  const auto port = decodeDecimal(address.substr(colon + 1));
  if (!port.has_value() || *port > 65535) return std::nullopt;
  parsed.port = static_cast<std::uint16_t>(*port);
  if (::inet_pton(AF_INET, parsed.hostText.c_str(), &parsed.host) != 1) {
    return std::nullopt;
  }
  return parsed;
}

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Sends every byte on a (possibly non-blocking) socket, waiting for
/// writability when the buffer is full; false when the peer is gone or
/// refuses to drain for 2 s. Worker-side only: the server never blocks
/// on a peer — its writes go through the per-connection outbox. Routed
/// through the chaos seam so injected short sends exercise the resume
/// arithmetic (`data + written`) and injected errors the reconnect
/// path; drops are not offered here (a caller of a blocking send is
/// about to block on the reply).
bool sendAllOn(int fd, const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = fault::sendWithFaults(fd, data + written,
                                            size - written, MSG_NOSIGNAL);
    if (n >= 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      pollfd p{fd, POLLOUT, 0};
      if (::poll(&p, 1, 2000) <= 0) return false;
      continue;
    }
    return false;
  }
  return true;
}

}  // namespace

bool sendFrameBlocking(int fd, FrameType type, std::string_view payload) {
  const std::string bytes = encodeFrame(type, payload);
  return sendAllOn(fd, bytes.data(), bytes.size());
}

std::optional<Frame> readFrameBlocking(int fd, FrameReader& reader) {
  for (;;) {
    if (auto frame = reader.next()) return frame;
    if (reader.corrupt()) return std::nullopt;
    char buffer[65536];
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n > 0) {
      reader.feed(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return std::nullopt;  // EOF or socket error
  }
}

int connectToServeAddress(const std::string& address, int attempts,
                          int delayMs) {
  const auto parsed = parseServeAddress(address);
  if (!parsed.has_value()) return -1;
  for (int attempt = 0; attempt < std::max(attempts, 1); ++attempt) {
    if (attempt > 0) sleepMs(delayMs);
    const int fd = ::socket(parsed->isUnix ? AF_UNIX : AF_INET,
                            SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) continue;
    int rc;
    if (parsed->isUnix) {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, parsed->path.c_str(),
                   sizeof(addr.sun_path) - 1);
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr);
    } else {
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr = parsed->host;
      addr.sin_port = htons(parsed->port);
      rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr);
    }
    if (rc == 0) return fd;
    ::close(fd);
  }
  return -1;
}

// ---------------------------------------------------------------------
// ShardServer

namespace {

int resolveHeartbeatMs(const ServeOptions& options) {
  const int ms = options.heartbeatMs > 0 ? options.heartbeatMs
                                         : env::heartbeatMs();
  return std::max(ms, 1);
}

std::size_t resolveShardSize(const ServeOptions& options, std::size_t units) {
  if (options.shardSize > 0) return options.shardSize;
  // About four leases per worker of a four-worker fleet; any value
  // yields the same results, this only tunes lease granularity.
  return std::max<std::size_t>(units / 16, 1);
}

}  // namespace

ShardServer::ShardServer(const Scenario& scenario,
                         const ServeOptions& options)
    : scenario_(&scenario),
      recordTimings_(options.recordTimings),
      points_(scenario.makePoints()),
      results_(points_),
      leases_(results_.totalTrials(),
              resolveShardSize(options, results_.totalTrials()),
              resolveHeartbeatMs(options)),
      clock_(options.clock != nullptr ? options.clock : &steadyClock()),
      heartbeatMs_(resolveHeartbeatMs(options)),
      lingerMs_(options.lingerMs),
      maxConnections_(std::max(options.maxConnections, 0)),
      maxOutboxBytes_(options.maxOutboxBytes) {
  NCG_REQUIRE(static_cast<bool>(scenario.makePoints) &&
                  static_cast<bool>(scenario.runTrialFn),
              "scenario '" << scenario.name << "' is not runnable");
  unitOffsets_.reserve(points_.size());
  std::size_t offset = 0;
  for (const ScenarioPoint& point : points_) {
    unitOffsets_.push_back(offset);
    offset += static_cast<std::size_t>(point.trials);
  }
  header_ = ResultHeader{scenario.name, scenarioFingerprint(scenario, points_),
                         points_.size(), results_.totalTrials()};

  // The manifest is the durable queue state: replay it so a restarted
  // server leases only what is still missing. Worker-reported timings
  // land in the sidecar next to the manifest — never in the manifest
  // itself, whose bytes the determinism pins own.
  RunFiles files = resumeRun(scenario, points_, header_, results_,
                             options.checkpointPath, recordTimings_,
                             options.timingsPath, options.durability);
  for (const TrialRecord& record : results_.records()) {
    leases_.markCompleted(unitIndex(record.point, record.trial));
  }
  stats_.unitsFromCheckpoint = results_.completedTrials();
  writer_ = std::move(files.manifest);
  timingWriter_ = std::move(files.timings);
  unitTimed_.assign(results_.totalTrials(), 0);

  // Bind the listener.
  const std::string requested =
      options.address.empty() ? env::serveAddress() : options.address;
  const auto parsed = parseServeAddress(requested);
  NCG_REQUIRE(parsed.has_value(),
              "cannot parse serve address '"
                  << requested
                  << "' (expected host:port or unix:/path)");
  listenFd_ = ::socket(parsed->isUnix ? AF_UNIX : AF_INET,
                       SOCK_STREAM | SOCK_CLOEXEC, 0);
  NCG_REQUIRE(listenFd_ >= 0, "socket() failed: " << std::strerror(errno));
  int rc;
  if (parsed->isUnix) {
    ::unlink(parsed->path.c_str());  // stale file from a killed server
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, parsed->path.c_str(),
                 sizeof(addr.sun_path) - 1);
    rc = ::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr);
    unixPath_ = parsed->path;
    address_ = "unix:" + parsed->path;
  } else {
    const int one = 1;
    (void)::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                       sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr = parsed->host;
    addr.sin_port = htons(parsed->port);
    rc = ::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr);
  }
  if (rc != 0) {
    const int err = errno;
    ::close(listenFd_);
    listenFd_ = -1;
    throw Error("cannot bind '" + requested + "': " + std::strerror(err));
  }
  NCG_REQUIRE(::listen(listenFd_, 64) == 0,
              "listen() failed: " << std::strerror(errno));
  if (!parsed->isUnix) {
    sockaddr_in bound{};
    socklen_t length = sizeof bound;
    NCG_REQUIRE(::getsockname(listenFd_,
                              reinterpret_cast<sockaddr*>(&bound),
                              &length) == 0,
                "getsockname() failed");
    address_ =
        parsed->hostText + ":" + std::to_string(ntohs(bound.sin_port));
  }
  setNonBlocking(listenFd_);
}

ShardServer::~ShardServer() {
  for (Connection& connection : connections_) {
    if (connection.fd >= 0) ::close(connection.fd);
  }
  if (listenFd_ >= 0) ::close(listenFd_);
  if (!unixPath_.empty()) ::unlink(unixPath_.c_str());
}

std::size_t ShardServer::unitIndex(int point, int trial) const {
  return unitOffsets_[static_cast<std::size_t>(point)] +
         static_cast<std::size_t>(trial);
}

ShardServer::Stats ShardServer::stats() const {
  Stats stats = stats_;
  stats.reLeases = leases_.reLeases();
  return stats;
}

std::size_t ShardServer::liveConnections() const {
  return static_cast<std::size_t>(
      std::count_if(connections_.begin(), connections_.end(),
                    [](const Connection& c) { return c.fd >= 0; }));
}

void ShardServer::acceptPending() {
  for (;;) {
    const int fd = ::accept4(listenFd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (no more pending) or a transient accept error
    }
    if (maxConnections_ > 0 &&
        liveConnections() >= static_cast<std::size_t>(maxConnections_)) {
      // Over the admission limit: tell the worker when to come back,
      // best-effort (it treats a lost kRetry like a dead server and
      // backs off anyway), then close before the fd enters the poll
      // set.
      const std::string retry = encodeFrame(
          FrameType::kRetry, std::to_string(std::max(heartbeatMs_, 1)));
      (void)::send(fd, retry.data(), retry.size(), MSG_NOSIGNAL);
      ::close(fd);
      ++stats_.admissionRejected;
      continue;
    }
    Connection connection;
    connection.fd = fd;
    connection.id = nextConnectionId_++;
    connections_.push_back(std::move(connection));
  }
}

void ShardServer::dropConnection(Connection& connection) {
  if (connection.fd < 0) return;
  ::close(connection.fd);
  connection.fd = -1;
  leases_.releaseOwner(connection.id);
  ++stats_.droppedConnections;
}

void ShardServer::flushOutbox(Connection& connection) {
  while (connection.fd >= 0 &&
         connection.outboxPos < connection.outbox.size()) {
    const ssize_t n = fault::sendWithFaults(
        connection.fd, connection.outbox.data() + connection.outboxPos,
        connection.outbox.size() - connection.outboxPos, MSG_NOSIGNAL);
    if (n > 0) {
      connection.outboxPos += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) break;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // POLLOUT later
    dropConnection(connection);  // peer gone (or injected hard error)
    return;
  }
  if (connection.outboxPos == connection.outbox.size()) {
    connection.outbox.clear();
    connection.outboxPos = 0;
  }
}

bool ShardServer::sendToConnection(Connection& connection, FrameType type,
                                   std::string_view payload) {
  if (connection.fd < 0) return false;
  // Never block the event loop on one peer: queue, then push whatever
  // the kernel takes now; pollOnce() flushes the rest on POLLOUT.
  connection.outbox += encodeFrame(type, payload);
  flushOutbox(connection);
  if (connection.fd >= 0 &&
      connection.outbox.size() - connection.outboxPos > maxOutboxBytes_) {
    // The peer stopped reading long ago: buffering more just defers
    // the inevitable while holding its shards hostage. Evict; the
    // lease table re-leases.
    dropConnection(connection);
    ++stats_.slowClientEvictions;
  }
  return connection.fd >= 0;
}

void ShardServer::broadcastDone() {
  for (Connection& connection : connections_) {
    if (connection.fd >= 0 && connection.helloed) {
      (void)sendToConnection(connection, FrameType::kDone, {});
    }
  }
}

void ShardServer::handleFrame(Connection& connection, const Frame& frame) {
  const std::int64_t now = clock_->nowMs();
  // Any frame proves the worker is alive: refresh all of its leases.
  // In particular a lease can never expire while its result frames are
  // being processed.
  leases_.heartbeat(connection.id, now);

  if (!connection.helloed && frame.type != FrameType::kHello) {
    dropConnection(connection);
    return;
  }
  switch (frame.type) {
    case FrameType::kHello: {
      if (frame.payload != scenario_->name) {
        dropConnection(connection);  // wrong scenario — nothing to say
        return;
      }
      connection.helloed = true;
      (void)sendToConnection(connection, FrameType::kWelcome,
                             encodeWelcome({header_, heartbeatMs_}));
      return;
    }
    case FrameType::kLeaseRequest: {
      if (!frame.payload.empty()) {
        dropConnection(connection);
        return;
      }
      if (leases_.allComplete()) {
        (void)sendToConnection(connection, FrameType::kDone, {});
        return;
      }
      if (draining_) {
        // Drain: no new leases — in-flight ones run out, then the
        // server exits. kRetry (not kDone: the grid is incomplete)
        // keeps honest workers alive to find the successor server.
        (void)sendToConnection(connection, FrameType::kRetry,
                               std::to_string(std::max(heartbeatMs_, 1)));
        return;
      }
      if (const auto grant = leases_.acquire(connection.id, now)) {
        (void)sendToConnection(connection, FrameType::kLeaseGrant,
                               encodeLeaseGrant({grant->leaseId,
                                                 grant->units}));
      } else {
        // Everything pending is leased out; a fraction of the TTL is a
        // sensible retry cadence.
        (void)sendToConnection(connection, FrameType::kRetry,
                               std::to_string(std::max(heartbeatMs_ / 4, 1)));
      }
      return;
    }
    case FrameType::kResult: {
      const auto record = decodeTrialLine(frame.payload);
      const bool valid =
          record.has_value() && record->point >= 0 &&
          static_cast<std::size_t>(record->point) < points_.size() &&
          record->trial >= 0 &&
          record->trial <
              points_[static_cast<std::size_t>(record->point)].trials &&
          record->metrics.size() == scenario_->metricNames.size();
      if (!valid) {
        dropConnection(connection);
        return;
      }
      if (leases_.completeUnit(unitIndex(record->point, record->trial))) {
        results_.record(*record);
        writer_.append(*record);
        ++stats_.unitsRecorded;
        if (leases_.allComplete()) broadcastDone();
      } else {
        // A re-leased shard completing twice: the recomputation is
        // bitwise identical by construction, so the second copy is
        // simply dropped — the manifest keeps one line per unit.
        ++stats_.duplicateResults;
      }
      return;
    }
    case FrameType::kHeartbeat: {
      if (!frame.payload.empty()) dropConnection(connection);
      return;
    }
    case FrameType::kTiming: {
      const auto timing = decodeTimingLine(frame.payload);
      const bool valid =
          timing.has_value() && timing->point >= 0 &&
          static_cast<std::size_t>(timing->point) < points_.size() &&
          timing->trial >= 0 &&
          timing->trial <
              points_[static_cast<std::size_t>(timing->point)].trials;
      if (!valid) {
        dropConnection(connection);
        return;
      }
      if (!recordTimings_) return;
      const std::size_t unit = unitIndex(timing->point, timing->trial);
      if (unitTimed_[unit]) return;  // re-leased shard timed twice
      unitTimed_[unit] = 1;
      UnitTiming stamped = *timing;
      // The worker cannot know its server-side identity; stamp the
      // connection id so per-lane breakdowns are possible.
      stamped.worker = connection.id;
      timings_.push_back(stamped);
      timingWriter_.append(stamped);
      return;
    }
    default:
      // Server-to-worker types arriving at the server are violations.
      dropConnection(connection);
      return;
  }
}

void ShardServer::readFrom(Connection& connection) {
  for (;;) {
    char buffer[65536];
    const ssize_t n = ::recv(connection.fd, buffer, sizeof buffer, 0);
    if (n > 0) {
      connection.reader.feed(buffer, static_cast<std::size_t>(n));
      if (n < static_cast<ssize_t>(sizeof buffer)) break;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    dropConnection(connection);  // EOF (worker exit/SIGKILL) or error
    return;
  }
  while (connection.fd >= 0) {
    const auto frame = connection.reader.next();
    if (!frame.has_value()) break;
    handleFrame(connection, *frame);
  }
  if (connection.fd >= 0 && connection.reader.corrupt()) {
    // Garbage on the wire: drop the connection; its shards re-lease.
    dropConnection(connection);
  }
}

void ShardServer::pollOnce(int timeoutMs) {
  const std::int64_t now = clock_->nowMs();
  leases_.expireLeases(now);

  int timeout = std::max(timeoutMs, 0);
  if (const auto deadline = leases_.nextDeadline()) {
    const std::int64_t wait = *deadline - now;
    if (wait < timeout) timeout = static_cast<int>(std::max<std::int64_t>(wait, 0));
  }

  std::vector<pollfd> pollSet;
  pollSet.push_back({listenFd_, POLLIN, 0});
  for (const Connection& connection : connections_) {
    if (connection.fd < 0) continue;
    short events = POLLIN;
    // A pending outbox is the only reason to wake on writability —
    // registering POLLOUT unconditionally would busy-spin the loop.
    if (connection.outboxPos < connection.outbox.size()) events |= POLLOUT;
    pollSet.push_back({connection.fd, events, 0});
  }
  const int ready = ::poll(pollSet.data(), pollSet.size(), timeout);
  if (ready < 0) {
    if (errno == EINTR) return;
    throw Error("poll() failed in ShardServer");
  }
  if ((pollSet[0].revents & POLLIN) != 0) acceptPending();
  for (std::size_t i = 1; i < pollSet.size(); ++i) {
    if (pollSet[i].revents == 0) continue;
    for (Connection& connection : connections_) {
      if (connection.fd != pollSet[i].fd) continue;
      if ((pollSet[i].revents & POLLOUT) != 0) flushOutbox(connection);
      if (connection.fd >= 0 &&
          (pollSet[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        readFrom(connection);
      }
      break;
    }
  }
  connections_.erase(
      std::remove_if(connections_.begin(), connections_.end(),
                     [](const Connection& c) { return c.fd < 0; }),
      connections_.end());
}

void ShardServer::requestDrain() { draining_ = true; }

bool ShardServer::drainComplete() const {
  return draining_ && leases_.leasedShards() == 0;
}

void ShardServer::syncDurable() {
  writer_.sync();
  timingWriter_.sync();
}

void ShardServer::serveUntilComplete() {
  while (!complete()) {
    if (drainComplete()) {
      // Graceful SIGTERM exit: nothing leased (workers finished or
      // their leases expired), every accepted result is on disk.
      syncDurable();
      return;
    }
    pollOnce(draining_ ? 50 : 100);
  }
  syncDurable();
  // Linger (real time, whatever clock the leases use): late workers
  // asking for leases now get kDone instead of a vanished server.
  const std::int64_t end = steadyClock().nowMs() + lingerMs_;
  while (steadyClock().nowMs() < end) pollOnce(50);
}

// ---------------------------------------------------------------------
// Worker

int workerHeartbeatIntervalMs(int heartbeatMs) {
  // A third of the TTL leaves plenty of slack; the floor keeps a tiny
  // TTL (the fake-clock tests run with single-digit ms) from turning
  // the interval into 0 — i.e. a heartbeat per clock read.
  return std::max(heartbeatMs / 3, 1);
}

int runConnectedWorker(const Scenario& scenario, const std::string& address,
                       const WorkerOptions& options, WorkerReport* report) {
  const std::vector<ScenarioPoint> points = scenario.makePoints();
  std::vector<std::size_t> offsets;
  offsets.reserve(points.size());
  std::size_t total = 0;
  for (const ScenarioPoint& point : points) {
    offsets.push_back(total);
    total += static_cast<std::size_t>(point.trials);
  }
  const ResultHeader expected{scenario.name,
                              scenarioFingerprint(scenario, points),
                              points.size(), total};
  WorkerReport local;
  WorkerReport& rep = report != nullptr ? *report : local;

  const int budget =
      options.retryBudget > 0 ? options.retryBudget : env::retryBudget();
  // Jitter stream of the reconnect backoff. Deterministic per seed; a
  // fleet with distinct seeds spreads its retries instead of stampeding
  // a restarting server in lockstep.
  Rng jitter(options.backoffSeed);

  bool firstConnection = true;
  int failures = 0;            // consecutive, reset by a good handshake
  std::int64_t serverWaitMs = 0;  // admission kRetry's suggested wait
  for (;;) {
    if (failures > 0 || serverWaitMs > 0) {
      ++rep.retriesSpent;
      if (rep.retriesSpent > static_cast<std::size_t>(std::max(budget, 0))) {
        return 1;  // retry budget exhausted — stop burning CPU on a
                   // fabric that clearly is not coming back
      }
      const std::int64_t cap = std::max(options.maxBackoffMs, 1);
      std::int64_t delay = serverWaitMs;
      if (delay <= 0) {
        delay = std::max(options.connectDelayMs, 1);
        for (int i = 1; i < failures && delay < cap; ++i) delay *= 2;
      }
      if (delay > cap) delay = cap;
      // Jitter into [delay/2, delay] so equal backoff stages of two
      // workers do not collide on the exact same millisecond.
      delay = jitter.nextInRange(std::max<std::int64_t>(delay / 2, 1), delay);
      serverWaitMs = 0;
      sleepMs(static_cast<int>(delay));
    }
    const int fd = connectToServeAddress(address, options.connectAttempts,
                                         options.connectDelayMs);
    if (fd < 0) return 1;  // server gone for good (or never there)
    if (!firstConnection) ++rep.reconnects;
    firstConnection = false;

    FrameReader reader;
    if (!sendFrameBlocking(fd, FrameType::kHello, scenario.name)) {
      ::close(fd);
      ++failures;
      continue;
    }
    const auto welcomeFrame = readFrameBlocking(fd, reader);
    if (!welcomeFrame.has_value()) {
      ::close(fd);
      ++failures;
      continue;  // server died mid-handshake (or dropped us): retry
    }
    if (welcomeFrame->type == FrameType::kRetry) {
      // Turned away at the door (admission limit, or a draining
      // server). Honour the suggested wait; this spends budget like
      // any other failed cycle.
      serverWaitMs = static_cast<std::int64_t>(
          decodeDecimal(welcomeFrame->payload).value_or(50));
      ::close(fd);
      ++failures;
      continue;
    }
    if (welcomeFrame->type != FrameType::kWelcome) {
      ::close(fd);
      ++failures;
      continue;
    }
    const auto welcome = decodeWelcome(welcomeFrame->payload);
    if (!welcome.has_value()) {
      ::close(fd);
      ++failures;
      continue;
    }
    if (welcome->header != expected) {
      // Grid mismatch is a configuration error (different env knobs or
      // scenario version across hosts), not a transient fault.
      ::close(fd);
      return 1;
    }
    failures = 0;
    const int heartbeatIntervalMs =
        workerHeartbeatIntervalMs(std::max(welcome->heartbeatMs, 1));
    Clock& clock =
        options.clock != nullptr ? *options.clock : steadyClock();

    bool connectionLost = false;
    while (!connectionLost) {
      if (!sendFrameBlocking(fd, FrameType::kLeaseRequest, {})) break;
      const auto reply = readFrameBlocking(fd, reader);
      if (!reply.has_value()) break;
      if (reply->type == FrameType::kDone) {
        ::close(fd);
        return 0;
      }
      if (reply->type == FrameType::kRetry) {
        const auto wait = decodeDecimal(reply->payload);
        sleepMs(static_cast<int>(
            std::min<std::uint64_t>(wait.value_or(50), 1000)));
        continue;
      }
      if (reply->type != FrameType::kLeaseGrant) break;
      const auto grant = decodeLeaseGrant(reply->payload);
      if (!grant.has_value()) break;
      ++rep.leases;

      std::int64_t lastSend = steadyClock().nowMs();
      for (const std::uint64_t unit : grant->units) {
        if (unit >= total) {
          connectionLost = true;  // nonsense grant: resynchronize
          break;
        }
        // Keep the lease alive through long shards.
        if (steadyClock().nowMs() - lastSend >= heartbeatIntervalMs) {
          static_assert(frameLossSurvivable(FrameType::kHeartbeat));
          fault::maybeDelayHeartbeat();
          if (fault::dropFrame()) {
            // Lost in the network; the worker believes it heartbeated.
            // Worst case the lease expires and the shard re-leases.
            lastSend = steadyClock().nowMs();
          } else if (!sendFrameBlocking(fd, FrameType::kHeartbeat, {})) {
            connectionLost = true;
            break;
          } else {
            lastSend = steadyClock().nowMs();
          }
        }
        const auto pointIt =
            std::upper_bound(offsets.begin(), offsets.end(), unit);
        const int point =
            static_cast<int>(std::distance(offsets.begin(), pointIt)) - 1;
        const int trial = static_cast<int>(
            unit - offsets[static_cast<std::size_t>(point)]);
        const std::int64_t startUs = clock.nowUs();
        const TrialRecord record =
            computeScenarioUnit(scenario, points, point, trial);
        const std::int64_t durationUs = clock.nowUs() - startUs;
        static_assert(frameLossSurvivable(FrameType::kResult));
        if (fault::dropFrame()) {
          // A swallowed result on a connection that keeps heartbeating
          // would pin its shard leased-but-incomplete forever — the
          // one loss TCP cannot deliver silently anyway. Model the
          // realistic failure: the stream is broken; reconnect, let
          // the shard re-lease, and let the dedupe absorb whatever
          // did arrive.
          connectionLost = true;
          break;
        }
        if (!sendFrameBlocking(fd, FrameType::kResult,
                               encodeTrialLine(record))) {
          connectionLost = true;
          break;
        }
        if (options.recordTimings) {
          static_assert(frameLossSurvivable(FrameType::kTiming));
          if (fault::dropFrame()) {
            // One sidecar line lost — observability, not results.
          } else if (!sendFrameBlocking(
                         fd, FrameType::kTiming,
                         encodeTimingLine(
                             {point, trial, startUs, durationUs, 0}))) {
            connectionLost = true;
            break;
          }
        }
        lastSend = steadyClock().nowMs();
        ++rep.unitsComputed;
      }
    }
    ::close(fd);
    ++failures;
    // Fall through: back off, reconnect and start a fresh lease cycle.
    // Shards we lost are the server's to re-lease; units we already
    // reported are recorded and will be deduped if recomputed.
  }
}

}  // namespace ncg::runtime
