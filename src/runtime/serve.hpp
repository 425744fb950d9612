// Socket-based shard-lease service: the distributed sibling of the
// fork-per-shard runner (runtime/runner.hpp).
//
// ShardServer owns a scenario grid and its checkpoint manifest. It
// listens on TCP or a Unix socket, leases fixed contiguous shards of
// the canonical (point-major, trial-minor) unit enumeration to
// connecting workers over the wire protocol (runtime/wire.hpp), tracks
// a heartbeat deadline per lease on a monotonic Clock, re-leases
// shards whose worker disconnects or goes silent, dedupes units a
// re-leased shard completes twice by (point, trial) index, and appends
// every newly completed trial to the same self-healing JSONL manifest
// the single-host runner uses — so killing and restarting the server
// itself resumes exactly where the manifest ends.
//
// Determinism: a unit's result depends only on (point, trial) — the
// worker runs it on the RNG stream deriveSeed(point.baseSeed, trial)
// and ships metrics as IEEE-754 bit patterns — so the assembled
// results are bitwise identical to NCG_PROCS=1 for any worker count,
// any join/leave order, any crash schedule and any server restart
// (pinned by tests/test_serve_fault_injection.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/checkpoint.hpp"
#include "runtime/scenario.hpp"
#include "runtime/timing.hpp"
#include "runtime/wire.hpp"
#include "support/clock.hpp"

namespace ncg::runtime {

/// The lease bookkeeping of the server, socket-free so the heartbeat /
/// expiry / re-lease rules are unit-testable on a ManualClock. Units
/// are indices into the canonical unit enumeration; shards are the
/// fixed ranges [s*shardSize, (s+1)*shardSize).
class LeaseTable {
 public:
  /// `leaseTtlMs` is the heartbeat deadline: a lease not refreshed for
  /// this long is expired by the next expireLeases() call.
  LeaseTable(std::size_t unitCount, std::size_t shardSize,
             std::int64_t leaseTtlMs);

  /// Marks a unit complete without attributing it to a lease (used to
  /// replay the checkpoint manifest). False when already complete.
  bool markCompleted(std::size_t unit);

  struct Grant {
    std::uint64_t leaseId = 0;
    std::size_t shard = 0;
    std::vector<std::uint64_t> units;  ///< the shard's incomplete units
  };

  /// Leases the lowest-indexed pending shard to `owner`, with deadline
  /// now + ttl. nullopt when nothing is pending (all shards leased out
  /// or done). Always granting the lowest pending index is what makes
  /// re-lease ordering deterministic regardless of expiry order.
  std::optional<Grant> acquire(std::uint64_t owner, std::int64_t nowMs);

  /// Refreshes the deadline of every lease held by `owner`. The server
  /// calls this on *every* frame a connection delivers — a worker that
  /// is streaming results is alive by definition, so a lease can never
  /// expire while its result frames are arriving.
  void heartbeat(std::uint64_t owner, std::int64_t nowMs);

  /// Records a unit as complete. False when it already was (the dedupe
  /// path: a re-leased shard finishing twice). Completing the last
  /// unit of a shard retires the shard and ends any lease on it.
  bool completeUnit(std::size_t unit);

  /// Returns every shard leased by `owner` to the pending pool
  /// (connection death); reports how many shards were re-queued.
  std::size_t releaseOwner(std::uint64_t owner);

  /// Expires every lease whose deadline has been reached (deadline <=
  /// now: expiry happens at exactly the deadline instant). Expired
  /// shards return to the pending pool; returns how many.
  std::size_t expireLeases(std::int64_t nowMs);

  /// Earliest live deadline, for sizing poll() timeouts.
  std::optional<std::int64_t> nextDeadline() const;

  bool allComplete() const { return completedUnits_ == unitCount_; }
  std::size_t unitCount() const { return unitCount_; }
  std::size_t completedUnits() const { return completedUnits_; }
  std::size_t pendingShards() const;
  std::size_t leasedShards() const;
  /// Shards handed out again after an expiry or an owner release.
  std::size_t reLeases() const { return reLeases_; }

 private:
  enum class State : std::uint8_t { kPending, kLeased, kDone };

  struct Shard {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t remaining = 0;  ///< incomplete units
    State state = State::kPending;
    bool everLeased = false;
    std::uint64_t leaseId = 0;
    std::uint64_t owner = 0;
    std::int64_t deadline = 0;
  };

  std::vector<Shard> shards_;
  std::vector<char> unitDone_;
  std::size_t unitCount_ = 0;
  std::size_t shardSize_ = 1;
  std::size_t completedUnits_ = 0;
  std::int64_t leaseTtlMs_ = 0;
  std::uint64_t nextLeaseId_ = 0;
  std::size_t reLeases_ = 0;
};

/// Configuration of one ShardServer.
struct ServeOptions {
  /// Listen address: "host:port" TCP (port 0 = ephemeral) or
  /// "unix:/path". "" reads NCG_SERVE_ADDR (default 127.0.0.1:0).
  std::string address;
  /// Manifest path; "" disables checkpointing (a server crash then
  /// loses everything — fine for tests, unwise for real runs).
  std::string checkpointPath;
  /// Lease TTL in ms; <= 0 reads NCG_HEARTBEAT_MS (default 5000).
  int heartbeatMs = 0;
  /// Units per shard; 0 picks units/16 (at least 1), about four leases
  /// for each worker of a four-worker fleet.
  std::size_t shardSize = 0;
  /// After completion, keep answering kDone for this long so late
  /// workers exit cleanly instead of hitting a vanished server.
  int lingerMs = 1000;
  /// Time source; null = the real steady clock. Tests inject a
  /// ManualClock to drive lease expiry deterministically.
  Clock* clock = nullptr;
  /// Collect worker-reported per-unit timings (kTiming frames) into
  /// timings() and the sidecar below. Timing never touches the result
  /// manifest.
  bool recordTimings = true;
  /// Timing sidecar path; "" derives timingSidecarPath(checkpointPath)
  /// when checkpointing, and writes no sidecar otherwise.
  std::string timingsPath;
  /// Durability of manifest/sidecar appends (`--durability=flush|
  /// fsync[:N]`, runtime/durable_log.hpp).
  DurabilityPolicy durability;
  /// Admission limit: a connection accepted beyond this many live ones
  /// is answered with a best-effort kRetry and closed (0 = unlimited).
  /// Keeps a worker storm from exhausting the poll set.
  int maxConnections = 0;
  /// Per-connection outbox ceiling: a client that lets this many bytes
  /// pile up unread is evicted and its shards re-lease. The default is
  /// orders of magnitude above anything the protocol legitimately
  /// queues — only a stuck or malicious peer ever hits it.
  std::size_t maxOutboxBytes = 4u << 20;
};

/// The poll()-driven, single-threaded lease server. Construction binds
/// the socket and replays the checkpoint; pollOnce() steps the event
/// loop (tests interleave it with their own scheduling); destruction
/// closes every socket, which is exactly what a SIGKILL does — the
/// manifest is the only state that survives either.
class ShardServer {
 public:
  ShardServer(const Scenario& scenario, const ServeOptions& options = {});
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// The bound address in the same format options.address uses, with
  /// an ephemeral port resolved ("127.0.0.1:49152").
  const std::string& address() const { return address_; }

  bool complete() const { return leases_.allComplete(); }

  /// One event-loop step: expire leases, poll (at most `timeoutMs`,
  /// clipped to the next lease deadline), accept, read, dispatch.
  void pollOnce(int timeoutMs);

  /// pollOnce until the grid completes, then linger (options.lingerMs,
  /// real time) answering kDone so connected workers exit 0. Under a
  /// drain (requestDrain()) it instead returns as soon as nothing is
  /// leased, after a final durable sync — the grid may be incomplete.
  void serveUntilComplete();

  /// Begins a graceful drain — the SIGTERM path. New lease requests
  /// are answered with kRetry; in-flight leases run to completion (or
  /// expire within the lease TTL if their worker went silent), so
  /// drainComplete() turns true within bounded time.
  void requestDrain();
  bool draining() const { return draining_; }
  /// Draining and nothing leased: safe to sync and exit.
  bool drainComplete() const;
  /// Final durable flush of the manifest and the timing sidecar
  /// (fdatasync under the fsync policy).
  void syncDurable();

  const std::vector<ScenarioPoint>& points() const { return points_; }
  const ScenarioResults& results() const { return results_; }
  const Scenario& scenario() const { return *scenario_; }

  /// Worker-reported unit timings accepted by this server, in arrival
  /// order, deduped by (point, trial) — first report wins, matching the
  /// result dedupe. `worker` is the reporting connection's id.
  const std::vector<UnitTiming>& timings() const { return timings_; }

  struct Stats {
    std::size_t unitsFromCheckpoint = 0;  ///< slots replayed on start
    std::size_t unitsRecorded = 0;        ///< appended by this server
    std::size_t duplicateResults = 0;     ///< deduped re-completions
    std::size_t reLeases = 0;             ///< shards handed out again
    std::size_t droppedConnections = 0;   ///< protocol violations/EOF
    std::size_t slowClientEvictions = 0;  ///< outbox ceiling exceeded
    std::size_t admissionRejected = 0;    ///< kRetry'd at the door
  };
  Stats stats() const;

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    FrameReader reader;
    bool helloed = false;
    /// Bytes queued but not yet accepted by the kernel; flushed
    /// opportunistically on send and on POLLOUT. [outboxPos, size) is
    /// the pending suffix.
    std::string outbox;
    std::size_t outboxPos = 0;
  };

  void acceptPending();
  void readFrom(Connection& connection);
  void handleFrame(Connection& connection, const Frame& frame);
  void dropConnection(Connection& connection);
  bool sendToConnection(Connection& connection, FrameType type,
                        std::string_view payload);
  void flushOutbox(Connection& connection);
  std::size_t liveConnections() const;
  void broadcastDone();
  std::size_t unitIndex(int point, int trial) const;

  const Scenario* scenario_;
  bool recordTimings_ = true;
  std::vector<ScenarioPoint> points_;
  ScenarioResults results_;
  std::vector<std::size_t> unitOffsets_;  ///< unit index of (point, 0)
  ResultHeader header_;
  CheckpointWriter writer_;
  TimingWriter timingWriter_;
  std::vector<UnitTiming> timings_;
  std::vector<char> unitTimed_;  ///< dedupe: first timing report wins
  LeaseTable leases_;
  Clock* clock_;
  int heartbeatMs_;
  int lingerMs_;
  bool draining_ = false;
  int maxConnections_ = 0;
  std::size_t maxOutboxBytes_ = 0;
  int listenFd_ = -1;
  std::string address_;
  std::string unixPath_;  ///< non-empty when listening on AF_UNIX
  std::vector<Connection> connections_;
  std::uint64_t nextConnectionId_ = 1;
  Stats stats_;
};

/// Tuning of the worker's reconnect behaviour. The retry budget is per
/// (re)connect attempt: a server restart looks like EOF, and the
/// worker must outlive the gap.
struct WorkerOptions {
  int connectAttempts = 60;
  int connectDelayMs = 50;
  /// Report a kTiming frame per computed unit (timing sidecar on the
  /// server side); the result stream is identical either way.
  bool recordTimings = true;
  /// Clock the unit timings are measured on; nullptr = steadyClock().
  Clock* clock = nullptr;
  /// Ceiling of the exponential reconnect backoff: the wait before
  /// reconnect cycle n is connectDelayMs * 2^n jittered into
  /// [delay/2, delay], capped here. Fixed-rate hammering of a
  /// restarting server is what this replaces.
  int maxBackoffMs = 2000;
  /// Seed of the jitter stream. Deterministic: the same seed replays
  /// the same backoff schedule; give each worker its own seed so their
  /// retry storms desynchronize.
  std::uint64_t backoffSeed = 0;
  /// Total failure retries (reconnect cycles + admission/handshake
  /// kRetry rounds) this worker may spend before exiting 1; 0 reads
  /// NCG_RETRY_BUDGET (default 1000). In-grant kRetry backpressure
  /// (everything leased out) is free — it is progress, not failure.
  int retryBudget = 0;
};

/// The cadence at which a worker heartbeats through a long shard: a
/// third of the lease TTL, floored at 1 ms — heartbeatMs / 3 alone is 0
/// for TTL < 3 ms, which would flood the server with a heartbeat per
/// clock read under the fake-clock tests' tiny TTLs.
int workerHeartbeatIntervalMs(int heartbeatMs);

/// What a worker did, for logs and tests.
struct WorkerReport {
  std::size_t unitsComputed = 0;
  std::size_t leases = 0;
  std::size_t reconnects = 0;
  std::size_t retriesSpent = 0;  ///< budget consumed (see WorkerOptions)
};

/// The body of `ncg_run run <scenario> --connect=ADDR`: connect,
/// verify the grid handshake, then lease → compute → stream results
/// (with heartbeats) until the server says kDone. Returns the process
/// exit code: 0 on kDone, 1 on a dead server or a handshake mismatch.
/// On disconnect it reconnects and starts a fresh lease cycle —
/// whatever its lost shards held is the server's to re-lease.
int runConnectedWorker(const Scenario& scenario, const std::string& address,
                       const WorkerOptions& options = {},
                       WorkerReport* report = nullptr);

/// Connects to a serve address ("host:port" or "unix:/path") with
/// retries; -1 when every attempt failed. Exposed for the protocol
/// tests, which speak raw frames at a live server.
int connectToServeAddress(const std::string& address, int attempts,
                          int delayMs);

/// Blocking frame read: recv()s into `reader` until a frame completes.
/// nullopt on EOF, a socket error, or a corrupt stream.
std::optional<Frame> readFrameBlocking(int fd, FrameReader& reader);

/// Blocking send of one encoded frame; false when the peer is gone.
bool sendFrameBlocking(int fd, FrameType type, std::string_view payload);

}  // namespace ncg::runtime
