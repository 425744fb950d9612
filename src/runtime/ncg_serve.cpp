// ncg_serve — the shard-lease server CLI.
//
//   ncg_serve <scenario> [options]
//       Own a scenario grid: listen for ncg_run --connect workers,
//       lease them shards, collect their results, and print the final
//       rendering to stdout — byte-identical to `ncg_run run <scenario>`
//       with NCG_PROCS=1, for any worker fleet and crash schedule.
//       Options:
//         --addr=A          listen address: host:port (port 0 picks an
//                           ephemeral port) or unix:/path
//                           (default $NCG_SERVE_ADDR, then 127.0.0.1:0)
//         --checkpoint=P    JSONL manifest; killing the server and
//                           restarting with the same manifest resumes
//         --heartbeat-ms=N  lease TTL: a worker silent for N ms loses
//                           its shards to re-leasing
//                           (default $NCG_HEARTBEAT_MS, then 5000)
//         --shard-size=N    units per lease (default: heuristic)
//         --linger-ms=N     after completion, keep answering workers
//                           for N ms so they exit cleanly (default 1000)
//         --format=F        stdout format: legacy (default), jsonl, csv
//         --timings         print the per-point summary of the workers'
//                           reported unit timings to stderr and write
//                           it as BENCH_ncg_serve_<scenario>.json
//         --timings-out=P   write the timing JSON to P (implies
//                           --timings)
//         --durability=D    manifest/sidecar write policy: flush
//                           (default) or fsync[:N]
//         --max-conns=N     admission limit: the N+1th simultaneous
//                           worker is answered kRetry and closed
//                           (default: unlimited)
//
// SIGTERM/SIGINT drain gracefully: no new leases are granted (workers
// get kRetry), in-flight leases run to completion or TTL expiry, the
// manifest gets a final durable sync, and the server exits 0 — even if
// the grid is incomplete (rendering is skipped then; restart with the
// same --checkpoint to finish). A second signal exits immediately
// after the sync. NCG_CHAOS_SEED=<n> installs the deterministic
// fault-injection plan (support/fault.hpp) — testing only.
//
// The bound address is printed to stderr as "listening on ADDR" before
// the first lease, so scripts using an ephemeral port can scrape it.
// Exit codes: 0 success, 1 runtime failure, failed output write or a
// scenario verdict of failure (Scenario::exitCode, as for ncg_run run),
// 2 usage error.
#include <csignal>
#include <cstdio>
#include <exception>
#include <string>

#include "runtime/durable_log.hpp"
#include "runtime/runner.hpp"
#include "runtime/scenario.hpp"
#include "runtime/serve.hpp"
#include "support/clock.hpp"
#include "support/fault.hpp"
#include "support/string_util.hpp"

namespace {

using namespace ncg;
using namespace ncg::runtime;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <scenario> [--addr=HOST:PORT|unix:PATH]\n"
               "           [--checkpoint=PATH] [--heartbeat-ms=N]\n"
               "           [--shard-size=N] [--linger-ms=N]\n"
               "           [--durability=flush|fsync[:N]] [--max-conns=N]\n"
               "           [--format=legacy|jsonl|csv]\n"
               "           [--timings] [--timings-out=PATH]\n",
               argv0);
  return 2;
}

/// Signals received so far. The first starts a graceful drain, the
/// second aborts the wait for in-flight leases.
volatile std::sig_atomic_t gSignalCount = 0;

void onSignal(int) { gSignalCount = gSignalCount + 1; }

/// SIGTERM/SIGINT → onSignal, deliberately WITHOUT SA_RESTART: the
/// event loop's poll() must return EINTR so the drain check between
/// pollOnce() calls runs promptly.
void installSignalHandlers() {
  struct sigaction action = {};
  action.sa_handler = onSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  (void)sigaction(SIGTERM, &action, nullptr);
  (void)sigaction(SIGINT, &action, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  // Chaos-under-test hook: a no-op unless NCG_CHAOS_SEED selects a
  // deterministic fault plan for this process.
  fault::installPlanFromEnv();
  const std::string name = argv[1];
  ServeOptions options;
  FinishOptions finish;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      std::string value;
      int parsed = 0;
      if (keyValue(arg, "--addr=", value)) {
        options.address = value;
      } else if (keyValue(arg, "--checkpoint=", value)) {
        options.checkpointPath = value;
      } else if (keyValue(arg, "--heartbeat-ms=", value)) {
        if (!flagInt("--heartbeat-ms", value, 1, parsed)) {
          return usage(argv[0]);
        }
        options.heartbeatMs = parsed;
      } else if (keyValue(arg, "--shard-size=", value)) {
        if (!flagInt("--shard-size", value, 1, parsed)) {
          return usage(argv[0]);
        }
        options.shardSize = static_cast<std::size_t>(parsed);
      } else if (keyValue(arg, "--linger-ms=", value)) {
        if (!flagInt("--linger-ms", value, 0, parsed)) {
          return usage(argv[0]);
        }
        options.lingerMs = parsed;
      } else if (keyValue(arg, "--durability=", value)) {
        const auto policy = parseDurabilityPolicy(value);
        if (!policy.has_value()) {
          std::fprintf(stderr,
                       "--durability expects flush or fsync[:N], got '%s'\n",
                       value.c_str());
          return usage(argv[0]);
        }
        options.durability = *policy;
      } else if (keyValue(arg, "--max-conns=", value)) {
        if (!flagInt("--max-conns", value, 1, parsed)) {
          return usage(argv[0]);
        }
        options.maxConnections = parsed;
      } else if (keyValue(arg, "--format=", value)) {
        finish.format = value;
      } else if (arg == "--timings") {
        finish.timings = true;
      } else if (keyValue(arg, "--timings-out=", value)) {
        finish.timings = true;
        finish.timingsPath = value;
      } else {
        std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
        return usage(argv[0]);
      }
    }
    if (finish.format != "legacy" && finish.format != "jsonl" &&
        finish.format != "csv") {
      std::fprintf(stderr, "unknown --format '%s'\n", finish.format.c_str());
      return usage(argv[0]);
    }
    const Scenario* scenario = findScenario(name);
    if (scenario == nullptr) {
      std::fprintf(stderr, "unknown scenario '%s' (try: ncg_run list)\n",
                   name.c_str());
      return 2;
    }

    ShardServer server(*scenario, options);
    installSignalHandlers();
    std::fprintf(stderr, "listening on %s\n", server.address().c_str());
    std::fprintf(stderr, "%zu/%zu trials from checkpoint, waiting for "
                         "ncg_run --connect workers\n",
                 server.stats().unitsFromCheckpoint,
                 server.results().totalTrials());
    while (!server.complete()) {
      if (gSignalCount > 0 && !server.draining()) {
        std::fprintf(stderr,
                     "signal: draining — no new leases, waiting for "
                     "in-flight shards (signal again to stop waiting)\n");
        server.requestDrain();
      }
      if (gSignalCount > 1 || server.drainComplete()) break;
      server.pollOnce(100);
    }
    server.syncDurable();
    if (server.complete() && gSignalCount == 0) {
      // Linger so late workers get kDone instead of a vanished server.
      const std::int64_t end = steadyClock().nowMs() + options.lingerMs;
      while (steadyClock().nowMs() < end) server.pollOnce(50);
    }
    const ShardServer::Stats stats = server.stats();
    std::fprintf(stderr,
                 "%s: %zu recorded this run, %zu duplicates deduped, "
                 "%zu re-leases, %zu dropped connections, %zu slow-client "
                 "evictions, %zu admission rejections\n",
                 server.complete() ? "complete" : "drained",
                 stats.unitsRecorded, stats.duplicateResults, stats.reLeases,
                 stats.droppedConnections, stats.slowClientEvictions,
                 stats.admissionRejected);
    if (!server.complete()) {
      // Graceful SIGTERM exit: everything accepted is durable in the
      // manifest; a partial rendering would only invite misreading.
      std::fprintf(stderr,
                   "drained with %zu/%zu trials done; restart with the "
                   "same --checkpoint to finish\n",
                   server.results().completedTrials(),
                   server.results().totalTrials());
      return 0;
    }

    return finishRun("ncg_serve", *scenario, server.points(),
                     server.results(), server.timings(), finish);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ncg_serve: %s\n", e.what());
    return 1;
  }
}
