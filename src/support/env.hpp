// The environment knobs every experiment entry point honours.
//
// The scenario registry, the runner, the lease server and the bench
// harnesses all read the same knobs, so the parsing lives here once.
// All knobs are read at call time (no caching), so tests may
// setenv/unsetenv between calls.
#pragma once

#include <string>

namespace ncg::env {

/// NCG_TRIALS — seeded trials per grid point (default 8; the paper
/// used 20).
int trials();

/// True when NCG_SCALE=1 requests the paper's full (α, k, n) grids.
bool fullScale();

/// NCG_PROCS — worker processes of the scenario runner
/// (`runtime/runner.hpp`); default one per hardware thread, and 1 runs
/// the units sequentially in-process. Results are bitwise identical for
/// any value.
int procs();

/// NCG_SERVE_ADDR — listen/connect address of the shard-lease service
/// (`runtime/serve.hpp`): "host:port" TCP (port 0 = ephemeral) or
/// "unix:/path". Default "127.0.0.1:0".
std::string serveAddress();

/// NCG_HEARTBEAT_MS — lease time-to-live of the shard-lease service: a
/// worker whose lease sees no frame for this long is presumed dead and
/// its shards are re-leased. Default 5000.
int heartbeatMs();

/// NCG_RETRY_BUDGET — total reconnect/retry allowance of a connected
/// worker (`ncg_run run <s> --connect=ADDR`): every reconnect cycle and
/// every admission kRetry spends one; a worker over budget exits 1
/// instead of retrying forever. Default 1000. Parsed with the strict
/// envInt discipline (malformed values warn and fall back; non-positive
/// values fall back silently).
int retryBudget();

/// NCG_CHAOS_SEED — seed of the deterministic fault-injection plan
/// (support/fault.hpp) installed by the CLIs at startup. 0 / unset =
/// chaos off; the production IO seams then cost one branch.
/// Values > 0 select a reproducible fault schedule.
int chaosSeed();

/// NCG_ARENA_BUDGET — byte budget of the out-of-core pager
/// (`storage/paged_graph.hpp`): partitions over this total are evicted
/// LRU-first (flushed + madvise'd away). 0 / unset = unlimited (no
/// eviction). Results are bitwise identical for any value.
long long arenaBudget();

/// NCG_ARENA_DIR — directory holding the cached base arena files of the
/// out-of-core scenarios and their per-trial scratch copies. Defaults
/// to $TMPDIR, else /tmp.
std::string arenaDir();

/// True when NCG_ARENA_BACKEND=ram asks the out-of-core scenarios to
/// run on the in-RAM Graph/StrategyProfile twin instead of the paged
/// arena (same trajectories either way — that equivalence is the
/// subsystem's differential wall). Default: the paged backend.
bool arenaBackendRam();

}  // namespace ncg::env
