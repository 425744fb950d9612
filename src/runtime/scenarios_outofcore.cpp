// The out-of-core scenario family: honest large instances.
//
//   family_large_ba — greedy (single-edge) dynamics for a sampled window
//   of players on Barabási–Albert networks of 10⁵ nodes (10⁶ under
//   NCG_SCALE=1), served from the mmap arena through the byte-budgeted
//   pager instead of an in-RAM Graph.
//
// Determinism contract: trial t of point p runs on the stream
// Rng(deriveSeed(baseSeed, t)) like every other scenario, the base
// arena file is a pure function of (n, attach, seed), and both dynamics
// backends keep neighbor rows in the canonical ascending order — so the
// metrics (and the rendered table, and a checkpoint manifest) are
// bitwise identical across NCG_PROCS, kill/resume, any
// NCG_ARENA_BUDGET, and NCG_ARENA_BACKEND=paged vs ram. That last
// equality is the subsystem's differential wall, pinned by
// test_storage_differential.cpp.
//
// Cost model: the base arena for each n is built once into
// NCG_ARENA_DIR (atomic tmp+rename, so concurrent worker processes
// race safely) and every trial copies it to a private scratch file
// before opening — the paged backend writes moves back in place, and a
// shared cache file must never absorb them.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gen/barabasi_albert.hpp"
#include "runtime/scenario.hpp"
#include "storage/paged_dynamics.hpp"
#include "support/env.hpp"
#include "support/error.hpp"

namespace ncg::runtime {
namespace detail {

namespace {

/// The family's fixed shape: every arriving node buys two links, and a
/// trial wakes this many sampled players for at most three rounds.
constexpr NodeId kAttach = 2;
constexpr int kActiveWindow = 48;
constexpr int kMaxRounds = 3;

/// The BA seed is a pure function of n so the k-grid points at the same
/// n share one cached arena file.
std::uint64_t baSeedFor(NodeId nodes) {
  return 0xBA000000ULL + static_cast<std::uint64_t>(nodes);
}

std::string baArenaPath(NodeId nodes) {
  return env::arenaDir() + "/ncg_ba_n" + std::to_string(nodes) + "_m" +
         std::to_string(kAttach) + "_s" + std::to_string(baSeedFor(nodes)) +
         ".arena";
}

bool fileExists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

/// A process-private scratch file `<base>.<tag>.<pid>`, removed when the
/// guard leaves scope on every exit path, exceptions included. The pid
/// keeps concurrent units apart because the runner never runs two units
/// in one process at the same time.
struct ScratchFile {
  ScratchFile(const std::string& base, const char* tag)
      : path(base + "." + tag + "." + std::to_string(::getpid())) {}
  ~ScratchFile() { std::remove(path.c_str()); }
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;

  const std::string path;
};

/// Builds the base arena for n if the cache misses. Build-to-temp plus
/// rename makes concurrent builders (NCG_PROCS workers all opening the
/// same point) safe: the file's bytes are deterministic, so whichever
/// rename lands last installs identical content.
std::string ensureBaArena(NodeId nodes) {
  // Create the cache directory if missing (one level — NCG_ARENA_DIR
  // pointing into a non-existent tree is a configuration error the
  // builder's open will report).
  ::mkdir(env::arenaDir().c_str(), 0755);
  const std::string path = baArenaPath(nodes);
  if (fileExists(path)) return path;
  const ScratchFile tmp(path, "tmp");
  BarabasiAlbertParams params;
  params.nodes = nodes;
  params.attach = kAttach;
  params.seed = baSeedFor(nodes);
  buildBarabasiAlbertArena(tmp.path, params);
  NCG_REQUIRE(std::rename(tmp.path.c_str(), path.c_str()) == 0,
              "installing arena cache file " << path << " failed");
  return path;
}

/// Small-buffer stream copy: the scratch copy must not pull the whole
/// arena into RAM — the headline of this family is the peak-RSS one.
void copyFile(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  NCG_REQUIRE(in.is_open(), "cannot read " << from);
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  NCG_REQUIRE(out.is_open(), "cannot write " << to);
  std::vector<char> buffer(1 << 18);
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const std::streamsize got = in.gcount();
    if (got > 0) out.write(buffer.data(), got);
  }
  out.flush();
  NCG_REQUIRE(out.good(), "copying " << from << " to " << to << " failed");
}

/// Samples `count` distinct players from [0, n) in draw order — the
/// wake order of the window, fixed across rounds.
std::vector<NodeId> sampleActiveWindow(Rng& rng, NodeId n, int count) {
  std::vector<NodeId> active;
  active.reserve(static_cast<std::size_t>(count));
  while (static_cast<int>(active.size()) < count) {
    const NodeId u = static_cast<NodeId>(
        rng.nextBounded(static_cast<std::uint64_t>(n)));
    if (std::find(active.begin(), active.end(), u) != active.end()) continue;
    active.push_back(u);
  }
  return active;
}

double outOfCoreOutcomeCode(DynamicsOutcome outcome) {
  return outcome == DynamicsOutcome::kConverged ? 0.0 : 2.0;
}

std::vector<double> resultMetrics(const PagedDynamicsResult& result) {
  return {outOfCoreOutcomeCode(result.outcome),
          static_cast<double>(result.rounds),
          static_cast<double>(result.totalMoves), result.activeCostSum};
}

Scenario makeLargeBaFamily() {
  Scenario s;
  s.name = "family_large_ba";
  s.description =
      "Family: greedy dynamics for a 48-player window on 1e5-node BA "
      "networks (1e6 under NCG_SCALE=1) via the mmap arena pager "
      "(NCG_ARENA_BUDGET / NCG_ARENA_BACKEND)";
  s.metricNames = {"outcome", "rounds", "total_moves", "active_cost"};
  s.makePoints = [] {
    std::vector<ScenarioPoint> points;
    std::vector<NodeId> sizes = {100000};
    if (env::fullScale()) sizes.push_back(1000000);
    for (const NodeId n : sizes) {
      for (const Dist k : {1, 2}) {
        if (n >= 1000000 && k < 2) continue;  // full scale: one big point
        ScenarioPoint point;
        point.params = {{"n", static_cast<double>(n)},
                        {"k", static_cast<double>(k)},
                        {"alpha", 4.0}};
        point.baseSeed = 0xBA9EA51ULL + static_cast<std::uint64_t>(n) * 31 +
                         static_cast<std::uint64_t>(k) * 131;
        point.trials = 1;
        points.push_back(std::move(point));
      }
    }
    return points;
  };
  s.runTrialFn = [](const ScenarioPoint& point, int /*trial*/, Rng& rng) {
    const NodeId n = static_cast<NodeId>(point.param("n"));
    PagedDynamicsConfig config;
    config.params = GameParams::max(point.param("alpha"),
                                    static_cast<Dist>(point.param("k")));
    config.active = sampleActiveWindow(rng, n, kActiveWindow);
    config.maxRounds = kMaxRounds;

    const std::string basePath = ensureBaArena(n);
    if (env::arenaBackendRam()) {
      // The in-RAM twin reads the cache file without mutating it — no
      // scratch copy needed.
      CsrArena arena;
      arena.open(basePath);
      RamDynamicsBackend backend(materializeGraph(arena),
                                 materializeProfile(arena));
      arena.close();
      return resultMetrics(runPagedGreedyDynamics(backend, config));
    }
    // Paged backend: moves are written back into the file, so each
    // trial works on a private scratch copy of the cached arena.
    const ScratchFile scratch(basePath, "trial");
    copyFile(basePath, scratch.path);
    CsrArena arena;
    arena.open(scratch.path);
    ArenaDynamicsBackend backend(
        arena, static_cast<std::uint64_t>(env::arenaBudget()));
    std::vector<double> metrics =
        resultMetrics(runPagedGreedyDynamics(backend, config));
    backend.paged().dropAll();
    arena.close();
    return metrics;
  };
  return s;  // generic renderer
}

}  // namespace

void appendOutOfCoreScenarios(std::vector<Scenario>& registry) {
  registry.push_back(makeLargeBaFamily());
}

}  // namespace detail
}  // namespace ncg::runtime
