// ncg_trace — the benchmark's single-process traced replay driver.
//
//   ncg_trace build-arena DIR N [N...]
//       Builds the family_large_ba base arena of each node count N into
//       DIR under the file name the scenario looks up (build to a temp
//       file, then rename), so a campaign with NCG_ARENA_DIR=DIR finds a
//       warm cache. Prints the seconds each build took, one per line.
//
//   ncg_trace replay SCENARIO WORKDIR DURABILITY
//       Runs every (point, trial) unit of SCENARIO's grid (grid knobs
//       from the environment, exactly as ncg_run reads them) twice in
//       this one thread:
//         1. computeScenarioUnit — the plain, untraced single-thread
//            baseline of the same problem;
//         2. a replay of the unit's trial body through the layers'
//            public functions with a span at every layer boundary.
//       The replay's metrics must equal the baseline's bit for bit (a
//       divergent replay traced a different program: exit 3). Then it
//       times CheckpointWriter::append over the unit records under the
//       DURABILITY policy (flush | fsync[:N]). Spans are kept in memory
//       and written to WORKDIR/spans.tsv at the end; the per-layer
//       metrics go to stdout as one JSON object.
//
//   ncg_trace spawn REPORT CMD [ARGS...]
//       Runs CMD and writes its exit code and the peak RSS (KiB) of its
//       process tree to REPORT.
//
// Supported scenarios: fig10_convergence and ext_sum_experiments (the
// sequential round-robin incremental loop through DynamicsCache) and
// family_large_ba (the paged greedy loop through CsrArena, PagedGraph,
// buildPlayerViewT, greedyMove and ArenaDynamicsBackend). The replay
// mirrors the trial bodies in runtime/scenarios_*.cpp, runtime/trial.cpp,
// dynamics/round_robin.cpp and storage/paged_dynamics.hpp; the fidelity
// check is what keeps the mirror honest.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/best_response.hpp"
#include "core/player_view.hpp"
#include "core/restricted_moves.hpp"
#include "core/strategy.hpp"
#include "dynamics/cache.hpp"
#include "dynamics/features.hpp"
#include "gen/barabasi_albert.hpp"
#include "graph/metrics.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/runner.hpp"
#include "runtime/scenario.hpp"
#include "runtime/trial.hpp"
#include "storage/arena.hpp"
#include "storage/paged_dynamics.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/random.hpp"

namespace {

using namespace ncg;
using namespace ncg::runtime;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

enum SpanName : std::uint8_t {
  kUnit,
  kGen,
  kDynamics,
  kView,
  kSolveMax,
  kSolveSum,
  kApply,
  kCycleCheck,
  kFeatures,
  kStorageCopy,
  kStorageOpen,
  kStorageView,
  kGreedy,
  kStorageWriteback,
  kStorageClose,
  kSpanNameCount,
};

constexpr const char* kSpanLabel[kSpanNameCount] = {
    "unit",           "gen",          "dynamics",
    "dynamics.view",  "core.solve_max", "core.solve_sum",
    "dynamics.apply", "dynamics.cycle_check", "features",
    "storage.copy",   "storage.open", "storage.view",
    "core.greedy",    "storage.writeback", "storage.close",
};

struct Span {
  std::int32_t unit = 0;     ///< index into the replayed unit list
  std::int32_t parent = -1;  ///< enclosing span; -1 for a unit root
  SpanName name = kUnit;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
};

/// In-memory span recorder: spans nest strictly (one thread), so the
/// parent of a new span is the innermost open one.
class Tracer {
 public:
  void setUnit(std::int32_t unit) { unit_ = unit; }

  void open(SpanName name) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    stack_.push_back(static_cast<std::int32_t>(spans_.size()));
    spans_.push_back({unit_, parent, name, 0, 0});
    spans_.back().startNs = nowNs();
  }

  void close() {
    const std::int64_t end = nowNs();
    spans_[static_cast<std::size_t>(stack_.back())].endNs = end;
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int32_t unit_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class Scoped {
 public:
  Scoped(Tracer& tracer, SpanName name) : tracer_(tracer) {
    tracer_.open(name);
  }
  ~Scoped() { tracer_.close(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& tracer_;
};

/// Work counters recorded at the same boundaries as the spans.
struct Counters {
  std::uint64_t viewCalls = 0;
  std::uint64_t viewRebuilds = 0;
  std::uint64_t settledSkips = 0;
  std::uint64_t moves = 0;
  std::uint64_t maxCalls = 0;
  std::uint64_t maxImproving = 0;
  std::uint64_t sumCalls = 0;
  std::uint64_t sumImproving = 0;
  std::uint64_t coverConstructions = 0;
  std::uint64_t coverReusedSolves = 0;  ///< max solves building no instance
  std::uint64_t inexact = 0;
  std::uint64_t greedyCalls = 0;
  std::uint64_t copyBytes = 0;
  std::uint64_t pagerFaults = 0;
  std::uint64_t pagerEvictions = 0;
  std::uint64_t pagerPeakResident = 0;
};

// ---------------------------------------------------------------------
// Best-response dynamics replay (fig10_convergence, ext_sum_experiments)
// ---------------------------------------------------------------------

double outcomeCode(DynamicsOutcome outcome) {
  switch (outcome) {
    case DynamicsOutcome::kConverged:
      return 0.0;
    case DynamicsOutcome::kCycleDetected:
      return 1.0;
    case DynamicsOutcome::kRoundLimit:
      return 2.0;
  }
  return 2.0;
}

/// The TrialSpec each scenario's trial body builds from its grid point.
TrialSpec dynamicsSpec(const std::string& scenario,
                       const ScenarioPoint& point) {
  TrialSpec spec;
  spec.source = Source::kRandomTree;
  if (scenario == "fig10_convergence") {
    const bool left = point.param("part") == 0.0;
    spec.n = left ? 100 : static_cast<NodeId>(point.param("n"));
    spec.params = GameParams::max(left ? point.param("alpha") : 2.0,
                                  static_cast<Dist>(point.param("k")));
  } else {
    spec.n = 20;
    spec.params = GameParams::sum(point.param("alpha"),
                                  static_cast<Dist>(point.param("k")));
    spec.maxRounds = 40;
  }
  return spec;
}

std::vector<double> replayDynamicsUnit(const std::string& scenario,
                                       const ScenarioPoint& point, int trial,
                                       Tracer& tracer, Counters& c) {
  const TrialSpec spec = dynamicsSpec(scenario, point);
  const GameParams& params = spec.params;
  Rng rng(deriveSeed(point.baseSeed, static_cast<std::uint64_t>(trial)));

  StrategyProfile profile;
  {
    const Scoped span(tracer, kGen);
    const Graph initial = makeInitialGraph(spec, rng);
    profile = StrategyProfile::randomOwnership(initial, rng);
  }

  Graph graph;
  DynamicsOutcome outcome = DynamicsOutcome::kRoundLimit;
  int rounds = 0;
  {
    const Scoped dynamicsSpan(tracer, kDynamics);
    graph = profile.buildGraph();
    NCG_REQUIRE(isConnected(graph), "initial network must be connected");
    const NodeId n = profile.playerCount();
    DynamicsCache cache(n, params.k);
    BestResponseScratch scratch;
    const BestResponseOptions options;
    std::unordered_map<std::uint64_t, std::vector<StrategyProfile>> seen;
    {
      const Scoped span(tracer, kCycleCheck);
      seen[profile.hash()].push_back(profile);
    }
    bool finished = false;
    for (int round = 1; round <= spec.maxRounds && !finished; ++round) {
      bool moved = false;
      for (NodeId u = 0; u < n; ++u) {
        if (cache.isSettled(u)) {
          ++c.settledSkips;
          continue;
        }
        const std::size_t rebuildsBefore = cache.rebuilds();
        const PlayerView* pv = nullptr;
        {
          const Scoped span(tracer, kView);
          pv = &cache.viewOf(graph, profile, u);
        }
        ++c.viewCalls;
        c.viewRebuilds += cache.rebuilds() - rebuildsBefore;

        BestResponse br;
        if (params.kind == GameKind::kMax) {
          const Scoped span(tracer, kSolveMax);
          CoverInstanceCache* cover =
              cache.coverCacheFor(u, pv->view.size(), cache.viewRevision(u));
          const CoverInstanceCache& counted =
              cover != nullptr ? *cover : scratch.cover;
          const std::size_t before = counted.constructions;
          br = cover != nullptr
                   ? bestResponse(*pv, params, options, scratch, *cover,
                                  cache.viewRevision(u))
                   : bestResponse(*pv, params, options, scratch);
          const std::size_t built = counted.constructions - before;
          c.coverConstructions += built;
          if (built == 0) ++c.coverReusedSolves;
          ++c.maxCalls;
          if (br.improving) ++c.maxImproving;
        } else {
          const Scoped span(tracer, kSolveSum);
          br = bestResponse(*pv, params, options, scratch);
          ++c.sumCalls;
          if (br.improving) ++c.sumImproving;
        }
        if (!br.exact) ++c.inexact;

        if (br.improving) {
          const Scoped span(tracer, kApply);
          cache.applyMove(graph, profile, u, br.strategyGlobal);
          ++c.moves;
          moved = true;
        } else {
          cache.markSettled(u);
        }
      }
      rounds = round;
      if (!moved) {
        outcome = DynamicsOutcome::kConverged;
        break;
      }
      const Scoped span(tracer, kCycleCheck);
      auto& bucket = seen[profile.hash()];
      for (const StrategyProfile& previous : bucket) {
        if (previous == profile) {
          outcome = DynamicsOutcome::kCycleDetected;
          finished = true;
          break;
        }
      }
      if (!finished) bucket.push_back(profile);
    }
  }

  NetworkFeatures features;
  {
    const Scoped span(tracer, kFeatures);
    features = computeFeatures(graph, profile, params);
  }
  if (scenario == "fig10_convergence") {
    return {outcomeCode(outcome), static_cast<double>(rounds)};
  }
  return {outcomeCode(outcome), features.quality, static_cast<double>(rounds),
          static_cast<double>(features.diameter)};
}

// ---------------------------------------------------------------------
// Out-of-core greedy replay (family_large_ba)
// ---------------------------------------------------------------------

constexpr NodeId kBaAttach = 2;
constexpr int kBaActiveWindow = 48;
constexpr int kBaMaxRounds = 3;

std::uint64_t baSeedFor(NodeId nodes) {
  return 0xBA000000ULL + static_cast<std::uint64_t>(nodes);
}

std::string baArenaPath(const std::string& dir, NodeId nodes) {
  return dir + "/ncg_ba_n" + std::to_string(nodes) + "_m" +
         std::to_string(kBaAttach) + "_s" + std::to_string(baSeedFor(nodes)) +
         ".arena";
}

/// Streams `from` to `to` through a 256 KiB buffer (the scenario's
/// scratch-copy discipline); returns the bytes copied.
std::uint64_t copyFile(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  NCG_REQUIRE(in.is_open(), "cannot read " << from);
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  NCG_REQUIRE(out.is_open(), "cannot write " << to);
  std::vector<char> buffer(1 << 18);
  std::uint64_t copied = 0;
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const std::streamsize got = in.gcount();
    if (got > 0) {
      out.write(buffer.data(), got);
      copied += static_cast<std::uint64_t>(got);
    }
  }
  out.flush();
  NCG_REQUIRE(out.good(), "copying " << from << " to " << to << " failed");
  return copied;
}

std::vector<double> replayLargeBaUnit(const ScenarioPoint& point, int trial,
                                      Tracer& tracer, Counters& c) {
  const NodeId n = static_cast<NodeId>(point.param("n"));
  Rng rng(deriveSeed(point.baseSeed, static_cast<std::uint64_t>(trial)));
  const GameParams params = GameParams::max(
      point.param("alpha"), static_cast<Dist>(point.param("k")));
  std::vector<NodeId> active;
  {
    const Scoped span(tracer, kGen);
    active.reserve(kBaActiveWindow);
    while (static_cast<int>(active.size()) < kBaActiveWindow) {
      const NodeId u = static_cast<NodeId>(
          rng.nextBounded(static_cast<std::uint64_t>(n)));
      if (std::find(active.begin(), active.end(), u) != active.end()) {
        continue;
      }
      active.push_back(u);
    }
  }

  const std::string basePath = baArenaPath(env::arenaDir(), n);
  NCG_REQUIRE(std::filesystem::exists(basePath),
              "arena cache " << basePath << " missing (build-arena first)");
  const std::string scratchPath =
      basePath + ".trial." + std::to_string(::getpid());
  {
    const Scoped span(tracer, kStorageCopy);
    c.copyBytes += copyFile(basePath, scratchPath);
  }

  PagedDynamicsResult result;
  {
    CsrArena arena;
    tracer.open(kStorageOpen);
    arena.open(scratchPath);
    ArenaDynamicsBackend backend(
        arena, static_cast<std::uint64_t>(env::arenaBudget()));
    tracer.close();

    BfsEngine engine;
    BestResponseScratch scratch;
    PlayerView pv;
    for (int round = 1; round <= kBaMaxRounds; ++round) {
      bool improvedAny = false;
      double costSum = 0.0;
      for (NodeId u : active) {
        {
          const Scoped span(tracer, kStorageView);
          buildPlayerViewT(backend.graph(), backend.strategy(), u, params.k,
                           engine, pv);
        }
        BestResponse move;
        {
          const Scoped span(tracer, kGreedy);
          move = greedyMove(pv, params.forPlayer(u), scratch);
        }
        ++c.greedyCalls;
        if (!move.exact) ++c.inexact;
        costSum += move.currentCost;
        if (move.improving) {
          const Scoped span(tracer, kStorageWriteback);
          backend.applyStrategy(u, move.strategyGlobal);
          improvedAny = true;
          ++result.totalMoves;
        }
      }
      result.rounds = round;
      result.activeCostSum = costSum;
      if (!improvedAny) {
        result.outcome = DynamicsOutcome::kConverged;
        break;
      }
    }

    const PagedGraphStats& stats = backend.paged().stats();
    c.pagerFaults += stats.faults;
    c.pagerEvictions += stats.evictions;
    c.pagerPeakResident = std::max(c.pagerPeakResident,
                                   stats.peakResidentBytes);
    const Scoped span(tracer, kStorageClose);
    backend.paged().dropAll();
    arena.close();
  }
  {
    const Scoped span(tracer, kStorageClose);
    std::remove(scratchPath.c_str());
  }
  return {result.outcome == DynamicsOutcome::kConverged ? 0.0 : 2.0,
          static_cast<double>(result.rounds),
          static_cast<double>(result.totalMoves), result.activeCostSum};
}

// ---------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------

bool sameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

int buildArenas(int argc, char** argv) {
  const std::string dir = argv[2];
  std::filesystem::create_directories(dir);
  for (int i = 3; i < argc; ++i) {
    const auto nodes = static_cast<NodeId>(std::stol(argv[i]));
    const std::string path = baArenaPath(dir, nodes);
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    const std::int64_t start = nowNs();
    BarabasiAlbertParams params;
    params.nodes = nodes;
    params.attach = kBaAttach;
    params.seed = baSeedFor(nodes);
    buildBarabasiAlbertArena(tmp, params);
    NCG_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
                "installing arena cache file " << path << " failed");
    std::printf("%.9f\n", seconds(nowNs() - start));
  }
  return 0;
}

/// Writes every record to a fresh manifest under `durability`, the way
/// runScenario's writer does over one campaign: open (header line),
/// one append per unit, close. Returns the writer's wall time over all
/// of that, the bytes on disk and the fdatasync calls the policy makes.
struct AppendProbe {
  double appendUs = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t fsyncs = 0;
};

AppendProbe probeCheckpoint(const Scenario& scenario,
                            const std::vector<ScenarioPoint>& points,
                            const std::vector<TrialRecord>& records,
                            const DurabilityPolicy& durability,
                            const std::string& path) {
  std::filesystem::remove(path);
  const ResultHeader header{scenario.name,
                            scenarioFingerprint(scenario, points),
                            points.size(), records.size()};
  AppendProbe probe;
  const std::int64_t start = nowNs();
  {
    CheckpointWriter writer(path, header, durability);
    for (const TrialRecord& record : records) writer.append(record);
    NCG_REQUIRE(writer.failedAppends() == 0, "checkpoint appends failed");
  }
  probe.appendUs = static_cast<double>(nowNs() - start) * 1e-3;
  probe.bytes = std::filesystem::file_size(path);
  if (durability.kind == DurabilityPolicy::Kind::kFsync) {
    // The header's, one per fsyncEveryN appends, and the one on close.
    probe.fsyncs = records.size() /
                       static_cast<std::uint64_t>(durability.fsyncEveryN) +
                   2;
  }
  std::filesystem::remove(path);
  return probe;
}

int replay(const std::string& scenarioName, const std::string& workdir,
           const std::string& durabilityText) {
  const Scenario* scenario = findScenario(scenarioName);
  NCG_REQUIRE(scenario != nullptr, "unknown scenario " << scenarioName);
  const bool largeBa = scenarioName == "family_large_ba";
  NCG_REQUIRE(largeBa || scenarioName == "fig10_convergence" ||
                  scenarioName == "ext_sum_experiments",
              "no replay for scenario " << scenarioName);
  NCG_REQUIRE(!env::arenaBackendRam(), "the replay traces the paged backend");
  const auto durability = parseDurabilityPolicy(durabilityText);
  NCG_REQUIRE(durability.has_value(), "bad durability " << durabilityText);

  const std::vector<ScenarioPoint> points = scenario->makePoints();
  struct UnitRef {
    int point;
    int trial;
  };
  std::vector<UnitRef> units;
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (int t = 0; t < points[p].trials; ++t) {
      units.push_back({static_cast<int>(p), t});
    }
  }

  Tracer tracer;
  Counters counters;
  std::vector<TrialRecord> records;
  records.reserve(units.size());
  std::int64_t baselineNs = 0;
  std::size_t divergent = 0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    const UnitRef unit = units[i];
    const ScenarioPoint& point = points[static_cast<std::size_t>(unit.point)];

    const std::int64_t start = nowNs();
    TrialRecord baseline =
        computeScenarioUnit(*scenario, points, unit.point, unit.trial);
    baselineNs += nowNs() - start;

    tracer.setUnit(static_cast<std::int32_t>(i));
    std::vector<double> replayed;
    {
      const Scoped span(tracer, kUnit);
      replayed = largeBa ? replayLargeBaUnit(point, unit.trial, tracer,
                                             counters)
                         : replayDynamicsUnit(scenarioName, point, unit.trial,
                                              tracer, counters);
    }
    if (!sameBits(replayed, baseline.metrics)) {
      ++divergent;
      std::fprintf(stderr, "replay diverges from computeScenarioUnit at "
                           "point %d trial %d\n",
                   unit.point, unit.trial);
    }
    records.push_back(std::move(baseline));
  }

  const AppendProbe probe = probeCheckpoint(
      *scenario, points, records, *durability, workdir + "/append_probe.jsonl");

  // Busy (inclusive) and self time per span name; self = duration minus
  // the time its direct children cover.
  const std::vector<Span>& spans = tracer.spans();
  std::vector<std::int64_t> childNs(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      childNs[static_cast<std::size_t>(span.parent)] +=
          span.endNs - span.startNs;
    }
  }
  std::int64_t busyNs[kSpanNameCount] = {};
  std::int64_t selfNs[kSpanNameCount] = {};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t duration = spans[i].endNs - spans[i].startNs;
    busyNs[spans[i].name] += duration;
    selfNs[spans[i].name] += duration - childNs[i];
  }

  // Spans out: one TSV line each, keyed by (scenario, point, trial).
  {
    std::FILE* out = std::fopen((workdir + "/spans.tsv").c_str(), "w");
    NCG_REQUIRE(out != nullptr, "cannot write spans.tsv in " << workdir);
    std::fprintf(out,
                 "span\tparent\tscenario\tpoint\ttrial\tname\tstart_ns\t"
                 "dur_ns\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const UnitRef unit = units[static_cast<std::size_t>(span.unit)];
      std::fprintf(out, "%zu\t%d\t%s\t%d\t%d\t%s\t%lld\t%lld\n", i,
                   span.parent, scenarioName.c_str(), unit.point, unit.trial,
                   kSpanLabel[span.name],
                   static_cast<long long>(span.startNs),
                   static_cast<long long>(span.endNs - span.startNs));
    }
    NCG_REQUIRE(std::fclose(out) == 0, "writing spans.tsv failed");
  }

  const auto us = [](std::int64_t ns) { return static_cast<double>(ns) * 1e-3; };
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  const Counters& c = counters;
  std::printf("{\"units\": %zu, \"divergent\": %zu, \"spans\": %zu",
              units.size(), divergent, spans.size());
  const auto field = [](const char* name, double value) {
    std::printf(", \"%s\": %.17g", name, value);
  };
  field("runtime.checkpoint.append_us", probe.appendUs);
  field("runtime.checkpoint.bytes", static_cast<double>(probe.bytes));
  field("runtime.checkpoint.fsyncs", static_cast<double>(probe.fsyncs));
  field("dynamics.view.busy_us", us(busyNs[kView]));
  field("dynamics.view.calls", static_cast<double>(c.viewCalls));
  field("dynamics.view.rebuilds", static_cast<double>(c.viewRebuilds));
  field("dynamics.view.reuse_ratio",
        c.viewCalls == 0 ? 0.0 : 1.0 - ratio(c.viewRebuilds, c.viewCalls));
  field("dynamics.settled_skips", static_cast<double>(c.settledSkips));
  field("dynamics.apply.busy_us", us(busyNs[kApply]));
  field("dynamics.apply.moves", static_cast<double>(c.moves));
  field("dynamics.cycle_check.busy_us", us(busyNs[kCycleCheck]));
  field("dynamics.loop.self_us", us(selfNs[kDynamics]));
  field("core.solve_max.busy_us", us(busyNs[kSolveMax]));
  field("core.solve_max.calls", static_cast<double>(c.maxCalls));
  field("core.solve_max.improving_ratio", ratio(c.maxImproving, c.maxCalls));
  field("core.cover.constructions", static_cast<double>(c.coverConstructions));
  field("core.cover.reuse_ratio", ratio(c.coverReusedSolves, c.maxCalls));
  field("core.solve.inexact", static_cast<double>(c.inexact));
  field("core.solve_sum.busy_us", us(busyNs[kSolveSum]));
  field("core.solve_sum.calls", static_cast<double>(c.sumCalls));
  field("core.solve_sum.improving_ratio", ratio(c.sumImproving, c.sumCalls));
  field("core.greedy.busy_us", us(busyNs[kGreedy]));
  field("core.greedy.calls", static_cast<double>(c.greedyCalls));
  field("storage.copy.busy_us", us(busyNs[kStorageCopy]));
  field("storage.copy.bytes", static_cast<double>(c.copyBytes));
  field("storage.open.busy_us", us(busyNs[kStorageOpen]));
  field("storage.view.busy_us", us(busyNs[kStorageView]));
  field("storage.writeback.busy_us", us(busyNs[kStorageWriteback]));
  field("storage.close.busy_us", us(busyNs[kStorageClose]));
  field("storage.pager.faults", static_cast<double>(c.pagerFaults));
  field("storage.pager.evictions", static_cast<double>(c.pagerEvictions));
  field("storage.pager.peak_resident_bytes",
        static_cast<double>(c.pagerPeakResident));
  field("gen.busy_us", us(busyNs[kGen]));
  field("features.busy_us", us(busyNs[kFeatures]));
  field("runtime.unit.self_us", us(selfNs[kUnit]));
  field("trace.unit_sum_s", seconds(busyNs[kUnit]));
  field("trace.baseline_unit_sum_s", seconds(baselineNs));
  field("trace.tracing_overhead_s", seconds(busyNs[kUnit] - baselineNs));
  std::printf("}\n");
  return divergent == 0 ? 0 : 3;
}

/// Runs CMD as a child and writes "<exit code> <peak RSS KiB>" to REPORT.
/// The peak is wait4's ru_maxrss: the largest process in the child's
/// tree. A child inherits the high-water mark of the process it was
/// forked from, so the harness (a Python process several times larger
/// than a campaign's workers) must not fork the campaign itself.
int spawnCommand(char** argv) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("ncg_trace: fork");
    return 1;
  }
  if (pid == 0) {
    ::execvp(argv[3], argv + 3);
    std::perror("ncg_trace: exec");
    ::_exit(127);
  }
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("ncg_trace: wait4");
      return 1;
    }
  }
  const int code =
      WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  std::FILE* out = std::fopen(argv[2], "w");
  if (out == nullptr) return 1;
  std::fprintf(out, "%d %ld\n", code, usage.ru_maxrss);
  return std::fclose(out) == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: ncg_trace build-arena DIR N [N...]\n"
               "       ncg_trace replay SCENARIO WORKDIR DURABILITY\n"
               "       ncg_trace spawn REPORT CMD [ARGS...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "spawn" && argc >= 4) return spawnCommand(argv);
    if (command == "build-arena" && argc >= 4) return buildArenas(argc, argv);
    if (command == "replay" && argc == 5) {
      return replay(argv[2], argv[3], argv[4]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ncg_trace: %s\n", e.what());
    return 1;
  }
  return usage();
}
