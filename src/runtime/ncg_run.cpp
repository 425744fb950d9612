// ncg_run — the scenario runner CLI.
//
//   ncg_run list
//       List registered scenarios with their current grid sizes (grids
//       honour NCG_TRIALS / NCG_SCALE, so the numbers reflect the
//       environment the command runs in).
//
//   ncg_run run <scenario> [options]
//       Run a scenario and print its rendering (for the ported legacy
//       scenarios: byte-identical to the original bench harness).
//       Options:
//         --procs=N        worker processes (default $NCG_PROCS, then the
//                          core count); 1 runs the units sequentially
//                          in this process, N > 1 forks N workers that
//                          each claim one unit at a time
//         --checkpoint=P   JSONL manifest; an interrupted run resumes
//                          from it with bitwise-identical final results
//         --format=F       stdout format: legacy (default), jsonl, csv
//         --out=P          additionally write JSONL results to file P
//         --max-units=N    stop after N new trials (testing hook that
//                          simulates a mid-grid kill; exits 0 with a
//                          resume hint on stderr)
//         --timings        print a per-point timing summary (total/max/
//                          p50 unit time, peak RSS) to stderr and write
//                          it as BENCH_ncg_run_<scenario>.json
//         --timings-out=P  write the timing JSON to P (implies
//                          --timings)
//         --durability=D   manifest/sidecar write policy: flush
//                          (default) or fsync[:N] (fdatasync every Nth
//                          append — crash-safe against power loss, not
//                          just process death)
//         --connect=ADDR   run as a worker for an ncg_serve instance at
//                          ADDR (host:port or unix:/path) instead of
//                          executing locally: lease shards, stream
//                          results, exit 0 when the server says done.
//                          Mutually exclusive with the local options
//                          above; combines only with the worker knobs:
//         --retry-budget=N     failure retries before giving up
//                              (default $NCG_RETRY_BUDGET, then 1000)
//         --connect-attempts=N connection attempts per cycle (default 60)
//         --connect-delay-ms=N base reconnect delay, doubled with
//                              jitter up to a 2 s cap (default 50)
//         --backoff-seed=N     jitter stream seed; give each worker of
//                              a fleet its own to spread retries
//
// NCG_CHAOS_SEED=<n> installs the deterministic fault-injection plan
// (support/fault.hpp) for the whole process — testing only.
// Timing never changes the rendered output or the checkpoint manifest;
// with --checkpoint it adds the <checkpoint>.timings.jsonl sidecar.
// Exit codes: 0 success, 1 runtime failure, 2 usage error.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "runtime/durable_log.hpp"
#include "runtime/runner.hpp"
#include "runtime/scenario.hpp"
#include "runtime/serve.hpp"
#include "support/fault.hpp"
#include "support/string_util.hpp"

namespace {

using namespace ncg;
using namespace ncg::runtime;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s list\n"
               "       %s run <scenario> [--procs=N] [--checkpoint=PATH]\n"
               "           [--format=legacy|jsonl|csv] [--out=PATH] [--max-units=N]\n"
               "           [--durability=flush|fsync[:N]]\n"
               "           [--timings] [--timings-out=PATH]\n"
               "       %s run <scenario> --connect=ADDR [--retry-budget=N]\n"
               "           [--connect-attempts=N] [--connect-delay-ms=N]\n"
               "           [--backoff-seed=N]\n",
               argv0, argv0, argv0);
  return 2;
}

/// Strictly parses a flag value as an integer >= minValue; reports the
/// offending flag on stderr and returns false otherwise. std::stoi's
/// prefix parsing ("8x" → 8) and std::stoul's negative wrap-around
/// ("-1" → SIZE_MAX) are exactly what this replaces.
bool flagInt(const char* flag, const std::string& value, int minValue,
             int& out) {
  const auto parsed = parseInteger(value);
  if (!parsed.has_value() || *parsed < minValue) {
    std::fprintf(stderr, "%s expects an integer >= %d, got '%s'\n", flag,
                 minValue, value.c_str());
    return false;
  }
  out = *parsed;
  return true;
}

int listScenarios() {
  for (const Scenario& scenario : scenarioRegistry()) {
    const std::vector<ScenarioPoint> points = scenario.makePoints();
    std::size_t trials = 0;
    for (const ScenarioPoint& point : points) {
      trials += static_cast<std::size_t>(point.trials);
    }
    std::printf("%-22s %4zu points %6zu trials  %s\n", scenario.name.c_str(),
                points.size(), trials, scenario.description.c_str());
  }
  return 0;
}

/// Parses "--key=value" into `value`; true when `arg` starts with the
/// key prefix.
bool keyValue(const std::string& arg, const char* prefix,
              std::string& value) {
  const std::size_t len = std::strlen(prefix);
  if (arg.compare(0, len, prefix) != 0) return false;
  value = arg.substr(len);
  return true;
}

int runCommand(const std::string& name, const RunOptions& options,
               const std::string& format, const std::string& outPath,
               bool timings, const std::string& timingsOut) {
  const Scenario* scenario = findScenario(name);
  if (scenario == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (try: ncg_run list)\n",
                 name.c_str());
    return 2;
  }
  if (format != "legacy" && format != "jsonl" && format != "csv") {
    std::fprintf(stderr, "unknown --format '%s'\n", format.c_str());
    return 2;
  }
  const RunReport report = runScenario(*scenario, options);

  if (timings) {
    const TimingSummary summary =
        summarizeTimings(report.points, report.timings);
    const std::string text =
        renderTimingSummary(*scenario, report.points, summary);
    std::fputs(text.c_str(), stderr);
    const std::string jsonPath =
        timingsOut.empty() ? "BENCH_ncg_run_" + name + ".json" : timingsOut;
    std::FILE* out = std::fopen(jsonPath.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
      return 1;
    }
    const std::string json =
        timingSummaryJson("ncg_run_" + name, report.points, summary);
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::fprintf(stderr, "wrote %s\n", jsonPath.c_str());
  }

  if (!outPath.empty()) {
    std::FILE* out = std::fopen(outPath.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
      return 1;
    }
    const std::string text =
        renderResults(*scenario, report.points, report.results, "jsonl");
    std::fputs(text.c_str(), out);
    std::fclose(out);
  }

  if (!report.complete) {
    std::fprintf(stderr,
                 "incomplete: %zu/%zu trials done (%zu from checkpoint, %zu "
                 "this run); %s\n",
                 report.results.completedTrials(),
                 report.results.totalTrials(), report.unitsFromCheckpoint,
                 report.unitsRun,
                 options.checkpointPath.empty()
                     ? "no --checkpoint was given, so these results are "
                       "discarded — pass --checkpoint=PATH to make "
                       "--max-units resumable"
                     : "rerun with the same --checkpoint to resume");
    return 0;
  }

  const std::string text =
      renderResults(*scenario, report.points, report.results, format);
  std::fputs(text.c_str(), stdout);
  return 0;
}

int connectCommand(const std::string& name, const std::string& address,
                   const WorkerOptions& options) {
  const Scenario* scenario = findScenario(name);
  if (scenario == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (try: ncg_run list)\n",
                 name.c_str());
    return 2;
  }
  WorkerReport report;
  const int code = runConnectedWorker(*scenario, address, options, &report);
  std::fprintf(stderr,
               "worker done: %zu units over %zu leases (%zu reconnects)\n",
               report.unitsComputed, report.leases, report.reconnects);
  if (code != 0) {
    std::fprintf(stderr,
                 "worker failed: server at '%s' unreachable or serving a "
                 "different grid\n",
                 address.c_str());
  }
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  // Chaos-under-test hook: a no-op unless NCG_CHAOS_SEED selects a
  // deterministic fault plan for this process.
  fault::installPlanFromEnv();
  const std::string command = argv[1];
  try {
    if (command == "list") {
      if (argc != 2) return usage(argv[0]);
      return listScenarios();
    }
    if (command == "run") {
      if (argc < 3) return usage(argv[0]);
      const std::string name = argv[2];
      RunOptions options;
      WorkerOptions workerOptions;
      std::string format = "legacy";
      std::string outPath;
      std::string connectAddress;
      bool timings = false;
      std::string timingsOut;
      bool localOptions = false;
      bool workerFlags = false;
      for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        int parsed = 0;
        if (keyValue(arg, "--procs=", value)) {
          if (!flagInt("--procs", value, 1, parsed)) return usage(argv[0]);
          options.procs = parsed;
          localOptions = true;
        } else if (keyValue(arg, "--checkpoint=", value)) {
          options.checkpointPath = value;
          localOptions = true;
        } else if (keyValue(arg, "--format=", value)) {
          format = value;
          localOptions = true;
        } else if (keyValue(arg, "--out=", value)) {
          outPath = value;
          localOptions = true;
        } else if (keyValue(arg, "--max-units=", value)) {
          if (!flagInt("--max-units", value, 0, parsed)) {
            return usage(argv[0]);
          }
          options.maxUnits = static_cast<std::size_t>(parsed);
          localOptions = true;
        } else if (keyValue(arg, "--durability=", value)) {
          const auto policy = parseDurabilityPolicy(value);
          if (!policy.has_value()) {
            std::fprintf(stderr,
                         "--durability expects flush or fsync[:N], got "
                         "'%s'\n",
                         value.c_str());
            return usage(argv[0]);
          }
          options.durability = *policy;
          localOptions = true;
        } else if (arg == "--timings") {
          timings = true;
          localOptions = true;
        } else if (keyValue(arg, "--timings-out=", value)) {
          timings = true;
          timingsOut = value;
          localOptions = true;
        } else if (keyValue(arg, "--connect=", value)) {
          connectAddress = value;
        } else if (keyValue(arg, "--retry-budget=", value)) {
          if (!flagInt("--retry-budget", value, 1, parsed)) {
            return usage(argv[0]);
          }
          workerOptions.retryBudget = parsed;
          workerFlags = true;
        } else if (keyValue(arg, "--connect-attempts=", value)) {
          if (!flagInt("--connect-attempts", value, 1, parsed)) {
            return usage(argv[0]);
          }
          workerOptions.connectAttempts = parsed;
          workerFlags = true;
        } else if (keyValue(arg, "--connect-delay-ms=", value)) {
          if (!flagInt("--connect-delay-ms", value, 1, parsed)) {
            return usage(argv[0]);
          }
          workerOptions.connectDelayMs = parsed;
          workerFlags = true;
        } else if (keyValue(arg, "--backoff-seed=", value)) {
          if (!flagInt("--backoff-seed", value, 0, parsed)) {
            return usage(argv[0]);
          }
          workerOptions.backoffSeed = static_cast<std::uint64_t>(parsed);
          workerFlags = true;
        } else {
          std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
          return usage(argv[0]);
        }
      }
      if (!connectAddress.empty()) {
        if (localOptions) {
          std::fprintf(stderr,
                       "--connect runs under the server's configuration and "
                       "combines only with the worker knobs "
                       "(--retry-budget, --connect-attempts, "
                       "--connect-delay-ms, --backoff-seed)\n");
          return usage(argv[0]);
        }
        return connectCommand(name, connectAddress, workerOptions);
      }
      if (workerFlags) {
        std::fprintf(stderr,
                     "--retry-budget/--connect-attempts/--connect-delay-ms/"
                     "--backoff-seed only apply with --connect\n");
        return usage(argv[0]);
      }
      return runCommand(name, options, format, outPath, timings, timingsOut);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ncg_run: %s\n", e.what());
    return 1;
  }
  return usage(argv[0]);
}
