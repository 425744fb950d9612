#include "runtime/runner.hpp"

#include <poll.h>
#include <sys/mman.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "runtime/checkpoint.hpp"
#include "runtime/result_io.hpp"
#include "runtime/timing.hpp"
#include "support/clock.hpp"
#include "support/env.hpp"
#include "support/error.hpp"

namespace ncg::runtime {

namespace {

/// One unit of work: trial `trial` of grid point `point`.
struct Unit {
  int point = 0;
  int trial = 0;
};

/// A computed unit with its wall-clock timing on the run's clock.
struct TimedRecord {
  TrialRecord record;
  UnitTiming timing;
};

TimedRecord computeTimed(const Scenario& scenario,
                         const std::vector<ScenarioPoint>& points,
                         const Unit& unit, Clock& clock,
                         std::uint64_t worker) {
  const std::int64_t startUs = clock.nowUs();
  TrialRecord record =
      computeScenarioUnit(scenario, points, unit.point, unit.trial);
  const UnitTiming timing{unit.point, unit.trial, startUs,
                          clock.nowUs() - startUs, worker};
  return {std::move(record), timing};
}

/// The index of the next unclaimed unit, shared by every forked worker:
/// it lives in an anonymous MAP_SHARED mapping, which fork() keeps
/// shared, and a lock-free atomic is address-free, so fetch_add is
/// atomic across the processes. One claim is one unit, so a slow unit
/// holds up only the worker that runs it.
class UnitCounter {
 public:
  UnitCounter() {
    void* memory = ::mmap(nullptr, sizeof(Counter), PROT_READ | PROT_WRITE,
                          MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (memory == MAP_FAILED) throw Error("mmap() of the unit counter failed");
    next_ = new (memory) Counter(0);
  }
  ~UnitCounter() { ::munmap(next_, sizeof(Counter)); }
  UnitCounter(const UnitCounter&) = delete;
  UnitCounter& operator=(const UnitCounter&) = delete;

  std::size_t claim() { return next_->fetch_add(1); }

 private:
  using Counter = std::atomic<std::size_t>;
  static_assert(Counter::is_always_lock_free,
                "the unit counter is shared across processes");
  Counter* next_ = nullptr;
};

void writeAll(int fd, const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error("worker pipe write failed");
    }
    written += static_cast<std::size_t>(n);
  }
}

/// Body of forked worker `workerIndex`: claim units until none is left
/// and stream one JSON line per result — followed, when timing, by one
/// timing line for the same unit. Timing lines share the pipe but the
/// parent routes them to the sidecar, never the manifest. Returns the
/// exit code.
int workerBody(const Scenario& scenario,
               const std::vector<ScenarioPoint>& points,
               const std::vector<Unit>& units, UnitCounter& counter,
               std::size_t workerIndex, int fd, bool recordTimings,
               Clock& clock) {
  try {
    for (std::size_t i = counter.claim(); i < units.size();
         i = counter.claim()) {
      const TimedRecord done = computeTimed(scenario, points, units[i], clock,
                                            workerIndex);
      std::string line = encodeTrialLine(done.record) + "\n";
      if (recordTimings) line += encodeTimingLine(done.timing) + "\n";
      writeAll(fd, line.data(), line.size());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ncg_run worker %zu: %s\n", workerIndex, e.what());
  } catch (...) {
    // Nothing may unwind out of a child into the parent's code.
    std::fprintf(stderr, "ncg_run worker %zu: unknown exception\n",
                 workerIndex);
  }
  return 1;
}

/// A worker process as the parent sees it.
struct WorkerHandle {
  pid_t pid = -1;
  int fd = -1;           ///< read end of the result pipe
  std::string buffer;    ///< partial-line carry-over
  bool open = false;
};

/// Every worker forked so far. Until reap() has run, the destructor
/// closes the open read ends — a worker's next write then fails and it
/// exits — and waits for every child, so no failure path leaves a
/// child behind: not a demux error, and not a pipe() or fork() failure
/// half-way through forking.
struct Workers {
  std::vector<WorkerHandle> handles;
  bool reaped = false;

  Workers() = default;
  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;
  ~Workers() {
    if (!reaped) (void)reap();
  }

  /// Closes every open read end and waits for every child; true when
  /// each one exited 0.
  bool reap() {
    reaped = true;
    for (WorkerHandle& h : handles) {
      if (h.open) {
        ::close(h.fd);
        h.open = false;
      }
    }
    bool clean = true;
    for (const WorkerHandle& h : handles) {
      int status = 0;
      pid_t waited = 0;
      do {
        waited = ::waitpid(h.pid, &status, 0);
      } while (waited < 0 && errno == EINTR);
      if (waited < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        clean = false;
      }
    }
    return clean;
  }
};

/// Where a finished unit goes, whichever path computed it: the result
/// into the report and the manifest, the timing into the report and the
/// sidecar — never the manifest.
struct UnitSink {
  RunReport& report;
  CheckpointWriter& writer;
  TimingWriter& timingWriter;

  void result(const TrialRecord& record) {
    report.results.record(record);
    writer.append(record);
    ++report.unitsRun;
  }
  void timing(const UnitTiming& timing) {
    report.timings.push_back(timing);
    timingWriter.append(timing);
  }
};

void drainLines(WorkerHandle& worker, UnitSink& sink) {
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = worker.buffer.find('\n', start);
    if (nl == std::string::npos) break;
    const std::string_view line(worker.buffer.data() + start, nl - start);
    if (const auto record = decodeTrialLine(line)) {
      sink.result(*record);
    } else if (const auto timing = decodeTimingLine(line)) {
      sink.timing(*timing);
    } else {
      NCG_REQUIRE(false, "malformed result line from worker");
    }
    start = nl + 1;
  }
  worker.buffer.erase(0, start);
}

void runForked(const Scenario& scenario,
               const std::vector<ScenarioPoint>& points,
               const std::vector<Unit>& units, int procs, bool recordTimings,
               Clock& clock, UnitSink& sink) {
  const std::size_t workerCount =
      std::min<std::size_t>(static_cast<std::size_t>(procs), units.size());
  UnitCounter counter;

  // fork() duplicates stdio buffers; flush so no worker can replay
  // buffered parent output.
  std::fflush(nullptr);

  Workers workers;
  workers.handles.reserve(workerCount);
  for (std::size_t w = 0; w < workerCount; ++w) {
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) throw Error("pipe() failed");
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw Error("fork() failed");
    }
    if (pid == 0) {
      // Child: keep only the write end of its own pipe.
      ::close(fds[0]);
      for (const WorkerHandle& h : workers.handles) ::close(h.fd);
      const int code = workerBody(scenario, points, units, counter, w,
                                  fds[1], recordTimings, clock);
      ::close(fds[1]);
      ::_exit(code);
    }
    ::close(fds[1]);
    workers.handles.push_back({pid, fds[0], std::string(), true});
  }

  // Demultiplex result lines as they arrive; placement is by (point,
  // trial) index, so arrival order cannot affect the results.
  std::vector<pollfd> pollSet;
  for (;;) {
    pollSet.clear();
    for (const WorkerHandle& h : workers.handles) {
      if (h.open) pollSet.push_back({h.fd, POLLIN, 0});
    }
    if (pollSet.empty()) break;
    const int ready = ::poll(pollSet.data(), pollSet.size(), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw Error("poll() on worker pipes failed");
    }
    for (const pollfd& p : pollSet) {
      if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      WorkerHandle* worker = nullptr;
      for (WorkerHandle& h : workers.handles) {
        if (h.open && h.fd == p.fd) worker = &h;
      }
      if (worker == nullptr) continue;
      char buf[65536];
      const ssize_t n = ::read(worker->fd, buf, sizeof buf);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw Error("read() from worker pipe failed");
      }
      if (n == 0) {
        ::close(worker->fd);
        worker->open = false;
        continue;
      }
      worker->buffer.append(buf, static_cast<std::size_t>(n));
      drainLines(*worker, sink);
    }
  }

  bool failed = !workers.reap();
  for (const WorkerHandle& h : workers.handles) {
    if (!h.buffer.empty()) failed = true;  // torn final line
  }
  NCG_REQUIRE(!failed, "a scenario worker process failed");
}

/// Prints the one failure line every finishRun write shares.
int cannotWrite(const std::string& what) {
  std::fprintf(stderr, "cannot write %s\n", what.c_str());
  return 1;
}

/// Writes `text` to `path`, truncating it. A full disk may surface only
/// when fclose() flushes the buffer, so its result counts too.
bool writeTextFile(const std::string& path, const std::string& text) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const bool written = std::fputs(text.c_str(), out) >= 0;
  return std::fclose(out) == 0 && written;
}

}  // namespace

TrialRecord computeScenarioUnit(const Scenario& scenario,
                                const std::vector<ScenarioPoint>& points,
                                int point, int trial) {
  const ScenarioPoint& p = points[static_cast<std::size_t>(point)];
  Rng rng(deriveSeed(p.baseSeed, static_cast<std::uint64_t>(trial)));
  TrialRecord record{point, trial, scenario.runTrialFn(p, trial, rng)};
  NCG_REQUIRE(record.metrics.size() == scenario.metricNames.size(),
              "scenario '" << scenario.name << "' returned "
                           << record.metrics.size() << " metrics, expected "
                           << scenario.metricNames.size());
  return record;
}

std::string renderResults(const Scenario& scenario,
                          const std::vector<ScenarioPoint>& points,
                          const ScenarioResults& results,
                          const std::string& format) {
  if (format == "legacy") {
    return scenario.render ? scenario.render(scenario, points, results)
                           : renderGenericTable(scenario, points, results);
  }
  if (format == "jsonl") {
    const ResultHeader header{scenario.name,
                              scenarioFingerprint(scenario, points),
                              points.size(), results.totalTrials()};
    std::string out = encodeHeaderLine(header) + "\n";
    for (const TrialRecord& record : results.records()) {
      out += encodeTrialLine(record);
      out += "\n";
    }
    return out;
  }
  if (format == "csv") {
    // Columns are the union of param labels over the grid (points may
    // carry different label sets, e.g. fig10's two panels); a point
    // without a label leaves that cell empty.
    const std::vector<std::string> labels = paramLabels(points);
    std::string out = "point,trial";
    for (const std::string& label : labels) {
      out += "," + label;
    }
    for (const std::string& metric : scenario.metricNames) {
      out += "," + metric;
    }
    out += "\n";
    char buffer[40];
    for (const TrialRecord& record : results.records()) {
      out += std::to_string(record.point) + "," + std::to_string(record.trial);
      const ScenarioPoint& point =
          points[static_cast<std::size_t>(record.point)];
      for (const std::string& label : labels) {
        const auto value = point.tryParam(label);
        if (value.has_value()) {
          std::snprintf(buffer, sizeof buffer, ",%.17g", *value);
          out += buffer;
        } else {
          out += ",";
        }
      }
      for (const double metric : record.metrics) {
        std::snprintf(buffer, sizeof buffer, ",%.17g", metric);
        out += buffer;
      }
      out += "\n";
    }
    return out;
  }
  throw Error("unknown results format '" + format + "'");
}

RunReport runScenario(const Scenario& scenario, const RunOptions& options) {
  NCG_REQUIRE(static_cast<bool>(scenario.makePoints) &&
                  static_cast<bool>(scenario.runTrialFn),
              "scenario '" << scenario.name << "' is not runnable");
  std::vector<ScenarioPoint> points = scenario.makePoints();
  ScenarioResults results(points);
  RunReport report{std::move(points), std::move(results), 0, 0, false, {}};
  const std::vector<ScenarioPoint>& grid = report.points;

  const std::uint64_t fingerprint = scenarioFingerprint(scenario, grid);
  const ResultHeader header{scenario.name, fingerprint, grid.size(),
                            report.results.totalTrials()};

  RunFiles files = resumeRun(scenario, grid, header, report.results,
                             options.checkpointPath, options.recordTimings,
                             options.timingsPath, options.durability);
  report.unitsFromCheckpoint = report.results.completedTrials();
  Clock& clock = options.clock != nullptr ? *options.clock : steadyClock();

  std::vector<Unit> units;
  units.reserve(report.results.totalTrials() - report.unitsFromCheckpoint);
  for (std::size_t p = 0; p < grid.size(); ++p) {
    for (int t = 0; t < grid[p].trials; ++t) {
      if (!report.results.has(static_cast<int>(p), t)) {
        units.push_back({static_cast<int>(p), t});
      }
    }
  }
  if (options.maxUnits > 0 && units.size() > options.maxUnits) {
    units.resize(options.maxUnits);
  }

  UnitSink sink{report, files.manifest, files.timings};
  const int procs = options.procs > 0 ? options.procs : env::procs();
  if (procs <= 1) {
    for (const Unit& unit : units) {
      const TimedRecord done = computeTimed(scenario, grid, unit, clock, 0);
      sink.result(done.record);
      if (options.recordTimings) sink.timing(done.timing);
    }
  } else if (!units.empty()) {
    runForked(scenario, grid, units, procs, options.recordTimings, clock,
              sink);
    NCG_REQUIRE(report.unitsRun == units.size(),
                "workers returned " << report.unitsRun << " of "
                                    << units.size() << " expected results");
  }

  report.complete = report.results.complete();
  return report;
}

int finishRun(const char* cli, const Scenario& scenario,
              const std::vector<ScenarioPoint>& points,
              const ScenarioResults& results,
              const std::vector<UnitTiming>& timings,
              const FinishOptions& options) {
  if (options.timings) {
    const TimingSummary summary = summarizeTimings(points, timings);
    std::fputs(renderTimingSummary(scenario, points, summary).c_str(),
               stderr);
    const std::string bench = std::string(cli) + "_" + scenario.name;
    const std::string path = options.timingsPath.empty()
                                 ? "BENCH_" + bench + ".json"
                                 : options.timingsPath;
    if (!writeTextFile(path, timingSummaryJson(bench, points, summary))) {
      return cannotWrite(path);
    }
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
  if (!options.outPath.empty() &&
      !writeTextFile(options.outPath,
                     renderResults(scenario, points, results, "jsonl"))) {
    return cannotWrite(options.outPath);
  }
  if (!results.complete()) return 0;
  const std::string text =
      renderResults(scenario, points, results, options.format);
  std::fputs(text.c_str(), stdout);
  if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0) {
    return cannotWrite("stdout");
  }
  return scenario.exitCode ? scenario.exitCode(scenario, points, results)
                           : 0;
}

}  // namespace ncg::runtime
