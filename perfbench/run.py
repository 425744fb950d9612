#!/usr/bin/env python3
"""The repository benchmark: the paper's §5 campaigns, end to end and
layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the shipping
``ncg_run`` CLI and the ``ncg_trace`` replay driver from source into
``.bench_build/`` (perfbench/CMakeLists.txt); later runs rebuild
incrementally. Every file the benchmark writes stays under
``.bench_build/``.

--trace 0 times whole ``ncg_run`` campaigns (tracing off) back to back
for about --seconds and reports the end-to-end metrics. --trace 1 runs
one campaign for the executor figures, then the single-process traced
replay of every unit, and reports the per-layer metrics. Both check
every campaign's rendered stdout against the reference digest, its exit
code and its timing sidecar; the traced run also checks that the replay
reproduces computeScenarioUnit bit for bit. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

The campaigns' inputs are the registry's pinned grids: each grid point
carries its own base seed, and the reference digests pin the output of
exactly those grids. --seed is therefore validated and echoed but does
not change what ncg_run computes; see perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
NCG_RUN = CMAKE_DIR / "ncg" / "src" / "ncg_run"
NCG_TRACE = CMAKE_DIR / "ncg_trace"

# Two workers leave the parent's demux and this harness a core each on
# a 4-core machine; at NCG_PROCS=4 the same grid's summed unit time
# swung by a quarter between runs.
PROCS = 2
SETUP_REPEATS = 5
RUN_LIMIT_S = 170  # children are killed well inside a run's 180 s limit

WORKLOADS = {
    "fig10_max": {
        "scenario": "fig10_convergence",
        "env": {"NCG_SCALE": "1", "NCG_TRIALS": "2"},
        "durability": "flush",
        "points": 252,
        "trials": 2,
    },
    "sum_small_fsync": {
        "scenario": "ext_sum_experiments",
        "env": {"NCG_TRIALS": "64"},
        "durability": "fsync",
        "points": 16,
        "trials": 64,
    },
    "large_ba_paged": {
        "scenario": "family_large_ba",
        "env": {"NCG_SCALE": "1", "NCG_ARENA_BUDGET": "262144"},
        "durability": "flush",
        "points": 3,
        "trials": 1,
        "arena_nodes": ["100000", "1000000"],
    },
}

END_TO_END = [
    ("campaign_s", "s"),
    ("unit_p50_ms", "ms"),
    ("unit_p99_ms", "ms"),
    ("parallel_efficiency", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("unit_success_share", "ratio"),
]

RUNNER_LAYER = [
    ("runtime.runner.worker_busy_max_s", "s"),
    ("runtime.runner.imbalance", "ratio"),
    ("runtime.runner.overhead_s", "s"),
]

# Reported by `ncg_trace replay`, in its output order.
TRACE_LAYER = [
    ("runtime.checkpoint.append_us", "us"),
    ("runtime.checkpoint.bytes", "bytes"),
    ("runtime.checkpoint.fsyncs", "count"),
    ("dynamics.view.busy_us", "us"),
    ("dynamics.view.calls", "count"),
    ("dynamics.view.rebuilds", "count"),
    ("dynamics.view.reuse_ratio", "ratio"),
    ("dynamics.settled_skips", "count"),
    ("dynamics.apply.busy_us", "us"),
    ("dynamics.apply.moves", "count"),
    ("dynamics.cycle_check.busy_us", "us"),
    ("dynamics.loop.self_us", "us"),
    ("core.solve_max.busy_us", "us"),
    ("core.solve_max.calls", "count"),
    ("core.solve_max.improving_ratio", "ratio"),
    ("core.cover.constructions", "count"),
    ("core.cover.reuse_ratio", "ratio"),
    ("core.solve.inexact", "count"),
    ("core.solve_sum.busy_us", "us"),
    ("core.solve_sum.calls", "count"),
    ("core.solve_sum.improving_ratio", "ratio"),
    ("core.greedy.busy_us", "us"),
    ("core.greedy.calls", "count"),
    ("storage.copy.busy_us", "us"),
    ("storage.copy.bytes", "bytes"),
    ("storage.open.busy_us", "us"),
    ("storage.view.busy_us", "us"),
    ("storage.writeback.busy_us", "us"),
    ("storage.close.busy_us", "us"),
    ("storage.pager.faults", "count"),
    ("storage.pager.evictions", "count"),
    ("storage.pager.peak_resident_bytes", "bytes"),
    ("gen.busy_us", "us"),
    ("features.busy_us", "us"),
    ("runtime.unit.self_us", "us"),
    ("trace.unit_sum_s", "s"),
    ("trace.baseline_unit_sum_s", "s"),
    ("trace.tracing_overhead_s", "s"),
    ("trace.spans", "count"),
]

PER_LAYER = RUNNER_LAYER + TRACE_LAYER


class BenchError(Exception):
    """A failure that makes the run's figures meaningless."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def check_checkout():
    for required in ("CMakeLists.txt", "src/CMakeLists.txt",
                     "src/runtime/ncg_run.cpp"):
        if not (ROOT / required).is_file():
            raise BenchError(
                "%s is missing: run from the root of a full source checkout"
                % required)


def build():
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.log", "ab") as out:
        steps = []
        if not (CMAKE_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(CMAKE_DIR), "--target",
                      "ncg_run", "ncg_trace", "-j",
                      str(min(4, os.cpu_count() or 1))])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError("build failed; see %s" % (BUILD / "build.log"))


def workload_env(spec, workdir):
    env = {k: v for k, v in os.environ.items() if not k.startswith("NCG_")}
    env.update(spec["env"])
    env["TMPDIR"] = str(workdir)
    if "arena_nodes" in spec:
        env["NCG_ARENA_DIR"] = str(workdir / "arena")
    return env


def spawn(cmd, env, stdout_path, stderr_path, deadline):
    """Runs cmd under `ncg_trace spawn` in its own process group; returns
    (exit code, wall seconds, peak RSS in MiB of the largest process in
    its tree). The group is killed once `deadline` (a time.monotonic()
    value) passes, and on any harness error."""
    report = Path(str(stdout_path) + ".rusage")
    if report.exists():
        report.unlink()
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(NCG_TRACE), "spawn", str(report)] + cmd,
                                env=env, stdout=out, stderr=err, cwd=ROOT,
                                start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def reap_group():
        # After a kill the grandchildren are not ours to wait for; poll
        # until the kernel has removed every member of the group.
        kill()
        proc.wait()
        for _ in range(500):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)

    timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
    timer.start()
    try:
        proc.wait()
    except BaseException:
        reap_group()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    if proc.returncode < 0:
        reap_group()
    if proc.returncode != 0 or not report.exists():
        return proc.returncode or 1, wall, 0.0
    code, rss_kib = report.read_text().split()
    return int(code), wall, int(rss_kib) / 1024.0


def setup_once(spec, workdir, deadline):
    """Fresh private workspace, the grid shape checked through
    `ncg_run list`, and for the arena workload the base-arena cache
    built into it. Returns the wall seconds it took."""
    start = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = workload_env(spec, workdir)
    listing = subprocess.run([str(NCG_RUN), "list"], env=env, cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    expected = "%4d points %6d trials" % (spec["points"],
                                          spec["points"] * spec["trials"])
    line = next((l for l in listing.stdout.splitlines()
                 if l.split()[:1] == [spec["scenario"]]), "")
    if listing.returncode != 0 or expected not in line:
        raise BenchError("ncg_run list does not show %s with%s"
                         % (spec["scenario"], expected))
    if "arena_nodes" in spec:
        built = subprocess.run(
            [str(NCG_TRACE), "build-arena", env["NCG_ARENA_DIR"]]
            + spec["arena_nodes"], env=env, cwd=ROOT, capture_output=True,
            timeout=max(1.0, deadline - time.monotonic()))
        if built.returncode != 0:
            raise BenchError("arena cache build failed: %s"
                             % built.stderr.decode(errors="replace"))
    return time.perf_counter() - start


def reference_digest(workload):
    with open(HERE / "reference_digests.json", encoding="utf-8") as f:
        return json.load(f)["sha256"][workload]


def run_campaign(workload, spec, workdir, deadline):
    """One untraced `ncg_run run` campaign plus its output checks."""
    checkpoint = workdir / "campaign.jsonl"
    for stale in workdir.glob("campaign.*"):
        stale.unlink()
    arena_before = (sorted(p.name for p in (workdir / "arena").iterdir())
                    if "arena_nodes" in spec else None)
    cmd = [str(NCG_RUN), "run", spec["scenario"],
           "--checkpoint=%s" % checkpoint]
    if spec["durability"] != "flush":
        cmd.append("--durability=%s" % spec["durability"])
    env = workload_env(spec, workdir)
    env["NCG_PROCS"] = str(PROCS)
    stdout_path = workdir / "campaign.stdout"
    code, wall, rss_mb = spawn(cmd, env, stdout_path,
                               workdir / "campaign.stderr", deadline)

    digest_ok = (hashlib.sha256(stdout_path.read_bytes()).hexdigest()
                 == reference_digest(workload))
    sidecar_path = Path(str(checkpoint) + ".timings.jsonl")
    sidecar = metrics.parse_sidecar(
        sidecar_path.read_text() if sidecar_path.exists() else "\n")
    expected = {(p, t) for p in range(spec["points"])
                for t in range(spec["trials"])}
    problems = []
    if code != 0:
        problems.append("exit code %d" % code)
    if not digest_ok:
        problems.append("rendered output differs from the reference digest")
    if not expected <= sidecar.units():
        problems.append("sidecar lacks %d units"
                        % len(expected - sidecar.units()))
    if arena_before is not None:
        arena_after = sorted(p.name for p in (workdir / "arena").iterdir())
        if arena_after != arena_before:
            # A campaign that missed the prebuilt cache rebuilt it inside
            # the timed region, or left scratch copies behind.
            problems.append("arena cache changed: %s -> %s"
                            % (arena_before, arena_after))
            digest_ok = False
    failed = metrics.failed_units(expected, code, digest_ok, sidecar.units())
    for problem in problems:
        log("%s campaign: %s" % (workload, problem))
    return {
        "wall": wall,
        "rss_mb": rss_mb,
        "attempted": len(expected),
        "failed": failed,
        "timings": [t for t in sidecar.timings
                    if (t["point"], t["trial"]) in expected],
    }


def end_to_end(workload, campaigns, setups):
    ok = [c for c in campaigns if c["failed"] == 0]
    attempted = sum(c["attempted"] for c in campaigns)
    failed = sum(c["failed"] for c in campaigns)
    values = {"setup_s": statistics.median(setups),
              "unit_success_share": 1.0 - failed / attempted}
    if ok:
        durations = [t["dur_us"] * 1e-3 for c in ok for t in c["timings"]]
        tail = metrics.tail_percentile(len(durations))
        log("%s: %d campaigns (%s s), %d unit samples; unit_p99_ms "
            "reports %s" % (workload, len(campaigns),
                            " ".join("%.3f" % c["wall"] for c in campaigns),
                            len(durations),
                            "p%d" % tail if tail else "the slowest unit"))
        values.update({
            "campaign_s": statistics.median([c["wall"] for c in ok]),
            "unit_p50_ms": metrics.percentile(durations, 50),
            "unit_p99_ms": metrics.percentile(durations, tail or 100),
            "parallel_efficiency": statistics.median(
                [metrics.runner_metrics(c["timings"], PROCS, c["wall"])
                 ["parallel_efficiency"] for c in ok]),
            "peak_rss_mb": statistics.median([c["rss_mb"] for c in ok]),
        })
    return attempted, failed, values


def per_layer(spec, workdir, campaign, deadline):
    """Executor figures from the campaign's sidecar, then the traced
    replay. Returns (attempted, failed, values)."""
    values = {}
    failed = campaign["failed"]
    attempted = campaign["attempted"]
    if failed == 0:
        runner = metrics.runner_metrics(campaign["timings"], PROCS,
                                        campaign["wall"])
        for name, _ in RUNNER_LAYER:
            values[name] = runner[name.rsplit(".", 1)[1]]
    tracedir = BUILD / "trace" / spec["scenario"]
    shutil.rmtree(tracedir, ignore_errors=True)
    tracedir.mkdir(parents=True)
    code, _, _ = spawn([str(NCG_TRACE), "replay", spec["scenario"],
                        str(tracedir), spec["durability"]],
                       workload_env(spec, workdir), tracedir / "replay.json",
                       tracedir / "replay.stderr", deadline)
    units = spec["points"] * spec["trials"]
    attempted += units
    lines = (tracedir / "replay.json").read_text().splitlines()
    if code not in (0, 3) or not lines:
        log("traced replay failed (exit %d): %s"
            % (code, (tracedir / "replay.stderr").read_text()[-2000:]))
        return attempted, failed + units, values
    replay = json.loads(lines[-1])
    if code == 3:
        log((tracedir / "replay.stderr").read_text()[-2000:])
    # A divergent replay traced a different program; an inexact best
    # response is a solver operation that failed to prove optimality.
    failed += replay["divergent"] + int(replay["core.solve.inexact"])
    values["trace.spans"] = replay["spans"]
    for name, _ in TRACE_LAYER:
        if name in replay:
            values[name] = replay[name]
    return attempted, failed, values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    try:
        check_checkout()
        build()
    except BenchError as e:
        log("perfbench: %s" % e)
        return 2
    spec = WORKLOADS[args.workload]
    workdir = BUILD / "work" / args.workload
    log("%s: seed %d (the grids are pinned; see perfbench/README.md)"
        % (args.workload, args.seed))
    try:
        setups = [setup_once(spec, workdir, deadline)
                  for _ in range(1 if args.trace else SETUP_REPEATS)]
        if args.trace:
            campaign = run_campaign(args.workload, spec, workdir, deadline)
            attempted, failed, values = per_layer(spec, workdir, campaign,
                                                  deadline)
            wanted = PER_LAYER
        else:
            campaigns = []
            start = time.perf_counter()
            while True:
                campaigns.append(
                    run_campaign(args.workload, spec, workdir, deadline))
                typical = statistics.median([c["wall"] for c in campaigns])
                if time.perf_counter() - start + typical > args.seconds:
                    break
            attempted, failed, values = end_to_end(args.workload, campaigns,
                                                   setups)
            wanted = END_TO_END
    except (BenchError, subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 1

    missing = [name for name, _ in wanted if name not in values]
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
