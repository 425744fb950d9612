"""Metric math of the benchmark, kept free of I/O so test_metrics.py can
drive it with synthetic sidecars.

A campaign's timing sidecar (``<checkpoint>.timings.jsonl``) holds a
header line and one ``unit_timing`` line per computed (point, trial)
unit, each line tagged ``payload#xxxxxxxx`` with the CRC-32 of its
payload (see src/runtime/durable_log.hpp).
"""

import json
import math
import zlib

# A tail percentile is reported only where at least this many samples
# lie beyond it.
TAIL_BEYOND = 10


def strip_checksum(line):
    """Payload of a ``payload#xxxxxxxx`` line; the whole line when it has
    no well-formed suffix (legacy line); None when the suffix is wrong."""
    if len(line) >= 9 and line[-9] == "#" and all(
            c in "0123456789abcdef" for c in line[-8:]):
        payload = line[:-9]
        if "%08x" % zlib.crc32(payload.encode()) != line[-8:]:
            return None
        return payload
    return line


def _int_field(obj, key):
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(key)
    return value


class Sidecar:
    """Parsed sidecar: the header (dict or None), the unit timings in
    file order after first-report-wins dedupe by (point, trial), and the
    counts of malformed and duplicate lines."""

    def __init__(self, header, timings, malformed, duplicates):
        self.header = header
        self.timings = timings
        self.malformed = malformed
        self.duplicates = duplicates

    def units(self):
        return {(t["point"], t["trial"]) for t in self.timings}


def parse_sidecar(text):
    header = None
    timings = []
    seen = set()
    malformed = 0
    duplicates = 0
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    else:
        malformed += 1  # torn final line: no newline
        lines.pop()
    for index, line in enumerate(lines):
        payload = strip_checksum(line)
        try:
            if payload is None:
                raise ValueError("checksum")
            obj = json.loads(payload)
            if not isinstance(obj, dict):
                raise ValueError("not an object")
            if index == 0 and obj.get("ncg_timings") == 1:
                header = obj
                continue
            if obj.get("unit_timing") != 1:
                raise ValueError("not a timing line")
            timing = {key: _int_field(obj, key) for key in
                      ("point", "trial", "start_us", "dur_us", "worker")}
        except ValueError:
            malformed += 1
            continue
        key = (timing["point"], timing["trial"])
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        timings.append(timing)
    return Sidecar(header, timings, malformed, duplicates)


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100.0))
    return ordered[rank - 1]


def tail_percentile(count, cap=99):
    """Highest whole percentile <= cap with at least TAIL_BEYOND of
    `count` samples beyond it under nearest rank; None when even the
    first percentile has fewer."""
    for q in range(cap, 0, -1):
        if count - math.ceil(q * count / 100.0) >= TAIL_BEYOND:
            return q
    return None


def worker_busy(timings, procs):
    """Summed unit seconds per worker lane 0..procs-1 (a lane that
    reported no unit counts as idle)."""
    lanes = max([procs] + [t["worker"] + 1 for t in timings])
    busy = [0.0] * lanes
    for t in timings:
        busy[t["worker"]] += t["dur_us"] * 1e-6
    return busy


def runner_metrics(timings, procs, campaign_s):
    """Executor-level figures of one campaign from its sidecar."""
    busy = worker_busy(timings, procs)
    total = sum(busy)
    busy_max = max(busy)
    mean = total / len(busy)
    return {
        "unit_sum_s": total,
        "worker_busy_max_s": busy_max,
        "imbalance": busy_max / mean if mean > 0 else 0.0,
        "overhead_s": campaign_s - busy_max,
        "parallel_efficiency": total / (procs * campaign_s),
    }


def failed_units(expected, exit_code, digest_ok, sidecar_units):
    """Units of one campaign counted as failed: all of them when the
    campaign exited non-zero, rendered output that differs from the
    reference, or a sidecar missing an expected unit; otherwise none."""
    if exit_code != 0 or not digest_ok or not expected <= sidecar_units:
        return len(expected)
    return 0

