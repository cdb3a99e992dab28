"""Statistics, metric names, provenance and the metric formulas.

perfbench/run.py turns the harness's raw samples into metrics with the
functions here; perfbench/compare.py uses the provenance rule.  The
formulas per workload are documented in perfbench/README.md.
"""

import hashlib
import math
import os
import re
import socket
import subprocess
from collections import defaultdict
from pathlib import Path

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

IN_PROCESS = ("convergent-large", "mesh-baselines")
# grid-dist's client threads, each running one job at a time.
CLIENTS = 2
# serve-mix's wall.batch_s is the wall time of this many replies.
SERVE_BATCH = 250


def valid_name(name):
    """True when @p name is a legal metric or workload name."""
    return isinstance(name, str) and NAME_RE.match(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.match(unit) is not None


def geomean(values):
    """Geometric mean of positive numbers."""
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values, got %r" % values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Percentile:
    """A nearest-rank percentile with the sample that supports it."""

    def __init__(self, value, samples, beyond):
        self.value = value
        self.samples = samples  # sample count
        self.beyond = beyond    # samples ranked above the percentile

    def __repr__(self):
        return "Percentile(%r, samples=%d, beyond=%d)" % (
            self.value, self.samples, self.beyond)


def nearest_rank(values, p):
    """The smallest sample whose rank covers p percent of the sample."""
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100], got %r" % p)
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = min(len(ordered), max(1, math.ceil(p / 100.0 * len(ordered))))
    return Percentile(ordered[rank - 1], len(ordered), len(ordered) - rank)


def median(values):
    return nearest_rank(values, 50).value


# ---- provenance and the like-for-like rule ------------------------------

def source_commit(root):
    """The git commit of @p root, or a digest of the program's sources."""
    if (Path(root) / ".git").exists():
        try:
            return subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "tools"):
        for path in sorted((Path(root) / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def provenance(root, build):
    return {
        "commit": source_commit(root),
        "buildType": build.get("buildType", "unknown"),
        "cxxFlags": " ".join(build.get("cxxFlags", "").split()),
        "compiler": build.get("compiler", "unknown"),
        "nproc": os.cpu_count(),
        "host": socket.gethostname(),
    }


def incomparable(base, new):
    """Why two reports' builds may not be compared, or None if they may.

    Timings from builds of another type or with other compiler flags
    measure the compiler, not the change, so such pairs are refused.
    """
    for key, what in (("buildType", "build type"),
                      ("cxxFlags", "compiler flags")):
        a = base["provenance"].get(key)
        b = new["provenance"].get(key)
        if a != b:
            return "%s differs: %r vs %r" % (what, a, b)
    return None


# ---- end-to-end metrics ---------------------------------------------------

def _by_unit(ops, field="s"):
    groups = defaultdict(list)
    for op in ops:
        groups[op["unit"]].append(op[field])
    return groups


def _by_unit_variant(ops, field):
    """Group by unit and fault map, so that every map weighs the same."""
    groups = defaultdict(list)
    for op in ops:
        groups[(op["unit"], op.get("variant", 0))].append(op[field])
    return groups


def cpu_per_op_by_batch(raw):
    """CPU seconds per operation of each untraced batch.

    A batch is a round over the units (in-process workloads), a round
    of the request stream (`serve-mix`) or a grid (`grid-dist`).
    """
    if raw["workload"] in IN_PROCESS:
        cpu = defaultdict(float)
        count = defaultdict(int)
        for op in raw["ops"]:
            if not op["traced"]:
                cpu[op["batch"]] += op["cpu_s"]
                count[op["batch"]] += 1
        return [cpu[b] / count[b] for b in cpu]
    return [b["cpu_s"] / b["requests"] for b in raw["batches"]
            if not b["traced"]]


def end_to_end(raw):
    """The end-to-end metrics of one untraced run, plus sample counts.

    Times are CPU times: on a shared host wall times move with the load
    of the other tenants, CPU times (which leave out steal) much less.
    """
    workload = raw["workload"]
    ops = [op for op in raw["ops"] if not op["traced"]]
    batches = cpu_per_op_by_batch(raw)
    # mesh-baselines rotates fault maps: a unit has one makespan per map.
    makespans = {(op["unit"], op.get("variant", 0)): op["makespan"]
                 for op in ops}
    if workload in IN_PROCESS:
        peak_rss = max(op["rss_mb"] for op in ops)
    else:
        peak_rss = raw["values"]["daemon_peak_rss_mb"]
    metrics = {
        "setup_s": median(s["s"] for s in raw["setups"]),
        "cpu_ms_per_op": 1e3 * median(batches),
        "peak_rss_mb": peak_rss,
        "makespan_geomean": geomean(makespans.values()),
    }
    samples = {
        "operations": len(ops),
        "units": len(makespans),
        "batches": len(batches),
        "setups": len(raw["setups"]),
        "steal_ratio": raw["values"].get("steal_ratio", 0.0),
    }
    return metrics, samples


def wall_metrics(raw):
    """Wall-clock figures of the untraced operations of a run.

    They are what a user waits for, but on a shared host they move with
    the other tenants' load, so they are reported by the traced run
    only, without a bound.
    """
    workload = raw["workload"]
    ops = [op for op in raw["ops"] if not op["traced"]]
    if workload in IN_PROCESS:
        unit_times = _by_unit_variant(ops, "s")
        # A request here is one batch compile of every unit: a round.
        rounds = defaultdict(float)
        for op in ops:
            rounds[op["batch"]] += op["s"]
        batches = list(rounds.values())
        latency_ms = [b * 1e3 for b in batches]
        window = sum(batches)
    elif workload == "serve-mix":
        unit_times = _by_unit([op for op in ops if not op["cached"]],
                              "run_s")
        latency_ms = [op["s"] * 1e3 for op in ops]
        done = sorted(op["done_s"] for op in raw["ops"])
        edges = [0.0] + done[SERVE_BATCH - 1::SERVE_BATCH]
        batches = [b - a for a, b in zip(edges, edges[1:])]
        ops = raw["ops"]
        window = raw["window_s"]
    else:
        unit_times = _by_unit(ops)
        latency_ms = [op["s"] * 1e3 for op in ops]
        batches = [b["s"] for b in raw["batches"] if not b["traced"]]
        window = sum(batches)
    return {
        "wall.compile_s_geomean": geomean(median(v)
                                          for v in unit_times.values()),
        "wall.batch_s": median(batches),
        "wall.ops_per_s": len(ops) / window,
        "wall.latency_p50_ms": nearest_rank(latency_ms, 50).value,
        "wall.latency_p95_ms": nearest_rank(latency_ms, 95).value,
    }


# ---- per-layer metrics (traced run) --------------------------------------

def _layer(item, name):
    return item.get("layers", {}).get(name, 0.0)


def _sum_of_unit_medians(ops, value):
    groups = defaultdict(list)
    for op in ops:
        groups[op["unit"]].append(value(op))
    return sum(median(v) for v in groups.values())


def per_layer(raw, names):
    """Every per-layer metric named in @p names; 0 where a layer is idle."""
    workload = raw["workload"]
    traced = [op for op in raw["ops"] if op["traced"]]
    untraced = [op for op in raw["ops"] if not op["traced"]]
    values = wall_metrics(raw)
    values["host.steal_ratio"] = raw["values"].get("steal_ratio", 0.0)
    for layer in ("workloads.build", "machine.construct"):
        values[layer + "_s"] = median(_layer(s, layer)
                                      for s in raw["setups"])

    if workload in IN_PROCESS:
        span_names = {n for op in traced for n in op.get("layers", {})}
        for layer in span_names:
            values[layer + "_s"] = _sum_of_unit_medians(
                traced, lambda op: _layer(op, layer))
        convergent = [op for op in traced if "window_slots" in op]
        if convergent:
            values["convergent.matrix_alloc_mb"] = _sum_of_unit_medians(
                convergent, lambda op: op["matrix_alloc_mb"])
            values["convergent.window_fill_ratio"] = (
                sum(op["window_live"] for op in convergent) /
                sum(op["window_slots"] for op in convergent))
        for unit, times in _by_unit(untraced, "cpu_s").items():
            values["unit.%s_s" % unit] = median(times)
        for unit, rss in _by_unit(untraced, "rss_mb").items():
            values["unit.%s.peak_rss_mb" % unit] = max(rss)
        values["trace.overhead_ratio"] = (
            _sum_of_unit_medians(traced, lambda op: op["s"]) /
            _sum_of_unit_medians(untraced, lambda op: op["s"]))
    elif workload == "serve-mix":
        ops = raw["ops"]
        ran = [op for op in ops if not op["cached"]]
        values["serve.encode_us"] = median(
            _layer(op, "serve.encode") * 1e6 for op in traced)
        values["serve.decode_us"] = median(
            _layer(op, "serve.decode") * 1e6 for op in traced)
        values["serve.queue_ms_p50"] = median(op["queue_ms"] for op in ops)
        values["serve.run_ms_p50"] = median(op["run_s"] * 1e3 for op in ran)
        values["serve.overhead_ms_p50"] = median(
            op["s"] * 1e3 - op["queue_ms"] -
            (0.0 if op["cached"] else op["run_s"] * 1e3) for op in ops)
        for name, flag in (("cache_hit", "cached"),
                           ("coalesced", "coalesced"),
                           ("overloaded", "overloaded")):
            values["serve.%s_ratio" % name] = (
                sum(op[flag] for op in ops) / len(ops))
        values["trace.overhead_ratio"] = (
            median(op["s"] for op in traced) /
            median(op["s"] for op in untraced))
    else:
        traced_batches = [b for b in raw["batches"] if b["traced"]]
        plain_batches = [b for b in raw["batches"] if not b["traced"]]
        values["dist.connect_s"] = median(
            _layer(b, "dist.connect") for b in traced_batches)
        busy = defaultdict(float)
        for op in untraced:
            busy[op["batch"]] += op["s"]
        values["dist.worker_busy_ratio"] = median(
            busy[k] / (b["s"] * CLIENTS)
            for k, b in enumerate(raw["batches"]) if not b["traced"])
        values["dist.retry_ratio"] = (
            sum(b["dispatches"] - b["jobs"] for b in traced_batches) /
            sum(b["jobs"] for b in traced_batches))
        values["trace.overhead_ratio"] = (
            median(b["s"] for b in traced_batches) /
            median(b["s"] for b in plain_batches))

    unknown = sorted(set(values) - set(names))
    if unknown:
        raise ValueError("metrics missing from BENCHMARK.json: %s" % unknown)
    return {name: values.get(name, 0.0) for name in names}
