#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run builds the library,
csched_serve, csched_workerd and the harness (Release) under
.bench_build/; later runs reuse that build.  --trace 0 prints the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer metrics
of a traced run.  Each run also writes a report with every metric, the
sample counts and the build's provenance to .bench_build/reports/, and
a traced run writes its spans there as Chrome trace-event JSON.

Exit code 0 when every operation produced the right output; 1 when any
did not, or when a traced replay did not reproduce the untraced
schedule (no metrics are reported then); 2 on a usage error or when the
checkout has no sources to build.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_DIR = ROOT / ".bench_build" / "run"
REPORT_DIR = ROOT / ".bench_build" / "reports"
# Per-run limit; the benchmark must finish well inside 180 s.
HARNESS_TIMEOUT_S = 170


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the build up to date."""
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j",
                    str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def run_harness(args, raw_path, spans_path):
    command = [str(BUILD_DIR / "perfbench_harness"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(raw_path), "--spans", str(spans_path),
               "--bin-dir", str(BUILD_DIR),
               # Relative, to keep UNIX socket paths short.
               "--run-dir", os.path.relpath(RUN_DIR, ROOT)]
    # Its own session, so that whatever it started can be stopped too.
    proc = subprocess.Popen(command, stdout=sys.stderr, cwd=ROOT,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("harness timed out after %d s" % HARNESS_TIMEOUT_S)
        code = -9
    stop_group(proc.pid)
    return code


def stop_group(pgid):
    """Kill what is left of a process group and wait until it is gone.

    The harness stops and reaps its daemons, but a daemon's worker that
    outlived it would be nobody's child to wait for.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    log("processes of group %d did not end" % pgid)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "tools").is_dir():
        log("no library sources under", ROOT, "- nothing to benchmark")
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        log("build failed:", error)
        return 2

    for directory in (RUN_DIR, REPORT_DIR):
        directory.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    raw_path = RUN_DIR / (stem + ".raw.json")
    spans_path = REPORT_DIR / (stem + ".spans.json")
    raw_path.unlink(missing_ok=True)
    code = run_harness(args, raw_path, spans_path)
    if not raw_path.is_file():
        log("the harness wrote no samples (exit %d)" % code)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    raw = json.loads(raw_path.read_text())
    for failure in raw["failures"]:
        log("failed:", failure)

    correct = code == 0 and raw["failed"] == 0 and raw["attempted"] > 0
    samples = {}
    values = {}
    units = {}
    if not raw["fidelity"]:
        log("refusing to report: a traced replay did not reproduce run()")
        correct = False
    elif correct and args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = metrics.per_layer(raw, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    elif correct:
        values, samples = metrics.end_to_end(raw)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if set(values) != set(units):
            raise ValueError("end-to-end metrics differ from BENCHMARK.json")
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }

    report = dict(result)
    report.update({
        "schema": "perfbench-report-v1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": metrics.provenance(ROOT, raw["build"]),
        "samples": samples,
        "failures": raw["failures"],
    })
    (REPORT_DIR / (stem + ".json")).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
