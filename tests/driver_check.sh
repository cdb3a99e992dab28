#!/bin/sh
# driver_check.sh TOOLS_DIR -- drive the built csched_cli and
# csched_bench and check the contracts of their shared grid front end:
# both reject a malformed integer flag, fault-rule value or --dist-opts
# value as a usage error, csched_cli runs every registered workload
# (perf DAGs included) through the grid, refuses schedule views that an
# isolated run cannot keep, reports the same deterministic job fields
# as csched_bench suite for one cell, and replays an emitted stream
# trace to the same weighted completion.
# csched_bench perf writes its five bench documents and its --check
# gate finds (or misses) its baselines.
# The two daemons, csched_serve and csched_workerd, share one flag
# parser: both reject a malformed integer and an unknown option as
# usage errors and print the same --version report.
# Used by the tier-2 driver test.
set -u

if [ $# -ne 1 ]; then
    echo "usage: $0 TOOLS_DIR" >&2
    exit 2
fi

cli="$1/csched_cli"
bench="$1/csched_bench"
serve="$1/csched_serve"
workerd="$1/csched_workerd"
for tool in "$cli" "$bench" "$serve" "$workerd"; do
    if [ ! -x "$tool" ]; then
        echo "driver_check: '$tool' not found or not executable" >&2
        exit 2
    fi
done

tmp=$(mktemp -d "${TMPDIR:-/tmp}/driver_check.XXXXXX") || exit 1
trap 'rm -rf "$tmp"' EXIT
failures=0

# expect CODE WHAT CMD...: run CMD (output kept in $tmp/out) and check
# its exit status.
expect() {
    want=$1
    what=$2
    shift 2
    "$@" >"$tmp/out" 2>&1
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "driver_check: $what: expected exit $want, got $got" >&2
        sed 's/^/    /' "$tmp/out" >&2
        failures=$((failures + 1))
    fi
}

expect 2 "csched_cli --jobs 2abc" "$cli" --jobs 2abc
expect 2 "csched_bench suite --jobs 2abc" \
    "$bench" suite --workloads fir --jobs 2abc
# Fault-rule and --dist-opts values are parsed as strictly: trailing
# junk, NaN and an int overflow are usage errors, before any job runs.
for rule in nth=2abc prob=nan; do
    expect 2 "csched_bench suite --inject $rule" "$bench" suite \
        --workloads fir --machines vliw2 \
        --inject "pass.apply=fail:$rule:match=nothing"
done
expect 2 "csched_bench suite --dist-opts overflow" "$bench" suite \
    --workloads fir --machines vliw2 --hosts 127.0.0.1:1 \
    --dist-opts liveness-timeout-ms=99999999999
expect 0 "csched_cli on a perf workload" \
    "$cli" --workload synth-narrow-2k --machine vliw2 \
    --json "$tmp/perf.json"
expect 2 "csched_cli --gantt --isolate" "$cli" --gantt --isolate

# One cell, two drivers: the deterministic job fields must agree.  The
# CLI report carries timings, so drop them (and the commas they leave
# behind) from both sides before comparing.
cell="--workloads fir --machines vliw2 --algorithms convergent"
expect 0 "csched_cli --json" "$cli" --workload fir --machine vliw2 \
    --algorithm convergent --speedup --json "$tmp/cli.json"
# shellcheck disable=SC2086
expect 0 "csched_bench suite --no-timings" "$bench" suite $cell \
    --quiet --no-timings --json "$tmp/bench.json"
deterministic() {
    sed -E '/"(seconds|wallSeconds|threads)":/d; s/,$//' "$1"
}
deterministic "$tmp/cli.json" >"$tmp/cli.det"
deterministic "$tmp/bench.json" >"$tmp/bench.det"
if ! cmp -s "$tmp/cli.det" "$tmp/bench.det"; then
    echo "driver_check: csched_cli and csched_bench disagree on" \
         "fir/vliw2/convergent:" >&2
    diff -u "$tmp/bench.det" "$tmp/cli.det" >&2
    failures=$((failures + 1))
fi

# A stream workload is an ordinary cell: emit its arrival trace, replay
# the trace, and demand the same weighted completion.
stream='stream:bursty:n=10:seed=7:gap=400:burst=3:workloads=fir+vvmul'
expect 0 "csched_cli stream --emit-trace" "$cli" --workload "$stream" \
    --machine vliw4 --algorithm online-convergent \
    --emit-trace "$tmp/trace.jsonl" --json "$tmp/live.json"
expect 0 "csched_cli trace replay" "$cli" \
    --workload "stream:trace:file=$tmp/trace.jsonl" --machine vliw4 \
    --algorithm online-convergent --json "$tmp/replay.json"
live=$(grep -o '"weightedCompletion": [0-9]*' "$tmp/live.json")
replay=$(grep -o '"weightedCompletion": [0-9]*' "$tmp/replay.json")
if [ -z "$live" ] || [ "$live" != "$replay" ]; then
    echo "driver_check: trace replay diverged: live '$live'," \
         "replay '$replay'" >&2
    failures=$((failures + 1))
fi

# csched_bench takes a subcommand; bare grid flags are a usage error.
# perf rejects a --threshold that is not a non-negative number before
# it measures anything.
expect 2 "csched_bench --workloads fir" "$bench" --workloads fir
for threshold in abc -1 inf nan; do
    expect 2 "csched_bench perf --threshold $threshold" \
        "$bench" perf --threshold "$threshold"
done

# One small perf run writes all five documents; the pass-kernel cells
# come from the convergent end-to-end cell only (uas leaves no trace),
# one timed sample each, and carry its algorithm spec.  The documents
# are written before --check reads its baselines, so a run gated
# against its own output directory compares every cell with itself and
# passes.  A missing baseline document fails the gate; that run's
# threshold is one no timing noise reaches, so it fails on the missing
# file alone.
perf_cells="--repeats 1 --cells fir/vliw2,fir/vliw2/uas"
perf_online="$stream/vliw2/online-sp"
# shellcheck disable=SC2086
expect 0 "csched_bench perf --check against its own output" \
    "$bench" perf $perf_cells --online-cells "$perf_online" \
    --out-dir "$tmp/perf" --check --baseline-dir "$tmp/perf"
if [ "$(grep -c '^perf gate: ' "$tmp/out")" -ne 4 ] ||
    ! grep -q '^perf gate ok$' "$tmp/out"; then
    echo "driver_check: perf --check did not gate the four gated" \
         "documents:" >&2
    sed 's/^/    /' "$tmp/out" >&2
    failures=$((failures + 1))
fi
python3 - "$tmp/perf" <<'EOF_PY' || failures=$((failures + 1))
import json
import sys

def fail(why):
    sys.exit("driver_check: csched_bench perf: " + why)

docs = {}
for name, kind in [("pass_kernels", "pass-kernels"),
                   ("end_to_end", "end-to-end"), ("online", "online"),
                   ("mesh", "mesh"), ("dist", "dist")]:
    try:
        with open(sys.argv[1] + "/BENCH_" + name + ".json") as f:
            docs[name] = json.load(f)
    except (OSError, ValueError) as error:
        fail("BENCH_%s.json: %s" % (name, error))
    if docs[name].get("kind") != kind:
        fail("BENCH_%s.json has kind %r" % (name, docs[name].get("kind")))
e2e = [(c["workload"], c["machine"], c.get("algorithm"))
       for c in docs["end_to_end"]["cells"]]
if e2e != [("fir", "vliw2", "convergent"), ("fir", "vliw2", "uas")]:
    fail("end-to-end cells %r" % e2e)
kernels = docs["pass_kernels"]["cells"]
names = [c.get("kernel") for c in kernels]
if not kernels or len(set(names)) != len(names) or any(
        (c["workload"], c["machine"], c.get("algorithm"), c["reps"]) !=
        ("fir", "vliw2", "convergent", 1) for c in kernels):
    fail("pass-kernel cells are not one set for fir/vliw2/convergent "
         "with reps 1: %r" % kernels)
EOF_PY
mkdir "$tmp/perf-nodist"
cp "$tmp/perf"/BENCH_*.json "$tmp/perf-nodist/"
rm "$tmp/perf-nodist/BENCH_dist.json"
# shellcheck disable=SC2086
expect 1 "csched_bench perf --check without BENCH_dist.json" \
    "$bench" perf $perf_cells --online-cells "$perf_online" \
    --out-dir "$tmp/perf-again" --check --baseline-dir "$tmp/perf-nodist" \
    --threshold 1000000
if ! grep -q "cannot read .*BENCH_dist.json" "$tmp/out"; then
    echo "driver_check: perf --check did not name the missing" \
         "BENCH_dist.json baseline" >&2
    sed 's/^/    /' "$tmp/out" >&2
    failures=$((failures + 1))
fi

# The daemons' shared flag parser.  Usage errors exit before anything
# is forked or bound.
for daemon in "$serve" "$workerd"; do
    name=$(basename "$daemon")
    expect 2 "$name --workers 2abc" "$daemon" --workers 2abc
    expect 2 "$name --bogus" "$daemon" --bogus
    expect 0 "$name --version" "$daemon" --version
    if ! grep -q '"schema": *"csched-tool-version-v1"' "$tmp/out" ||
        ! grep -q "\"tool\": *\"$name\"" "$tmp/out"; then
        echo "driver_check: $name --version printed no" \
             "csched-tool-version-v1 report:" >&2
        sed 's/^/    /' "$tmp/out" >&2
        failures=$((failures + 1))
    fi
done
expect 2 "csched_serve without --socket" "$serve" --workers 1

if [ "$failures" -ne 0 ]; then
    echo "driver_check: $failures check(s) failed" >&2
    exit 1
fi
echo "driver_check: all driver checks passed"
exit 0
