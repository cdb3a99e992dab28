#!/bin/sh
# driver_check.sh TOOLS_DIR -- drive the built csched_cli and
# csched_bench and check the contracts of their shared grid front end:
# both reject a malformed integer flag as a usage error, csched_cli
# runs every registered workload (perf DAGs included) through the grid,
# refuses schedule views that an isolated run cannot keep, reports the
# same deterministic job fields as csched_bench suite for one cell, and
# replays an emitted stream trace to the same weighted completion.
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
