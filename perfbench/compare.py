#!/usr/bin/env python3
"""Compare two sets of benchmark reports, metric by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are report files or directories of them, as perfbench/run.py
writes to .bench_build/reports/.  For each (workload, traced?) group the
median of each metric over the group's reports is compared.  Reports
whose builds differ in build type or compiler flags are refused (exit
2): a timing gap between unlike builds measures the compiler, not the
change.  Exit code 0 otherwise; the comparison itself passes no verdict.
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    reports = []
    for file in files:
        report = json.loads(file.read_text())
        if report.get("schema") == "perfbench-report-v1":
            reports.append(report)
    return reports


def medians(reports):
    groups = defaultdict(lambda: defaultdict(list))
    for report in reports:
        group = groups[(report["workload"], report["trace"])]
        for name, metric in report["metrics"].items():
            group[name].append(metric["value"])
    return {key: {name: metrics.median(values)
                  for name, values in group.items()}
            for key, group in groups.items()}


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    if not base or not new:
        print("compare: no reports found", file=sys.stderr)
        return 2
    for report in base[1:] + new:
        why = metrics.incomparable(base[0], report)
        if why is not None:
            print("compare: refused: %s (%s seed %d)" % (
                why, report["workload"], report["seed"]), file=sys.stderr)
            return 2
    base_medians, new_medians = medians(base), medians(new)
    for key in sorted(set(base_medians) & set(new_medians)):
        workload, trace = key
        print("%s (%s)" % (workload, "traced" if trace else "untraced"))
        for name, old in sorted(base_medians[key].items()):
            value = new_medians[key].get(name)
            if value is None:
                continue
            change = "" if old == 0 else "%+.1f%%" % (100 * (value / old - 1))
            print("  %-44s %14.6g %14.6g %8s" % (name, old, value, change))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
