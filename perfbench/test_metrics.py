"""Tests of the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class MetricNames(unittest.TestCase):
    def test_grammar(self):
        for name in ("setup_s", "convergent.pass.PATHPROP_s",
                     "unit.synth-wide-10k.vliw4.convergent_s", "a" * 64,
                     "9lives"):
            self.assertTrue(metrics.valid_name(name), name)
        for name in ("", "_private", ".hidden", "-x", "a" * 65, "a b",
                     "raw8x8/faults=seed:1", "p95%", None):
            self.assertFalse(metrics.valid_name(name), name)

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "%", "MB", "cycles"):
            self.assertTrue(metrics.valid_unit(unit), unit)
        for unit in ("", "a" * 17, "m s", "µs"):
            self.assertFalse(metrics.valid_unit(unit), unit)

    def test_benchmark_json_names_are_legal_and_unique(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for kind in ("end_to_end", "per_layer"):
            for metric in SPEC[kind]:
                self.assertTrue(metrics.valid_name(metric["name"]), metric)
                self.assertTrue(metrics.valid_unit(metric["unit"]), metric)
                self.assertIn(metric["better"], ("higher", "lower"))
                names.append(metric["name"])
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(metrics.valid_name(n) for n in names))

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


class Statistics(unittest.TestCase):
    def test_geomean(self):
        self.assertAlmostEqual(metrics.geomean([1, 100]), 10.0)
        self.assertAlmostEqual(metrics.geomean([2.5]), 2.5)
        self.assertAlmostEqual(metrics.geomean([1, 2, 4]), 2.0)
        for bad in ([], [1, 0], [3, -1]):
            with self.assertRaises(ValueError):
                metrics.geomean(bad)

    def test_nearest_rank_counts_its_samples(self):
        values = list(range(1, 201))  # 1..200, shuffled order is irrelevant
        p95 = metrics.nearest_rank(reversed(values), 95)
        self.assertEqual(p95.value, 190)
        self.assertEqual(p95.samples, 200)
        self.assertEqual(p95.beyond, 10)
        p50 = metrics.nearest_rank(values, 50)
        self.assertEqual((p50.value, p50.beyond), (100, 100))
        top = metrics.nearest_rank(values, 100)
        self.assertEqual((top.value, top.beyond), (200, 0))

    def test_nearest_rank_is_a_sample_not_an_interpolation(self):
        self.assertEqual(metrics.nearest_rank([4.0, 1.0], 50).value, 1.0)
        self.assertEqual(metrics.median([3, 1, 2, 10]), 2)
        self.assertEqual(metrics.nearest_rank([7], 1).value, 7)
        with self.assertRaises(ValueError):
            metrics.nearest_rank([], 50)
        with self.assertRaises(ValueError):
            metrics.nearest_rank([1], 0)


def op(unit, cpu_s, traced=False, variant=0, **extra):
    item = {"unit": unit, "s": cpu_s * 1.5, "cpu_s": cpu_s,
            "traced": traced, "variant": variant, "makespan": 100,
            "rss_mb": 10.0, "batch": 0}
    item.update(extra)
    return item


def raw_run(workload, ops, batches=(), values=None):
    return {"workload": workload, "ops": list(ops),
            "batches": list(batches), "setups": [{"s": 0.5}, {"s": 0.7}],
            "values": dict(values or {}), "window_s": 1.0}


class EndToEnd(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        got, _ = metrics.end_to_end(raw_run(
            "convergent-large", [op("a", 0.1)]))
        self.assertEqual(set(got),
                         {m["name"] for m in SPEC["end_to_end"]})

    def test_in_process_cpu_is_the_median_round_per_operation(self):
        ops = [op("a", 0.1, batch=0), op("b", 0.3, batch=0),
               op("a", 0.2, batch=1), op("b", 0.6, batch=1),
               op("a", 0.9, batch=2), op("b", 0.9, batch=2),
               op("b", 9.0, batch=1, traced=True)]
        got, samples = metrics.end_to_end(raw_run("convergent-large", ops))
        self.assertAlmostEqual(got["cpu_ms_per_op"], 400.0)
        self.assertEqual(got["setup_s"], 0.5)
        self.assertEqual(samples["operations"], 6)
        self.assertEqual(samples["batches"], 3)

    def test_daemon_cpu_is_the_median_batch_per_request(self):
        ops = [op("k", 0.0, cached=False) for _ in range(4)]
        batches = [{"s": 1.0, "cpu_s": c, "requests": r, "traced": t}
                   for c, r, t in ((1.0, 4, False), (3.0, 4, False),
                                   (0.5, 1, False), (9.0, 1, True))]
        for workload in ("serve-mix", "grid-dist"):
            got, _ = metrics.end_to_end(raw_run(
                workload, ops, batches, {"daemon_peak_rss_mb": 30.0}))
            self.assertAlmostEqual(got["cpu_ms_per_op"], 500.0)
            self.assertEqual(got["peak_rss_mb"], 30.0)


def report(build_type="Release", flags="-O3 -DNDEBUG"):
    return {"provenance": {"buildType": build_type, "cxxFlags": flags,
                           "commit": "abc", "nproc": 4, "host": "h"}}


class RefusalRule(unittest.TestCase):
    def test_like_builds_compare(self):
        self.assertIsNone(metrics.incomparable(report(), report()))

    def test_other_build_type_is_refused(self):
        why = metrics.incomparable(report(), report("RelWithDebInfo"))
        self.assertIn("build type", why)

    def test_other_flags_are_refused(self):
        why = metrics.incomparable(report(), report(flags="-O2 -g"))
        self.assertIn("compiler flags", why)

    def test_provenance_normalises_flag_spacing(self):
        build = {"buildType": "Release", "cxxFlags": " -O3  -DNDEBUG"}
        root = Path(__file__).resolve().parent.parent
        got = metrics.provenance(root, build)
        self.assertEqual(got["cxxFlags"], "-O3 -DNDEBUG")
        for key in ("commit", "buildType", "compiler", "nproc", "host"):
            self.assertIn(key, got)


if __name__ == "__main__":
    unittest.main()
