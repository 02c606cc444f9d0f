#!/usr/bin/env python3
"""Self-tests of perfbench's statistics: python3 perfbench/test_perfstats.py

run.py also runs them, silently, before every measurement."""
import json
import pathlib
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import perfstats as ps  # noqa: E402


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(ps.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(ps.median([4.0, 1.0, 3.0, 2.0]), 2.5)
        self.assertEqual(ps.median([7.5]), 7.5)

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            ps.median([])


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(ps.percentile(xs, 50), 50)
        self.assertEqual(ps.percentile(xs, 99), 99)
        self.assertEqual(ps.percentile(xs, 100), 100)
        self.assertEqual(ps.percentile(xs, 0.5), 1)
        self.assertEqual(ps.percentile([5.0], 99), 5.0)
        # 99% of 1000 is rank 990 exactly, not 991 from float round-off.
        self.assertEqual(ps.nearest_rank(1000, 99), 990)
        self.assertEqual(ps.nearest_rank(10, 25), 3)

    def test_unsorted_input(self):
        self.assertEqual(ps.percentile([9, 1, 5, 3, 7], 60), 5)

    def test_bad_arguments(self):
        with self.assertRaises(ValueError):
            ps.nearest_rank(0, 50)
        with self.assertRaises(ValueError):
            ps.nearest_rank(10, 0)

    def test_samples_beyond(self):
        self.assertEqual(ps.samples_beyond(1000, 99), 10)
        self.assertEqual(ps.samples_beyond(999, 99), 9)
        self.assertEqual(ps.samples_beyond(20000, 99.9), 20)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(ps.tail_percentile(1000), 99.0)
        self.assertEqual(ps.tail_percentile(999), 90.0)
        self.assertEqual(ps.tail_percentile(10000), 99.9)
        self.assertEqual(ps.tail_percentile(20), 50.0)
        self.assertIsNone(ps.tail_percentile(19))
        self.assertIsNone(ps.tail_percentile(7))


class FailedFracTest(unittest.TestCase):
    def test_arithmetic(self):
        self.assertEqual(ps.failed_frac(8, 0), 0.0)
        self.assertEqual(ps.failed_frac(8, 2), 0.25)
        self.assertEqual(ps.failed_frac(1, 1), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            ps.failed_frac(0, 0)
        with self.assertRaises(ValueError):
            ps.failed_frac(3, 4)
        with self.assertRaises(ValueError):
            ps.failed_frac(3, -1)


class NameTest(unittest.TestCase):
    def test_valid(self):
        for name in ("setup_s", "mosaic.cache.replay_row_frac", "a", "9x", "a-b.c_d",
                     "x" * 64):
            self.assertEqual(ps.check_name(name), name)

    def test_invalid(self):
        for name in ("", "_lead", ".lead", "has space", "slash/name", "x" * 65,
                     "ünïcode", "semi;colon", None):
            with self.assertRaises(ValueError, msg=repr(name)):
                ps.check_name(name)

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count/op", "%", "GFLOP/s"):
            self.assertEqual(ps.check_unit(unit), unit)
        for unit in ("", "x" * 17, "m s", "s^2"):
            with self.assertRaises(ValueError):
                ps.check_unit(unit)

    def test_benchmark_json_is_valid(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        spec = json.loads((root / "BENCHMARK.json").read_text())
        ps.check_spec(spec)
        for w in spec["workloads"]:
            self.assertIsNotNone(ps.default_seed(w), w["name"])

    def test_duplicate_metric_rejected(self):
        spec = {"workloads": [{"name": "w"}],
                "end_to_end": [{"name": "m", "unit": "s", "better": "lower"}],
                "per_layer": [{"name": "m", "unit": "s", "better": "lower"}]}
        with self.assertRaises(ValueError):
            ps.check_spec(spec)


class FoldTest(unittest.TestCase):
    RECORD = {"setup_s": [3.0, 1.0, 2.0], "op_s": [0.5, 0.75, 0.25, 1.0],
              "ops": 4, "timed_wall_s": 2.0, "peak_rss_mb": 100.0,
              "dataset_s": 0.25, "untraced_op_s": [1.0, 1.0, 1.2],
              "traced_op_s": [1.1, 1.1], "layers": {"a.x_s": 0.5}}

    def test_end_to_end(self):
        v = ps.end_to_end(self.RECORD)
        self.assertEqual(v, {"setup_s": 2.0, "op_s": 0.625, "ops_per_s": 2.0,
                             "peak_rss_mb": 100.0})

    def test_per_layer_fills_unexercised_layers(self):
        names = ["a.x_s", "b.y", "gp.dataset_s", "host.steal_frac",
                 "trace.overhead_frac"]
        v = ps.per_layer(self.RECORD, names, 0.02)
        self.assertEqual(v["a.x_s"], 0.5)
        self.assertEqual(v["b.y"], 0.0)
        self.assertEqual(v["gp.dataset_s"], 0.25)
        self.assertAlmostEqual(v["trace.overhead_frac"], 0.1)
        with self.assertRaises(ValueError):
            ps.per_layer(self.RECORD, ["b.y"], 0.0)

    def test_steal(self):
        self.assertAlmostEqual(ps.steal_frac([0] * 8, [60, 0, 10, 20, 0, 0, 0, 10]), 0.1)

    def test_result_line_keys(self):
        line = ps.result_line(True, 4, 0, {"op_s": 0.5}, {"op_s": "s"})
        self.assertEqual(sorted(line), ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(line["metrics"]["op_s"], {"value": 0.5, "unit": "s"})


if __name__ == "__main__":
    unittest.main()
