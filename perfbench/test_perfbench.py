"""Tests for the benchmark's own code.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
import types
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import batch, layers, serve, speed  # noqa: E402
from perfbench.stats import ingest_lag, open_loop_delays, percentile  # noqa: E402
from perfbench.tracing import Patch, Tracer, _resolve  # noqa: E402


def scripted_clock(*times):
    """A clock that returns ``times`` in order, one per reading."""
    return iter(times).__next__


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(100, 0, -1))
        self.assertEqual(percentile(samples, 50), 50)
        self.assertEqual(percentile(samples, 90), 90)

    def test_refuses_fewer_than_ten_beyond(self):
        # Rank 90 of 99 samples leaves nine beyond it.
        with self.assertRaises(ValueError):
            percentile(list(range(99)), 90)
        with self.assertRaises(ValueError):
            percentile(list(range(1000)), 99.5)
        self.assertEqual(percentile(list(range(1, 111)), 90), 99)

    def test_refuses_percentile_outside_range(self):
        for q in (0, 100, -1):
            with self.assertRaises(ValueError):
                percentile(list(range(1000)), q)


class TracerTest(unittest.TestCase):
    def test_self_time_of_nested_and_repeated_spans(self):
        tracer = Tracer(clock=scripted_clock(0, 1, 2, 3, 5, 6, 8, 10))
        outer = tracer.begin("a")  # 0
        inner = tracer.begin("b")  # 1
        leaf = tracer.begin("c")  # 2
        tracer.end(leaf)  # 3: c took 1
        tracer.end(inner)  # 5: b took 4, 3 of it its own
        again = tracer.begin("b")  # 6
        tracer.end(again)  # 8: b took 2
        tracer.end(outer)  # 10: a took 10, 6 of it in b
        a = tracer.table[("a", None, "a")]
        b = tracer.table[("a", "a", "b")]
        c = tracer.table[("a", "b", "c")]
        self.assertEqual((a.calls, a.total, a.self_time), (1, 10, 4))
        self.assertEqual((b.calls, b.total, b.self_time), (2, 6, 5))
        self.assertEqual((c.calls, c.total, c.self_time), (1, 1, 1))
        rows = dict(layers.decomposition(tracer.table, "a"))
        self.assertEqual(rows, {"remainder": 4, "b": 5, "c": 1})
        self.assertEqual(sum(rows.values()), a.total)

    def test_spans_must_close_innermost_first(self):
        tracer = Tracer(clock=scripted_clock(0, 1, 2))
        outer = tracer.begin("a")
        tracer.begin("b")
        with self.assertRaises(RuntimeError):
            tracer.end(outer)


class FakeLayer:
    def method(self, value):
        return value + 1

    @classmethod
    def build(cls, value):
        return [value] * 2

    @staticmethod
    def helper(value):
        return -value

    def items(self, count):
        yield from range(count)


def fake_function(value):
    return value * 2


class WrapperTest(unittest.TestCase):
    MODULE = "perfbench_fake_layer"

    def setUp(self):
        module = types.ModuleType(self.MODULE)
        module.FakeLayer = FakeLayer
        module.fake_function = fake_function
        sys.modules[self.MODULE] = module
        self.addCleanup(sys.modules.pop, self.MODULE)
        self.module = module

    def test_wrappers_record_spans_and_counts(self):
        patches = [
            Patch(f"{self.MODULE}:fake_function", "f", count=lambda r, a: {"n": r}),
            Patch(f"{self.MODULE}:FakeLayer.method", "m"),
            Patch(f"{self.MODULE}:FakeLayer.build", "b"),
            Patch(f"{self.MODULE}:FakeLayer.helper", "h", sample=lambda a: "hs"),
            Patch(f"{self.MODULE}:FakeLayer.items", "i"),
        ]
        tracer = Tracer()
        tracer.install(patches)
        try:
            layer = self.module.FakeLayer()
            self.assertEqual(self.module.fake_function(3), 6)
            self.assertEqual(layer.method(1), 2)
            self.assertEqual(self.module.FakeLayer.build(1), [1, 1])
            self.assertEqual(layer.helper(4), -4)
            self.assertEqual(list(layer.items(3)), [0, 1, 2])
        finally:
            tracer.restore()
        calls = {name: stats.calls for (_r, _p, name), stats in tracer.table.items()}
        # A generator's span covers each resumption, the last included.
        self.assertEqual(calls, {"f": 1, "m": 1, "b": 1, "h": 1, "i": 4})
        self.assertEqual(tracer.table[("f", None, "f")].counts, {"n": 6})
        self.assertEqual(len(tracer.samples["hs"]), 1)

    def test_restore_puts_back_every_original(self):
        patches = list(layers.PATCHES) + [
            Patch(f"{self.MODULE}:FakeLayer.build", "b"),
            Patch(f"{self.MODULE}:FakeLayer.helper", "h"),
        ]
        before = []
        for patch in patches:
            owner, attr = _resolve(patch.target)
            before.append((owner, attr, owner.__dict__[attr]))
        tracer = Tracer()
        tracer.install(patches)
        try:
            for owner, attr, original in before:
                self.assertIsNot(owner.__dict__[attr], original, attr)
        finally:
            tracer.restore()
        for owner, attr, original in before:
            self.assertIs(owner.__dict__[attr], original, attr)


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        records = [(0.0, 0.0, 0.1), (0.5, 0.7, 0.8), (1.0, 0.99, 1.2)]
        latencies, lateness = open_loop_delays(records)
        self.assertEqual(
            [round(x, 9) for x in latencies], [0.1, 0.3, 0.2]
        )
        self.assertEqual([round(x, 9) for x in lateness], [0.0, 0.2, 0.0])

    def test_ingest_lag_subtracts_the_throttle(self):
        self.assertAlmostEqual(ingest_lag(10.0, 60.0, 1279, 0.025), 18.025)
        self.assertAlmostEqual(ingest_lag(0.0, 31.975, 1279, 0.025), 0.0)


class SpeedTest(unittest.TestCase):
    def test_reference_speed_scales_by_the_probes(self):
        probe = speed.REFERENCE_S
        # A host running at half speed doubles both the calls and the probes.
        self.assertAlmostEqual(speed.at_reference([3.0, 5.0], [probe, probe]), 4.0)
        self.assertAlmostEqual(
            speed.at_reference([6.0, 10.0], [2 * probe, 2 * probe]), 4.0
        )
        self.assertGreater(speed.probe(), 0)


class SpecTest(unittest.TestCase):
    """``BENCHMARK.json`` names only metrics the workloads report."""

    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_every_workload_reports_every_end_to_end_metric(self):
        names = {metric["name"] for metric in self.spec["end_to_end"]}
        workloads = {workload["name"] for workload in self.spec["workloads"]}
        self.assertEqual(workloads, {"batch-index", "serve-ingest"})
        self.assertEqual(set(batch.END_TO_END), names)
        self.assertEqual(set(serve.END_TO_END), names)

    def test_per_layer_metrics_exist_and_name_what_they_move(self):
        computed = layers.layer_metrics({}, {})
        for metric in self.spec["per_layer"]:
            self.assertIn(metric["name"], computed)
            self.assertEqual(metric["unit"], computed[metric["name"]][1])
        self.assertLessEqual(set(computed), set(layers.MOVES))


if __name__ == "__main__":
    unittest.main()
