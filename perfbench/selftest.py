"""Self-tests of the benchmark's own machinery (not of epbench).

Run from the repository root::

    python3 perfbench/selftest.py

The file is deliberately not named ``test_*.py``: the repository's pytest run
collects from the root, and these tests belong to the benchmark.
"""

from __future__ import annotations

import fnmatch
import json
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import epbench  # noqa: E402
from epbench import ops  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class BindingCoverage(unittest.TestCase):
    # references that another module holds through `from .x import name`
    CROSS_MODULE = ("training.free_phase", "training.nudged_phase",
                    "unrolled.free_phase", "cli.model_fns", "cli.synth_dataset",
                    "cli.load_checkpoint", "baseline.project", "baseline.run_training",
                    "uncertainty.uniform_ball")

    def setUp(self):
        self.inst = tracer.Installation(tracer.Tracer(), epbench)
        self.addCleanup(self.inst.remove)

    def test_no_attribute_keeps_an_unwrapped_original(self):
        self.assertEqual(self.inst.unwrapped_references(), [])
        for ref in self.CROSS_MODULE:
            mod, attr = ref.split(".")
            fn = getattr(sys.modules[f"epbench.{mod}"], attr)
            self.assertTrue(hasattr(fn, "__traced_original__"), ref)

    def test_a_missed_binding_is_reported(self):
        original = epbench.training.free_phase.__traced_original__
        epbench.training.free_phase = original
        try:
            self.assertEqual(self.inst.unwrapped_references(),
                             ["epbench.training.free_phase"])
        finally:
            epbench.training.free_phase = self.inst.wrappers[original]

    def test_remove_restores_the_originals(self):
        wrapped = epbench.unrolled.free_phase
        self.inst.remove()
        self.assertIs(epbench.unrolled.free_phase, wrapped.__traced_original__)
        self.assertIs(epbench.unrolled.free_phase, epbench.energy.free_phase)


class SelfTime(unittest.TestCase):
    def test_child_spans_are_subtracted_on_a_hand_built_tree(self):
        # outer [0,10] -> mid [1,4] -> leaf [2,3]; outer -> leaf [5,6];
        # outer -> other [7,9] -> leaf [7.5,8.5]
        ticks = iter([0, 1, 2, 3, 4, 5, 6, 7, 7.5, 8.5, 9, 10])
        tr = tracer.Tracer(clock=lambda: next(ticks))
        leaf = tr.wrap("leaf", lambda: None)
        mid = tr.wrap("mid", lambda: leaf())
        other = tr.wrap("other", lambda: leaf())

        def body():
            mid()
            leaf()
            other()

        tr.wrap("outer", body)()
        got = {k: (v.calls, v.total_s, v.self_s) for k, v in tr.take().items()}
        self.assertEqual(got, {
            "outer": (1, 10.0, 10.0 - 3.0 - 1.0 - 2.0),
            "mid": (1, 3.0, 2.0),
            "other": (1, 2.0, 1.0),
            "leaf": (3, 3.0, 3.0),
        })

    def test_a_raising_call_still_closes_its_span(self):
        ticks = iter([0, 1, 2, 4])
        tr = tracer.Tracer(clock=lambda: next(ticks))

        def boom():
            raise ValueError

        inner = tr.wrap("inner", boom)

        def outer_body():
            with self.assertRaises(ValueError):
                inner()

        tr.wrap("outer", outer_body)()
        stats = tr.take()
        self.assertEqual((stats["inner"].self_s, stats["outer"].self_s), (1.0, 3.0))


class ComputedWork(unittest.TestCase):
    def test_conv_gflop_matches_a_brute_force_count(self):
        rng = np.random.default_rng(0)
        spec = ops.ConvSpec(in_channels=2, out_channels=3, kernel=3, padding=1)
        x = rng.standard_normal((2, 2, 4, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        B, _, H, W = x.shape
        y = np.zeros((B, 3, H, W))
        macs = 0
        for n in range(B):
            for o in range(3):
                for i in range(H):
                    for j in range(W):
                        for c in range(2):
                            for a in range(3):
                                for b in range(3):
                                    y[n, o, i, j] += w[o, c, a, b] * xp[n, c, i + a, j + b]
                                    macs += 1
        np.testing.assert_allclose(ops.conv2d(x, w, spec), y, rtol=1e-12, atol=1e-12)
        self.assertAlmostEqual(tracer.conv_gflop(B, spec, H, W), 2 * macs / 1e9, places=15)

        tr = tracer.Tracer()
        traced = tr.wrap("ops.conv2d", ops.conv2d, tracer.OBSERVERS["ops.conv2d"])
        traced(x, w, spec)
        self.assertAlmostEqual(tr.take()["ops.conv2d"].gflop, 2 * macs / 1e9, places=15)


class Declarations(unittest.TestCase):
    def test_every_per_layer_metric_resolves(self):
        names = set(tracer.public_functions(tracer.package_modules(epbench)).values())
        stats = set(tracer.LayerStat.__dataclass_fields__) | set(tracer.RATIOS)
        for m in BENCHMARK["per_layer"]:
            layer, stat = m["name"].rsplit(".", 1)
            if layer == "trace":
                continue
            layer = {"unrolled.tape": "unrolled.record_free_phase"}.get(layer, layer)
            self.assertIn(layer, names, m["name"])
            self.assertIn(stat, stats, m["name"])

    def test_metric_map_covers_every_workload_and_layer_metric(self):
        notes = json.loads((HERE / "metric_map.json").read_text())
        declared = [w["name"] for w in BENCHMARK["workloads"]]
        self.assertEqual(sorted(notes["workloads"]), sorted(declared))
        self.assertEqual(sorted(declared), sorted(workloads.WORKLOADS))
        patterns = [p for group in notes["layer_to_end_to_end"] for p in group["layers"]]
        for m in BENCHMARK["per_layer"]:
            self.assertTrue(any(fnmatch.fnmatchcase(m["name"], p) for p in patterns),
                            m["name"])


if __name__ == "__main__":
    unittest.main()
