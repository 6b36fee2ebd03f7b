"""Self-tests of the benchmark harness: span arithmetic, tracer wrapping, the gate.

    python3 perfbench/selftest.py

Kept out of the repository's pytest suite (the file name does not match
test_*.py) so the tier-1 run stays the program's own tests.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import sys
import tempfile
import types
import unittest

import envinfo

envinfo.pin_threads()

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def _refs(workload):
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            Span("a", "cli.scan", "cli", None, "b1.o0", 0.0, 10.0),
            Span("b", "spectral.eigen_spectrum", "spectral", "a", "b1.o0", 1.0, 4.0),
            Span("c", "kernel.eig", "kernel", "b", "b1.o0", 2.0, 3.0),
            # overlaps b: only the part of [3, 6] not yet covered counts against a
            Span("d", "operator.assemble_full", "operator", "a", "b1.o0", 3.0, 6.0),
        ]
        own = tracing.self_times(spans)
        self.assertEqual(own, {"a": 5.0, "b": 2.0, "c": 1.0, "d": 3.0})
        m = tracing.layer_metrics(spans)
        self.assertEqual(m["cli.self_s"], 5.0)
        self.assertEqual(m["spectral.self_s"], 2.0)
        self.assertEqual(m["spectral.zgeev_s"], 1.0)
        self.assertEqual(m["operator.assemble_calls"], 1)

    def test_child_clipped_to_parent(self):
        spans = [
            Span("a", "x", "cli", None, None, 0.0, 2.0),
            Span("b", "y", "cli", "a", None, 1.0, 5.0),
        ]
        self.assertEqual(tracing.self_times(spans)["a"], 1.0)


class Wrapping(unittest.TestCase):
    def setUp(self):
        self.module = types.ModuleType("perfbench_fake_layer")

        def inner(x):
            return x + 1

        def outer(x):
            return self.module.inner(x) * 2

        self.module.inner, self.module.outer = inner, outer
        sys.modules[self.module.__name__] = self.module
        ticks = itertools.count()
        self.tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def tearDown(self):
        self.tracer.uninstall()
        del sys.modules[self.module.__name__]

    def test_spans_nest_and_uninstall_restores(self):
        original = self.module.outer
        name = self.module.__name__
        self.tracer.install([(name, "outer", "fock", None), (name, "inner", "fock", None)])
        self.tracer.op = "b1.o0"
        self.assertEqual(self.module.outer(1), 4)
        outer, inner = self.tracer.spans
        self.assertEqual((outer.name, inner.parent, inner.op), ("fock.outer", outer.id, "b1.o0"))
        self.assertEqual((outer.duration, inner.duration), (3.0, 1.0))
        self.tracer.uninstall()
        self.assertIs(self.module.outer, original)

    def test_missing_function_is_absent(self):
        name = self.module.__name__
        self.tracer.install([(name, "removed_later", "operator", None), ("no_such_module", "f", "kernel", None)])
        self.assertEqual(self.tracer.absent, [f"{name}.removed_later", "no_such_module.f"])
        self.assertEqual(self.tracer.spans, [])


class Gate(unittest.TestCase):
    tol = gate.Tolerances(residual_tol=1e-9, pair_tol=1e-9, ebar=2.0)

    def test_reference_passes_and_perturbed_eigenvalue_fails(self):
        tables = copy.deepcopy(_refs("cli_demo")["spectrum"]["tables"])
        ref = _refs("cli_demo")["spectrum"]["tables"]
        self.assertEqual(gate.check_outputs("spectrum", {**tables, "spectrum_ground": {}}, ref, self.tol), [])
        tables["spectrum"]["rows"][3][1] += 1e-6
        problems = gate.check_outputs("spectrum", {**tables, "spectrum_ground": {}}, ref, self.tol)
        self.assertTrue(any("differ from the" in p for p in problems), problems)

    def test_arpack_zero_miss_is_caught(self):
        ref = _refs("arpack_sweep")["spectrum eps=0"]["tables"]
        rows = [[i, -2.0 - i, 0.0, 1e-14] for i in range(6)]  # -2, -3, -4, -5, -6, -7
        tables = {"spectrum": {"columns": ["index", "re", "im", "residual"], "rows": rows}, "spectrum_ground": {}}
        self.assertTrue(gate.check_outputs("spectrum", tables, ref, self.tol))

    def test_ground_must_be_pinned(self):
        ref = _refs("dense_spectra")["scan"]["tables"]
        tables = copy.deepcopy(ref)
        tables["scan"]["rows"][0][1] += 1e-3
        tables["scan"]["rows"][0][3] += 1e-3
        problems = gate.check_outputs("scan", tables, ref, self.tol)
        self.assertTrue(any("not pinned" in p for p in problems), problems)

    def test_changed_data_byte_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            a, b = os.path.join(tmp, "a"), os.path.join(tmp, "b")
            for d in (a, b):
                os.makedirs(d)
                with open(os.path.join(d, "scan.csv"), "w") as fh:
                    fh.write("epsilon,pair_error\n0.2,0\n")
                with open(os.path.join(d, "scan_meta.json"), "w") as fh:
                    fh.write(f'{{"timestamp": "{d}"}}\n')  # sidecars may differ
            self.assertEqual(gate.check_bytes(gate.digests(a), gate.digests(b)), [])
            with open(os.path.join(b, "scan.csv"), "w") as fh:
                fh.write("epsilon,pair_error\n0.2,1\n")
            self.assertEqual(len(gate.check_bytes(gate.digests(a), gate.digests(b))), 1)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_what_run_prints(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        layer = list(tracing.layer_metrics([])) + ["cli.import_s", "trace.overhead_s"]
        self.assertEqual([m["name"] for m in bench["end_to_end"]], ["wall_s", "setup_s", "peak_rss_mb"])
        self.assertEqual([m["name"] for m in bench["per_layer"]], layer)
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertEqual(m["unit"], run.unit_of(m["name"]), m["name"])

    def test_distribution_percentile(self):
        self.assertIsNone(run.distribution([1.0] * 10)["percentile"])
        d = run.distribution([float(i) for i in range(20)])
        self.assertEqual((d["n"], d["percentile"]), (20, 50))


if __name__ == "__main__":
    unittest.main()
