"""Self-tests of the benchmark.  From the root of a liechar checkout:

    python3 perfbench/selftest.py

They run the workloads once each (about a minute on two cores).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracer  # noqa: E402


def flipped(data, index):
    return data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1:]


def corruption_sites(data, limit=64):
    if len(data) <= limit:
        return range(len(data))
    rng = random.Random(len(data))
    return sorted({0, len(data) // 2, len(data) - 1, *rng.sample(range(len(data)), limit)})


class OutputChecks(unittest.TestCase):
    """A run counts as correct only if its output bytes are the reference bytes."""

    @classmethod
    def setUpClass(cls):
        cls.outputs = {}
        for name, workload in run.WORKLOADS.items():
            seed = 4  # a product_g2 seed with unequal factors
            child = run.liechar_child(workload.argv(seed), run.CHILD_TIMEOUT_S)
            cls.outputs[name] = (seed, child)

    def test_reference_outputs_pass(self):
        for name, (seed, child) in self.outputs.items():
            with self.subTest(workload=name):
                self.assertTrue(child.ok, child.stderr)
                self.assertTrue(run.WORKLOADS[name].check(seed, child.stdout))

    def test_one_corrupted_byte_fails_the_check(self):
        for name, (seed, child) in self.outputs.items():
            check = run.WORKLOADS[name].check
            for index in corruption_sites(child.stdout):
                with self.subTest(workload=name, byte=index):
                    self.assertFalse(check(seed, flipped(child.stdout, index)))

    def test_product_pairs_have_references(self):
        for seed in range(100):
            lam, mu = run.g2_pair(seed)
            self.assertIn(tuple(sorted((lam, mu))), run.PRODUCT_G2_SHA256)

    def test_g2_dimension_matches_liechar(self):
        from liechar import CartanMatrix, RootSystem

        rs = RootSystem(CartanMatrix.builtin("G2"))
        for a in range(10):
            for b in range(10):
                self.assertEqual(run.g2_dimension((a, b)), rs.weyl_dimension((a, b)))

    def test_corrupted_child_counts_as_failed_run(self):
        real = run.liechar_child
        workload = run.WORKLOADS["cj_a1"]

        def corrupting(argv, *args):
            child = real(argv, *args)
            if argv == workload.argv(1):
                child.stdout = flipped(child.stdout, len(child.stdout) // 2)
            return child

        out = io.StringIO()
        run.liechar_child = corrupting
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run.main(["--workload", "cj_a1", "--seed", "1", "--seconds", "0"])
        finally:
            run.liechar_child = real
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], run.SETUP_PER_STEP + 1)


class Measurement(unittest.TestCase):
    def test_peak_memory_is_the_childs_own(self):
        ballast = bytearray(64 * 1024 * 1024)
        for index in range(0, len(ballast), 4096):
            ballast[index] = 1
        workload = run.WORKLOADS["product_g2"]
        child = run.liechar_child(workload.setup_argv(), run.CHILD_TIMEOUT_S)
        del ballast
        self.assertTrue(child.ok, child.stderr)
        self.assertLess(child.rss_mb, 48)


class Tracing(unittest.TestCase):
    def test_no_liechar_module_keeps_an_unwrapped_binding(self):
        modules = tracer.liechar_modules()
        classes = tracer.liechar_classes(modules)
        originals = [tracer.resolve(m, path) for _, m, path in tracer.TARGETS]
        tracer.Tracer().install()
        for (original, owner, name), (_, module_name, path) in zip(originals, tracer.TARGETS):
            with self.subTest(target=f"{module_name}.{path}"):
                self.assertEqual(tracer.bindings(original, modules, classes), [])
                self.assertTrue(hasattr(tracer.resolve(module_name, path)[0], "__perfbench_span__"))
                if owner is None:
                    continue
                for cls in classes:
                    if issubclass(cls, owner) and name in vars(cls):
                        self.assertTrue(hasattr(vars(cls)[name], "__perfbench_span__"), cls)

    def test_every_span_is_called_and_traced_output_matches(self):
        called = set()
        for name, workload in run.WORKLOADS.items():
            argv = workload.argv(0)
            plain = run.liechar_child(argv, run.CHILD_TIMEOUT_S)
            traced, trace = run.traced_child(argv, run.CHILD_TIMEOUT_S)
            with self.subTest(workload=name):
                self.assertTrue(traced.ok, traced.stderr)
                self.assertEqual(traced.stdout, plain.stdout)
            called |= {span for span, s in trace["spans"].items() if s["calls"] > 0}
            called |= {key for key, value in trace["counters"].items() if value > 0}
        spans = {span for span, _, _ in tracer.TARGETS}
        self.assertEqual(spans - called, set())
        self.assertEqual(set(run.COUNT_METRICS) - called, set())

    def test_metrics_match_benchmark_json_and_counts_repeat(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        workload = run.WORKLOADS["prop31_a2"]
        runner = run.Runner(workload, 0, 0)
        layer = run.per_layer(runner)
        end = run.end_to_end(runner)
        self.assertEqual(runner.tally.failed, 0, runner.tally.notes)
        for metrics, section in ((end, "end_to_end"), (layer, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            self.assertEqual({k: unit for k, (_, unit) in metrics.items()}, declared)
        first = run.traced_child(runner.argv, run.CHILD_TIMEOUT_S)[1]
        second = run.traced_child(runner.argv, run.CHILD_TIMEOUT_S)[1]
        self.assertEqual(run.trace_counts(first), run.trace_counts(second))


if __name__ == "__main__":
    unittest.main()
