"""Self-test of the benchmark's own pieces.

    python3 perfbench/selftest.py

Checks the self-time arithmetic on nested spans, the output checker against
the committed references and the invariants, and that the generator writes
the committed default-seed inputs byte for byte.  It does not run ngbounds.
"""

from __future__ import annotations

import json
import re
import tempfile
import unittest
from pathlib import Path

import check
import spans
import workloads


def _span(name, layer, start, end, parent, info=None):
    return [name, layer, start, end, parent, "op", info]


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        trace = [
            _span("cli.main", "cli", 0.0, 10.0, -1),  # 0
            _span("counting.pi", "counting", 1.0, 6.0, 0, {"n": 62}),  # 1
            _span("Graph.__post_init__", "graphs", 2.0, 3.0, 1),  # 2
            _span("counting.pi", "counting", 7.0, 9.0, 0, {"n": 5}),  # 3
            _span("Graph.__post_init__", "graphs", 7.5, 8.0, 3),  # 4
        ]
        self.assertEqual(spans.self_times(trace), [3.0, 4.0, 1.0, 1.5, 0.5])
        m = spans.layer_metrics(trace)
        self.assertEqual((m["cli.calls"], m["cli.self_s"]), (1, 3.0))
        self.assertEqual((m["counting.calls"], m["counting.self_s"]), (2, 5.5))
        self.assertEqual((m["counting.small_calls"], m["counting.small_self_s"]), (1, 1.5))
        self.assertEqual((m["counting.large_self_s"], m["counting.max_call_s"]), (4.0, 5.0))
        self.assertEqual((m["graphs.graph_inits"], m["graphs.init_s"]), (2, 1.5))
        shares = spans.layer_shares(trace)
        self.assertAlmostEqual(shares["counting"], 0.55)
        self.assertAlmostEqual(sum(shares.values()), 1.0)

    def test_same_layer_child_is_not_an_entry(self):
        trace = [
            _span("verify.verify_borders", "verify", 0.0, 4.0, -1),
            _span("packing.discrete_border_max", "packing", 1.0, 3.0, 0, {"paths": 6}),
            _span("packing.border_from_heights", "packing", 2.0, 2.5, 1),
        ]
        m = spans.layer_metrics(trace)
        self.assertEqual((m["packing.calls"], m["packing.self_s"]), (1, 2.0))
        self.assertEqual((m["packing.paths_enumerated"], m["packing.paths_per_s"]), (6, 3.0))


class Checker(unittest.TestCase):
    def setUp(self):
        self.ops = {op.id: op for op in workloads.ops("border_search", workloads.DEFAULT_SEED, Path("."))}
        path = workloads.COMMITTED / "border_search" / workloads.EXPECTED
        self.expected = json.loads(path.read_text(encoding="ascii"))

    def test_documented_borders_exit_passes(self):
        want = self.expected["b01"]
        self.assertEqual(want["exit"], 1)
        self.assertIn("VIOLATION: best path over all splits of n=4 has 2 turns", want["stdout"])
        self.assertIsNone(check.check(self.ops["b01"], 1, want["stdout"], want, None))

    def test_corrupted_reference_fails(self):
        want = self.expected["b01"]
        corrupted = {"exit": 1, "stdout": want["stdout"].replace("70/9", "71/9")}
        self.assertNotEqual(corrupted, want)
        self.assertIsNotNone(check.check(self.ops["b01"], 1, want["stdout"], corrupted, None))
        self.assertIsNotNone(check.check(self.ops["b01"], 0, want["stdout"], want, None))

    def test_fixed_operation_needs_a_reference(self):
        self.assertIsNotNone(check.check(self.ops["b02"], 0, "anything\n", None, None))

    def _seeded(self, workload):
        inputs = workloads.COMMITTED / workload
        manifest = json.loads((inputs / workloads.MANIFEST).read_text(encoding="ascii"))
        sizes = {**manifest["graphs"], **manifest["colorings"]}
        expected = json.loads((inputs / workloads.EXPECTED).read_text(encoding="ascii"))
        ops = [op for op in workloads.ops(workload, workloads.DEFAULT_SEED, inputs) if op.kind != "fixed"]
        return ops, sizes, expected

    def test_count_invariants(self):
        ops, sizes, expected = self._seeded("dense_count")
        for op in ops:
            out = expected[op.id]["stdout"]
            self.assertIsNone(check.check(op, 0, out, None, sizes[op.input]), op.id)
            self.assertIsNotNone(check.check(op, 2, out, None, sizes[op.input]), op.id)
        wrong = expected["d01"]["stdout"].replace("\nk_2 ", "\nk_2 1")
        self.assertIsNotNone(check.check(ops[0], 0, wrong, None, sizes[ops[0].input]))
        wrong = re.sub(r"\nsum \d+", "\nsum 7", expected["c01"]["stdout"])
        self.assertIsNotNone(check.check(ops[-1], 0, wrong, None, sizes[ops[-1].input]))

    def test_compress_invariants(self):
        ops, sizes, expected = self._seeded("compress_trace")
        for op in ops:
            out = expected[op.id]["stdout"]
            self.assertIsNone(check.check(op, 0, out, None, sizes[op.input]), op.id)
            broken = re.sub(r"\ncode .*\n", "\ncode (none)\n", out)
            self.assertIsNotNone(check.check(op, 0, broken, None, sizes[op.input]), op.id)


class Generator(unittest.TestCase):
    def test_default_seed_reproduces_committed_inputs(self):
        scratch = workloads.HERE / "out"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            for name in workloads.SEEDED:
                workloads.write_inputs(name, workloads.DEFAULT_SEED, Path(tmp) / name)
                committed = workloads.COMMITTED / name
                made = sorted(p.name for p in (Path(tmp) / name).iterdir())
                self.assertEqual(made, sorted(p.name for p in committed.iterdir() if p.name != workloads.EXPECTED))
                for fname in made:
                    self.assertEqual((Path(tmp) / name / fname).read_bytes(), (committed / fname).read_bytes(), fname)

    def test_other_seed_differs(self):
        a = workloads.near_regular(30, 6, workloads._rng("dense_count", 1))
        b = workloads.near_regular(30, 6, workloads._rng("dense_count", 2))
        self.assertNotEqual(a, b)
        self.assertEqual({row.bit_count() for row in a}, {6})


if __name__ == "__main__":
    unittest.main()
