"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selftest.py

Covers the op generator, the exact checkers (each must reject a real
report with one tampered value) and the self-time arithmetic of spans.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import spans
import workloads
from workloads import Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class OpGeneratorTest(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for name in workloads.WORKLOADS:
            self.assertEqual(workloads.make_ops(name, 7), workloads.make_ops(name, 7))
            self.assertNotEqual(workloads.make_ops(name, 7), workloads.make_ops(name, 8))

    def test_mix_is_fixed_and_cost_pairs_are_balanced(self):
        for name, spec in workloads.WORKLOADS.items():
            for seed in range(5):
                ops = workloads.make_ops(name, seed)
                for size, count in spec.mix:
                    sized = [op for op in ops if op.size == size]
                    self.assertEqual(len(sized), count)
                    if name != "hull-scan" and count % 3 == 0:
                        for values in (workloads.INTRA, workloads.CROSSING):
                            got = [op.intra if values is workloads.INTRA else op.crossing
                                   for op in sized]
                            self.assertEqual(sorted(got), sorted(values * (count // 3)))
                        pairs = [(op.intra, op.crossing) for op in sized]
                        self.assertEqual(len(set(pairs)), count)

    def test_closed_forms_match_hand_computed_values(self):
        self.assertEqual(
            workloads.tour_optimum(Op("cutting-plane", (4, 2), Fraction(1, 7), Fraction(5, 3))),
            Fraction(152, 21))
        self.assertEqual(
            workloads.tour_optimum(Op("cutting-plane", (3, 3), Fraction(1, 7), Fraction(5, 3))),
            Fraction(41, 7))
        op = Op("valley-gap", (6, 2), Fraction(1, 7), Fraction(5, 3))
        self.assertEqual(workloads.degree_optimum(op), Fraction(12, 7))
        self.assertEqual(workloads.tour_optimum(op), Fraction(76, 7))
        alone = Op("valley-gap", (9, 1), Fraction(1, 3), Fraction(2))
        self.assertEqual(workloads.degree_optimum(alone), 18)


def _set(doc: dict, path: tuple, value) -> dict:
    """Copy of doc with the value at path replaced."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class CheckerTest(unittest.TestCase):
    """Each checker accepts the real report and rejects it with any one
    value changed."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(SRC))
        from lpgaps import cli

        cls.cli = cli

    def report(self, op: Op) -> dict:
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
            path = Path(tmp) / "report.json"
            self.assertEqual(self.cli.main([*op.argv(), "--output", str(path)]), 0)
            return json.loads(path.read_bytes())

    def assert_tampering_caught(self, op: Op, tampers: list[tuple[tuple, object]]):
        doc = self.report(op)
        workloads.check_report(op, json.dumps(doc).encode())
        for path, value in tampers:
            with self.subTest(path=path):
                bad = json.dumps(_set(doc, path, value)).encode()
                with self.assertRaises(workloads.CheckError):
                    workloads.check_report(op, bad)

    def test_hull_scan(self):
        op = Op("hull-scan", (32, 16), seed=5)
        row = self.report(op)["result"]["rows"][0]
        rows = ("result", "rows", 0)
        self.assert_tampering_caught(op, [
            (rows + ("gap",), str(Fraction(row["gap"]) + 1)),
            (rows + ("relaxed_max",), str(Fraction(row["relaxed_max"]) - Fraction(1, 3))),
            (rows + ("true_max",), str(Fraction(row["true_max"]) + 2)),
            (rows + ("worst_facet",), row["omitted"][0] if row["worst_facet"] != row["omitted"][0]
             else row["omitted"][1]),
            (rows + ("kept",), row["kept"][:-1] + [row["omitted"][0]]),
            (("result", "seed"), 6),
        ])

    def test_cutting_plane(self):
        op = Op("cutting-plane", (3, 2), Fraction(1, 3), Fraction(5, 3))
        trace = ("result", "trace")
        self.assert_tampering_caught(op, [
            (trace + ("final_value",), "7"),
            (trace + ("final_integral",), False),
            (trace + ("complete",), False),
            (trace + ("rounds", 0, "lp_value"), "100"),
            (("result", "oracle_cost"), "11/2"),
            (("result", "instance", "intra_cost"), "1/7"),
        ])

    def test_valley_gap(self):
        op = Op("valley-gap", (3, 2), Fraction(1, 7), Fraction(2))
        answer = ("result", "decision_answers", 1)
        self.assert_tampering_caught(op, [
            (("result", "lp_value"), "1/7"),
            (("result", "ilp_value"), "47/7"),
            (("result", "gap"), "0"),
            (answer + ("lp_answer",), False),
            (answer + ("ilp_answer",), True),
            (answer + ("agree",), True),
            (answer + ("threshold",), "5"),
        ])


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        # root [0,10] > a [1,4] > a1 [1.5,2]; root > b [6,7] > b1 [6,7]
        tree = [
            spans.Span("root", 0.0, 10.0),
            spans.Span("a", 1.0, 4.0, parent=0),
            spans.Span("a1", 1.5, 2.0, parent=1),
            spans.Span("b", 6.0, 7.0, parent=0),
            spans.Span("b1", 6.0, 7.0, parent=3),
        ]
        self.assertEqual(spans.self_times(tree), [6.0, 2.5, 0.5, 0.0, 1.0])

    def test_overlapping_children_count_once(self):
        self.assertEqual(spans.covered_length([(0, 2), (1, 3), (5, 6), (6, 6.5)]), 4.5)
        self.assertEqual(spans.covered_length([]), 0.0)

    def test_layer_totals_per_pass(self):
        totals = spans.LayerTotals()
        for _ in range(2):
            totals.add([
                spans.Span("cli", 0.0, 4.0, result=0),
                spans.Span("gaps", 1.0, 3.0, parent=0),
                spans.Span("ilp.oracle", 1.5, 2.5, parent=1,
                           args=(type("Inst", (), {"n": 12})(),)),
            ], exhaustive_limit=10)
        m = totals.metrics(passes=2, traced_wall=8.0, overhead=0.5)
        self.assertEqual(m["cli.self_s"][0], 2.0)
        self.assertEqual(m["gaps.self_s"][0], 1.0)
        self.assertEqual(m["ilp.oracle_busy_s"][0], 1.0)
        self.assertEqual(m["ilp.oracle_share"][0], 0.25)
        self.assertEqual(m["ilp.held_karp_cells"][0], 2**11 * 11)
        self.assertEqual(m["ilp.dp_bytes_computed"][0], 2**11 * 11 * 8)
        self.assertEqual(m["ilp.exhaustive_calls"][0], 0)


class HostScalingTest(unittest.TestCase):
    def test_interval_is_scaled_by_the_probes_around_it(self):
        import run

        probes = iter([0.010, 0.012])
        original = run.probe_host
        run.probe_host = lambda: next(probes)
        try:
            scaled, raw = run.host_scaled(lambda: 2.0)
        finally:
            run.probe_host = original
        self.assertEqual(raw, 2.0)
        self.assertAlmostEqual(scaled, 2.0 * run.REFERENCE_PROBE_S / 0.011)


class TracerTest(unittest.TestCase):
    def test_wraps_every_import_site_and_restores(self):
        sys.path.insert(0, str(SRC))
        import lpgaps.gaps
        import lpgaps.hull
        import lpgaps.lp

        original = lpgaps.lp.solve_lp
        tracer = spans.Tracer()
        with tracer.installed():
            self.assertIsNot(lpgaps.hull.solve_lp, original)
            self.assertIs(lpgaps.hull.solve_lp, lpgaps.gaps.solve_lp)
            lpgaps.hull.facet_gap(lpgaps.hull.gen_arc(4), 1, [0, 2])
        self.assertIs(lpgaps.hull.solve_lp, original)
        names = [s.name for s in tracer.take()]
        self.assertEqual(names, ["hull.facet_gap", "hull.model_build", "lp.solve"])


if __name__ == "__main__":
    unittest.main()
