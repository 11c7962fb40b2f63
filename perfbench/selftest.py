"""Self-test of the benchmark's own code.

    python3 perfbench/selftest.py

Covers the self-time arithmetic on nested spans, the correctness gate and
its negative control, agreement between BENCHMARK.json and the code, and
a smoke pass of every workload's command list: each command parses with
the real CLI parser and has a reference, and one cheap command per kind of
run goes through the untraced harness and the traced pass.  Takes a few
seconds.
"""

from __future__ import annotations

import json
import types
import unittest

import gate
import run
import tracer as tracing
from workloads import SETUP_COMMAND, WORKLOADS, all_commands, pass_order

cli = run.oddcycles_cli()


def span(name, layer, start, end, parent):
    return [name, layer, start, end, parent]


class SelfTimeTest(unittest.TestCase):
    # cli.main [0, 10]
    #   verify.run_suites [1, 7]
    #     verify.suite_oracle [1.5, 6]      (same layer, nested)
    #       enumerator.joint_table [2, 3]
    #       enumerator.joint_table [4, 5.5]
    #   polynomials.BiPoly.format [8, 9]
    SPANS = [
        span("cli.main", "cli", 0.0, 10.0, None),
        span("verify.run_suites", "verify", 1.0, 7.0, 0),
        span("verify.suite_oracle", "verify", 1.5, 6.0, 1),
        span("enumerator.joint_table", "enumerator", 2.0, 3.0, 2),
        span("enumerator.joint_table", "enumerator", 4.0, 5.5, 2),
        span("polynomials.BiPoly.format", "polynomials", 8.0, 9.0, 0),
    ]

    def test_self_times(self):
        got = tracing.self_times(self.SPANS)
        self.assertEqual(got, [3.0, 1.5, 2.0, 1.0, 1.5, 1.0])

    def test_layer_busy_counts_nested_same_layer_once(self):
        busy, own = tracing.layer_times(self.SPANS)
        self.assertEqual(busy["verify"], 6.0)
        self.assertEqual(own["verify"], 3.5)
        self.assertEqual(busy["enumerator"], 2.5)
        self.assertEqual(own["cli"], 3.0)
        # self times partition the root span
        self.assertAlmostEqual(sum(own.values()), 10.0)

    def test_covered_merges_overlaps_and_clips(self):
        self.assertEqual(tracing.covered([(2, 5), (1, 3), (7, 12)], 0, 10), 7)
        self.assertEqual(tracing.covered([], 0, 10), 0)

    def test_patch_records_a_missing_name_and_unpatches(self):
        module = types.ModuleType("layer")
        module.present = original = lambda: "original"
        tr = tracing.Tracer("selftest")
        tr.patch(module, "present", lambda fn: tr.wrap(fn, "layer.present", "layer"))
        tr.patch(module, "gone", lambda fn: fn)
        self.assertEqual(tr.missing, ["layer.gone"])
        self.assertEqual(module.present(), "original")
        self.assertEqual([s[tracing.NAME] for s in tr.spans], ["layer.present"])
        tr.unpatch()
        self.assertIs(module.present, original)
        self.assertFalse(hasattr(module, "gone"))

    def test_coeff_bits(self):
        from oddcycles import BigPoly, BiPoly
        self.assertEqual(tracing.coeff_bits(BigPoly([1, 255])), 8)
        self.assertEqual(tracing.coeff_bits(BiPoly({(0, 1): 3, (2, 0): 1024})), 11)
        self.assertEqual(tracing.coeff_bits([5, True]), 3)


class GateTest(unittest.TestCase):
    CSV = b"name,status,detail\nfirst,PASS,fine\nsecond,PASS,also fine\n"

    def ref(self, kind, stdout):
        return {"kind": kind, "sha256": gate.fingerprint(kind, stdout)}

    def test_one_byte_change_is_caught(self):
        ref = self.ref("csv", self.CSV)
        self.assertEqual(gate.check(ref, self.CSV, 0), [])
        for pos in range(len(self.CSV)):
            changed = bytearray(self.CSV)
            changed[pos] ^= 0x01
            self.assertTrue(gate.check(ref, bytes(changed), 0), pos)

    def test_failed_row_and_exit_code_are_named(self):
        ref = self.ref("verify-csv", self.CSV)
        bad = self.CSV.replace(b"second,PASS", b"second,FAIL")
        problems = gate.check(ref, bad, 1)
        self.assertIn("exit code 1", problems)
        self.assertIn("second reads FAIL", problems)

    def test_verify_table_ignores_only_the_seconds_column(self):
        text = b"PASS pde-oo_even      0.104s  zero residual\n1/1 checks passed\n"
        ref = self.ref("verify-table", text)
        self.assertEqual(gate.check(ref, text.replace(b"0.104s", b"9.999s"), 0), [])
        self.assertTrue(gate.check(ref, text.replace(b"residual", b"residuals"), 0))
        self.assertIn("pde-oo_even reads FAIL", gate.check(ref, text.replace(b"PASS", b"FAIL"), 0))

    def test_json_compares_results_not_threads(self):
        doc = {"command": "enumerate", "params": {"threads": 2}, "results": {"count": 3}, "checks": []}
        ref = self.ref("json", json.dumps(doc).encode())
        other_host = dict(doc, params={"threads": 64})
        self.assertEqual(gate.check(ref, json.dumps(other_host).encode(), 0), [])
        wrong = dict(doc, results={"count": 4})
        self.assertTrue(gate.check(ref, json.dumps(wrong).encode(), 0))
        self.assertTrue(gate.check(ref, b"{not json", 0))

    def test_run_negative_control(self):
        ref = self.ref("csv", self.CSV)
        self.assertIsNone(run.negative_control((ref, self.CSV), seed=7))
        self.assertIsNotNone(run.negative_control(None, seed=7))
        # a gate that accepted any bytes would be reported
        original = gate.check
        gate.check = lambda *a: []
        try:
            self.assertIsNotNone(run.negative_control((ref, self.CSV), seed=7))
        finally:
            gate.check = original


class RoundTest(unittest.TestCase):
    @staticmethod
    def result(wall):
        return {"wall_s": wall, "cpu_s": wall / 2}

    def test_pass_total_sums_per_command_medians(self):
        # command 0 takes 1, 3, 2 s over three rounds; command 1 takes 10, 10, 40 s
        rounds = [{"current": [self.result(a), self.result(b)]}
                  for a, b in [(1.0, 10.0), (3.0, 10.0), (2.0, 40.0)]]
        self.assertEqual(run.pass_total(rounds, "current", "wall_s"), 12.0)
        self.assertEqual(run.pass_total(rounds, "current", "cpu_s"), 6.0)

    def test_round_alternates_which_program_goes_first(self):
        order = []

        class Recorder:
            def run(self, argv, program):
                order.append((argv[0], program))
                return {"argv": argv}

            def check(self, result):
                pass

        run.run_round(Recorder(), [["a"], ["b"], ["c"]], ("x", "y"), flip=0)
        self.assertEqual(order, [("a", "x"), ("a", "y"), ("b", "y"), ("b", "x"), ("c", "x"), ("c", "y")])
        order.clear()
        run.run_round(Recorder(), [["a"], ["b"]], ("x", "y"), flip=1)
        self.assertEqual(order, [("a", "y"), ("a", "x"), ("b", "x"), ("b", "y")])


class BenchmarkFileTest(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(WORKLOADS))

    def test_per_layer_metrics_match(self):
        got = {m["name"]: (m["unit"], m["better"]) for m in self.bench["per_layer"]}
        self.assertEqual(got, tracing.PER_LAYER)

    def test_end_to_end_metrics_match(self):
        names = [m["name"] for m in self.bench["end_to_end"]]
        self.assertEqual(names, ["wall_ratio", "cpu_ratio", "peak_rss_mb", "setup_s"])

    def test_seed_fixes_order_only(self):
        for spec in WORKLOADS.values():
            a, b = pass_order(spec["commands"], 1), pass_order(spec["commands"], 1)
            self.assertEqual(a, b)
            self.assertEqual(sorted(a), sorted(spec["commands"]))


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.OUT.mkdir(exist_ok=True)
        cls.refs = gate.load(run.REFERENCES)

    def test_every_command_parses_and_has_a_reference(self):
        parser = cli.build_parser()
        for argv in all_commands():
            if argv != SETUP_COMMAND:
                parser.parse_args(argv)
            self.assertEqual(self.refs[gate.key(argv)]["kind"], gate.kind_of(argv))

    def test_untraced_round_passes_the_gate_on_both_programs(self):
        harness = run.Harness(self.refs)
        commands = [["enumerate", "--n", "11", "--format", "csv"], SETUP_COMMAND]
        rounds = [run.run_round(harness, commands, (run.CURRENT, run.BASELINE), flip)
                  for flip in (0, 1)]
        self.assertEqual(harness.problems, [])
        self.assertEqual(harness.attempted, 8)
        for program in (run.CURRENT, run.BASELINE):
            self.assertEqual([r["argv"] for r in rounds[0][program]], commands)
            self.assertTrue(all(r["program"] == program for r in rounds[0][program]))
            self.assertGreater(run.pass_total(rounds, program, "cpu_s"), 0)
        self.assertIsNone(run.negative_control(harness.control_sample, seed=3))

    def test_baseline_program_is_a_separate_copy(self):
        self.assertTrue((run.PROGRAMS[run.BASELINE] / "oddcycles" / "cli.py").is_file())
        self.assertNotEqual(run.PROGRAMS[run.BASELINE], run.PROGRAMS[run.CURRENT])

    def test_traced_pass_keeps_stdout_and_unpatches(self):
        from oddcycles import enumerator, polynomials

        before = (enumerator.joint_table, polynomials.BiPoly.__dict__["format"])
        harness = run.Harness(self.refs)
        commands = [["verify", "--suite", "pde", "--series-order", "40"],
                    ["poly", "--kind", "joint", "--n", "300", "--format", "csv"]]
        tr, wall, stdout_bytes = run.traced_pass(harness, commands, "selftest")
        self.assertEqual(harness.problems, [])
        self.assertEqual(before, (enumerator.joint_table, polynomials.BiPoly.__dict__["format"]))
        metrics = tracing.per_layer_metrics(tr, stdout_bytes, 1.0)
        self.assertEqual(metrics["verify.checks"], 5)
        self.assertEqual(metrics["enumerator.calls"], 0)
        self.assertEqual(metrics["gentree.joint_poly_calls"], 1)
        self.assertGreater(metrics["polynomials.serialize_s"], 0)
        self.assertGreater(metrics["verify.suite_s.pde"], 0)


if __name__ == "__main__":
    unittest.main()
