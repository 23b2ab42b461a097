"""Fast self-test of the benchmark harness on a genus-2-only corpus.

    python3 perfbench/selftest.py

Run it from the repository root; it takes a few seconds.  It checks the
oracle's arithmetic, that correct answers pass and a tampered reference is
caught, that timeouts and exceptions are recorded and charged the limit, and
that the printed result carries exactly the metrics BENCHMARK.json names.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import unittest
from functools import partial
from pathlib import Path

import oracle
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL_CLASS = "(6,0;(1,2)_2,(1,3),(2,3))"     # genus 2, about 30 ms to analyze


def build_g2(lib, ref):
    """analyze and the raw abelianizations on every genus-2 class."""
    ops = workloads._analyze_ops(lib, ref, "selftest_g2", (2,))
    return ops + [op for op in workloads.build_abelianize(lib, ref)
                  if ref["classes"][op.label.split(":")[0]]["genus"] == 2]


G2 = workloads.Workload("selftest_g2", 20.0, 1.0, build_g2)


class OracleTest(unittest.TestCase):
    def test_abelian_invariants(self):
        self.assertEqual(oracle.abelian_invariants([[2, 0], [0, 3]], 2), [[6], 0])
        self.assertEqual(oracle.abelian_invariants([[2, 4]], 2), [[2], 1])
        self.assertEqual(oracle.abelian_invariants([[4, 0], [0, 6]], 2), [[2, 12], 0])
        self.assertEqual(oracle.abelian_invariants([], 3), [[], 3])

    def test_closed_forms(self):
        self.assertEqual(oracle.mod_sphere_ab(4), [[6], 0])
        self.assertEqual(oracle.mod_sphere_ab(5), [[4], 0])
        self.assertEqual(oracle.pmod_sphere_ab(5), [[], 5])

    def test_rows_from_text(self):
        rows, ncols, letters = oracle.rows_from_text("<a, b | a^2 = b^3, [a,b] = 1>")
        self.assertEqual((rows, ncols, letters), ([[2, -3], [0, 0]], 2, 9))
        rows, ncols, _ = oracle.rows_from_text("<F, G1 | F^6 = 1, G1^2 = F^e1>",
                                               kill=("F",))
        self.assertEqual(oracle.abelian_invariants(rows, ncols), [[2], 0])


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(run.SRC))
        run.signal.signal(run.signal.SIGALRM, run._on_alarm)
        cls.ref = oracle.load_reference()

    def pass_over(self, workload, ref=None):
        _, ops = run.setup(workload, ref or self.ref, seed=7)
        return ops, run.run_pass(ops, workload)

    def test_correct_answers_pass(self):
        ops, result = self.pass_over(G2)
        self.assertEqual(len(ops), 8 + 16)
        self.assertEqual((result["failures"], result["wrong"]), ([], 0))
        self.assertGreater(result["out_letters"], 0)
        stats = run.op_stats(run.best_of_passes([result, result], G2.limit_s))
        self.assertTrue(all(stats[k] > 0 for k in ("wall_s", "op_ms_geomean",
                                                    "op_ms_p50", "op_ms_tail")))

    def test_wrong_answer_is_caught(self):
        ref = copy.deepcopy(self.ref)
        ref["classes"][SMALL_CLASS]["lmod_ab"] = [[5], 0]
        _, result = self.pass_over(G2, ref)
        self.assertEqual(result["wrong"], 2)      # analyze and the raw H1 abelianization
        self.assertTrue(all(f["error"].startswith("wrong answer") and
                            SMALL_CLASS in f["op"] for f in result["failures"]))

    def test_timeout_and_exception_are_charged(self):
        lib = run.fresh_import()
        slow = workloads.Op("analyze", SMALL_CLASS,
                            partial(lib.analysis.analyze, lib.parse_dataset(SMALL_CLASS)),
                            lambda rep: (None, 0))
        too_big = workloads.Op("analyze", "(2,0;(1,2)_14)",
                               partial(lib.analysis.analyze, lib.parse_dataset("(2,0;(1,2)_14)")),
                               lambda rep: (None, 0))
        tight = G2._replace(limit_s=0.002)
        result = run.run_pass([slow, too_big], tight)
        errors = {f["op"]: f["error"] for f in result["failures"]}
        self.assertEqual(errors, {SMALL_CLASS: "timeout", "(2,0;(1,2)_14)": "CapacityError"})
        self.assertEqual(list(result["op_s"].values()), [0.002, 0.002])
        self.assertEqual(run.best_of_passes([result], 0.002), [0.002, 0.002])

    def run_main(self, trace: int) -> dict:
        workloads.WORKLOADS[G2.name] = G2
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", G2.name, "--seed", "3", "--seconds", "0",
                             "--trace", str(trace)])
        self.assertEqual(code, 0)
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def test_printed_result_matches_spec(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = self.run_main(trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC[key]})
            units = {m["name"]: m["unit"] for m in SPEC[key]}
            for name, metric in result["metrics"].items():
                self.assertEqual(metric["unit"], units[name], name)
        self.assertGreater(result["metrics"]["fpgroups.tietze_calls"]["value"], 0)
        self.assertGreater(result["metrics"]["arith_perm.snf_cells"]["value"], 0)

    def test_library_outside_src_is_refused(self):
        saved = run.SRC
        run.SRC = Path(run.HERE / "no-such-src")
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                with self.assertRaises(run.LibraryMissing):
                    run.fresh_import()
        finally:
            run.SRC = saved


if __name__ == "__main__":
    unittest.main()
