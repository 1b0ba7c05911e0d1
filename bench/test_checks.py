"""Tests of the benchmark's own checks: each workload at its smallest size
passes them, and a corrupted result fails them.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from oracle import ConeOracle, satisfiable  # noqa: E402
from workloads import NuEnumerate, QueryMix, Reductions  # noqa: E402

from defoutlier import lits, parse_theory  # noqa: E402

SMALLEST = {
    "nu-enumerate": NuEnumerate(k1=((24, 2), (48, 1)), k2=((24, 2),)),
    "reductions": Reductions(sat=((1, 2), (3, 2)), unsat=((2, 1), (3, 1))),
    "query-mix": QueryMix(letters=48, entails=8, recognize=2, witness=6),
}


def one_round(workload, seed=3):
    with tempfile.TemporaryDirectory() as tmp:
        inputs = workload.setup(seed, Path(tmp))
        results = [fn() for _, fn in workload.operations(inputs)]
        cli = [run._cli(["-m", "defoutlier", *c])[1:] for c in workload.cli_calls(inputs)]
        return inputs, results, cli, workload.check(inputs, results, cli)


class SmallestSizesPass(unittest.TestCase):
    def test_each_workload(self):
        for name, workload in SMALLEST.items():
            with self.subTest(workload=name):
                *_, problems = one_round(workload)
                self.assertEqual(problems, [])


class CorruptedResultsFail(unittest.TestCase):
    def test_dropped_outlier(self):
        w = SMALLEST["nu-enumerate"]
        inputs, results, cli, _ = one_round(w)
        i = next(i for i, r in enumerate(results) if r)
        results[i] = results[i][1:]
        self.assertTrue(any("missing" in p for p in w.check(inputs, results, cli)))

    def test_dropped_witness(self):
        w = SMALLEST["nu-enumerate"]
        inputs, results, cli, _ = one_round(w)
        i = next(i for i, r in enumerate(results) if r)
        report = results[i][0]
        results[i] = (dataclasses.replace(report, witnesses=report.witnesses[1:]),) + results[i][1:]
        self.assertTrue(w.check(inputs, results, cli))

    def test_flipped_reduction_verdict(self):
        w = SMALLEST["reductions"]
        inputs, results, cli, _ = one_round(w)
        results[2] = not results[2]  # the first formula's thm10 entailment
        self.assertTrue(any("thm10" in p for p in w.check(inputs, results, cli)))

    def test_flipped_query_answer(self):
        w = SMALLEST["query-mix"]
        inputs, results, cli, _ = one_round(w)
        i = next(i for i, (kind, _) in enumerate(inputs["queries"]) if kind == "entails")
        results[2 * i + 1] = not results[2 * i + 1]  # the DNU half only
        self.assertTrue(any(p.startswith("entails") for p in w.check(inputs, results, cli)))

    def test_wrong_cli_exit_code(self):
        w = SMALLEST["query-mix"]
        inputs, results, cli, _ = one_round(w)
        code, out = cli[0]
        cli[0] = (1 - code, out)
        self.assertTrue(any(p.startswith("CLI") for p in w.check(inputs, results, cli)))


class Oracle(unittest.TestCase):
    def test_truth_table(self):
        self.assertTrue(satisfiable(2, [(1, 2, 2), (-1, -1, -1)]))
        self.assertFalse(satisfiable(1, [(1, 1, 1), (-1, -1, -1)]))

    def test_credit_card_outlier(self):
        theory = parse_theory(
            "fact CreditNumber & MultipleIPs.\n"
            "default CreditNumber : -MultipleIPs / -MultipleIPs.\n"
        )
        found = ConeOracle(theory).strong_outliers(1)
        self.assertEqual(found, {lits("CreditNumber"): {lits("MultipleIPs")}})

    def test_cycle_rejected(self):
        theory = parse_theory("fact a.\ndefault a : b / b.\ndefault b : a / a.\n")
        with self.assertRaises(ValueError):
            ConeOracle(theory)


if __name__ == "__main__":
    unittest.main()
