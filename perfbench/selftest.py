"""Tests of the benchmark itself: every check passes right answers and
rejects a wrong one, on tiny inputs.

    python3 perfbench/selftest.py

The file name keeps pytest's default collection (test_*.py, *_test.py) from
picking it up, so the package's own test run does not grow.
"""

import dataclasses
import json
import os
import sys
import tempfile
import unittest
from fractions import Fraction

import run

run.import_bdecay()

from bdecay import chain, decay, oracle, sis  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def restricted(n, x, delta=1):
    return chain.restrict_transient(sis.EpsSisParams.from_x(n, x, delta).ladder())


class EigvalshCheck(unittest.TestCase):
    def test_absorbing(self):
        n, x, delta = 12, Fraction(1, 2), Fraction(5, 4)
        zeta = float(decay.exact_zeta(restricted(n, x, delta)))
        a = checks.sym_matrix(n, x * delta / n, delta, absorbing=True)
        self.assertTrue(checks.check_applies(zeta, a))
        self.assertIsNone(checks.zeta_vs_eigvalsh(zeta, a, absorbing=True))
        self.assertIsNotNone(checks.zeta_vs_eigvalsh(zeta * (1 + 1e-6), a, absorbing=True))

    def test_irreducible(self):
        n, x, eps = 9, Fraction(2), Fraction(1, 100000)
        zeta = float(decay.exact_zeta(sis.EpsSisParams.from_x(n, x, 1, eps).ladder()))
        a = checks.sym_matrix(n, x / n, 1, eps)
        self.assertTrue(checks.check_applies(zeta, a))
        self.assertIsNone(checks.zeta_vs_eigvalsh(zeta, a, absorbing=False))
        self.assertIsNotNone(checks.zeta_vs_eigvalsh(zeta * (1 - 1e-6), a, absorbing=False))

    def test_tiny_zeta_is_out_of_reach(self):
        n, x = 60, Fraction(3)
        zeta = float(decay.exact_zeta(restricted(n, x), decay.PrecisionCtx(mantissa_bits=192)))
        self.assertFalse(checks.check_applies(zeta, checks.sym_matrix(n, x / n, 1, absorbing=True)))


class ScalarChecks(unittest.TestCase):
    def test_decay_point(self):
        self.assertIsNone(checks.decay_point(-0.5, True))
        self.assertIsNotNone(checks.decay_point(0.0, True))
        self.assertIsNotNone(checks.decay_point(-0.5, False))

    def test_zeta_lifetime_product(self):
        n, x, bits = 100, Fraction(3), 255
        zeta = decay.exact_zeta(restricted(n, x), decay.PrecisionCtx(mantissa_bits=bits))
        f = checks.green_lifetime(n, x / n, 1, bits)
        self.assertIsNone(checks.zeta_lifetime_product(zeta, f, bits))
        self.assertIsNotNone(checks.zeta_lifetime_product(zeta * (1 + 2e-6), f, bits))

    def test_green_lifetime_matches_direct(self):
        n, tau, delta = 30, Fraction(1, 12), Fraction(3, 2)
        value = sis.lifetime_direct(n, tau, delta)
        self.assertIsNone(checks.lifetime_vs_green(value, n, tau * delta, delta))
        wrong = value * (1 + Fraction(1, 10**12))
        self.assertIsNotNone(checks.lifetime_vs_green(wrong, n, tau * delta, delta))

    def test_hitting_time_equals_direct(self):
        n, x = 20, Fraction(2)
        h = oracle.hitting_time_solve(sis.EpsSisParams.from_x(n, x, 1).ladder())[-1]
        direct = sis.lifetime_direct(n, x / n)
        self.assertIsNone(checks.exact_equal(h, direct, "h_N"))
        self.assertIsNotNone(checks.exact_equal(h + Fraction(1, 10**40), direct, "h_N"))

    def test_expint(self):
        direct = sis.lifetime_direct(10, Fraction(2, 10))
        expint = sis.lifetime_expint(10, Fraction(2, 10))
        self.assertIsNone(checks.expint_vs_direct(expint, direct))
        self.assertIsNotNone(checks.expint_vs_direct(expint * (1 + 2e-6), direct))
        self.assertIsNotNone(checks.expint_vs_direct(None, direct))

    def test_gillespie(self):
        params = sis.EpsSisParams.from_tau(4, Fraction(1, 20), 1)
        sim = oracle.gillespie_simulate(params, runs=500, seed=3)
        exact = checks.green_lifetime(4, Fraction(1, 20), 1)
        self.assertIsNone(checks.gillespie_mean(sim.mean, sim.stderr, exact))
        self.assertIsNotNone(checks.gillespie_mean(sim.mean + 5 * sim.stderr, sim.stderr, exact))

    def test_spectrum_sum(self):
        n, x, eps = 6, Fraction(2), Fraction(1, 1000)
        eigs = oracle.dense_spectrum(sis.EpsSisParams.from_x(n, x, 1, eps).ladder())
        trace = checks.sis_trace(n, x / n, 1, eps)
        self.assertIsNone(checks.spectrum_sum(eigs, trace))
        wrong = list(eigs)
        wrong[-1] = wrong[-1] * (1 + 1e-6)
        self.assertIsNotNone(checks.spectrum_sum(wrong, trace))

    def test_suite_passed(self):
        self.assertIsNone(checks.suite_passed({"failed": 0, "first_failure": None}))
        self.assertIsNotNone(checks.suite_passed({"failed": 1, "first_failure": "bound-ordering"}))

    def test_same_bytes(self):
        self.assertIsNone(checks.same_bytes(b"n,x\n4,1\n", b"n,x\n4,1\n", "csv"))
        self.assertIn("byte 4", checks.same_bytes(b"n,x\n4,1\n", b"n,x\n5,1\n", "csv"))


class WorkloadChecks(unittest.TestCase):
    def test_inputs_repeat_per_seed(self):
        for make, _, _ in workloads.WORKLOADS.values():
            self.assertEqual(make(7), make(7))
            self.assertNotEqual(make(7), make(8))

    def test_absorbing_rejects_perturbed_zeta(self):
        inputs = {"delta": Fraction(9, 8), "points": [(10, Fraction(1, 2)), (12, Fraction(1))]}
        reports = workloads.absorbing_round(inputs, None)
        self.assertEqual(workloads.absorbing_check(inputs, reports, {}), (2, [], []))
        wrong = [dataclasses.replace(reports[0], zeta_exact=reports[0].zeta_exact * (1 + 1e-6))]
        _, _, problems = workloads.absorbing_check(inputs, wrong + reports[1:], {})
        self.assertEqual(len(problems), 1)

    def test_sweep_rejects_flipped_byte(self):
        inputs = workloads.sweep_inputs(1)
        n_values = [4, 6]
        inputs["n_values"] = n_values
        inputs["argv"][2] = ",".join(str(n) for n in n_values)
        state = {}
        with tempfile.TemporaryDirectory() as out_dir:
            result = workloads.sweep_round(inputs, out_dir)
            self.assertEqual(workloads.sweep_check(inputs, result, state), (8, [], []))
            self.assertEqual(workloads.sweep_check(inputs, result, state), (8, [], []))
            with open(result[1], "rb") as fh:
                data = bytearray(fh.read())
            data[-2] ^= 1  # the last digit of the last row
            with open(result[1], "wb") as fh:
                fh.write(data)
            _, _, problems = workloads.sweep_check(inputs, result, state)
        self.assertTrue(any("differ from byte" in p for p in problems), problems)

    def test_referee_counts_the_expint_faults(self):
        inputs = {
            "delta": Fraction(5, 4),
            "direct": [(40, Fraction(3))],
            "hitting": (15, Fraction(2)),
            "dense_eps": Fraction(1, 100000),
            "sim_seed": 1,
        }
        out = workloads.referee_round(inputs, None)
        attempted, failures, problems = workloads.referee_check(inputs, out, {})
        self.assertEqual(problems, [])
        self.assertEqual(attempted, 1 + 1 + len(workloads.REFEREE_GRID) + 3)
        self.assertEqual(sorted(f.split(":")[1] for f in failures),
                         [" lifetime_expint at n=30 x=3/2", " lifetime_expint at n=35 x=3/2",
                          " lifetime_expint at n=40 x=3/2"])
        out["direct"][0] += 1
        _, _, problems = workloads.referee_check(inputs, out, {})
        self.assertEqual(len(problems), 1)


class Tracing(unittest.TestCase):
    def test_self_time_and_restore(self):
        original = sis.lifetime_direct
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(sis.lifetime_direct, original)
            sis.mean_absorption_time(sis.EpsSisParams.from_x(10, 2, 1))
            totals = tracing.round_totals(tracer.take())
        finally:
            tracer.uninstall()
        self.assertIs(sis.lifetime_direct, original)
        outer = totals["sis.mean_absorption_time_s"]
        self.assertGreater(totals["sis.lifetime_direct.calls"], 0)
        self.assertEqual(totals["sis.lifetime_direct.states"], 10 * totals["sis.lifetime_direct.calls"])
        inner = totals["sis.lifetime_direct_s"] + totals["sis.lifetime_expint_s"]
        self.assertAlmostEqual(totals["sis.mean_absorption_time.self_s"], outer - inner, places=9)


class BenchmarkFile(unittest.TestCase):
    def test_names_match(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    sys.exit(unittest.main())
