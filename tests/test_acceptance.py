"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Three checks fail by design of the checked claim itself, not by implementation
defect (each failure message carries the measured numbers):

* figure-sweep error monotonicity: at fixed self-infection 1e-5 the series
  and bound errors stop shrinking once the decay parameter reaches the
  eps-dominated floor (around n = 28 for x = 3), and grow gently after;
* the lifetime product |zeta*F + 1| <= 1e-6 at n = 100 fails for x = 1.5:
  the true residual is the bulk-spectrum weight ~ log(n) exp(-n(ln x + 1/x - 1))
  which is 4.8e-3 there (it passes for x = 2 and 2.5);
* the threshold constant: the exact decay parameter at x = 1 scales like
  1.10/sqrt(n), not 5/(4n); 5/(4n) is the second-order series estimate, whose
  own refined form does converge (checked separately, beside acceptance 04).
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from bdecay import (
    EpsSisParams,
    GENERATOR,
    PrecisionCtx,
    RateLadder,
    build_eps_sis_ladder,
    char_coeffs,
    decay_report,
    exact_zeta,
    gillespie_simulate,
    hitting_time_solve,
    lifetime_asymptotic,
    lifetime_direct,
    lifetime_expint,
    lifetime_taylor,
    required_precision,
    restrict_transient,
)
from bdecay._numbers import to_mpf
from bdecay.charpoly import coefficient_table, newton_sums
from bdecay.oracle import dense_spectrum, survival_log_slope
from bdecay.sis import _scaled_orders
from bdecay.validate import check_taylor_identities
from conftest import symmetrize
from paper_formulas import rho_eval, threshold_series_estimate, weighted_expint_integral

TAU_RULES = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))  # x values


def report(cid: str, ok: bool, detail: str, started: float, budget_s: float):
    elapsed = time.monotonic() - started
    status = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"[acceptance {cid}] {status} ({elapsed:.1f}s/{budget_s:.0f}s) {detail}")
    assert ok, f"[{cid}] {detail}"
    assert elapsed < budget_s, f"[{cid}] runtime {elapsed:.1f}s over budget {budget_s}s"


def test_01_small_case_spectrum():
    t0 = time.monotonic()
    sub = restrict_transient(build_eps_sis_ladder(2, 1, 1, 0))
    rep = decay_report(sub, PrecisionCtx(mantissa_bits=128))
    with mp.workprec(128):
        zeta_err = abs(rep.zeta_exact + (2 - mp.sqrt(2)))
        newton_err = abs(rep.zeta_newton_bound + 1 / mp.sqrt(3))
    ok = (
        zeta_err < 1e-12
        and rep.zeta_lagrange[2] == Fraction(-9, 16)
        and newton_err < 1e-12
        and rep.ordering_ok
    )
    report(
        "01",
        ok,
        f"zeta err {float(zeta_err):.2e}, L2 exact -9/16, newton err {float(newton_err):.2e}, "
        f"ordering {rep.ordering_ok}",
        t0,
        1.0,
    )


def _estimate_sweep_rows():
    eps = Fraction(1, 100000)
    bits = required_precision(60, 3)
    ctx = PrecisionCtx(mantissa_bits=bits)
    rows = []
    for n in range(4, 61):
        for x in TAU_RULES:
            tau = x / n
            ladder = EpsSisParams.from_tau(n, tau, Fraction(1), eps).ladder()
            rep = decay_report(ladder, ctx)
            rel2 = rep.relative_error(rep.zeta_lagrange[2])
            reln = rep.relative_error(rep.zeta_newton_bound)
            rows.append((n, x, rep.ordering_ok, float(rel2), float(reln)))
    return rows


@pytest.fixture(scope="module")
def estimate_sweep_rows():
    return _estimate_sweep_rows()


def test_02a_sweep_bound_ordering(estimate_sweep_rows):
    t0 = time.monotonic()
    bad = [(n, x) for n, x, ok, _, _ in estimate_sweep_rows if not ok]
    report(
        "02a",
        not bad,
        f"bound ordering on all {len(estimate_sweep_rows)} sweep rows"
        + (f"; first violation {bad[0]}" if bad else ""),
        t0,
        120.0,
    )


def test_02b_sweep_error_monotonicity(estimate_sweep_rows):
    t0 = time.monotonic()
    violations = []
    for x in (Fraction(2), Fraction(3)):
        series = [(n, r2, rn) for n, xx, _, r2, rn in estimate_sweep_rows if xx == x and n >= 10]
        for (n0, a2, an), (n1, b2, bn) in zip(series, series[1:]):
            if b2 > a2 or bn > an:
                violations.append((int(n1), float(x)))
    detail = (
        "relative errors of the order-2 series and the power-sum bound are "
        "non-increasing for n >= 10 at x in {2, 3}"
        if not violations
        else (
            f"errors stop decreasing at {len(violations)} points, first at n={violations[0][0]} "
            f"(x={violations[0][1]}): with fixed self-infection 1e-5 the decay parameter "
            "bottoms out at an eps-dominated floor and the relative errors then grow"
        )
    )
    report("02b", not violations, detail, t0, 120.0)


@pytest.mark.parametrize("x", [Fraction(3, 2), Fraction(2), Fraction(5, 2)])
def test_03_lifetime_product_at_n100(x):
    t0 = time.monotonic()
    n = 100
    params = EpsSisParams.from_x(n, x, Fraction(1), 0)
    ctx = PrecisionCtx(mantissa_bits=required_precision(n, float(x)))
    z = exact_zeta(restrict_transient(params.ladder()), ctx)
    lifetime = lifetime_direct(n, params.tau)
    with mp.workprec(ctx.mantissa_bits):
        resid = float(abs(z * to_mpf(lifetime) + 1))
    report(
        f"03[x={float(x)}]",
        resid <= 1e-6,
        f"|zeta*F+1| = {resid:.3e}"
        + (
            "" if resid <= 1e-6
            else " (bulk-spectrum weight ~ log(n) exp(-n(ln x + 1/x - 1)) dominates here)"
        ),
        t0,
        60.0,
    )


def test_04_threshold_constant():
    t0 = time.monotonic()
    values = []
    for n in (100, 200, 400):
        ctx = PrecisionCtx(mantissa_bits=required_precision(n, 1))
        sub = restrict_transient(build_eps_sis_ladder(n, Fraction(1, n), 1, 0))
        z = exact_zeta(sub, ctx)
        values.append(float(-z * n))
    gaps = [abs(v - 1.25) for v in values]
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 0.05 * 1.25
    report(
        "04",
        ok,
        f"-zeta*n at x=1 over n=(100,200,400): {values[0]:.3f}, {values[1]:.3f}, "
        f"{values[2]:.3f}; target 5/4 within 5%. The exact decay parameter scales "
        f"like {values[2] / math.sqrt(400):.3f}*sqrt(n)... i.e. ~1.10/sqrt(n), so "
        "the 5/(4n) second-order-series estimate is not its asymptotic",
        t0,
        120.0,
    )


def test_refined_threshold_estimate_converges():
    # the paper's formula, not the package: the size-refined order-2 series
    # estimate at threshold approaches 5/(4n), its n-scaled gap to 5/4
    # shrinks monotonically and is inside 5% by n=400
    gaps = []
    for n in (100, 200, 400):
        refined = threshold_series_estimate(n)
        gaps.append(abs(float(refined * n) - 1.25))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 0.05 * 1.25


def test_05_lifetime_four_way_agreement():
    t0 = time.monotonic()
    for n in range(1, 61):
        for x in TAU_RULES:
            tau = x / n
            if lifetime_direct(n, tau) != lifetime_taylor(n, tau):
                report("05", False, f"taylor != direct at n={n} x={x}", t0, 120.0)
    worst_expint = 0.0
    for n in range(2, 21):
        for x in (Fraction(2), Fraction(3)):
            tau = x / n
            rel = abs(
                lifetime_expint(n, tau) - float(lifetime_direct(n, tau))
            ) / float(lifetime_direct(n, tau))
            worst_expint = max(worst_expint, rel)
    ratios = [
        lifetime_asymptotic(n, 2) / float(lifetime_direct(n, Fraction(2, n)))
        for n in (50, 100, 200)
    ]
    monotone = abs(ratios[0] - 1) > abs(ratios[1] - 1) > abs(ratios[2] - 1)
    ok = worst_expint <= 1e-6 and 0.8 < ratios[2] < 1.2 and monotone
    report(
        "05",
        ok,
        f"direct == taylor exactly (n <= 60, 4 rules); expint worst rel {worst_expint:.2e}; "
        f"asymptotic ratios {ratios[0]:.3f} -> {ratios[1]:.3f} -> {ratios[2]:.3f}",
        t0,
        120.0,
    )


def test_06_taylor_coefficient_identities():
    t0 = time.monotonic()
    # n <= 30: defining sum == alternating form == size recursion, and B_1 = H_n
    ok, detail = check_taylor_identities("full")
    report(
        "06",
        ok,
        "three coefficient forms equal exactly for n <= 30; B_1 = H_n" if ok else detail,
        t0,
        10.0,
    )


def test_07_hitting_time_equals_lifetime():
    t0 = time.monotonic()
    for n in range(1, 21):
        for x in TAU_RULES:
            tau = x / n
            h = hitting_time_solve(build_eps_sis_ladder(n, tau, 1, 0))
            if h[-1] != lifetime_direct(n, tau):
                report("07", False, f"mismatch at n={n} x={x}", t0, 10.0)
    report("07", True, "start-from-top hitting time equals the lifetime exactly, n <= 20", t0, 10.0)


def test_08_power_sums_vs_spectrum():
    t0 = time.monotonic()
    rng = random.Random(17)
    worst = 0.0
    for trial in range(50):
        width = rng.randint(2, 30)
        ladder = RateLadder(
            up=[Fraction(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(width)],
            down=[Fraction(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(width)],
            mode=GENERATOR,
        )
        sums = newton_sums(char_coeffs(ladder))
        assert sums.sum_z == -(sum(ladder.up) + sum(ladder.down))
        spec = dense_spectrum(ladder)[1:]  # drop the exact-zero eigenvalue
        with mp.workprec(128):
            for got, want in (
                (sums.sum_z, sum(spec)),
                (sums.prod_neg_z, math.prod([-z for z in spec], start=mp.mpf(1))),
                (sums.sum_inv_z, sum(1 / z for z in spec)),
            ):
                worst = max(worst, float(abs(to_mpf(got) - want) / max(1, abs(want))))
    report("08", worst <= 1e-10, f"worst power-sum relative gap {worst:.2e} over 50 ladders", t0, 60.0)


def test_09_orthogonal_polynomial_structure():
    t0 = time.monotonic()
    rng = random.Random(23)

    def rand_ladder(width):
        return RateLadder(
            up=[Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(width)],
            down=[Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(width)],
            mode=GENERATOR,
        )

    # (a) interlacing of the principal-block zeros up to N = 12
    for width in (6, 12):
        ladder = rand_ladder(width)
        sym = symmetrize(ladder)
        diag = np.array([float(d) for d in sym.diag])
        off = np.array([float(v) for v in sym.offdiag])
        prev = None
        for j in range(1, width + 2):
            mat = np.diag(diag[:j])
            for i in range(j - 1):
                mat[i, i + 1] = mat[i + 1, i] = off[i]
            zeros = np.sort(np.linalg.eigvalsh(mat))
            if prev is not None:
                for i in range(len(prev)):
                    assert zeros[i] < prev[i] < zeros[i + 1], "interlacing broken"
            prev = zeros

    # (b) polynomial zeros equal the matrix spectrum to 1e-10
    ladder = rand_ladder(8)
    table = coefficient_table(ladder, kmax=9)
    coeffs = [float(table.c(k, 9)) for k in range(9, -1, -1)]
    poly_zeros = np.sort(np.roots(coeffs).real)[::-1]
    spec = np.array([float(z) for z in dense_spectrum(ladder)])
    zero_gap = float(np.max(np.abs(poly_zeros - spec) / np.maximum(1, np.abs(spec))))

    # (c) Christoffel-Darboux residual at 20 random evaluation pairs, N <= 10,
    #     evaluated at 128-bit working precision
    worst_cd = 0.0
    ladder = rand_ladder(10)
    table = coefficient_table(ladder, kmax=11)
    sym = symmetrize(ladder)
    with mp.workprec(128):
        h_sq = [to_mpf(v) for v in sym.h_sq]
        up = [to_mpf(v) for v in ladder.up]
        up_prod = [mp.mpf(1)]
        for v in up:
            up_prod.append(up_prod[-1] * v)
        for _ in range(20):
            xi = mp.mpf(rng.uniform(-3, 0.5))
            om = mp.mpf(rng.uniform(-3, 0.5))
            if abs(xi - om) < 1e-3:
                om += mp.mpf("0.1")
            xs = [rho_eval(table, j, xi) / up_prod[j] for j in range(11)]
            oms = [rho_eval(table, j, om) / up_prod[j] for j in range(11)]
            for m in range(10):
                lhs = (xi - om) * sum(h_sq[j] * xs[j] * oms[j] for j in range(m + 1))
                rhs = up[m] * h_sq[m] * (oms[m] * xs[m + 1] - xs[m] * oms[m + 1])
                scale = abs(lhs) + abs(rhs) + 1
                worst_cd = max(worst_cd, float(abs(lhs - rhs) / scale))

    ok = zero_gap <= 1e-10 and worst_cd <= 1e-10
    report(
        "09",
        ok,
        f"interlacing holds; polynomial-zero gap {zero_gap:.2e}; "
        f"kernel-identity residual {worst_cd:.2e}",
        t0,
        30.0,
    )


def test_10_special_function_bounds():
    t0 = time.monotonic()
    worst_resid = 0.0
    for x in (0.1, 1.0, 10.0, 100.0):
        with mp.workprec(80):
            # g[k - 1] = e^x E_k(x), the orders lifetime_expint integrates
            g = [mp.mpf(v) for v in _scaled_orders(200, x)]
            for k in range(2, 201):
                worst_resid = max(worst_resid, float(abs((k - 1) * g[k - 1] + x * g[k - 2] - 1)))
                assert 1 / (x + k) < g[k - 1] <= 1 / (x + k - 1), f"bracket broken k={k} x={x}"
    for tau in (0.1, 0.3, 0.5):
        l1 = weighted_expint_integral(tau, 1)
        lo = tau * (0.5772156649015329 - math.log(tau))
        assert lo < l1 < lo + tau ** 1.5 * math.sqrt(math.pi) / 2, "first-integral bracket"
        prev = l1
        for k in range(2, 21):
            cur = weighted_expint_integral(tau, k)
            assert cur < tau ** (k - 1) / (k - 1) ** 2, f"power bound k={k}"
            assert cur < tau * prev, f"cascade bound k={k}"
            prev = cur
    report(
        "10",
        worst_resid <= 1e-12,
        f"recursion residual <= {worst_resid:.2e} for n <= 200; sandwich and "
        "integral bounds hold",
        t0,
        30.0,
    )


def test_11_stochastic_check():
    t0 = time.monotonic()
    params = EpsSisParams.from_tau(8, Fraction(1, 20), 1, 0)
    res = gillespie_simulate(params, runs=100_000, seed=12345, time_budget_s=110)
    want = float(lifetime_direct(8, Fraction(1, 20)))
    pull = abs(res.mean - want) / res.stderr
    slope = survival_log_slope(res.times)
    z = float(exact_zeta(restrict_transient(params.ladder())))
    slope_rel = abs(slope - z) / abs(z)
    ok = (not res.budget_exhausted) and pull <= 3 and slope_rel <= 0.10
    report(
        "11",
        ok,
        f"mean {res.mean:.4f} vs exact {want:.4f} ({pull:.2f} stderr); "
        f"tail slope {slope:.4f} vs decay parameter {z:.4f} ({slope_rel:.1%})",
        t0,
        120.0,
    )
