"""Self-contained invariant checks behind the `validate` CLI command.

Each check returns (ok, detail).  The suite is deterministic: random ladders
come from a fixed-seed generator.  The bound-ordering check reads
`decay_report`'s own ordering verdict, so the suite and the CLI judge the
bounds by one rule.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
from mpmath import mp

from . import chain, charpoly, decay, oracle, sis
from ._numbers import to_float, to_mpf


def _rand_ladder(rng: random.Random, n: int) -> chain.RateLadder:
    up = [Fraction(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(n)]
    down = [Fraction(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(n)]
    return chain.RateLadder(up=up, down=down, mode=chain.GENERATOR)


def check_small_spectrum_exact(level: str):
    params = sis.EpsSisParams.from_tau(2, Fraction(1), Fraction(1), 0)
    sub = chain.restrict_transient(params.ladder())
    z = decay.exact_zeta(sub, decay.PrecisionCtx(mantissa_bits=128))
    with mp.workprec(128):
        want = -(2 - mp.sqrt(2))
        if abs(z - want) > mp.mpf(1e-12):
            return False, f"zeta {mpmath.nstr(z, 12)} != -(2-sqrt(2))"
    one = chain.restrict_transient(
        sis.EpsSisParams.from_tau(1, Fraction(1), Fraction(1), 0).ladder()
    )
    z1 = decay.exact_zeta(one)
    if abs(to_float(z1) + 1.0) > 1e-12:
        return False, f"n=1 zeta {to_float(z1)} != -1"
    return True, "n=2 and n=1 spectra match closed forms"


def check_bound_ordering(level: str):
    n_top = 12 if level == "quick" else 24
    rows = []
    for n in range(4, n_top + 1, 2):
        for x in (Fraction(1, 2), Fraction(2)):
            for eps in (Fraction(0), Fraction(1, 100000)):
                params = sis.EpsSisParams.from_x(n, x, Fraction(1), eps)
                ladder = params.ladder()
                if eps == 0:
                    ladder = chain.restrict_transient(ladder)
                try:
                    report = decay.decay_report(ladder)
                except decay.InconsistentCoefficientsError as exc:
                    return False, f"n={n} x={x} eps={eps}: {exc}"
                rows.append(((n, str(x), str(eps)), report.ordering_ok))
    bad = [key for key, ok in rows if not ok]
    if bad:
        return False, f"ordering violated at (n,x,eps)={bad[0]}"
    return True, f"zeta <= newton <= -f0/f1 < 0 on {len(rows)} ladders"


def check_steady_state_balance(level: str):
    rng = random.Random(421)
    trials = 10 if level == "quick" else 30
    for _ in range(trials):
        ladder = _rand_ladder(rng, rng.randint(2, 9))
        pi = chain.steady_state(ladder)
        for j in range(ladder.n_states - 1):
            if pi[j] * ladder.up[j] != pi[j + 1] * ladder.down[j]:
                return False, f"global balance broken at j={j}"
        if sum(pi) != 1:
            return False, "pi does not sum to one"
    return True, f"detailed balance exact on {trials} random ladders"


def check_coefficient_cross(level: str):
    rng = random.Random(7)
    trials = 4 if level == "quick" else 10
    for _ in range(trials):
        n = rng.randint(3, 7)
        ladder = _rand_ladder(rng, n)
        table = charpoly.coefficient_table(ladder, kmax=n + 1)
        for j in range(1, n + 2):
            if charpoly.c1_explicit(ladder, j) != table.c(1, j):
                return False, f"c1({j}) explicit != recursion"
        for j in range(2, n + 2):
            if charpoly.c2_explicit(ladder, j) != table.c(2, j):
                return False, f"c2({j}) explicit != recursion"
        for m in range(4):
            band = charpoly.diag_band_coeffs(ladder, m)
            for j in range(m, n + 2):
                if band[j] != table.c(j - m, j):
                    return False, f"band m={m} j={j} mismatch"
    return True, f"explicit forms equal the recursion on {trials} random ladders"


def check_taylor_identities(level: str):
    """B_j(n) from the defining sum equals the alternating binomial form,
    obeys the size recursion B_{j+1}(n) = B_{j+1}(n-1) + j B_j(n) -
    (n-1)!/(n-j)! and has B_1 = H_n, exactly."""
    n_top = 12 if level == "quick" else 30
    prev = ()  # B(n-1) padded with B_n(n-1) = 0
    for n in range(1, n_top + 1):
        row = sis.taylor_coeffs(n)
        if list(row) != sis._taylor_row_alternating(n):
            return False, f"alternating form disagrees at n={n}"
        for j in range(1, n):
            drop = Fraction(math.factorial(n - 1), math.factorial(n - j))
            if row[j] != prev[j] + j * row[j - 1] - drop:
                return False, f"size recursion fails at j={j + 1}, n={n}"
        if row[0] != sum(Fraction(1, k) for k in range(1, n + 1)):
            return False, f"B_1({n}) != H_{n}"
        prev = row + (0,)
    return True, f"coefficient identities exact up to n={n_top}"


def check_lifetime_four_way(level: str):
    sizes = (6, 12) if level == "quick" else (6, 12, 20)
    for n in sizes:
        for tau in (Fraction(1, 2 * n), Fraction(1, n), Fraction(2, n), Fraction(3, n)):
            direct = sis.lifetime_direct(n, tau)
            if direct != sis.lifetime_taylor(n, tau):
                return False, f"taylor != direct at n={n} tau={tau}"
            if tau * n > 1:
                rel = abs(sis.lifetime_expint(n, tau) - to_float(direct)) / to_float(direct)
                if rel > 1e-6:
                    return False, f"expint off by {rel:.2e} at n={n} tau={tau}"
    if level == "full":
        ratio = sis.lifetime_asymptotic(50, 2) / to_float(sis.lifetime_direct(50, Fraction(2, 50)))
        if not 0.8 < ratio < 1.2:
            return False, f"asymptotic ratio {ratio} out of band at n=50"
    return True, "direct == taylor exactly; expint within 1e-6 on its domain"


def check_hitting_time(level: str):
    n_top = 12 if level == "quick" else 20
    for n in (2, n_top):
        for tau in (Fraction(1, 2 * n), Fraction(2, n)):
            params = sis.EpsSisParams.from_tau(n, tau, Fraction(1), 0)
            h = oracle.hitting_time_solve(params.ladder())
            if h[-1] != sis.lifetime_direct(n, tau):
                return False, f"h_n != F at n={n} tau={tau}"
    return True, "hitting-time solve equals the closed-form lifetime exactly"


def check_newton_vs_dense(level: str):
    rng = random.Random(99)
    trials = 3 if level == "quick" else 8
    n_top = 10 if level == "quick" else 16
    for _ in range(trials):
        ladder = _rand_ladder(rng, rng.randint(3, n_top))
        coeffs = charpoly.char_coeffs(ladder)
        sums = charpoly.newton_sums(coeffs)
        nz = oracle.dense_spectrum(ladder)[1:]  # drop the exact-zero eigenvalue
        with mp.workprec(128):
            for got, want in (
                (sums.sum_z, sum(nz)),
                (sums.prod_neg_z, math.prod([-z for z in nz], start=mp.mpf(1))),
                (sums.sum_inv_z, sum(1 / z for z in nz)),
            ):
                if abs(to_mpf(got) - want) > 1e-10 * max(1, abs(want)):
                    return False, f"power sum off: {to_float(got)} vs {float(want)}"
    return True, f"Newton power sums match the spectrum on {trials} ladders"


def check_expint(level: str):
    """The orders g_k = e^x E_k(x) that `lifetime_expint` integrates: the
    recursion residual |k g_{k+1} + x g_k - 1| <= 1e-12, the bracket
    1/(x+k) < g_k <= 1/(x+k-1), and mpmath's expint within 1e-14 relative,
    at 80 + ceil(1.5 x) bits since expint(k, x) loses about 1.5 x bits."""
    top = 40 if level == "quick" else 100
    for x in (0.1, 1.0, 10.0):
        with mp.workprec(80 + math.ceil(1.5 * x)):
            xm = mp.mpf(x)
            g = [mp.mpf(v) for v in sis._scaled_orders(top, x)]
            scale = mp.exp(xm)
            for k, gk in enumerate(g, start=1):
                if k < top:
                    resid = abs(k * g[k] + xm * gk - 1)
                    if resid > 1e-12:
                        return False, f"recursion residual {float(resid):.2e} at k={k} x={x}"
                if not 1 / (xm + k) < gk <= 1 / (xm + k - 1):
                    return False, f"bracket broken at k={k} x={x}"
                ref = mp.expint(k, xm) * scale
                if abs(gk - ref) > 1e-14 * ref:
                    return False, f"{float(abs(gk - ref) / ref):.2e} from mpmath at k={k} x={x}"
    return True, "recursion residuals <= 1e-12, bounds hold, mpmath agrees to 1e-14"


def check_zeta_vs_dense(level: str):
    rng = random.Random(2024)
    trials = 3 if level == "quick" else 6
    for _ in range(trials):
        ladder = _rand_ladder(rng, rng.randint(3, 9))
        ctx = decay.PrecisionCtx()
        z = decay.exact_zeta(ladder, ctx)
        spec = oracle.dense_spectrum(ladder, ctx)
        with mp.workprec(ctx.mantissa_bits):
            tol = oracle.sturm_tol(ctx)
            if abs(z - spec[1]) > 10 * tol:
                return False, f"zeta {to_float(z)} != dense second {float(spec[1])}"
            if any(e > tol for e in spec):
                return False, "positive eigenvalue in a generator spectrum"
    return True, f"exact_zeta matches the dense spectrum on {trials} ladders"


def check_zeta_lifetime_product(level: str):
    n, x = 100, Fraction(2)
    params = sis.EpsSisParams.from_x(n, x, Fraction(1), 0)
    sub = chain.restrict_transient(params.ladder())
    z = decay.exact_zeta(sub)
    lifetime = sis.lifetime_direct(n, params.tau)
    with mp.workprec(128):
        resid = abs(to_mpf(z) * to_mpf(lifetime) + 1)
        if resid > 1e-6:
            return False, f"|zeta*F+1| = {float(resid):.2e} at n=100 x=2"
    return True, f"|zeta*F+1| = {float(resid):.2e} at n=100 x=2"


def check_gillespie_mean(level: str):
    params = sis.EpsSisParams.from_tau(6, Fraction(1, 20), Fraction(1), 0)
    res = oracle.gillespie_simulate(params, runs=20000, seed=1234, time_budget_s=120)
    want = to_float(sis.lifetime_direct(6, Fraction(1, 20)))
    pull = abs(res.mean - want) / res.stderr
    if pull > 4:
        return False, f"simulated mean {res.mean:.4f} is {pull:.1f} stderr from {want:.4f}"
    zeta = to_float(decay.exact_zeta(chain.restrict_transient(params.ladder())))
    off = abs(oracle.survival_log_slope(res.times) - zeta) / abs(zeta)
    if off > 0.1:
        return False, f"survival-tail slope {off:.1%} from zeta {zeta:.4f}"
    return True, f"mean within {pull:.2f} stderr of the lifetime, tail slope {off:.1%} from zeta"


QUICK_CHECKS = [
    ("small-spectrum-exact", check_small_spectrum_exact),
    ("bound-ordering", check_bound_ordering),
    ("steady-state-balance", check_steady_state_balance),
    ("coefficient-cross-checks", check_coefficient_cross),
    ("taylor-identities", check_taylor_identities),
    ("lifetime-four-way", check_lifetime_four_way),
    ("hitting-time-equality", check_hitting_time),
    ("newton-vs-dense", check_newton_vs_dense),
    ("expint-recursion-bracket", check_expint),
    ("zeta-vs-dense", check_zeta_vs_dense),
]

FULL_CHECKS = QUICK_CHECKS + [
    ("zeta-lifetime-product", check_zeta_lifetime_product),
    ("gillespie-mean", check_gillespie_mean),
]


def run_suite(level: str = "quick"):
    """Run all checks for the level; returns a summary dict."""
    if level not in ("quick", "full"):
        raise ValueError("level must be 'quick' or 'full'")
    checks = QUICK_CHECKS if level == "quick" else FULL_CHECKS
    results = []
    for name, fn in checks:
        try:
            ok, detail = fn(level)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"exception: {exc!r}"
        results.append({"name": name, "ok": bool(ok), "detail": detail})
    failures = [r["name"] for r in results if not r["ok"]]
    return {
        "level": level,
        "n_checks": len(results),
        "passed": len(results) - len(failures),
        "failed": len(failures),
        "first_failure": failures[0] if failures else None,
        "checks": results,
    }
