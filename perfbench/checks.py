"""Output checks against references computed here, independently of bdecay.

Every check returns None when the output is right and a one-line message
when it is wrong.  The references use only the SIS rates

    p_j = (beta*j + eps)*(n - j),   q_j = delta*j,

built in this file, and numpy or mpmath; none of them calls into bdecay.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from mpmath import mp

# Relative tolerance of a float64 eigvalsh reference.  Observed errors on the
# sweep grid and the absorbing ladders stay below 1e-11.
EIGVALSH_RTOL = 1e-9
# Compare against eigvalsh only where |zeta| exceeds this share of the matrix
# norm, i.e. lies ten orders of magnitude above float64 resolution.
EIGVALSH_MIN_SCALE = 1e-6
# |zeta*F + 1| bound for the paper's product identity (x >= 2, n >= 100).
ZETA_F_TOL = 1e-6
# Tolerance between the exponential-integral route and the exact lifetime,
# the same one `bdecay validate` applies.
EXPINT_RTOL = 1e-6
# Gillespie mean must lie within this many standard errors of the exact F.
GILLESPIE_PULL = 4.0
# Green's-function reference for exact lifetimes, in mpmath bits.
GREEN_BITS = 96
GREEN_RTOL = 1e-20
# Dense-spectrum sum against the exact trace, relative.
TRACE_RTOL = 1e-12


def sis_rates(n: int, beta, delta, eps=0):
    """Up-rates p_0..p_{n-1} and down-rates q_1..q_n of the SIS chain on K_n."""
    up = [(beta * j + eps) * (n - j) for j in range(n)]
    down = [delta * j for j in range(1, n + 1)]
    return up, down


def sym_matrix(n: int, beta, delta, eps=0, absorbing=False):
    """Symmetrized generator as a float64 array.

    absorbing=True gives the block on the transient states 1..n of the eps = 0
    chain (state 0 removed); otherwise the full irreducible generator on
    0..n.
    """
    up, down = sis_rates(n, beta, delta, eps)
    up = [float(v) for v in up]
    down = [float(v) for v in down]
    if absorbing:
        # states 1..n: out-rate p_j + q_j, coupling p_j q_{j+1}
        diag = [-(up[j] + down[j - 1]) if j < n else -down[n - 1] for j in range(1, n + 1)]
        off = [math.sqrt(up[j] * down[j]) for j in range(1, n)]
    else:
        diag = [-((up[j] if j < n else 0.0) + (down[j - 1] if j else 0.0)) for j in range(n + 1)]
        off = [math.sqrt(up[j] * down[j]) for j in range(n)]
    a = np.diag(np.array(diag))
    o = np.array(off)
    a += np.diag(o, 1) + np.diag(o, -1)
    return a


def zeta_vs_eigvalsh(zeta: float, a: np.ndarray, absorbing: bool):
    """Compare zeta with the eigvalsh decay parameter of the symmetrized matrix.

    Only meaningful where check_applies(zeta, a) holds.
    """
    eigs = np.linalg.eigvalsh(a)
    ref = eigs[-1] if absorbing else eigs[-2]
    rel = abs(zeta - ref) / abs(ref)
    if rel > EIGVALSH_RTOL:
        return f"zeta {zeta!r} differs from eigvalsh {ref!r} by {rel:.2e} relative"
    return None


def check_applies(zeta: float, a: np.ndarray) -> bool:
    """True when |zeta| lies far enough above float64 resolution of a."""
    norm = float(np.abs(a).sum(axis=1).max())
    return abs(zeta) >= EIGVALSH_MIN_SCALE * norm


def green_lifetime(n: int, beta, delta, bits: int = GREEN_BITS):
    """Mean absorption time from state n of the eps = 0 chain, in mpmath.

    Birth-death Green's function with the backward sums
    S_n = 1, S_k = 1 + (p_k/q_{k+1}) S_{k+1}, F = sum_k S_k/q_k:
    every term is positive, so no digits cancel.
    """
    with mp.workprec(bits):
        b, d = _mpf(beta), _mpf(delta)
        s = mp.mpf(1)
        total = s / (d * n)
        for k in range(n - 1, 0, -1):
            s = 1 + (b * k * (n - k)) / (d * (k + 1)) * s
            total += s / (d * k)
        return total


def _mpf(v):
    if isinstance(v, Fraction):
        return mp.mpf(v.numerator) / v.denominator
    return mp.mpf(v)


def lifetime_vs_green(value, n: int, beta, delta):
    with mp.workprec(GREEN_BITS):
        ref = green_lifetime(n, beta, delta)
        rel = abs(_mpf(value) - ref) / ref
        if rel > GREEN_RTOL:
            return f"lifetime at n={n} differs from the Green's-function sum by {float(rel):.2e}"
    return None


def decay_point(zeta, ordering_ok: bool):
    """Properties every decay report must have: zeta < 0 and the bound ordering."""
    if not zeta < 0:
        return f"zeta {zeta} is not negative"
    if not ordering_ok:
        return "bound ordering zeta <= newton <= -f0/f1 < 0 violated"
    return None


def zeta_lifetime_product(zeta, lifetime, bits: int):
    """|zeta*F + 1| <= ZETA_F_TOL, evaluated at the report's precision."""
    with mp.workprec(bits):
        resid = abs(_mpf(zeta) * _mpf(lifetime) + 1)
        if resid > ZETA_F_TOL:
            return f"|zeta*F + 1| = {float(resid):.2e} > {ZETA_F_TOL}"
    return None


def exact_equal(a, b, what: str):
    if a != b:
        return f"{what}: the exact values differ"
    return None


def expint_vs_direct(expint, direct):
    """The expint route within EXPINT_RTOL of the exact lifetime."""
    if expint is None:
        return "expint route returned no value"
    ref = float(direct)
    rel = abs(expint - ref) / ref
    if rel > EXPINT_RTOL:
        return f"expint off by {rel:.3e} relative (> {EXPINT_RTOL})"
    return None


def gillespie_mean(mean: float, stderr: float, exact):
    pull = abs(mean - float(exact)) / stderr
    if not pull <= GILLESPIE_PULL:
        return f"simulated mean {mean!r} is {pull:.1f} stderr from the exact {float(exact)!r}"
    return None


def sis_trace(n: int, beta, delta, eps):
    """Exact trace of the generator: -sum_j (p_j + q_j)."""
    up, down = sis_rates(n, beta, delta, eps)
    return -(sum(up) + sum(down))


def spectrum_sum(eigs, trace):
    with mp.workprec(128):
        total = mp.fsum(eigs)
        ref = _mpf(trace)
        rel = abs(total - ref) / abs(ref)
        if rel > TRACE_RTOL:
            return f"spectrum sums to {mp.nstr(total, 17)}, trace is {mp.nstr(ref, 17)}"
    return None


def suite_passed(summary: dict):
    if summary["failed"] != 0:
        return f"validate suite: {summary['failed']} failed, first {summary['first_failure']}"
    return None


def same_bytes(a: bytes, b: bytes, what: str):
    if a != b:
        common = min(len(a), len(b))
        at = next((i for i in range(common) if a[i] != b[i]), common)
        return f"{what}: outputs differ from byte {at}"
    return None
