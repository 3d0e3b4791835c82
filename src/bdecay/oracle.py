"""Independent ground-truth generators: Sturm-sequence eigenvalues (the
decay parameter and the full spectrum), hitting times, and event-driven
stochastic simulation.

These are the package's internal referees: each one reaches the quantities of
interest by a route disjoint from the closed forms it is used to check.
`sturm_zeta` and `dense_spectrum` share one refinement: each eigenvalue is
the midpoint of a bracket that mpf Sturm counts certify, closed by Illinois
regula falsi on det(A - xI) once it isolates the eigenvalue and by
bisection before.  It runs twice: a float pass brackets each eigenvalue in
double precision, and mpf sweeps on either side of each float bracket
seed the mpf pass, which certifies and closes the brackets.  The seeds
are proposals only; where they isolate nothing, or there are none, the
mpf pass bisects (Barth, Martin & Wilkinson, Numer. Math. 9, 1967;
Illinois steps: Dowell & Jarratt, BIT 11, 1971).  The mpf sweeps run on
mpmath's binary mpf values and the Perron kernel on C `decimal`: they
share no arithmetic library.  Hitting times run on the Perron kernel's
elimination, which shares nothing with the closed-form lifetime they referee.
Simulation runs Gillespie's direct method on one standard-library Mersenne
Twister stream per (seed, run index) (Matsumoto & Nishimura, ACM TOMACS 8,
1998).  `sturm_zeta`, `dense_spectrum`, `sturm_tol` and `survival_log_slope`
are not re-exported by the package.
"""

from __future__ import annotations

import math
import random
import sys
import time
from bisect import bisect_left
from dataclasses import dataclass

import mpmath
from mpmath import mp
from mpmath.libmp import fone, fzero, mpf_div, mpf_mul, mpf_neg, mpf_shift, mpf_sub, round_nearest

from ._numbers import to_float, to_fraction, to_mpf
from .chain import GENERATOR, RateLadder, restrict_transient
from .decay import (
    PrecisionCtx,
    _decay_index,
    _irreducible_blocks,
    _m_matrix_rates,
    _shifted_solve,
)
from .errors import InvalidParameterError, PrecisionExhaustedError, UnsupportedStructureError
from .sis import EpsSisParams

DENSE_LIMIT = 64
_STALLS = 3
_FLOAT_BITS = 40
_FLOAT_TINY = sys.float_info.min

# ---------------------------------------------------------------------------
# Sturm sequences: the referee of the production Perron kernel
# ---------------------------------------------------------------------------


def _sturm_arrays(ladder: RateLadder):
    """(diag, offdiag^2) of the shifted working matrix as mpf arrays.

    Sums and products are formed exactly, on each rate's exact value
    (`to_fraction`), and rounded once at the end, at the working precision
    the caller has set.
    """
    up = [*map(to_fraction, ladder.up), 0]
    down = [0, *map(to_fraction, ladder.down)]
    diag = [-(p + q) for p, q in zip(up, down)]
    diag[0] -= to_fraction(ladder.loss0)
    offsq = [up[j - 1] * down[j] for j in range(1, ladder.n_states)]
    return [to_mpf(d) for d in diag], [to_mpf(s) for s in offsq]


def _sweep(diag, offsq, x, tiny):
    """(x, count, det): the number of eigenvalues strictly below x, and det(A - xI).

    Pivot recursion d_0 = a_0 - x, d_i = (a_i - x) - p_{i-1} q_i / d_{i-1}
    on the symmetric form of the matrix: the off-diagonal enters only through
    the exact products p_{i-1} q_i, so no square roots are taken.  A zero
    pivot is nudged to -tiny; the count is the number of negative pivots and
    the determinant is their product.
    """
    d = diag[0] - x
    if d == 0:
        d = -tiny
    count = int(d < 0)
    det = d
    for a, s in zip(diag[1:], offsq):
        d = (a - x) - s / d
        if d == 0:
            d = -tiny
        if d < 0:
            count += 1
        det *= d
    return x, count, det


def _raw_sweep(diag, offsq, x, tiny, prec):
    """`_sweep` on raw mpf values (mpmath's `_mpf_` tuples), each operation
    rounded to nearest at prec: the values the mpf operators give at
    mp.prec = prec, without an mpf object per operation.
    """
    neg_tiny = mpf_neg(tiny)
    d = mpf_sub(diag[0], x, prec, round_nearest)
    if d == fzero:
        d = neg_tiny
    count = d[0]  # the sign bit: 1 for a negative pivot (a zero is fzero)
    det = d
    for a, s in zip(diag[1:], offsq):
        q = mpf_div(s, d, prec, round_nearest)
        d = mpf_sub(mpf_sub(a, x, prec, round_nearest), q, prec, round_nearest)
        if d == fzero:
            d = neg_tiny
        count += d[0]
        det = mpf_mul(det, d, prec, round_nearest)
    return x, count, det


def _enclosure(sweep, scale, one, n):
    """[lo, hi]: sweep points with counts 0 and n, from -4 scale and one,
    each doubled until its count encloses the spectrum.
    """
    lo = sweep(-4 * scale)
    while lo[1] > 0:
        lo = sweep(2 * lo[0])
    hi = sweep(one)  # generator shifts are <= 0
    while hi[1] < n:
        hi = sweep(2 * hi[0])
    return [lo, hi]


def _refine(sweep, points, ks, tol, strict=True):
    """Midpoints of brackets [lo, hi] of the eigenvalues of ranks ks
    (1-indexed, smallest first, ascending), with count(lo) < k <= count(hi)
    and hi - lo <= tol.

    points holds sweep points (x, count, det) sorted by x, with counts 0 and
    n at its ends; every new point is kept, so each one narrows the bracket
    of every later rank.  Once a bracket isolates its eigenvalue (counts
    k - 1 and k), the next point is the Illinois regula falsi point on
    det(A - xI), at least tol/2 inside either end so that the bracket can
    close to width tol.  Otherwise, as at a repeated eigenvalue, the step
    bisects; so does a step whose clamped point rounds onto an end or is not
    a number, and the step after _STALLS Illinois steps in a row that each
    left the bracket wider than half, so the bracket halves at least once in
    every _STALLS + 1 sweeps.  A bisection point that rounds onto an end
    raises PrecisionExhaustedError, or with strict=False leaves that rank
    the bracket it has.
    """
    half = tol / 2
    eigs = []
    for k in ks:
        i = bisect_left(points, k, key=lambda p: p[1])  # counts: points[i - 1] < k <= points[i]
        lo, hi = points[i - 1], points[i]
        flo, fhi, kept, stalls = lo[2], hi[2], None, 0
        while (width := hi[0] - lo[0]) > tol:
            # det has the sign (-1)^count, so counts k - 1 and k give a sign
            # change; a float det can underflow to 0 on both ends
            illinois = lo[1] == k - 1 and hi[1] == k and stalls < _STALLS and flo != fhi
            if illinois:
                x = hi[0] - fhi * width / (fhi - flo)
                x = min(max(x, lo[0] + half), hi[0] - half)
                # within an ulp of an end the clamped point can round onto it
                illinois = lo[0] < x < hi[0]
            if not illinois:
                x = (lo[0] + hi[0]) / 2
                if not lo[0] < x < hi[0]:
                    if not strict:
                        break
                    raise PrecisionExhaustedError(
                        f"Sturm bracket cannot close to {mpmath.nstr(tol, 5)} at {mp.prec} bits"
                    )
            point = sweep(x)
            points.insert(i, point)
            # Illinois: an end kept a second time in a row has its weight halved
            if point[1] >= k:
                hi, fhi = point, point[2]
                if illinois and kept == "lo":
                    flo /= 2
                kept = "lo" if illinois else None
            else:
                lo, flo = point, point[2]
                i += 1
                if illinois and kept == "hi":
                    fhi /= 2
                kept = "hi" if illinois else None
            stalls = stalls + 1 if illinois and hi[0] - lo[0] > width / 2 else 0
        eigs.append((lo[0] + hi[0]) / 2)
        del points[: i - 1]  # later ranks have their brackets at or above lo
    return eigs


def _float_seeds(diag, offsq, scale, ks):
    """Sweep points proposed for the mpf pass: the float midpoint of each
    rank in ks, plus and minus the float bracket width scale * 2^-_FLOAT_BITS.

    `_refine` runs on float copies of the arrays, with strict=False: it
    never raises, and a rank whose float bracket cannot close keeps the
    bracket it has.  There are no seeds when a float copy is not finite.
    """
    fdiag, foffsq, fscale = [float(d) for d in diag], [float(s) for s in offsq], float(scale)
    if not all(map(math.isfinite, fdiag + foffsq + [fscale])):
        return []
    width = math.ldexp(fscale, -_FLOAT_BITS)

    def sweep(x):
        return _sweep(fdiag, foffsq, x, _FLOAT_TINY)

    points = _enclosure(sweep, fscale, 1.0, len(fdiag))
    mids = _refine(sweep, points, ks, width, strict=False)
    return sorted({x for m in mids for x in (m - width, m + width) if math.isfinite(x)})


def _sturm_eigenvalues(ladder: RateLadder, ks, tol):
    """Eigenvalues of ranks ks (1-indexed, smallest first, ascending), at the
    working precision, each the midpoint of a bracket [lo, hi] with
    count(lo) < k <= count(hi) and hi - lo <= tol, where mpf Sturm counts
    certify both ends (`_refine`).

    Two passes of one refinement.  The float pass (`_float_seeds`) brackets
    each rank in double precision; the mpf pass starts from a Gershgorin-
    sized bracket, doubled until the counts enclose the spectrum, plus an
    mpf sweep at each float seed.  A seeded bracket that isolates its
    eigenvalue closes in a few Illinois steps; where none does (a cluster
    below float resolution, a repeated eigenvalue, a decay parameter below
    double range) or there are no seeds, the mpf pass bisects as before.
    The mpf sweeps run on raw values (`_raw_sweep`), converted once.
    """
    diag, offsq = _sturm_arrays(ladder)
    prec = mp.prec
    rdiag, roffsq = [d._mpf_ for d in diag], [s._mpf_ for s in offsq]
    tiny = mpf_shift(fone, -2 * prec)

    def sweep(x):
        _, count, det = _raw_sweep(rdiag, roffsq, x._mpf_, tiny, prec)
        return x, count, mp.make_mpf(det)

    scale = max(abs(d) for d in diag) + 1
    points = _enclosure(sweep, scale, mp.one, len(diag))
    points += [sweep(mp.mpf(x)) for x in _float_seeds(diag, offsq, scale, ks)]
    points.sort(key=lambda p: p[0])
    return _refine(sweep, points, ks, tol)


def sturm_tol(ctx: PrecisionCtx):
    """The Sturm brackets' absolute width at ctx: the mpf 2^-(mantissa_bits // 2)."""
    return mpmath.ldexp(mp.one, -(ctx.mantissa_bits // 2))


def _check_resolved(zeta, ladder: RateLadder, ctx: PrecisionCtx):
    """Raise PrecisionExhaustedError when |zeta| <= max(tol, max out-rate
    2^-(mantissa_bits - 24) n), the round-off floor of a Sturm bracket of
    absolute width sturm_tol(ctx) at the working precision.
    """
    n = ladder.n_states
    scale = to_mpf(max(ladder.out_rate(j) for j in range(n)))
    floor = max(scale * mp.mpf(2) ** (-(ctx.mantissa_bits - 24)) * n, sturm_tol(ctx))
    if abs(zeta) <= floor:
        raise PrecisionExhaustedError(
            f"|zeta| <= resolution floor {mpmath.nstr(floor, 5)} "
            f"at {ctx.mantissa_bits} bits; raise the precision"
        )


def sturm_zeta(ladder: RateLadder, ctx: PrecisionCtx | None = None):
    """Decay parameter by its index in the Sturm sequence (referee route).

    Same contract as `decay.exact_zeta`, with its admissibility checks,
    closed-class rule and eigenvalue index (`decay._decay_index`,
    `decay._irreducible_blocks`).  The index selects the second-largest
    eigenvalue of an irreducible ladder and the largest of a restricted
    sub-generator, which stays correct when the decay parameter clusters
    exponentially close to the zero eigenvalue.  Returns the midpoint of a
    bracket of width <= sturm_tol(ctx) that mpf Sturm counts at
    ctx.mantissa_bits certify (`_sturm_eigenvalues`): a float pass seeds
    the bracket, then Illinois steps on the determinant close it, or
    bisection until it isolates the eigenvalue; a few O(n) mpf sweeps where
    bisection took about mantissa_bits/2.
    That width is absolute, so a decay parameter within the round-off floor
    of 0 raises PrecisionExhaustedError (`_check_resolved`); size the bits
    by `decay.required_precision`.
    """
    ctx = ctx or PrecisionCtx()
    k = _decay_index(ladder)
    _irreducible_blocks(*_m_matrix_rates(ladder))  # raises for a closed class
    with mp.workprec(ctx.mantissa_bits):
        (zeta,) = _sturm_eigenvalues(ladder, [k], sturm_tol(ctx))
        _check_resolved(zeta, ladder, ctx)
        return +zeta


def dense_spectrum(ladder: RateLadder, ctx: PrecisionCtx | None = None):
    """All eigenvalue shifts of the ladder matrix, sorted descending.

    Root isolation on the degree-(N+1) polynomial of the matrix via Sturm
    sign counts: each eigenvalue is extracted by index, so clustered values
    come out with their multiplicities.  Works for reducible ladders (zero
    off-diagonal products decouple the blocks).  Each value is the midpoint
    of a bracket of width <= sturm_tol(ctx) that mpf Sturm counts at
    ctx.mantissa_bits certify; a float pass seeds every bracket, and every
    mpf sweep narrows the brackets of the ranks still to come
    (`_sturm_eigenvalues`).
    """
    ctx = ctx or PrecisionCtx()
    n = ladder.n_states
    if n - 1 > DENSE_LIMIT:
        raise InvalidParameterError(f"dense spectrum is limited to N <= {DENSE_LIMIT}")
    with mp.workprec(ctx.mantissa_bits):
        eigs = _sturm_eigenvalues(ladder, range(1, n + 1), sturm_tol(ctx))
        return list(reversed([+e for e in eigs]))


def hitting_time_solve(ladder: RateLadder):
    """Mean absorption times h_j = E[T | start j], j = 1..N, exactly.

    The ladder must have its absorbing state at 0 (p_0 = 0, generator mode)
    or be restricted.  Solves -Q_S h = 1 by the Perron kernel's subtraction-
    free elimination at shift 0 (`decay._shifted_solve`): exact for rational
    rates, and float rates keep their relative accuracy above threshold.
    Returns a tuple, () for a one-state ladder.  h_N equals the closed-form
    mean lifetime for the complete-graph epidemic.
    """
    base = ladder.embedded()
    if base.mode != GENERATOR or base.up_rate(0) != 0:
        raise UnsupportedStructureError("hitting times need an absorbing state 0")
    n = base.n_states - 1  # transient states 1..n
    if n == 0:
        return ()
    if any(base.down_rate(j) == 0 for j in range(1, n + 1)):
        raise UnsupportedStructureError("a zero down-rate disconnects the transient class")
    sub = ladder if ladder.is_subgenerator else restrict_transient(ladder)
    down, up = _m_matrix_rates(sub)
    return tuple(_shifted_solve(down, up, 0, [1] * n))


@dataclass(frozen=True)
class GillespieResult:
    """Absorption-time samples plus summary statistics.

    times[i] is the absorption time of run i (run order, not completion
    order).  budget_exhausted marks a partial result cut off by the
    wall-clock budget.
    """

    times: tuple[float, ...]
    start_state: int
    seed: int
    mean: float
    stderr: float
    runs_requested: int
    runs_completed: int
    budget_exhausted: bool
    metadata: dict


def gillespie_simulate(
    params: EpsSisParams,
    start: int | None = None,
    runs: int = 10_000,
    seed: int = 0,
    time_budget_s: float = 60.0,
) -> GillespieResult:
    """Event-driven simulation of the epidemic until extinction, by
    Gillespie's direct method (J. Phys. Chem. 81, 1977).

    Requires eps = 0 (guaranteed absorption).  Run r draws from
    `random.Random(f"{seed}:{r}")`: in state s each event first waits
    -log(1 - U)/(lambda_s + mu_s), then is a birth if a second uniform falls
    below lambda_s/(lambda_s + mu_s).  Fixed seeds give bit-identical
    samples on every Python version (a str seed is hashed the same way by
    all of them), and the first k runs do not depend on how many are
    requested.  Above the threshold the mean lifetime explodes
    exponentially in n, so simulation is only sensible below or near
    threshold: the wall-clock budget aborts with partial results flagged
    rather than hanging.
    """
    import statistics

    if params.eps != 0:
        raise InvalidParameterError("simulation requires eps = 0 (absorbing chain)")
    if runs < 1:
        raise InvalidParameterError("runs must be >= 1")
    n = params.n
    start = n if start is None else int(start)
    if not 0 < start <= n:
        raise InvalidParameterError("start state must lie in 1..n")
    beta, delta = to_float(params.beta), to_float(params.delta)
    inv_tot, p_birth = [0.0] * (n + 1), [0.0] * (n + 1)
    for j in range(n + 1):
        lam, mu = beta * j * (n - j), delta * j
        if lam + mu > 0:
            inv_tot[j] = 1.0 / (lam + mu)
            p_birth[j] = lam * inv_tot[j]
    log = math.log
    times = []
    deadline = time.monotonic() + time_budget_s
    for r in range(runs):
        if r % 64 == 0 and time.monotonic() > deadline:
            break
        uniform = random.Random(f"{seed}:{r}").random
        t, s = 0.0, start
        while s:
            t -= log(1.0 - uniform()) * inv_tot[s]
            s += 1 if uniform() < p_birth[s] else -1
        times.append(t)
    completed = len(times)
    mean = math.fsum(times) / completed if completed else math.nan
    stderr = statistics.stdev(times) / math.sqrt(completed) if completed > 1 else math.nan
    return GillespieResult(
        times=tuple(times),
        start_state=start,
        seed=seed,
        mean=mean,
        stderr=stderr,
        runs_requested=runs,
        runs_completed=completed,
        budget_exhausted=completed < runs,
        metadata={
            "algorithm": "random.Random (MT19937 Mersenne Twister, Python standard library)",
            "stream_derivation": (
                'run r: u = random.Random(f"{seed}:{r}").random; per event in state s, '
                "with w = 1/(lambda_s + mu_s): t -= log(1 - u())*w, "
                "then s += 1 if u() < lambda_s*w else -1"
            ),
        },
    )


def survival_log_slope(times) -> float:
    """Least-squares slope of log Pr[T > t] over the sample tail between the
    0.5 and 0.99 quantiles: past the median the start-up transient has
    faded, and the last 1%, too few samples for a stable log, is left out.
    """
    import statistics

    srt = sorted(times)
    m = len(srt)
    lo, hi = int(0.5 * m), int(0.99 * m)
    if hi - lo < 4:
        raise InvalidParameterError("too few tail points for a slope fit")
    logs = [math.log(1.0 - (i + 1) / m) for i in range(lo, hi)]
    return statistics.linear_regression(srt[lo:hi], logs).slope
