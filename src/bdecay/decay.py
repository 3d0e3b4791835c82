"""Decay parameter: Lagrange approximations, analytic bounds, exact eigenvalue.

The exact value is -lambda_1, the smallest eigenvalue of an M-matrix M whose
inverse is the birth-death Green's function (a positive matrix):

* a restricted sub-generator gives M = -Q_S;
* an irreducible ladder gives its Siegmund dual, a killed birth-death chain
  one state shorter whose spectrum is the nonzero spectrum of -Q.

One kernel serves both: shifted inverse (Perron) iteration.  Each step
solves (M - sI) y = v by tri-diagonal elimination in row-sum (GTH) form,
subtraction-free at s = 0, and the Collatz-Wielandt ratios v/y bracket
lambda_1 - s for any positive v.  Shifting below the certified lower bound
keeps M - sI an M-matrix, so lambda_1 stays resolved when it is
exponentially close to 0.  Its independent referee, Sturm-certified
eigenvalue brackets, lives in `oracle`.

A float prelude walks the shift from 0 up to lambda_1 in double precision;
the iteration at working precision starts from its shift and Perron vector,
and only its own ratios form the returned bracket.  When zeta or the Perron
vector leaves double range the prelude gives no start, and a start that
does not factorise restarts from shift 0 and the ones vector.  Either way
the iteration stops on one rule: the bracket is within 2^-(bits - 40) of
lambda_1, relative to lambda_1.  The elimination is subtraction-free (Alfa,
Xue & Ye, Math. Comp. 71, 2002), so this relative width is reachable at a
fixed working precision, PrecisionCtx's 128 bits by default, whatever the
size of the ladder or the scale of zeta.

The working precision is decimal: the iteration runs in CPython's C
`decimal` with the fewest digits whose unit roundoff is at most 2^-bits
(40 digits at 128 bits), every operation rounded to nearest, over an
exponent range no zeta leaves.  The same generic `_factor`, `_substitute`,
`_collatz_wielandt` and `_next_shift` run the float prelude, the decimal
iteration, and the exact Fraction solve of `oracle.hitting_time_solve`.  The
bracket ends come back as mpf at `bits`, so `precision_bits` keeps its
meaning in every output.  The Sturm referee in `oracle` stays on mpmath's
binary arithmetic, so kernel and referee share no arithmetic library.

`decay_report` makes one decimal pass per ladder: each rate becomes a
Decimal once, and the kernel and the characteristic coefficients f_0..f_3
(`charpoly`'s rows and Horner sums) both run on those Decimals; the Lagrange
orders and the Newton bound follow in the same context.  The coefficient
recursion never subtracts, so each f_k is within O(n) roundings of its exact
value.  The exact route, `char_coeffs` with `lagrange_zeta` and
`newton_bound`, referees it in the tests and gives `--exact` its values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import (
    MAX_EMAX,
    MIN_EMIN,
    ROUND_HALF_EVEN,
    Context,
    Decimal,
    DivisionByZero,
    InvalidOperation,
    Overflow,
    localcontext,
)
from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import from_rational, round_nearest

from ._numbers import to_fraction, to_mpf
from .chain import RateLadder
from .charpoly import CharCoeffs, _check_normaliser, _horner_sums
from .errors import (
    InconsistentCoefficientsError,
    InsufficientCoefficientsError,
    PrecisionExhaustedError,
    ReducibleChainError,
)


@dataclass(frozen=True)
class PrecisionCtx:
    """Working precision of the ζ kernel.

    The kernel carries the fewest decimal digits whose unit roundoff is at
    most 2^-mantissa_bits, each operation rounded to nearest, and closes ζ's
    bracket to 2^-(mantissa_bits - 40) |ζ|; its results are mpf at
    `mantissa_bits`.  The Sturm referee's bracket width at this precision is
    `oracle.sturm_tol`.
    """

    mantissa_bits: int = 128

    def __post_init__(self):
        if self.mantissa_bits < 64:
            raise ValueError("mantissa_bits must be at least 64")


def required_precision(n: int, x) -> int:
    """Mantissa bits at which the Sturm referee (`oracle.sturm_zeta`), whose
    brackets close to an absolute width, resolves a decay parameter of order
    x^-(n-1) n: ceil(n * log2(max(x, 2))) + 96, floored at 128.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if x <= 0:
        raise ValueError("x must be positive")
    return max(128, math.ceil(n * math.log2(max(float(x), 2.0))) + 96)


@dataclass(frozen=True)
class DecayReport:
    """All decay-parameter estimates for one ladder."""

    zeta_exact: object
    zeta_lagrange: dict
    zeta_newton_bound: object
    ordering_ok: bool
    precision_bits: int

    def relative_error(self, estimate):
        """|estimate - zeta_exact| / |zeta_exact| as an mpf at precision_bits."""
        with mp.workprec(self.precision_bits):
            return abs((to_mpf(estimate) - self.zeta_exact) / self.zeta_exact)


def lagrange_zeta(coeffs: CharCoeffs, order: int):
    """Series inversion of the characteristic polynomial around xi = 0:

        order 1:  -f0/f1
        order 2:  -f0/f1 - (f2/f1)(f0/f1)^2
        order 3:  ... + [-2 (f2/f1)^2 + f3/f1] (f0/f1)^3

    In the number type of the coefficients: a Fraction from `char_coeffs`,
    a Decimal in the current context from `decay_report`'s Decimal ones.
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    f = coeffs.f
    if len(f) < order + 1 and len(f) < coeffs.n + 1:
        raise InsufficientCoefficientsError(
            f"order-{order} series needs f_0..f_{order}; have {len(f)} coefficients"
        )
    if f[0] <= 0 or f[1] <= 0:
        raise InconsistentCoefficientsError("f0 and f1 must be positive")
    r = f[0] / f[1]
    zeta = -r
    if order >= 2:
        f2 = f[2] if len(f) > 2 else 0 * r
        zeta = zeta - (f2 / f[1]) * r * r
    if order >= 3:
        f2 = f[2] if len(f) > 2 else 0 * r
        f3 = f[3] if len(f) > 3 else 0 * r
        zeta = zeta + (-2 * (f2 / f[1]) ** 2 + f3 / f[1]) * r ** 3
    return zeta


def newton_bound(coeffs: CharCoeffs, mantissa_bits: int):
    """Upper bound on the decay parameter from inverse-square power sums:

        zeta <= -(f0/f1) / sqrt(1 - (2 f2/f0)(f0/f1)^2)

    Returns an mpf (the square root is generally irrational).
    """
    r, radicand = _newton_terms(coeffs)
    with mp.workprec(mantissa_bits):
        return -to_mpf(r) / mp.sqrt(to_mpf(radicand))


def _newton_terms(coeffs: CharCoeffs):
    """(f0/f1, 1 - (2 f2/f0)(f0/f1)^2) of the Newton bound, in the number
    type of the coefficients, the radicand checked positive.
    """
    f = coeffs.f
    if len(f) < 3 and coeffs.n >= 2:
        raise InsufficientCoefficientsError("newton bound needs f_0..f_2")
    f2 = f[2] if len(f) > 2 else 0 * f[0]
    r = f[0] / f[1]
    radicand = 1 - (2 * f2 / f[0]) * r * r
    if radicand <= 0:
        raise InconsistentCoefficientsError(
            "nonpositive radicand: coefficients cannot come from a real-spectrum ladder"
        )
    return r, radicand


# ---------------------------------------------------------------------------
# Perron kernel
# ---------------------------------------------------------------------------


def _m_matrix_rates(ladder: RateLadder):
    """(down, up) rates of the M-matrix whose smallest eigenvalue is -zeta.

    Row i of M has diagonal down_i + up_i, with -down_i left of it and -up_i
    right of it; down_0 and up_{m-1} have no neighbour to reach and act as
    killing.  A restricted sub-generator gives M = -Q_S (killing loss0 at
    state 0).  An irreducible ladder on 0..N gives its Siegmund dual on
    0..N-1: up-rate q_{j+1}, down-rate p_j, so killing p_0 at 0 and q_N at
    N-1; its spectrum is the nonzero spectrum of -Q.
    """
    if ladder.is_subgenerator:
        return (ladder.loss0,) + ladder.down, ladder.up + (0 * ladder.loss0,)
    return ladder.up, ladder.down


def _factor(down, up, s):
    """Multipliers and pivots of M - sI by tridiagonal elimination in row-sum
    (GTH) form, or None when a pivot is not positive: M - sI is then no
    nonsingular M-matrix.

    r_i = (killing_i - s) + w_i r_{i-1} with w_i = down_i / d_{i-1} is the
    row sum left after eliminating rows < i, d_i = r_i + up_i the pivot.  At
    s = 0 every term is positive.
    """
    weights, pivots = [], []
    r = d = 1  # a virtual row before 0 makes w_0 = down_0 the killing rate
    for l, u in zip(down, up):
        w = l / d
        r = w * r - s
        d = r + u
        if d <= 0:
            return None
        weights.append(w)
        pivots.append(d)
    return weights, pivots


def _substitute(factors, up, v):
    """y = (M - sI)^-1 v from `_factor`'s output: a forward pass over v, then
    back-substitution.
    """
    weights, pivots = factors
    sums = []
    g = 0
    for w, vi in zip(weights, v):
        g = vi + w * g
        sums.append(g)
    y = [None] * len(v)
    acc = 0
    for i in range(len(v) - 1, -1, -1):
        acc = (sums[i] + up[i] * acc) / pivots[i]
        y[i] = acc
    return y


def _shifted_solve(down, up, s, v):
    """y = (M - sI)^-1 v, or None when `_factor` finds a non-positive pivot."""
    factors = _factor(down, up, s)
    return None if factors is None else _substitute(factors, up, v)


def _collatz_wielandt(v, y):
    """(min, max) of v/y: for positive v and y = (M - sI)^-1 v they bracket
    lambda_1 - s.
    """
    ratios = [a / b for a, b in zip(v, y)]
    return min(ratios), max(ratios)


_STALL_LIMIT = 16
_FLOAT_STEPS = 32
_FLOAT_WIDTH = 1e-9


def _next_shift(shift, lo, hi):
    """Shift below the certified lower bound shift + lo: by the bracket width
    hi - lo or, while the bracket is wide, 2^-16 of the way short of lo.
    """
    return max(shift, shift + lo - min(hi - lo, lo / 65536))


def _nearest_float(rate):
    """rate rounded to the nearest float, inf above double range."""
    try:
        return float(rate)
    except OverflowError:
        return math.inf


def _float_start(down, up):
    """(shift, v) to start the iteration in the kernel's arithmetic from,
    found by the same iteration on float copies of the rates; None when
    there is no start.

    Each rate is rounded once to the nearest float, and v is normalised to
    max 1 at each step.  The loop ends when the bracket is narrower than
    _FLOAT_WIDTH relative to lambda_1, after _FLOAT_STEPS steps, or at a
    shift that rounding makes fail to factorise.  It returns the next shift,
    lowered by a further 2^-32 of lambda_1 against rounding in the float
    rates and solves.  There is no start when a rate is not finite or is 0
    only as a float, or a solve, ratio or normalised component is not finite
    and positive: zeta or the Perron vector then lies outside double range.
    """
    fdown, fup = [[_nearest_float(r) for r in rates] for rates in (down, up)]
    if not all(math.isfinite(f) and (f > 0 or r == 0) for f, r in zip(fdown + fup, down + up)):
        return None
    v = [1.0] * len(fdown)
    trial = 0.0
    start = None
    for _ in range(_FLOAT_STEPS):
        y = _shifted_solve(fdown, fup, trial, v)
        if y is None:
            break
        if not all(0.0 < a < math.inf for a in y):
            return None
        lo, hi = _collatz_wielandt(v, y)
        top = max(y)
        v = [a / top for a in y]
        if not (0.0 < lo and hi < math.inf and min(v) > 0.0):
            return None
        shift, trial = trial, _next_shift(trial, lo, hi)
        start = max(0.0, trial - (shift + lo) * 2.0**-32), v
        if hi - lo <= _FLOAT_WIDTH * (shift + lo):
            break
    return start


def _perron_bracket(down, up, start, bits):
    """Bracket [lo, hi] of the smallest eigenvalue lambda_1 of one
    irreducible block, of width <= 2^-(bits - 40) lambda_1, in the
    arithmetic of its rates (Decimal in `_zeta_bracket`, mpf in the tests).

    Shifted inverse iteration y = (M - sI)^-1 v.  For any positive v the
    Collatz-Wielandt ratios give lambda_1 - s in [min v/y, max v/y]
    (`_collatz_wielandt`); the shift then moves below the certified lower
    bound (`_next_shift`).  A shift that overshoots in rounding shows up as
    a non-positive pivot, and the next pass runs over the last factors that
    factorised.  The block must have killing at an edge
    (`_irreducible_blocks`): then every pivot at s = 0 is positive.

    `start` is `_float_start`'s (shift, v), each float rounded once into the
    rates' arithmetic; only ratios in that arithmetic form the bracket.
    With no start, or one that does not factorise (rounding put it above
    lambda_1), the iteration starts from shift 0 and the ones vector.  A
    bracket that stops narrowing raises PrecisionExhaustedError.

    `bits` sets the stop and the accuracy the arithmetic must carry: each
    operation rounded to within 2^-bits relative.  `_zeta_bracket` runs it
    on the fewest decimal digits that do so and returns the ends as mpf at
    `bits`, so `precision_bits` keeps its meaning in every output.
    """
    number = type(down[0])
    factors = None
    if start is not None:
        shift, v = +number(start[0]), [+number(a) for a in start[1]]
        factors = _factor(down, up, shift)
    if factors is None:
        shift, v = number(0), [number(1)] * len(down)
        factors = _factor(down, up, shift)
    scale = 2 ** (bits - 40)
    best, stalls = None, 0
    while True:
        y = _substitute(factors, up, v)
        lo, hi = _collatz_wielandt(v, y)
        width, base = hi - lo, shift + lo
        if width * scale <= base:
            return base, shift + hi
        if best is None or width < best:
            best, stalls = width, 0
        else:
            stalls += 1
            if stalls > _STALL_LIMIT:
                raise PrecisionExhaustedError(
                    "Perron bracket stopped shrinking; raise the precision"
                )
        trial = _next_shift(shift, lo, hi)
        v = y
        trial_factors = _factor(down, up, trial)
        if trial_factors is not None:
            shift, factors = trial, trial_factors


def _irreducible_blocks(down, up):
    """(a, b) of each irreducible block, rows a..b-1, of M.

    A zero coupling, down_i or up_{i-1}, makes M block-triangular, and the
    rate across the cut is killing for its block.  A block with no
    killing at either edge (down_a = up_{b-1} = 0) is a closed class: M is
    singular, zeta is 0 at every precision, and PrecisionExhaustedError
    names the block's rows.
    """
    m = len(down)
    cuts = [0] + [i for i in range(1, m) if down[i] == 0 or up[i - 1] == 0] + [m]
    blocks = list(zip(cuts, cuts[1:]))
    for a, b in blocks:
        if down[a] == 0 and up[b - 1] == 0:
            raise PrecisionExhaustedError(
                f"states {a}..{b - 1} form a closed transient class with no exit: "
                "M is singular and zeta is 0"
            )
    return blocks


def _decay_index(ladder: RateLadder) -> int:
    """Rank of the decay parameter among the eigenvalues, smallest first:
    n for a restricted sub-generator, n - 1 for an irreducible ladder.
    Raises ReducibleChainError for any other ladder or a single-state chain.
    """
    if ladder.reducible and not ladder.is_subgenerator:
        raise ReducibleChainError(
            "exact_zeta needs an irreducible ladder or a restricted sub-generator"
        )
    k = ladder.n_states if ladder.is_subgenerator else ladder.n_states - 1
    if k == 0:
        raise ReducibleChainError("a single-state chain has no decay parameter")
    return k


def _decimal_context(bits: int) -> Context:
    """Decimal arithmetic with the fewest digits whose unit roundoff,
    10^(1 - prec) / 2, is at most 2^-bits, rounding to nearest, over the
    widest exponent range and with the default traps, whatever the caller's
    context.
    """
    return Context(
        prec=1 + math.ceil((bits - 1) * math.log10(2)),
        rounding=ROUND_HALF_EVEN,
        Emin=MIN_EMIN,
        Emax=MAX_EMAX,
        traps=[InvalidOperation, DivisionByZero, Overflow],
    )


def _to_decimal(rate) -> Decimal:
    """rate's exact value (`to_fraction`) rounded once, to nearest, to a Decimal."""
    r = to_fraction(rate)
    return Decimal(r.numerator) / Decimal(r.denominator)


def _decimal_to_mpf(d: Decimal, bits: int):
    """d rounded once, to nearest, to an mpf at bits."""
    return mp.make_mpf(from_rational(*d.as_integer_ratio(), bits, round_nearest))


def _zeta_bracket(rates, down, up, bits: int):
    """Bracket [lo, hi] of -zeta, the smallest eigenvalue of M, as mpf at
    bits: the least over its irreducible blocks (`_irreducible_blocks`).

    `rates` are M's rates as the ladder holds them (`_m_matrix_rates`),
    which seed the float prelude; `down` and `up` are the same rates, each
    rounded once to a Decimal (`_to_decimal`), and the kernel runs on them
    in the current context, `_decimal_context(bits)`.
    """
    brackets = [
        _perron_bracket(down[a:b], up[a:b], _float_start(rates[0][a:b], rates[1][a:b]), bits)
        for a, b in _irreducible_blocks(*rates)
    ]
    return tuple(_decimal_to_mpf(end, bits) for end in map(min, zip(*brackets)))


def _decimal_coeffs(ladder: RateLadder, down, up, kmax: int) -> CharCoeffs:
    """f_0..f_kmax from M's Decimal rates, in the current context: the rows
    and Horner sums of `char_coeffs` on the embedded ladder's p and q, which
    are M's rates in another order.  Each f_k is within O(n) roundings of
    its exact value, as nothing is subtracted.
    """
    zero = 0 * down[0]
    if ladder.is_subgenerator:  # down = loss0, q_2..q_N; up = p_1..p_{N-1}, 0
        p, q = [zero, *up], [zero, *down]
    else:  # the Siegmund dual: down = p_0..p_{N-1}, up = q_1..q_N
        p, q = [*down, zero], [zero, *up]
    norm = math.prod(q[1:])
    f = tuple(t / norm for t in _horner_sums(p, q, kmax, Decimal(1)))
    return CharCoeffs(f=f, n=len(p) - 1)


def _decimal_estimates(coeffs: CharCoeffs, bits: int):
    """(Lagrange orders 1-3, Newton bound) from Decimal coefficients, in the
    current context: the formulas of `lagrange_zeta` and `newton_bound`,
    with Decimal.sqrt.  Each Lagrange value is the exact Fraction of its
    Decimal, and the bound an mpf at bits.

    L2 <= L1 and newton <= L1 hold as computed: L2 is L1 less a
    nonnegative term, the radicand is 1 less one, and rounding is monotone.
    """
    lag = {order: Fraction(lagrange_zeta(coeffs, order)) for order in (1, 2, 3)}
    r, radicand = _newton_terms(coeffs)
    return lag, _decimal_to_mpf(-r / radicand.sqrt(), bits)


def exact_zeta(ladder: RateLadder, ctx: PrecisionCtx | None = None):
    """Decay parameter by shifted Perron iteration on the M-matrix -Q.

    Irreducible ladder: second-largest eigenvalue (the largest is exactly 0
    for a generator / shift of 1 for a stochastic matrix), through the
    Siegmund dual.  Restricted sub-generator: largest eigenvalue.  Closes
    the Collatz-Wielandt bracket, in decimal arithmetic accurate to
    2^-mantissa_bits per operation, to a width of 2^-(mantissa_bits - 40)
    |zeta|, at any size and scale of zeta, and returns its midpoint as an
    mpf at mantissa_bits.

    Raises PrecisionExhaustedError when the bracket stops narrowing short of
    that width, and, naming the states, when M is singular (a closed
    transient class with no exit).
    """
    ctx = ctx or PrecisionCtx()
    bits = ctx.mantissa_bits
    _decay_index(ladder)  # raises for a ladder with no decay parameter
    rates = _m_matrix_rates(ladder)
    with localcontext(_decimal_context(bits)):
        down, up = [[_to_decimal(r) for r in rs] for rs in rates]
        lo, hi = _zeta_bracket(rates, down, up, bits)
    with mp.workprec(bits):
        return -(lo + hi) / 2


def decay_report(ladder: RateLadder, ctx: PrecisionCtx | None = None) -> DecayReport:
    """Exact decay parameter plus Lagrange orders 1-3 and both bounds.

    One decimal pass (module docstring): the kernel, f_0..f_3 and the
    estimates all run on the same Decimal rates.

    Checks (and reports) the ordering zeta <= newton <= -f0/f1 < 0 and
    L2 <= L1.  zeta <= newton holds when the low end of zeta's bracket is
    at most the Newton bound, up to 4n ulps of |zeta|: rounding in the
    elimination over n rows moves the bracket ends, by 50 ulps at n = 2000.
    """
    ctx = ctx or PrecisionCtx()
    bits = ctx.mantissa_bits
    kmax = min(3, _decay_index(ladder))
    _check_normaliser(ladder)
    rates = _m_matrix_rates(ladder)
    with localcontext(_decimal_context(bits)):
        down, up = [[_to_decimal(r) for r in rs] for rs in rates]
        lo, hi = _zeta_bracket(rates, down, up, bits)
        lag, nb = _decimal_estimates(_decimal_coeffs(ladder, down, up, kmax), bits)
    with mp.workprec(bits):
        zeta = -(lo + hi) / 2
        l1, l2 = to_mpf(lag[1]), to_mpf(lag[2])
        slack = ladder.n_states * mpmath.ldexp(abs(zeta), 2 - bits)
        ordering_ok = bool(-hi <= nb + slack and nb <= l1 and l1 < 0 and l2 <= l1)
    return DecayReport(
        zeta_exact=zeta,
        zeta_lagrange=lag,
        zeta_newton_bound=nb,
        ordering_ok=ordering_ok,
        precision_bits=bits,
    )
