"""Closed forms for the epidemic on the complete graph.

Everything ratio-like is evaluated as finite rising-factorial products, never
through Gamma functions, so results are exact for rational inputs.  The mean
lifetime F(tau) (mean absorption time from the all-infected state when
eps = 0) is available through four independent routes:

  * lifetime_direct    - the recursion x_{j+1} = x_j (n-j) tau + 1: a product
                         tree of integer step matrices for exact tau, a
                         streaming loop for float and mpf tau
  * lifetime_taylor    - Taylor coefficients B_j of beta*F(tau)
  * lifetime_expint    - exponential-integral representation, in double
                         precision on one exp-sinh quadrature rule
  * lifetime_asymptotic- large-n form for fixed x = n*tau > 1

The expint route evaluates E_k through one double-precision ladder,
_scaled_orders; `validate.check_expint` checks that ladder against its
recursion, its bracket and mpmath's expint.

The module needs mpmath and the standard library only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from ._numbers import as_number, is_exact, to_float, to_fraction, to_mpf
from .chain import RateLadder, _node_count, _sis_inputs, build_eps_sis_ladder
from .errors import (
    DomainError,
    InvalidParameterError,
    PrecisionExhaustedError,
    QuadratureFailureError,
)


@dataclass(frozen=True)
class EpsSisParams:
    """Parameters of the self-exciting SIS process on the complete graph.

    n nodes, infection rate beta per link, curing rate delta per node,
    self-infection rate eps per node.  Derived: tau = beta/delta,
    eps_star = eps/delta, x = n*tau (threshold units).
    """

    n: int
    beta: object
    delta: object
    eps: object = 0

    def __post_init__(self):
        checked = _sis_inputs(self.n, self.beta, self.delta, self.eps)
        for name, value in zip(("n", "beta", "delta", "eps"), checked):
            object.__setattr__(self, name, value)

    @property
    def tau(self):
        return self.beta / self.delta

    @property
    def eps_star(self):
        return self.eps / self.delta

    @property
    def x(self):
        return self.n * self.tau

    def ladder(self) -> RateLadder:
        return build_eps_sis_ladder(self.n, self.beta, self.delta, self.eps)

    @classmethod
    def from_tau(cls, n, tau, delta, eps=0) -> "EpsSisParams":
        tau, delta = as_number(tau), as_number(delta)
        return cls(n=n, beta=tau * delta, delta=delta, eps=eps)

    @classmethod
    def from_x(cls, n, x, delta, eps=0) -> "EpsSisParams":
        n, x, delta = _node_count(n), as_number(x), as_number(delta)
        return cls(n=n, beta=x * delta / n, delta=delta, eps=eps)


# ---------------------------------------------------------------------------
# mean lifetime, four ways
# ---------------------------------------------------------------------------


def _step_product(lo: int, hi: int, n: int, a: int, b: int) -> tuple:
    """(p, q, r, s, t) of the integer product j b A_j over lo <= j < hi, the
    later steps on the left; each factor and product has the shape
    [[p, q, 0], [0, r, 0], [s, t, r]].
    """
    if hi - lo == 1:
        jb = lo * b
        return (n - lo) * a * lo, jb, jb, b, 0
    mid = (lo + hi) // 2
    p2, q2, r2, s2, t2 = _step_product(lo, mid, n, a, b)
    p1, q1, r1, s1, t1 = _step_product(mid, hi, n, a, b)
    return p1 * p2, p1 * q2 + q1 * r2, r1 * r2, s1 * p2 + r1 * s2, s1 * q2 + t1 * r2 + r1 * t2


def lifetime_direct(n: int, tau, delta=1):
    """Mean lifetime F(tau) by its recursion (exact for rational tau).

    x_1 = 1, x_{j+1} = x_j (n-j) tau + 1;  F = (1/delta) sum_j x_j / j.
    Overflow-free at any n: the exact branch works on integers, and the
    float and mpf loop never forms raw factorials.

    For rational tau = a/b the state v_j = (x_j, 1, S_{j-1}), with
    S_{j-1} = sum_{i<j} x_i / i, steps as v_{j+1} = A_j v_j, where

        j b A_j = [[(n-j) a j, j b, 0], [0, j b, 0], [b, 0, j b]]

    is an integer matrix.  The n factors are multiplied in a product tree
    (binary splitting; Haible & Papanikolaou 1998), so the big products
    pair operands of equal size, and from v_1 = (1, 1, 0) the root gives
    F delta = (s + t)/r with r = n! b^n: one Fraction normalisation in all.
    A float delta divides it at its exact value, and the result is a float
    where it lies within double range.  Float and mpf tau run the recursion
    as written, in a streaming loop.
    """
    n = _node_count(n)
    tau, delta = as_number(tau), as_number(delta)
    if tau < 0:
        raise InvalidParameterError("tau must be nonnegative")
    if is_exact(tau):
        _, _, r, s, t = _step_product(1, n + 1, n, tau.numerator, tau.denominator)
        if isinstance(delta, mp.mpf):
            return to_mpf(Fraction(s + t, r)) / delta
        f = Fraction(s + t, r) / to_fraction(delta)
        return float(f) if isinstance(delta, float) and f <= sys.float_info.max else f
    x = tau * 0 + 1
    total = tau * 0
    for j in range(1, n + 1):
        total = total + x / j
        x = x * (n - j) * tau + 1
    return total / delta


def _taylor_row(n: int):
    """B_j(n) = sum_{k=j}^{n} (n-k+j-1)!/((n-k)! k) as exact Fractions.

    The rising products num_j(k) = (n-k+j-1)!/(n-k)! are carried from j - 1
    to j, num_j(k) = num_{j-1}(k) (n-k+j-1), and each B_j is summed over the
    common denominator lcm(1..n): O(n^2) integer products and one Fraction
    per coefficient.
    """
    lcm = math.lcm(*range(1, n + 1))
    share = [0] + [lcm // k for k in range(1, n + 1)]  # share[k] = lcm / k
    num = [1] * (n + 1)  # num[k] = num_j(k), valid for k >= j
    row = []
    for j in range(1, n + 1):
        if j > 1:
            for k in range(j, n + 1):
                num[k] *= n - k + j - 1
        row.append(Fraction(sum(num[k] * share[k] for k in range(j, n + 1)), lcm))
    return row


def _taylor_row_alternating(n: int):
    """B_j = ((j-1)!)^2 sum_{k=j}^{n} C(n,k) (-1)^{k-j} (k-j)!/k!."""
    row = []
    for j in range(1, n + 1):
        s = Fraction(0)
        for k in range(j, n + 1):
            s += Fraction(
                math.comb(n, k) * (-1) ** (k - j) * math.factorial(k - j),
                math.factorial(k),
            )
        row.append(math.factorial(j - 1) ** 2 * s)
    return row


def taylor_coeffs(n: int) -> tuple:
    """Exact Taylor coefficients (B_1, ..., B_n) of beta*F(tau) from the
    defining sum; B_1 is the harmonic number H_n.

    `validate.check_taylor_identities` checks them against the alternating
    binomial form and the size recursion
    B_{j+1}(n) = B_{j+1}(n-1) + j B_j(n) - (n-1)!/(n-j)!, exactly.
    """
    return tuple(_taylor_row(_node_count(n)))


def lifetime_taylor(n: int, tau, delta=1):
    """F(tau) = (1/delta) sum_j B_j tau^{j-1}, by Horner's rule in tau on
    `taylor_coeffs(n)`; equals lifetime_direct exactly.
    """
    coeffs = taylor_coeffs(n)
    tau, delta = as_number(tau), as_number(delta)
    total = tau * 0
    for b in reversed(coeffs):
        total = total * tau + b
    return total / delta


# ---------------------------------------------------------------------------
# exponential integrals
# ---------------------------------------------------------------------------


_EULER_GAMMA = 0.5772156649015329


def _scaled_orders(top: int, w: float) -> list:
    """[e^w E_k(w) for k = 1..top] in double precision, for w > 0.

    One seed, E_1 from its power series for w <= 1, else the Lentz continued
    fraction at order k0 = min(top, ceil(w)); from it k g_{k+1} = 1 - w g_k
    runs only in its stable direction (Gautschi 1967): upward for k >= w,
    downward for k < w.
    """
    g = [0.0] * (top + 1)  # g[k] = e^w E_k(w); g[0] is unused
    if w <= 1.0:
        k0 = 1
        series = sum((-w) ** j / (j * math.factorial(j)) for j in range(1, 25))
        g[1] = math.exp(w) * (-_EULER_GAMMA - math.log(w) - series)
    else:
        k0 = min(top, math.ceil(w))
        C = 1e300
        D = 1.0 / (w + k0)
        g[k0] = D
        for i in range(1, 500):
            b = w + k0 + 2 * i
            D = 1.0 / (b - i * (k0 - 1 + i) * D)
            C = b - i * (k0 - 1 + i) / C
            g[k0] *= C * D
            if abs(C * D - 1.0) < 1e-15:
                break
    for k in range(k0, top):
        g[k + 1] = (1.0 - w * g[k]) / k
    for k in range(k0 - 1, 0, -1):
        g[k] = (1.0 - k * g[k + 1]) / w
    return g[1:]


def _exp_sinh(f, scale: float) -> float:
    """int_0^inf f(w) dw on the exp-sinh rule w = scale e^{pi/2 sinh t}, |t| <= 6
    (Takahasi & Mori 1974).  The trapezoid step in t halves from 1 to 2^-8
    until two sums agree to 1e-12 relative.
    """

    def weighted(t):
        w = scale * math.exp(math.pi / 2 * math.sinh(t))
        return f(w) * w * math.pi / 2 * math.cosh(t)

    try:
        total = sum(weighted(t) for t in range(-6, 7))
        for level in range(1, 9):
            step = 2.0 ** -level
            fresh = total / 2 + step * sum(weighted(j * step - 6) for j in range(1, 12 << level, 2))
            if not math.isfinite(fresh):
                raise PrecisionExhaustedError("expint integrand exceeds double range")
            err = abs(fresh - total)
            total = fresh
            if err <= 1e-12 * abs(total):
                return total
    except OverflowError as exc:
        raise PrecisionExhaustedError("expint integrand exceeds double range") from exc
    raise QuadratureFailureError(f"exp-sinh sums still differ by {err:.3e}", error_estimate=err)


def lifetime_expint(n: int, tau, delta=1) -> float:
    """F(tau) from the exponential-integral representation, with a = 1/tau,

        beta F = n! sum_{k=1}^{n+1} L_k/(n+1-k)! - int_0^inf e^w E_{n+1}(w)/(w+a) dw,

    summed under one integral on the exp-sinh rule, where the weight
    n!/(n+1-k)! (w+a)^-k is a running product.  Valid for tau > 1/n wherever
    beta F lies within the double range; beyond it PrecisionExhaustedError.
    """
    n = _node_count(n)
    tau_f, delta_f = to_float(tau), to_float(delta)
    if tau_f * n <= 1.0:
        raise DomainError("exponential-integral form needs tau > 1/n")
    a = 1.0 / tau_f

    def integrand(w):
        g = _scaled_orders(n + 1, w)
        u = 1.0 / (w + a)
        total = -g[n] * u
        weight = u
        for k in range(1, n + 2):
            total += weight * g[k - 1]
            weight *= (n + 1 - k) * u
        return total

    val = _exp_sinh(integrand, a) / (tau_f * delta_f)
    if not math.isfinite(val):
        raise PrecisionExhaustedError("dynamic range exhausted in the expint form")
    return val


def lifetime_asymptotic(n: int, x, delta=1) -> float | mp.mpf:
    """Large-n lifetime for fixed x = n*tau > 1:

        (1/delta) x sqrt(2 pi) / (x-1)^2 * exp(n (ln x + 1/x - 1)) / sqrt(n).

    The exponential is taken in mpmath at double precision, whose exponent
    range is unbounded: the result is a float where it fits the double range
    and an mpf beyond it.
    """
    n = _node_count(n)
    x_f, delta_f = to_float(x), to_float(delta)
    if x_f <= 1.0:
        raise DomainError("asymptotic lifetime requires x > 1")
    with mp.workprec(53):
        val = (
            (x_f * math.sqrt(2 * math.pi) / (x_f - 1) ** 2)
            * mp.exp(n * (math.log(x_f) + 1 / x_f - 1))
            / (math.sqrt(n) * delta_f)
        )
        return float(val) if math.isfinite(val) else val


# ---------------------------------------------------------------------------
# regime classification and the lifetime report
# ---------------------------------------------------------------------------

REGIME_BELOW = "below"
REGIME_AT = "at"
REGIME_ABOVE = "above"

# |x - 1| <= THRESHOLD_BAND counts as at threshold
THRESHOLD_BAND = 1e-6


@dataclass(frozen=True)
class RegimeEstimate:
    """Threshold-regime classification with the leading decay-rate estimate.

    order_only marks estimates where only the order in n is claimed (at and
    below threshold no constant is available).  leading_estimate is a float
    where it is a normal double, and an mpf beyond the double range.
    """

    regime: str
    leading_estimate: float | mp.mpf
    order_only: bool


def _regime(x_f: float, band: float) -> str:
    """Position of x against the threshold 1; |x-1| <= band counts as 'at'."""
    if x_f > 1 + band:
        return REGIME_ABOVE
    if abs(x_f - 1) <= band:
        return REGIME_AT
    return REGIME_BELOW


def decay_regime(n: int, x, delta=1) -> RegimeEstimate:
    """Classify x against the threshold (|x-1| <= THRESHOLD_BAND counts as
    'at') and return the leading estimate of -zeta: 1/F above, and the order
    markers delta/sqrt(n) at (Nåsell, Adv. Appl. Probab. 28, 1996; Doering,
    Sargsyan & Sander, Multiscale Model. Simul. 3, 2005) and delta/ln(n) below.
    """
    n = _node_count(n)
    if n < 2:
        raise InvalidParameterError("regime classification needs n >= 2")
    x_n, delta_n = as_number(x), as_number(delta)
    x_f = to_float(x_n)
    if x_f <= 0:
        raise InvalidParameterError("x must be positive")
    regime = _regime(x_f, THRESHOLD_BAND)
    if regime == REGIME_ABOVE:
        tau = to_fraction(x_n) / n
        with mp.workprec(53):  # double precision, but mpmath's unbounded exponent range
            rate = 1 / to_mpf(lifetime_direct(n, tau, delta_n))
            if sys.float_info.min <= rate <= sys.float_info.max:
                rate = float(rate)
        return RegimeEstimate(regime=regime, leading_estimate=rate, order_only=False)
    if regime == REGIME_AT:
        return RegimeEstimate(
            regime=regime,
            leading_estimate=to_float(delta_n) / math.sqrt(n),
            order_only=True,
        )
    return RegimeEstimate(
        regime=regime,
        leading_estimate=to_float(delta_n) / math.log(n),
        order_only=True,
    )


# lifetime_taylor's n exact B_j hold O(n^2 log n) bits in all, so above this n
# mean_absorption_time leaves the Taylor route out
TAYLOR_MAX_N = 600


@dataclass(frozen=True)
class LifetimeReport:
    """Mean absorption time by every applicable method, plus discrepancies.

    f_taylor is None for n > TAYLOR_MAX_N, f_expint and f_asymptotic at and
    below threshold, and f_expint also where its quadrature fails or beta F
    leaves the double range.
    """

    f_direct: object
    f_taylor: object
    f_expint: float | None
    f_asymptotic: float | mp.mpf | None
    regime: str
    max_pairwise_relative_gap: float

    @property
    def e_t(self):
        """E[T] from the all-infected state, which is F(tau) = f_direct."""
        return self.f_direct


def mean_absorption_time(params: EpsSisParams) -> LifetimeReport:
    """E[T] from the all-infected state (eps = 0 required): equals F(tau).

    Methods outside their validity domain are reported as None, the Taylor
    route among them for n > TAYLOR_MAX_N, where its exact coefficients cost
    more than every other route together; the maximal pairwise relative gap
    is taken over the methods that produced a value.
    """
    if params.eps != 0:
        raise InvalidParameterError("mean absorption time requires eps = 0")
    n, tau, delta = params.n, params.tau, params.delta
    x = to_float(params.x)
    direct = lifetime_direct(n, tau, delta)
    taylor = lifetime_taylor(n, tau, delta) if n <= TAYLOR_MAX_N else None
    expint = None
    if x > 1.0:
        try:
            expint = lifetime_expint(n, tau, delta)
        except (QuadratureFailureError, PrecisionExhaustedError):
            expint = None
    asym = lifetime_asymptotic(n, params.x, delta) if x > 1.0 else None
    # classify without decay_regime, which would compute a second exact lifetime
    regime = _regime(x, THRESHOLD_BAND if n >= 2 else 0.0)
    gap = 0.0
    with mp.workprec(53):  # double precision, but mpmath's unbounded exponent range
        values = [to_mpf(v) for v in (direct, taylor, expint, asym) if v is not None]
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                denom = max(abs(values[i]), abs(values[j]))
                if denom > 0:
                    gap = max(gap, float(abs(values[i] - values[j]) / denom))
    return LifetimeReport(
        f_direct=direct,
        f_taylor=taylor,
        f_expint=expint,
        f_asymptotic=asym,
        regime=regime,
        max_pairwise_relative_gap=gap,
    )
