"""Closed forms for the epidemic on the complete graph.

Everything ratio-like is evaluated as finite rising-factorial products, never
through Gamma functions, so results are exact for rational inputs.  The mean
lifetime F(tau) (mean absorption time from the all-infected state when
eps = 0) is available through four independent routes:

  * lifetime_direct    - O(n) streaming recursion x_{j+1} = x_j (n-j) tau + 1
  * lifetime_taylor    - Taylor coefficients B_j of beta*F(tau)
  * lifetime_expint    - exponential-integral representation (quadrature)
  * lifetime_asymptotic- large-n form for fixed x = n*tau > 1

plus the literal double sum (lifetime_double_sum) kept as a test oracle.
It and the closed-form coefficients char_coeff0, char_coeff1 and
char_coeff2_limit cross-check the paper's formulas; they are not re-exported
by the package, so import them from this module.  scipy is imported by the
expint route only, when it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from ._numbers import as_number, is_exact, to_float, to_mpf
from .chain import RateLadder, _node_count, _sis_inputs, build_eps_sis_ladder
from .errors import (
    DivergentIntegralError,
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
# closed-form characteristic coefficients
# ---------------------------------------------------------------------------


def _rising(a, k: int):
    """(a)_k = a (a+1) ... (a+k-1), empty product = 1."""
    r = a * 0 + 1
    for i in range(k):
        r = r * (a + i)
    return r


def char_coeff0(params: EpsSisParams):
    """f_0 = 1/pi_0 = sum_k C(n,k) prod_{m<k} (eps* + m tau); 1 in the eps->0 limit."""
    n, tau, es = params.n, params.tau, params.eps_star
    total = tau * 0
    for k in range(n + 1):
        prod = tau * 0 + 1
        for m in range(k):
            prod = prod * (es + m * tau)
        total = total + math.comb(n, k) * prod
    return total


def char_coeff1(params: EpsSisParams):
    """f_1 in closed form (triple sum over Gamma ratios expanded as products).

    At eps = 0 this collapses to the mean lifetime F(tau) = lifetime_direct.
    """
    n, tau, delta = params.n, params.tau, params.delta
    a = params.eps / params.beta  # eps*/tau
    total = tau * 0
    for j in range(1, n + 1):
        inner = tau * 0
        for r in range(j):
            g1 = _rising(a + j - r, r)  # Gamma(a+j)/Gamma(a+j-r)
            cb = Fraction(math.comb(n - j + r, r), math.comb(j - 1, r))
            for k in range(j - r):
                g2 = _rising(a, j - 1 - r - k)  # Gamma(a+j-1-r-k)/Gamma(a)
                inner = inner + cb * math.comb(n, j - 1 - r - k) * g1 * g2 / tau ** k
        total = total + tau ** (j - 1) * inner / j
    return total / delta


def char_coeff2_limit(params: EpsSisParams):
    """The eps->0 limit of f_2 in closed form (four nested sums).

    Cross-validates the generic coefficient-table route on restricted
    sub-generators; for n = 2 only the leading 1/(2 delta^2) survives.
    """
    n, tau, delta = params.n, params.tau, params.delta
    total = tau * 0 + Fraction(1, 2)
    for j in range(3, n + 1):
        total = total + Fraction(math.factorial(n - 2), j * math.factorial(n - j)) * tau ** (j - 2)
    t3 = tau * 0
    for j in range(3, n + 1):
        for k in range(3, j + 1):
            t3 = t3 + Fraction(math.factorial(n - k), j * math.factorial(n - j)) * tau ** (j - k)
    total = total + t3 * (tau * (n - 1) + 3) / 2
    for j in range(3, n + 1):
        for k in range(3, j + 1):
            for s in range(1, k - 2):
                for m in range(k - s):
                    total = total + (
                        Fraction(
                            math.factorial(n - (k - s - m)) * math.factorial(n - k),
                            j * math.factorial(n - j) * (k - s) * math.factorial(n - (k - s)),
                        )
                        * tau ** (j - k + m)
                    )
    return total / delta ** 2


# ---------------------------------------------------------------------------
# mean lifetime, four ways
# ---------------------------------------------------------------------------


def lifetime_direct(n: int, tau, delta=1):
    """Mean lifetime F(tau) by the streaming recursion (exact for rational tau).

    x_1 = 1, x_{j+1} = x_j (n-j) tau + 1;  F = (1/delta) sum_j x_j / j.
    Never forms raw factorials, so it is overflow-free at any n.
    """
    n = _node_count(n)
    tau, delta = as_number(tau), as_number(delta)
    if tau < 0:
        raise InvalidParameterError("tau must be nonnegative")
    x = tau * 0 + 1
    total = tau * 0
    for j in range(1, n + 1):
        total = total + x / j
        x = x * (n - j) * tau + 1
    return total / delta


def lifetime_double_sum(n: int, tau, delta=1):
    """Literal double sum for F(tau); O(n^2) test oracle for lifetime_direct."""
    tau, delta = as_number(tau), as_number(delta)
    total = tau * 0
    for j in range(1, n + 1):
        term = tau * 0
        ratio = 1  # (n-j+r)!/(n-j)! as running product
        for r in range(j):
            term = term + ratio * tau ** r
            ratio *= n - j + r + 1
        total = total + term / j
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


def exp_integral(n: int, x, bits: int = 53):
    """E_n(x) = int_1^inf e^{-x t} t^{-n} dt to `bits` of working precision.

    E_1 is evaluated by mpmath's series / continued-fraction kernel; higher
    orders follow from the upward recursion E_{k+1} = (e^-x - x E_k)/k, run
    with x*log2(e) guard bits to absorb its cancellation (the recursion loses
    a factor ~x/k of accuracy per step while k < x).
    """
    if n < 1:
        raise InvalidParameterError("order n must be >= 1")
    x = as_number(x)
    if x < 0:
        raise DomainError("exp_integral requires x >= 0")
    if x == 0:
        if n == 1:
            raise DivergentIntegralError("E_1(0) diverges")
        with mp.workprec(bits):
            return mp.mpf(1) / (n - 1)
    guard = int(1.4427 * to_float(x)) + 32
    with mp.workprec(bits + guard):
        xm = to_mpf(x)
        val = mp.e1(xm)
        emx = mp.exp(-xm)
        for k in range(1, n):
            val = (emx - xm * val) / k
    with mp.workprec(bits):
        return +val


def _exp_integral_scaled(n: int, w: float) -> float:
    """e^w E_n(w) in double precision, stable for any w >= 0.

    Small and moderate w go through scipy's expn; beyond exp overflow the
    Lentz continued fraction for e^w E_n(w) is evaluated directly.
    """
    if w == 0.0:
        if n == 1:
            raise DivergentIntegralError("E_1(0) diverges")
        return 1.0 / (n - 1)
    if w <= 200.0:
        from scipy import special

        return math.exp(w) * special.expn(n, w)
    tiny = 1e-300
    C = 1e300
    D = 1.0 / (w + n)
    h = D
    for i in range(1, 500):
        a = -i * (n - 1 + i)
        b = w + n + 2 * i
        D = b + a * D
        if D == 0.0:
            D = tiny
        C = b + a / C
        if C == 0.0:
            C = tiny
        D = 1.0 / D
        delt = C * D
        h *= delt
        if abs(delt - 1.0) < 1e-15:
            break
    return h


# QUADPACK's relative tolerance (with no absolute floor) and the gate on its
# returned error estimate
_QUAD_RTOL = 1e-10


def _quad(f):
    """scipy adaptive Gauss-Kronrod over [0, inf), held to _QUAD_RTOL."""
    from scipy import integrate

    val, err = integrate.quad(f, 0.0, math.inf, limit=200, epsabs=0.0, epsrel=_QUAD_RTOL)
    if err > _QUAD_RTOL * abs(val):
        raise QuadratureFailureError(
            f"quadrature error estimate {err:.3e} exceeds tolerance", error_estimate=err
        )
    return val


def _expint_moment(order: int, power: int, a: float) -> float:
    """int_0^inf e^w E_order(w) (w + a)^-power dw, the one expint integrand.

    The factor (w + a)^-power underflows to 0 for large w.  It overflows only
    if a < 1 and a^-power leaves the double range, which raises
    PrecisionExhaustedError.
    """

    def f(w):
        return _exp_integral_scaled(order, w) * (w + a) ** -power

    try:
        return _quad(f)
    except OverflowError as exc:
        raise PrecisionExhaustedError("expint integrand exceeds double range") from exc


def weighted_expint_integral(tau, k: int) -> float:
    """L_k(tau) = int_0^inf e^w E_k(w) / (w + 1/tau)^k dw by adaptive quadrature."""
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    tau = to_float(tau)
    if tau <= 0:
        raise DomainError("tau must be positive")
    return _expint_moment(k, k, 1.0 / tau)


def lifetime_expint(n: int, tau, delta=1) -> float:
    """F(tau) from the exponential-integral representation

        beta F = n! sum_{k=1}^{n+1} L_k/(n+1-k)! - int_0^inf e^w E_{n+1}(w)/(w+1/tau) dw,

    valid for tau > 1/n; practical up to n ~ 170.  Beyond that the weight n!
    leaves the double range and PrecisionExhaustedError is raised.
    """
    n = _node_count(n)
    tau_f, delta_f = to_float(tau), to_float(delta)
    if tau_f * n <= 1.0:
        raise DomainError("exponential-integral form needs tau > 1/n")
    inv = 1.0 / tau_f
    total = 0.0
    scale = 1.0  # n!/(n+1-k)!
    for k in range(1, n + 2):
        total += scale * _expint_moment(k, k, inv)
        scale *= n + 1 - k
    total -= _expint_moment(n + 1, 1, inv)
    val = total / (tau_f * delta_f)
    if not math.isfinite(val):
        raise PrecisionExhaustedError("dynamic range exhausted in the expint form")
    return val


def lifetime_asymptotic(n: int, x, delta=1) -> float:
    """Large-n lifetime for fixed x = n*tau > 1:

        (1/delta) x sqrt(2 pi) / (x-1)^2 * exp(n (ln x + 1/x - 1)) / sqrt(n).
    """
    n = _node_count(n)
    x_f, delta_f = to_float(x), to_float(delta)
    if x_f <= 1.0:
        raise DomainError("asymptotic lifetime requires x > 1")
    return (
        (x_f * math.sqrt(2 * math.pi) / (x_f - 1) ** 2)
        * math.exp(n * (math.log(x_f) + 1 / x_f - 1))
        / (math.sqrt(n) * delta_f)
    )


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

    order_only marks estimates where only the order in n is claimed (below
    threshold no constant is available).
    """

    regime: str
    leading_estimate: float
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
    'at') and return the leading estimate of -zeta: 1/F above, 5 delta/(4n)
    at, and the order marker delta/ln(n) below.
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
        tau = x_n / n if is_exact(x_n) else x_f / n
        return RegimeEstimate(
            regime=regime,
            leading_estimate=1.0 / to_float(lifetime_direct(n, tau, delta_n)),
            order_only=False,
        )
    if regime == REGIME_AT:
        return RegimeEstimate(
            regime=regime,
            leading_estimate=5 * to_float(delta_n) / (4 * n),
            order_only=False,
        )
    return RegimeEstimate(
        regime=regime,
        leading_estimate=to_float(delta_n) / math.log(n),
        order_only=True,
    )


@dataclass(frozen=True)
class LifetimeReport:
    """Mean absorption time by every applicable method, plus discrepancies."""

    f_direct: object
    f_taylor: object
    f_expint: float | None
    f_asymptotic: float | None
    regime: str
    max_pairwise_relative_gap: float

    @property
    def e_t(self):
        """E[T] from the all-infected state, which is F(tau) = f_direct."""
        return self.f_direct


def mean_absorption_time(params: EpsSisParams) -> LifetimeReport:
    """E[T] from the all-infected state (eps = 0 required): equals F(tau).

    Methods outside their validity domain are reported as None; the maximal
    pairwise relative gap is taken over the methods that produced a value.
    """
    if params.eps != 0:
        raise InvalidParameterError("mean absorption time requires eps = 0")
    n, tau, delta = params.n, params.tau, params.delta
    x = to_float(params.x)
    direct = lifetime_direct(n, tau, delta)
    taylor = lifetime_taylor(n, tau, delta)
    expint = None
    if x > 1.0 and n <= 40:
        try:
            expint = lifetime_expint(n, tau, delta)
        except (QuadratureFailureError, PrecisionExhaustedError):
            expint = None
    asym = lifetime_asymptotic(n, params.x, delta) if x > 1.0 else None
    # classify without decay_regime, which would compute a second exact lifetime
    regime = _regime(x, THRESHOLD_BAND if n >= 2 else 0.0)
    values = [to_float(direct), to_float(taylor)]
    if expint is not None:
        values.append(expint)
    if asym is not None:
        values.append(asym)
    gap = 0.0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            denom = max(abs(values[i]), abs(values[j]))
            if denom > 0:
                gap = max(gap, abs(values[i] - values[j]) / denom)
    return LifetimeReport(
        f_direct=direct,
        f_taylor=taylor,
        f_expint=expint,
        f_asymptotic=asym,
        regime=regime,
        max_pairwise_relative_gap=gap,
    )
