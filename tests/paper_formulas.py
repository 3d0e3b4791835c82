"""Paper formulas and referees that only the tests evaluate, kept out of `src/bdecay`.

* `rho_eval`: the minor polynomials rho_j(xi) of a coefficient table;
* `char_coeff0`, `char_coeff1`, `char_coeff2_limit`: the paper's closed
  forms of f_0, f_1 and the eps -> 0 limit of f_2 on the complete graph;
* `lifetime_double_sum`: the literal double sum for F(tau);
* `lifetime_streaming`: the recursion for F(tau) streamed over one common
  denominator, the referee of `lifetime_direct`'s product tree;
* `threshold_series_estimate`: the size-refined second-order series
  estimate of -zeta at threshold;
* `exp_integral`: E_n(x) at arbitrary precision, the referee of the
  double-precision E_k orders of `lifetime_expint`;
* `weighted_expint_integral`: the integrals L_k(tau) of the expint form;
* `dense_matrix` and `transient_decay_fit`: the dense ladder matrix and a
  uniformized fit of the relaxation rate towards the steady state.

The closed forms and the double sum are evaluated term by term, apart from
the recursions they check.  Two helpers share production code:
`weighted_expint_integral` uses the exp-sinh rule and the E_k orders of
`lifetime_expint`, and `transient_decay_fit` starts from `steady_state`.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from bdecay import (
    GENERATOR,
    DomainError,
    EpsSisParams,
    InsufficientCoefficientsError,
    InvalidParameterError,
    PrecisionExhaustedError,
    RateLadder,
    steady_state,
)
from bdecay._numbers import as_number, to_float, to_mpf
from bdecay.oracle import DENSE_LIMIT
from bdecay.sis import _exp_sinh, _scaled_orders


def rho_eval(table, j: int, xi):
    """Evaluate rho_j(xi) = sum_k c_k(j) xi^k by Horner's rule.

    Exact for rational xi on an exact table; accepts float/mpf xi as well.
    rho_{N+1} vanishes exactly at the eigenvalue shifts of the ladder matrix.
    """
    if not 0 <= j <= table.n_states:
        raise ValueError("need 0 <= j <= N+1")
    if j > table.kmax:
        raise InsufficientCoefficientsError(
            f"rho_{j} needs the table filled to k={j} (kmax={table.kmax})"
        )
    acc = xi * 0 + table.c(j, j)  # result type follows xi
    for k in range(j - 1, -1, -1):
        acc = acc * xi + table.c(k, j)
    return acc


# ---------------------------------------------------------------------------
# closed-form characteristic coefficients of the epidemic
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
# lifetime forms
# ---------------------------------------------------------------------------


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


def lifetime_streaming(n: int, tau, delta=1):
    """F(tau) for rational tau = a/b by the recursion streamed on integers.

    X_j = b^(j-1) x_j runs as X_{j+1} = X_j (n-j) a + b^j, and with
    L = lcm(1..n)

        F delta = sum_j X_j b^(n-j) (L/j) / (L b^(n-1)),

    whose numerator is summed by Horner's rule in b: one Fraction in all.
    """
    tau, delta = as_number(tau), as_number(delta)
    a, b = tau.numerator, tau.denominator
    lcm = math.lcm(*range(1, n + 1))
    x, b_power, total = 1, 1, 0  # X_j, b^(j-1), Horner sum to j
    for j in range(1, n + 1):
        total = total * b + x * (lcm // j)
        b_power *= b
        x = x * (n - j) * a + b_power
    return Fraction(total, lcm * (b_power // b)) / delta


def threshold_series_estimate(n: int) -> Fraction:
    """The size-refined form of the paper's order-2 series estimate of -zeta
    at threshold (x = 1, delta = 1),

        (1/n) (1 + (n^2/4 - 9n/4 + 4 H_n - 2)/n^2),

    which approaches 5/(4n) as n grows.
    """
    harmonic = sum(Fraction(1, k) for k in range(1, n + 1))
    return Fraction(1, n) * (
        1 + (Fraction(n * n, 4) - Fraction(9 * n, 4) + 4 * harmonic - 2) / n ** 2
    )


def exp_integral(n: int, x, bits: int):
    """E_n(x) = int_1^inf e^{-x t} t^{-n} dt for x > 0, to `bits` of working
    precision: the arbitrary-precision referee of `sis._scaled_orders`.

    E_1 is evaluated by mpmath's series / continued-fraction kernel; higher
    orders follow from the upward recursion E_{k+1} = (e^-x - x E_k)/k.  That
    step loses log2(x/k) bits while k < x, so the guard is their sum over
    k < min(n, x) plus 32 bits.  mpmath's expint(n, x) is no substitute: for
    n > 1 it loses about 1.5 x bits, so at the x up to 1e4 the tests ask for
    it needs thousands of guard bits.
    """
    if n < 1:
        raise InvalidParameterError("order n must be >= 1")
    x = as_number(x)
    if x <= 0:
        raise DomainError("exp_integral requires x > 0")
    x_f = to_float(x)
    guard = int(sum(math.log2(x_f / k) for k in range(1, min(n, math.ceil(x_f))))) + 32
    with mp.workprec(bits + guard):
        xm = to_mpf(x)
        val = mp.e1(xm)
        emx = mp.exp(-xm)
        for k in range(1, n):
            val = (emx - xm * val) / k
    with mp.workprec(bits):
        return +val


def weighted_expint_integral(tau, k: int) -> float:
    """L_k(tau) = int_0^inf e^w E_k(w) / (w + 1/tau)^k dw on the exp-sinh rule;
    PrecisionExhaustedError where the integrand leaves the double range.
    """
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    tau = to_float(tau)
    if tau <= 0:
        raise DomainError("tau must be positive")
    a = 1.0 / tau
    return _exp_sinh(lambda w: _scaled_orders(k, w)[-1] * (w + a) ** -k, a)


# ---------------------------------------------------------------------------
# dense matrix and transient fits
# ---------------------------------------------------------------------------


def dense_matrix(ladder: RateLadder):
    """Dense matrix as list of rows (generator Q, or stochastic P)."""
    n = ladder.n_states
    rows = []
    for j in range(n):
        row = [0] * n
        if j < n - 1:
            row[j + 1] = ladder.up[j]
        if j >= 1:
            row[j - 1] = ladder.down[j - 1]
        if ladder.mode == GENERATOR:
            row[j] = -ladder.out_rate(j)
        else:
            row[j] = 1 - ladder.out_rate(j)
        rows.append(row)
    return rows


@dataclass(frozen=True)
class TransientFit:
    """Fitted exponential relaxation rate of s(t) towards the steady state."""

    rate: float
    reliable: bool
    points_used: int
    slope_drift: float


def transient_decay_fit(ladder: RateLadder, t_grid) -> TransientFit:
    """Fit the tail slope of log ||s(t) - pi||_1 with s(t) from uniformization.

    s(t) = sum_k Poisson(Lambda t; k) s(0) S^k with S = I + Q/Lambda, started
    from the top state N.  The fit uses the last half of the grid points
    whose residual stays above 1e-12, clear of double-precision round-off;
    the result is flagged unreliable when too few such points survive or when
    the slope drifts by more than 5% between the two halves of the fit window
    (the grid then sits before the asymptotic decay regime).  Runs in double
    precision, which is ample for a 1% slope fit.
    """
    import numpy as np

    if ladder.reducible or ladder.is_subgenerator:
        raise InvalidParameterError("transient fit needs an irreducible ladder")
    n = ladder.n_states
    if n - 1 > DENSE_LIMIT:
        raise InvalidParameterError(f"transient fit is limited to N <= {DENSE_LIMIT}")
    t_grid = np.asarray([to_float(t) for t in t_grid])
    if len(t_grid) < 8 or np.any(np.diff(t_grid) <= 0):
        raise InvalidParameterError("t_grid must be increasing with >= 8 points")
    q_dense = np.array([[to_float(v) for v in row] for row in dense_matrix(ladder)])
    if ladder.mode != GENERATOR:
        q_dense = q_dense - np.eye(n)  # embed P as the generator P - I
    pi = np.array([to_float(v) for v in steady_state(ladder)])
    rate_out = -np.diag(q_dense)
    big_lambda = 1.05 * rate_out.max() + 1e-9
    stoch = np.eye(n) + q_dense / big_lambda

    s0 = np.zeros(n)
    s0[n - 1] = 1.0

    def state_at(t):
        mu_t = big_lambda * t
        if mu_t > 650:
            raise PrecisionExhaustedError("uniformization horizon too long for float64")
        w = math.exp(-mu_t)
        acc = w * s0
        v = s0
        wsum = w
        k = 0
        kmax = int(mu_t + 40 * math.sqrt(mu_t + 1) + 60)
        while k < kmax and wsum < 1 - 1e-16:
            k += 1
            v = v @ stoch
            w *= mu_t / k
            acc = acc + w * v
            wsum += w
        return acc

    resid = np.array([np.abs(state_at(t) - pi).sum() for t in t_grid])
    usable = resid > 1e-12
    idx = np.nonzero(usable)[0]
    if len(idx) < 6:
        return TransientFit(rate=math.nan, reliable=False, points_used=int(len(idx)), slope_drift=math.inf)
    tail = idx[len(idx) // 2 :]

    def fit(sel):
        design = np.vstack([t_grid[sel], np.ones(len(sel))]).T
        slope, _ = np.linalg.lstsq(design, np.log(resid[sel]), rcond=None)[0]
        return slope

    mid = len(tail) // 2
    if mid < 3:
        return TransientFit(rate=math.nan, reliable=False, points_used=int(len(tail)), slope_drift=math.inf)
    slope_all = fit(tail)
    drift = abs(fit(tail[:mid]) - fit(tail[mid:])) / abs(slope_all)
    reliable = bool(drift <= 0.05)
    return TransientFit(
        rate=float(slope_all),
        reliable=reliable,
        points_used=int(len(tail)),
        slope_drift=float(drift),
    )
