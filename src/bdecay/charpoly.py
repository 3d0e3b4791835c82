"""Characteristic-coefficient machinery for tri-diagonal ladders.

The eigenvector components of the ladder matrix in the shifted variable xi
are polynomials with nonnegative coefficients c_k(j); the degree-j polynomial
rho_j(xi) = sum_k c_k(j) xi^k is the characteristic polynomial of the leading
j-by-j principal block, and the family {rho_j} is orthogonal with interlacing
zeros.  The degree-N factor of the full characteristic polynomial carries the
characteristic coefficients

    f_0 = 1/pi_0,      f_k = sum_{j>=k} c_k(j) / prod_{m<j} q_{m+1}   (k >= 1),

whose zeros are the nonzero eigenvalues; with c_0(j) = p_0 ... p_{j-1} the
sum gives f_0 at k = 0 too.  Everything here is exact: a float or mpf rate
is read at the binary rational it holds (`_numbers.to_fraction`).

For a restricted sub-generator (loss0 > 0) the table is built on the embedded
full ladder (p_0 = 0 re-attached), for which f_0 = 1 automatically: the zeros
of sum f_k xi^k are then exactly the sub-generator eigenvalues.

The coefficients are computed on an integer lattice.  The c_k(j)
recursion has no subtraction and c_k(j) is homogeneous of degree j - k in
the rates, so on the integer rates P = D p, Q = D q of `chain._rate_lattice`
it yields the ints c'_k(j) = D^(j-k) c_k(j).  Then

    f_k = D^k T_N / (Q_1 ... Q_N),    T_j = T_{j-1} Q_j + c'_k(j),  T_{k-1} = 0,

so each f_k, f_0 included, is one Fraction normalisation of an integer
Horner sum, instead of a gcd of ever larger numbers at every step of the
recursion.  `decay.decay_report` runs the same rows and Horner sums on
Decimal rates instead: with no subtraction anywhere, each f_k comes out
within O(N) roundings of its exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._numbers import to_fraction
from .chain import RateLadder, _rate_lattice
from .errors import (
    DegenerateCoefficientsError,
    InsufficientCoefficientsError,
    ReducibleChainError,
)


def _pq(ladder: RateLadder):
    """Rate arrays p_0..p_N, q_0..q_N (p_N = q_0 = 0) at their exact values."""
    p = [*map(to_fraction, ladder.up), Fraction(0)]
    q = [Fraction(0), *map(to_fraction, ladder.down)]
    return p, q


@dataclass(frozen=True)
class CoeffTable:
    """Triangular table c_k(j), 0 <= k <= min(j, kmax), 0 <= j <= N+1.

    Built for the embedded ladder when the input is a restricted
    sub-generator, so n_states below counts the re-attached absorbing state.
    """

    ladder: RateLadder
    kmax: int
    _rows: tuple  # _rows[k][j - k] = c_k(j), j = k..N+1

    @property
    def n_states(self) -> int:
        return self.ladder.n_states

    def c(self, k: int, j: int):
        """c_k(j); zero outside 0 <= k <= j."""
        if k < 0 or k > j:
            return 0
        if j > self.n_states or k > self.kmax:
            raise InsufficientCoefficientsError(
                f"c_{k}({j}) outside computed range (kmax={self.kmax}, N+1={self.n_states})"
            )
        return self._rows[k][j - k]


def _coefficient_rows(p, q, kmax: int, one):
    """Yield the rows (c_k(k), ..., c_k(N+1)) for k = 0..kmax, in the number
    type of the rate arrays p_0..p_N and q_0..q_N (ints, Fractions or
    Decimals), with c_k(k) = one.

    Each row comes from the previous one by the pair of first-order
    recursions of `coefficient_table`.
    """
    N = len(p) - 1
    prev = None
    for k in range(kmax + 1):
        row = [one]
        if k <= N:
            b = q[k] + sum(p[m] + q[m] for m in range(k))  # b_k(k+1)
            for j in range(k + 1, N + 2):
                row.append(p[j - 1] * row[-1] + b)
                if j <= N:
                    b = q[j] * b + (prev[j - (k - 1)] if k >= 1 else 0)
        yield row
        prev = row


def coefficient_table(ladder: RateLadder, kmax: int) -> CoeffTable:
    """Fill the coefficient table by the pair of first-order recursions

        c_k(j) = p_{j-1} c_k(j-1) + b_k(j),
        b_k(j+1) = q_j b_k(j) + c_{k-1}(j),

    equivalent to the second-order recursion
    c_k(j+1) = (q_j+p_j) c_k(j) - q_j p_{j-1} c_k(j-1) + c_{k-1}(j).
    Degenerate (zero) rates are allowed and simply propagate zeros.
    """
    base = ladder.embedded()
    N = base.n_states - 1
    if not 0 <= kmax <= N + 1:
        raise ValueError(f"kmax must lie in [0, N+1] = [0, {N + 1}]")
    p, q = _pq(base)
    rows = tuple(tuple(row) for row in _coefficient_rows(p, q, kmax, Fraction(1)))
    return CoeffTable(ladder=base, kmax=kmax, _rows=rows)


def _prod(seq, a, b):
    """prod_{m=a}^{b} seq[m] with the empty-product = 1 convention."""
    r = 1
    for m in range(a, b + 1):
        r = r * seq[m]
    return r


def c1_explicit(ladder: RateLadder, j: int):
    """Closed-form triple sum for c_1(j); equals the recursion exactly."""
    base = ladder.embedded()
    if not 1 <= j <= base.n_states:
        raise ValueError("need 1 <= j <= N+1")
    p, q = _pq(base)
    tot = 0
    for l in range(j):
        for s in range(j - l):
            tot += (
                _prod(p, 0, j - 2 - l - s)
                * _prod(q, j - l - s, j - 1 - l)
                * _prod(p, j - l, j - 1)
            )
    return tot


def c2_explicit(ladder: RateLadder, j: int):
    """Closed-form quintuple sum for c_2(j); equals the recursion exactly."""
    base = ladder.embedded()
    if not 2 <= j <= base.n_states:
        raise ValueError("need 2 <= j <= N+1")
    p, q = _pq(base)
    tot = _prod(p, 2, j - 1)
    tot += (p[0] + p[1] + q[1] + q[2]) * sum(
        _prod(q, 3, j - l - 1) * _prod(p, j - l, j - 1) for l in range(j - 2)
    )
    for l in range(j - 2):
        for s in range(1, j - l - 2):
            for l1 in range(j - l - s):
                for l2 in range(j - l - s - l1):
                    tot += (
                        _prod(p, 0, j - l - s - 2 - l1 - l2)
                        * _prod(q, j - l - s - l1 - l2, j - l - s - 1 - l1)
                        * _prod(p, j - l - s - l1, j - l - s - 1)
                        * _prod(q, j - l + 1 - s, j - l - 1)
                        * _prod(p, j - l, j - 1)
                    )
    return tot


def diag_band_coeffs(ladder: RateLadder, m: int):
    """Band diagonal t_m(j) = c_{j-m}(j) for j = 0..N+1 via the difference
    equation t_m(j) = sum_{l<j} [(q_l+p_l) t_{m-1}(l) - q_l p_{l-1} t_{m-2}(l-1)].

    m = 0 and m = 1 return the initial bands (all ones; partial rate sums).
    Entries with j < m (no such coefficient) are reported as 0.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    base = ladder.embedded()
    N = base.n_states - 1
    p, q = _pq(base)
    t_prev2 = None
    t_prev = [Fraction(1)] * (N + 2)  # t_0
    if m == 0:
        return tuple(t_prev)
    cur = [sum(p[i] + q[i] for i in range(j)) if j >= 1 else 0 for j in range(N + 2)]  # t_1
    for order in range(2, m + 1):
        t_prev2, t_prev = t_prev, cur
        cur = []
        for j in range(N + 2):
            s = 0
            for l in range(j):
                a = t_prev[l] if l >= order - 1 else 0
                b = t_prev2[l - 1] if l - 1 >= order - 2 else 0
                s += (q[l] + p[l]) * a - (q[l] * p[l - 1] * b if l >= 1 else 0)
            cur.append(s if j >= order else 0)
    return tuple(cur)


def _check_normaliser(ladder: RateLadder):
    """Raise ReducibleChainError unless the ladder has characteristic
    coefficients: an unrestricted reducible ladder has none, nor has a
    ladder with a zero down-rate q_j, whose states from j up form a closed
    class that leaves the product form without a normaliser.
    """
    if ladder.reducible and not ladder.is_subgenerator:
        if ladder.up_rate(0) == 0 and ladder.mode == "generator":
            raise ReducibleChainError(
                "ladder has an absorbing state 0; apply restrict_transient first"
            )
        raise ReducibleChainError("characteristic coefficients need an irreducible ladder")
    if any(q == 0 for q in ladder.down):
        raise ReducibleChainError(
            "a zero down-rate closes off the states above it: the product form "
            "has no normaliser and the characteristic coefficients are undefined"
        )


def _horner_sums(p, q, kmax: int, one):
    """Yield T_k = sum_{j=k..N} c_k(j) q_{j+1} ... q_N for k = 0..kmax, one
    Horner sum over each `_coefficient_rows` row, in the number type of the
    rate arrays: f_k = T_k / (q_1 ... q_N).  Every term is nonnegative.
    """
    for k, row in enumerate(_coefficient_rows(p, q, kmax, one)):
        total = 0
        for q_j, c in zip(q[k:], row):  # j = k..N
            total = total * q_j + c
        yield total


@dataclass(frozen=True)
class CharCoeffs:
    """Characteristic coefficients f_0..f_kmax of a ladder."""

    f: tuple
    n: int  # degree N of the full polynomial

    @property
    def complete(self) -> bool:
        """True for the full vector f_0..f_N, which the Newton power sums need."""
        return len(self.f) == self.n + 1


def char_coeffs(ladder: RateLadder, kmax: int | None = None) -> CharCoeffs:
    """Characteristic coefficients f_0..f_kmax (default: the full vector).

    f_0 is the product form sum_k prod_{m<k} p_m/q_{m+1} (equal to 1/pi_0
    for irreducible ladders and exactly 1 for restricted sub-generators);
    higher f_k come from the coefficient-table rows.  The rows run on the
    integer lattice of `chain._rate_lattice` and each f_k, f_0 included
    (c_0(j) = p_0 ... p_{j-1}), is one Fraction of an integer Horner sum
    (module docstring), for every ladder: a float or mpf ladder gets the
    coefficients of the binary rationals its rates hold.

    Raises ReducibleChainError for an unrestricted reducible ladder and for a
    sub-generator with a zero interior down-rate q_j: the states from j up
    then form a closed class, and the product form has no normaliser.
    """
    _check_normaliser(ladder)
    base = ladder.embedded()
    N = base.n_states - 1
    if kmax is None:
        kmax = N
    if not 0 <= kmax <= N:
        raise ValueError(f"kmax must lie in [0, N] = [0, {N}]")
    scale, p, q = _rate_lattice(base)
    norm = math.prod(q[1:])
    f = (Fraction(scale**k * t, norm) for k, t in enumerate(_horner_sums(p, q, kmax, 1)))
    return CharCoeffs(f=tuple(f), n=N)


@dataclass(frozen=True)
class NewtonSums:
    """Power sums of the nonzero eigenvalue shifts, from Newton's identities."""

    sum_z: object
    sum_z2: object
    sum_inv_z: object
    sum_inv_z2: object
    prod_neg_z: object


def newton_sums(coeffs: CharCoeffs) -> NewtonSums:
    """sum z, sum z^2, sum 1/z, sum 1/z^2 and prod(-z) of the f-polynomial zeros:

        sum z     = -f_{N-1}/f_N
        sum z^2   = (f_{N-1}/f_N)^2 - 2 f_{N-2}/f_N
        sum 1/z   = -f_1/f_0
        sum 1/z^2 = (f_1/f_0)^2 - 2 f_2/f_0
        prod(-z)  = f_0/f_N
    """
    if not coeffs.complete:
        raise InsufficientCoefficientsError("newton_sums needs the full coefficient vector")
    f = coeffs.f
    n = coeffs.n
    if f[0] == 0 or f[n] == 0:
        raise DegenerateCoefficientsError("f_0 and f_N must be nonzero")
    if n == 1:
        sum_z, sum_z2 = -f[0] / f[1], (f[0] / f[1]) ** 2
    else:
        sum_z = -f[n - 1] / f[n]
        sum_z2 = (f[n - 1] / f[n]) ** 2 - 2 * f[n - 2] / f[n]
    sum_inv_z = -f[1] / f[0]
    sum_inv_z2 = (f[1] / f[0]) ** 2 - (2 * f[2] / f[0] if n >= 2 else 0 * f[0])
    return NewtonSums(
        sum_z=sum_z,
        sum_z2=sum_z2,
        sum_inv_z=sum_inv_z,
        sum_inv_z2=sum_inv_z2,
        prod_neg_z=f[0] / f[n],
    )
