"""Generalized birth-death ladders: rates, steady state, transient restriction.

A ladder on states 0..N is defined by up-rates p_0..p_{N-1} and down-rates
q_1..q_N (conventions p_N = q_0 = 0).  In `generator` mode the tri-diagonal
matrix is the infinitesimal generator Q with diagonal -(p_j + q_j); in
`stochastic` mode it is the transition matrix P with diagonal 1 - p_j - q_j.
All spectral machinery in this package works in the shifted variable
xi (= eigenvalue of Q, or lambda - 1 for P), which makes the two modes share
one code path.

A `loss0 > 0` marks a restricted sub-generator: the block on the transient
states of an absorbing chain, where the absorption rate out of the bottom
state is kept as pure loss on the diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._numbers import as_number, is_exact, to_fraction
from .errors import (
    InvalidParameterError,
    IrreducibleChainError,
    ReducibleChainError,
    UnsupportedStructureError,
)

GENERATOR = "generator"
STOCHASTIC = "stochastic"


@dataclass(frozen=True)
class RateLadder:
    """Immutable birth-death rate ladder.

    up:    p_0..p_{N-1}   (rate j -> j+1)
    down:  q_1..q_N       (rate j -> j-1)
    mode:  "generator" or "stochastic"
    loss0: extra exit rate from state 0 (restricted sub-generators only)
    """

    up: tuple
    down: tuple
    mode: str = GENERATOR
    loss0: object = 0

    def __post_init__(self):
        object.__setattr__(self, "up", tuple(as_number(v) for v in self.up))
        object.__setattr__(self, "down", tuple(as_number(v) for v in self.down))
        object.__setattr__(self, "loss0", as_number(self.loss0))
        if self.mode not in (GENERATOR, STOCHASTIC):
            raise ValueError(f"unknown mode {self.mode!r}")
        if len(self.up) != len(self.down):
            raise ValueError("up and down must have equal length (p_0..p_{N-1} / q_1..q_N)")
        rates = (*self.up, *self.down, self.loss0)
        if any(v < 0 for v in rates):
            raise InvalidParameterError("rates must be nonnegative")
        # a Fraction is finite; v < inf is False for nan and inf, True for mpf('1e400')
        if any(not v < math.inf for v in rates if type(v) is not Fraction):
            raise InvalidParameterError("rates must be finite")
        if self.mode == STOCHASTIC:
            if self.loss0 != 0:
                raise InvalidParameterError("stochastic ladders cannot carry a loss term")
            for j in range(self.n_states):
                if self.out_rate(j) > 1:
                    raise InvalidParameterError(
                        f"stochastic mode requires p_j + q_j <= 1 (violated at j={j})"
                    )

    @property
    def n_states(self) -> int:
        return len(self.up) + 1

    @property
    def reducible(self) -> bool:
        """True when some interior transition rate vanishes (loss0 ignored)."""
        return any(v == 0 for v in self.up) or any(v == 0 for v in self.down)

    @property
    def is_subgenerator(self) -> bool:
        return self.loss0 != 0

    def up_rate(self, j):
        """p_j with the p_N = 0 convention."""
        return self.up[j] if 0 <= j < len(self.up) else Fraction(0)

    def down_rate(self, j):
        """q_j with the q_0 = 0 convention."""
        return self.down[j - 1] if 1 <= j <= len(self.down) else Fraction(0)

    def out_rate(self, j):
        out = self.up_rate(j) + self.down_rate(j)
        if j == 0:
            out = out + self.loss0
        return out

    def embedded(self) -> "RateLadder":
        """Re-attach the absorbing state of a restricted sub-generator.

        Returns the (reducible) full ladder whose transient block is this
        sub-generator; identity when loss0 == 0.
        """
        if not self.is_subgenerator:
            return self
        return RateLadder(
            up=(Fraction(0),) + self.up,
            down=(self.loss0,) + self.down,
            mode=self.mode,
        )


def _node_count(n) -> int:
    """n as an int; anything but a positive integer is an InvalidParameterError."""
    if n < 1 or int(n) != n:
        raise InvalidParameterError("n must be a positive integer")
    return int(n)


def _sis_inputs(n, beta, delta, eps):
    """(n, beta, delta, eps) of the epidemic on K_n, checked and canonicalised."""
    n = _node_count(n)
    beta, delta, eps = as_number(beta), as_number(delta), as_number(eps)
    if beta <= 0 or delta <= 0:
        raise InvalidParameterError("beta and delta must be positive")
    if eps < 0:
        raise InvalidParameterError("eps must be nonnegative")
    return n, beta, delta, eps


def build_eps_sis_ladder(n, beta, delta, eps) -> RateLadder:
    """Ladder of the self-exciting SIS process on the complete graph K_n.

    Up-rates (beta*j + eps)*(n - j), down-rates j*delta on states 0..n.
    With eps = 0 state 0 is absorbing and the ladder is reducible.  For
    exact beta and eps each up-rate is one Fraction of integers,
    (a d j + c b)(n - j) / (b d) with beta = a/b and eps = c/d.
    """
    n, beta, delta, eps = _sis_inputs(n, beta, delta, eps)
    if is_exact(beta) and is_exact(eps):
        a, b, c, d = beta.numerator, beta.denominator, eps.numerator, eps.denominator
        up = tuple(Fraction((a * d * j + c * b) * (n - j), b * d) for j in range(n))
    else:
        up = tuple((beta * j + eps) * (n - j) for j in range(n))
    down = tuple(j * delta for j in range(1, n + 1))
    return RateLadder(up=up, down=down, mode=GENERATOR)


def _product_weights(ladder: RateLadder) -> list:
    """Product-form weights w_j = prod_{m<j} p_m / q_{m+1}, j = 0..N (sum: f_0)."""
    weights = [1]
    for p, q in zip(ladder.up, ladder.down):
        weights.append(weights[-1] * p / q)
    return weights


def _rate_lattice(ladder: RateLadder):
    """(D, P, Q): the rates of a ladder on their common denominator.

    Each rate is read at its exact value (`to_fraction`; a float or mpf is
    the binary rational it holds).  D is the lcm of the denominators of
    p_0..p_{N-1} and q_1..q_N, and P_j = D p_j, Q_j = D q_j (j = 0..N, with
    P_N = Q_0 = 0) are ints.  A polynomial in the rates that is homogeneous
    of degree d is then D^d times the same polynomial in P and Q, with no
    Fraction arithmetic.
    """
    up, down = [list(map(to_fraction, rates)) for rates in (ladder.up, ladder.down)]
    D = math.lcm(*(r.denominator for r in up + down))
    P = [r.numerator * (D // r.denominator) for r in up] + [0]
    Q = [0] + [r.numerator * (D // r.denominator) for r in down]
    return D, P, Q


def steady_state(ladder: RateLadder) -> tuple:
    """Product-form stationary distribution (pi_0, ..., pi_N) of an
    irreducible ladder.

    pi_j proportional to prod_{m<j} p_m / q_{m+1}; exact for exact rates.
    """
    if ladder.is_subgenerator:
        raise ReducibleChainError("a restricted sub-generator has no stationary distribution")
    if ladder.reducible:
        raise ReducibleChainError("steady state requires an irreducible ladder")
    weights = _product_weights(ladder)
    total = sum(weights)
    return tuple(w / total for w in weights)


def restrict_transient(ladder: RateLadder) -> RateLadder:
    """Drop the absorbing state 0, keeping its entry rate as pure loss.

    The returned ladder lives on the original states 1..N (relabelled 0..N-1)
    with loss0 = q_1.  The decay parameter of the original chain equals the
    largest eigenvalue of this sub-generator.
    """
    if ladder.is_subgenerator:
        raise UnsupportedStructureError("ladder is already a restricted sub-generator")
    if not ladder.reducible:
        raise IrreducibleChainError("ladder has no absorbing state to restrict away")
    if ladder.up_rate(0) != 0:
        raise UnsupportedStructureError(
            "transient restriction supports reducibility at state 0 only (p_0 = 0)"
        )
    if ladder.mode != GENERATOR:
        raise UnsupportedStructureError("transient restriction applies to generator ladders")
    return RateLadder(
        up=ladder.up[1:],
        down=ladder.down[1:],
        mode=GENERATOR,
        loss0=ladder.down[0],
    )
