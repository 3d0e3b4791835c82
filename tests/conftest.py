from collections import namedtuple
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from mpmath import mp
from mpmath.libmp import to_rational

from bdecay import GENERATOR, RateLadder, ReducibleChainError, decay
from bdecay._numbers import to_mpf

positive_rates = st.fractions(
    min_value=Fraction(1, 20), max_value=Fraction(4), max_denominator=20
)


@st.composite
def rational_ladders(draw, min_states=2, max_states=8, mode=GENERATOR):
    """Irreducible ladders with small exact-rational rates."""
    width = draw(st.integers(min_value=min_states - 1, max_value=max_states - 1))
    up = draw(st.lists(positive_rates, min_size=width, max_size=width))
    down = draw(st.lists(positive_rates, min_size=width, max_size=width))
    if mode == GENERATOR:
        return RateLadder(up=up, down=down, mode=mode)
    scale = 2 * max(p + q for p, q in zip(up + [Fraction(0)], [Fraction(0)] + down)) + 1
    return RateLadder(
        up=[p / scale for p in up], down=[q / scale for q in down], mode=mode
    )


@st.composite
def rational_subgenerators(draw, min_states=1, max_states=8):
    """Restricted sub-generators (loss0 > 0) with small exact-rational rates;
    a zero up-rate cuts M into irreducible blocks.
    """
    width = draw(st.integers(min_value=min_states - 1, max_value=max_states - 1))
    up_rates = st.one_of(st.just(Fraction(0)), positive_rates)
    up = draw(st.lists(up_rates, min_size=width, max_size=width))
    down = draw(st.lists(positive_rates, min_size=width, max_size=width))
    return RateLadder(up=up, down=down, mode=GENERATOR, loss0=draw(positive_rates))


def binary_copy(ladder):
    """The exact ladder of the binary rationals that a float or mpf ladder
    holds, read by Fraction(float) and mpmath's own mpf-to-rational.
    """

    def value(r):
        return Fraction(*to_rational(r._mpf_)) if isinstance(r, mp.mpf) else Fraction(r)

    return RateLadder(
        up=[value(r) for r in ladder.up],
        down=[value(r) for r in ladder.down],
        mode=ladder.mode,
        loss0=value(ladder.loss0),
    )


@pytest.fixture
def stall_perron(monkeypatch):
    """stall_perron(rows) makes every Collatz-Wielandt bracket of a Perron
    block with that many rows [1, 2], in the type of the iterate, so the
    kernel's bracket never narrows.
    """
    ratios = decay._collatz_wielandt

    def stall(rows):
        monkeypatch.setattr(
            decay,
            "_collatz_wielandt",
            lambda v, y: (type(v[0])(1), type(v[0])(2)) if len(v) == rows else ratios(v, y),
        )

    return stall


# offdiag_sq and h_sq are exact when the ladder is; offdiag and h are their
# square roots at the requested precision
SymTridiag = namedtuple("SymTridiag", "diag offdiag_sq h_sq offdiag h")


def symmetrize(ladder, mantissa_bits=128):
    """Similarity transform H = diag(h_1..h_n) making the ladder matrix symmetric.

    h_1 = 1 and (h_{i+1}/h_i)^2 = p_{i-1}/q_i; the symmetric off-diagonal is
    sqrt(p_{i-1} q_i).  Requires all interior rates positive (the transform
    divides by q_i); a loss0 term is allowed and stays on the diagonal.
    """
    if ladder.reducible:
        raise ReducibleChainError("symmetrization requires all interior rates positive")
    shift = 0 if ladder.mode == GENERATOR else 1
    diag = tuple(shift - ladder.out_rate(j) for j in range(ladder.n_states))
    off_sq = tuple(p * q for p, q in zip(ladder.up, ladder.down))
    h_sq = [1]
    for p, q in zip(ladder.up, ladder.down):
        h_sq.append(h_sq[-1] * p / q)
    with mp.workprec(mantissa_bits):
        off = tuple(mp.sqrt(to_mpf(v)) for v in off_sq)
        h = tuple(mp.sqrt(to_mpf(v)) for v in h_sq)
    return SymTridiag(diag=diag, offdiag_sq=off_sq, h_sq=tuple(h_sq), offdiag=off, h=h)
