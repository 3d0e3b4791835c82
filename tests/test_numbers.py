from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings
from mpmath import mp
from mpmath.libmp import to_rational

from bdecay._numbers import as_number, to_mpf


def test_as_number_keeps_a_fraction():
    r = Fraction(3, 7)
    assert as_number(r) is r
    assert as_number(3) == 3 and type(as_number(3)) is Fraction


def floor_log2(r: Fraction) -> int:
    """floor(log2 r) of a positive rational, exactly."""
    e = r.numerator.bit_length() - r.denominator.bit_length()
    return e - 1 if r < Fraction(2) ** e else e


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([64, 128]),
    st.integers(0, 2 ** 169 - 1),
    st.integers(0, 2 ** 89 - 1),
    st.booleans(),
)
def test_to_mpf_rounds_a_wide_rational_once(prec, p_low, q_low, negative):
    # a 170-bit numerator over a 90-bit denominator: rounding the numerator to
    # the working precision first and then the quotient can land more than
    # half an ulp from p/q
    p, q = (1 << 169) | p_low, (1 << 89) | q_low
    r = Fraction(-p if negative else p, q)
    with mp.workprec(prec):
        got = Fraction(*to_rational(to_mpf(r)._mpf_))
    assert abs(got - r) <= Fraction(2) ** (floor_log2(abs(r)) - prec)
