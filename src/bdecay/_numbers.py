"""Number-representation plumbing: exact rationals plus mpmath big floats.

Rates from exact inputs (int / Fraction / decimal strings) are kept as
`fractions.Fraction`; float and mpf rates keep their type, and `to_fraction`
reads them at their exact binary value, so coefficients are Fractions and
polynomial identities are checked with equality instead of tolerances.
Conversion to binary floats happens only at explicitly chosen precision.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

import mpmath
from mpmath import mp
from mpmath.libmp import from_rational, round_nearest


def is_exact(x) -> bool:
    """True when x is an exact rational (int or Fraction)."""
    return isinstance(x, Rational)


def as_number(x):
    """Canonicalize a rate-like input: ints become Fractions, Fractions and
    floats stay.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a valid rate")
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, (float, mpmath.mpf)):
        return x
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"unsupported numeric type: {type(x)!r}")


def to_fraction(x) -> Fraction:
    """The exact rational value of a finite int, Fraction, float or mpf: a
    binary number is read at its own value, not at its decimal repr.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, mpmath.mpf):
        if not mpmath.isfinite(x):
            raise ValueError(f"{x} has no rational value")
        man, exp = x.man_exp
        return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return Fraction(x)


def to_mpf(x) -> mpmath.mpf:
    """Convert to mpf at the *current* mpmath working precision; a rational is
    rounded once, to nearest.
    """
    if isinstance(x, Rational):
        return mp.make_mpf(from_rational(x.numerator, x.denominator, mp.prec, round_nearest))
    return mp.mpf(x)


def to_float(x) -> float:
    if isinstance(x, Rational):
        return x.numerator / x.denominator
    return float(x)

