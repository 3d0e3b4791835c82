"""Number-representation plumbing: exact rationals plus mpmath big floats.

Rates and coefficients are kept as `fractions.Fraction` whenever they were
constructed from exact inputs (int / Fraction / decimal strings), so that
polynomial identities can be checked with equality instead of tolerances.
Conversion to binary floats happens only at explicitly chosen precision.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

import mpmath
from mpmath import mp
from mpmath.libmp import from_float, from_rational, mpf_pos, round_nearest


def is_exact(x) -> bool:
    """True when x is an exact rational (int or Fraction)."""
    return isinstance(x, Rational)


def all_exact(values) -> bool:
    return all(is_exact(v) for v in values)


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


def to_raw(x, prec: int):
    """x as a raw mpf value (mpmath's `_mpf_` tuple) at prec, rounded once, to
    nearest: `to_mpf(x)._mpf_` at mp.prec = prec, without the mpf object.
    """
    if isinstance(x, Rational):
        return from_rational(x.numerator, x.denominator, prec, round_nearest)
    if isinstance(x, float):
        return from_float(x, prec, round_nearest)
    return mpf_pos(x._mpf_, prec, round_nearest)


def to_mpf(x) -> mpmath.mpf:
    """Convert to mpf at the *current* mpmath working precision; a rational is
    rounded once, to nearest.
    """
    return mp.make_mpf(to_raw(x, mp.prec))


def to_float(x) -> float:
    if isinstance(x, Rational):
        return x.numerator / x.denominator
    return float(x)

