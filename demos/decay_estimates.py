"""Walk through every decay-parameter estimate on one small epidemic chain.

The epidemic on the complete graph with n nodes is a birth-death chain on the
number of infected nodes.  With no self-infection the healthy state absorbs,
and the relevant rate is the largest eigenvalue of the transient block: the
decay parameter.  This script builds the chain, extracts the characteristic
coefficients, and compares the series estimates and bounds with the exact
value from the shifted Perron iteration.
"""

from fractions import Fraction

from bdecay import (
    EpsSisParams,
    PrecisionCtx,
    char_coeffs,
    decay_report,
    restrict_transient,
)
from bdecay.charpoly import newton_sums

params = EpsSisParams.from_tau(n=8, tau=Fraction(1, 4), delta=1, eps=0)
print(f"epidemic on K_{params.n}: tau = {params.tau}, x = n*tau = {params.x}")

ladder = params.ladder()
print(f"\nfull ladder is reducible (state 0 absorbs): {ladder.reducible}")
sub = restrict_transient(ladder)
print(f"restricted to the transient states, loss rate out of state 1: {sub.loss0}")

# The characteristic coefficients are exact rationals.  Their polynomial has
# the transient-block eigenvalues as zeros, so its power sums are free:
coeffs = char_coeffs(sub)
print("\nfirst characteristic coefficients:")
for k in (0, 1, 2, 3):
    print(f"  f_{k} = {coeffs.f[k]} = {float(coeffs.f[k]):.6g}")

sums = newton_sums(coeffs)
print(f"\nsum of eigenvalues        : {float(sums.sum_z):+.6f}")
print(f"sum of inverse eigenvalues: {float(sums.sum_inv_z):+.6f}"
      "   (minus the mean extinction time)")

report = decay_report(sub, PrecisionCtx(mantissa_bits=128))
print("\ndecay-parameter estimates (all negative, ordered):")
print(f"  series, order 1      : {float(report.zeta_lagrange[1]):+.12f}")
print(f"  series, order 2      : {float(report.zeta_lagrange[2]):+.12f}")
print(f"  series, order 3      : {float(report.zeta_lagrange[3]):+.12f}")
print(f"  power-sum upper bound: {float(report.zeta_newton_bound):+.12f}")
print(f"  exact (Perron)       : {float(report.zeta_exact):+.12f}")
print(f"\nordering exact <= bound <= order-1 holds: {report.ordering_ok}")
print(f"working precision: {report.precision_bits} bits")
