"""The mean extinction time, four independent ways.

Starting from the all-infected state with no self-infection, the mean time to
reach the healthy state has
  * an exact streaming recursion (any n, exact rationals),
  * an exact Taylor series in tau with fully checkable coefficients,
  * an exponential-integral quadrature form (above threshold, wherever
    beta*F fits a double),
  * a large-n asymptotic form (above threshold).
The oracle module adds a fifth route: the linear hitting-time solve.
"""

from fractions import Fraction

from bdecay import (
    build_eps_sis_ladder,
    hitting_time_solve,
    lifetime_asymptotic,
    lifetime_direct,
    lifetime_expint,
    lifetime_taylor,
)

print(f"{'n':>4} {'tau':>8} {'direct':>16} {'taylor==':>9} {'expint rel':>12} "
      f"{'asym ratio':>11} {'hitting==':>10}")
for n, x in [(6, 2), (12, 2), (20, 3), (40, 2)]:
    tau = Fraction(x, n)
    direct = lifetime_direct(n, tau)
    taylor_same = lifetime_taylor(n, tau) == direct
    hit_same = hitting_time_solve(build_eps_sis_ladder(n, tau, 1, 0))[-1] == direct
    expint_rel = abs(lifetime_expint(n, tau) - float(direct)) / float(direct)
    ratio = lifetime_asymptotic(n, x) / float(direct)
    print(f"{n:>4} {str(tau):>8} {float(direct):>16.6f} {str(taylor_same):>9} "
          f"{expint_rel:>12.2e} {ratio:>11.4f} {str(hit_same):>10}")

print("\nthe asymptotic ratio walks toward 1 as n grows at fixed x = 2:")
for n in (25, 50, 100, 200, 400):
    ratio = lifetime_asymptotic(n, 2) / float(lifetime_direct(n, Fraction(2, n)))
    print(f"  n={n:>4}: {ratio:.5f}")

print("\nexact values stay exact: F for n=60, tau=3/60 is the rational")
val = lifetime_direct(60, Fraction(3, 60))
print(f"  {val.numerator.bit_length()}-bit numerator / "
      f"{val.denominator.bit_length()}-bit denominator = {float(val):.6e}")
