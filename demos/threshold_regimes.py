"""Three regimes of epidemic decay, and the lifetime-decay duality.

Measured in threshold units x = n*tau, the decay parameter behaves in three
different ways: fast O(1/log n) extinction below x = 1, O(1/n)-to-O(1/sqrt n)
slowing at the threshold, and exponentially slow extinction above it, where
-zeta approaches 1/E[T] so closely that the product zeta*E[T] pins -1.
"""

from fractions import Fraction

from mpmath import mp

from bdecay import (
    EpsSisParams,
    decay_regime,
    exact_zeta,
    lifetime_direct,
    restrict_transient,
)
from bdecay._numbers import to_mpf

print("regime classification and leading decay-rate estimates:")
print(f"{'n':>5} {'x':>5} {'regime':>7} {'estimate':>12} {'order only':>11}")
for n, x in [(50, Fraction(1, 2)), (50, 1), (50, 2), (400, 1), (400, 3)]:
    est = decay_regime(n, x, 1)
    print(f"{n:>5} {float(x):>5.1f} {est.regime:>7} {est.leading_estimate:>12.4e} "
          f"{str(est.order_only):>11}")

print("\nabove threshold the decay parameter inverts the mean lifetime:")
print(f"{'n':>5} {'x':>4} {'-zeta':>14} {'1/E[T]':>14} {'|zeta*E[T]+1|':>14}")
for n, x in [(40, 2), (70, 2), (100, 2), (100, Fraction(5, 2))]:
    params = EpsSisParams.from_x(n, x, 1, 0)
    z = exact_zeta(restrict_transient(params.ladder()))
    lifetime = lifetime_direct(n, params.tau)
    with mp.workprec(128):
        resid = float(abs(z * to_mpf(lifetime) + 1))
    print(f"{n:>5} {float(x):>4.1f} {float(-z):>14.6e} {1 / float(lifetime):>14.6e} "
          f"{resid:>14.2e}")

print("\nnote the residual collapsing with n: the one tiny eigenvalue owns")
print("the whole lifetime, the rest of the spectrum contributes the residual.")
