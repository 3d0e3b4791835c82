"""Stochastic extinction times against the exact answers.

Below the epidemic threshold extinction is quick, so plain event-driven
simulation is informative: the sample mean should land on the exact mean
lifetime and the survival tail should decay at the exact decay-parameter
rate.  Above the threshold the lifetime explodes exponentially in n, which is
precisely why the algebraic route of this package matters.
"""

from fractions import Fraction

from bdecay import (
    EpsSisParams,
    exact_zeta,
    gillespie_simulate,
    lifetime_direct,
    restrict_transient,
)
from bdecay.oracle import survival_log_slope

params = EpsSisParams.from_tau(n=8, tau=Fraction(1, 20), delta=1, eps=0)
print(f"simulating extinction on K_{params.n} at tau = {params.tau} "
      f"(x = {float(params.x):.2f}, below threshold)")

result = gillespie_simulate(params, runs=50_000, seed=20240811)
exact_mean = float(lifetime_direct(params.n, params.tau))
pull = abs(result.mean - exact_mean) / result.stderr
print(f"\nruns completed : {result.runs_completed}")
print(f"sample mean    : {result.mean:.5f} +- {result.stderr:.5f}")
print(f"exact mean     : {exact_mean:.5f}   ({pull:.2f} standard errors away)")
print(f"rng            : {result.metadata['algorithm']}")

zeta = float(exact_zeta(restrict_transient(params.ladder())))
slope = survival_log_slope(result.times)
print(f"\nsurvival-tail log slope : {slope:.5f}")
print(f"exact decay parameter   : {zeta:.5f} "
      f"(slope off by {abs(slope - zeta) / abs(zeta):.1%})")

print("\nwhy not simulate above threshold? the mean lifetime at x = 2:")
for n in (20, 50, 100):
    val = float(lifetime_direct(n, Fraction(2, n)))
    print(f"  n={n:>4}: E[T] ~ {val:.3e} time units")
print("the wall-clock budget flag exists for exactly this cliff.")
