"""bdecay: decay parameter and mean extinction time of birth-death chains.

Tri-diagonal birth-death chains (generators or stochastic matrices) carry a
characteristic-coefficient structure that yields the second-largest
eigenvalue -- the decay parameter -- through Lagrange series, analytic
bounds, and a shifted Perron iteration on the birth-death Green's function at
arbitrary precision (Sturm sequences in `oracle` referee it).  The
package specializes the machinery to SIS epidemics on the complete graph,
where the decay parameter governs extinction and the mean extinction time
has several independent closed forms.

The names below are the production surface, the routes to the decay
parameter and the mean lifetime.  Import the helpers that check them from
their modules: `charpoly` (c1_explicit, c2_explicit, diag_band_coeffs,
coefficient_table, newton_sums, NewtonSums), `sis` (taylor_coeffs) and
`oracle` (sturm_zeta, dense_spectrum, sturm_tol, survival_log_slope).
"""

from .chain import (
    GENERATOR,
    STOCHASTIC,
    RateLadder,
    build_eps_sis_ladder,
    restrict_transient,
    steady_state,
)
from .charpoly import CharCoeffs, char_coeffs
from .decay import (
    DecayReport,
    PrecisionCtx,
    decay_report,
    exact_zeta,
    lagrange_zeta,
    newton_bound,
    required_precision,
)
from .errors import (
    BdecayError,
    DegenerateCoefficientsError,
    DomainError,
    InconsistentCoefficientsError,
    InsufficientCoefficientsError,
    InvalidParameterError,
    IrreducibleChainError,
    PrecisionExhaustedError,
    QuadratureFailureError,
    ReducibleChainError,
    UnsupportedStructureError,
)
from .oracle import GillespieResult, gillespie_simulate, hitting_time_solve
from .sis import (
    EpsSisParams,
    LifetimeReport,
    RegimeEstimate,
    decay_regime,
    lifetime_asymptotic,
    lifetime_direct,
    lifetime_expint,
    lifetime_taylor,
    mean_absorption_time,
)

__version__ = "0.1.0"

__all__ = [
    # chain
    "GENERATOR", "STOCHASTIC", "RateLadder", "build_eps_sis_ladder",
    "restrict_transient", "steady_state",
    # charpoly
    "CharCoeffs", "char_coeffs",
    # decay
    "DecayReport", "PrecisionCtx", "decay_report", "exact_zeta", "lagrange_zeta",
    "newton_bound", "required_precision",
    # errors
    "BdecayError", "DegenerateCoefficientsError", "DomainError",
    "InconsistentCoefficientsError", "InsufficientCoefficientsError",
    "InvalidParameterError", "IrreducibleChainError", "PrecisionExhaustedError",
    "QuadratureFailureError", "ReducibleChainError", "UnsupportedStructureError",
    # oracle
    "GillespieResult", "gillespie_simulate", "hitting_time_solve",
    # sis
    "EpsSisParams", "LifetimeReport", "RegimeEstimate", "decay_regime",
    "lifetime_asymptotic", "lifetime_direct", "lifetime_expint", "lifetime_taylor",
    "mean_absorption_time",
]
