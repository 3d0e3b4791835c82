"""Exception types shared across the package.

Every contract violation maps to one of these; plain ValueError/TypeError are
reserved for outright API misuse (wrong types, malformed arguments).
"""


class BdecayError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(BdecayError, ValueError):
    """Model parameters outside their admissible range (e.g. beta <= 0)."""


class ReducibleChainError(BdecayError, ValueError):
    """Operation requires an irreducible chain (or a restricted sub-generator)."""


class IrreducibleChainError(BdecayError, ValueError):
    """Restriction requested on a chain that has no absorbing state 0."""


class UnsupportedStructureError(BdecayError, ValueError):
    """Reducibility pattern the transient restriction cannot handle."""


class DegenerateCoefficientsError(BdecayError, ValueError):
    """Characteristic coefficients with vanishing endpoints (f0 or fN = 0)."""


class InsufficientCoefficientsError(BdecayError, ValueError):
    """More characteristic coefficients required than were computed."""


class InconsistentCoefficientsError(BdecayError, ValueError):
    """Coefficient values impossible for a real-spectrum ladder (bad input)."""


class PrecisionExhaustedError(BdecayError, ArithmeticError):
    """Working precision cannot separate the target eigenvalue from zero."""


class DomainError(BdecayError, ValueError):
    """Argument outside the validity domain of a closed form."""


class QuadratureFailureError(BdecayError, ArithmeticError):
    """Adaptive quadrature did not reach the requested tolerance."""

    def __init__(self, message, error_estimate=None):
        super().__init__(message)
        self.error_estimate = error_estimate
