"""Exception types shared across the package."""


class CopulaRiskError(Exception):
    """Base class for every error raised by this package."""


class DomainError(CopulaRiskError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class BracketInvalid(CopulaRiskError):
    """The supplied interval does not bracket the requested target value."""


class NoBracket(CopulaRiskError):
    """Geometric expansion failed to find an upper bound enclosing the target."""


class NoConvergence(CopulaRiskError):
    """An iterative routine exhausted its budget before reaching tolerance."""


class DivergentTail(CopulaRiskError):
    """The requested tail expectation does not exist (the integral diverges)."""


class LowTailCount(CopulaRiskError):
    """Too few tail exceedances for a reliable empirical estimate."""
