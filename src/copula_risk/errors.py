"""Exception types shared across the package, and `number`, its input check."""


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


def number(name: str, value) -> float:
    """float(value); DomainError for a str or bytes, which float() would
    read ("0.5"), and for anything float() cannot convert or overflows on."""
    if isinstance(value, (str, bytes)):
        raise DomainError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:  # 10**5000 has no repr
        raise DomainError(f"{name} must be a number: {exc}") from None
