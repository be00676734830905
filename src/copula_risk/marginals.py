"""Exponential and Pareto loss marginals with closed-form risk measures.

Each marginal is the closed-form law of its own target (x1 or x2), with the
`method`, `quantile(a, s)` and `mean_excess(q, s)` of every law, so no
marginal measure solves: CTE is VaR plus the mean excess beyond it, 1/rate
or VaR/(gamma - 1), as for every law. The scalar measures (`var`, `cte`,
`mot`, `report`) compute in `math`, through `extremes.law_measures` like
those of every target; the array helpers (`cdf`, `pdf`, `quantile`) accept
scalars or numpy arrays for sampling and import numpy on their first call,
not with the module. The sampler calls the quantile kernel
`_quantile_into` directly, in place; `quantile` is its allocating,
checking wrapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .errors import DivergentTail, DomainError, number


class Method(str, Enum):
    """How a reported measure was computed."""

    CLOSED_FORM = "closed_form"
    ROOT_SOLVE = "root_solve"


@dataclass(frozen=True)
class ExponentialMarginal:
    """Exponential loss severity with the given hazard rate."""

    rate: float

    def __post_init__(self) -> None:
        rate = number("rate", self.rate)
        if not (rate > 0 and math.isfinite(rate)):
            raise DomainError(f"rate must be positive and finite, got {rate}")
        # the checked float, not the Decimal or float32 it came from, is what
        # every formula reads; so with each parameter below
        object.__setattr__(self, "rate", rate)

    method = Method.CLOSED_FORM

    def tail_quantile(self, s: float) -> float:
        """The quantile at tail mass s in (0, 1], formed in s."""
        return -math.log(s) / self.rate

    def quantile(self, a: float, s: float) -> float:
        """The quantile at a level a in (0, 1) of tail mass s. For a >= 1/2
        it is read at s, which is exact where a may round (the MoT level),
        and log(s) rounds correctly more often than log1p(-a)."""
        return self.tail_quantile(s) if a >= 0.5 else -math.log1p(-a) / self.rate

    def mean_excess(self, q: float, s: float) -> float:
        """E[X - q | X > q] beyond a quantile q of tail mass s: 1/rate."""
        return 1.0 / self.rate


@dataclass(frozen=True)
class ParetoMarginal:
    """Pareto loss severity with left endpoint x0 and tail exponent gamma."""

    x0: float
    gamma: float

    def __post_init__(self) -> None:
        x0, gamma = number("x0", self.x0), number("gamma", self.gamma)
        if not (x0 > 0 and math.isfinite(x0)):
            raise DomainError(f"x0 must be positive and finite, got {x0}")
        if not (gamma > 0 and math.isfinite(gamma)):
            raise DomainError(f"gamma must be positive and finite, got {gamma}")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "gamma", gamma)

    method = Method.CLOSED_FORM

    def tail_quantile(self, s: float) -> float:
        """The quantile at tail mass s in (0, 1]; inf if it overflows."""
        try:
            return self.x0 * s ** (-1.0 / self.gamma)
        except OverflowError:  # float ** raises where numpy's power gives inf
            return math.inf

    def quantile(self, a: float, s: float) -> float:
        """The quantile at a level a in (0, 1), read at its tail mass s."""
        return self.tail_quantile(s)

    def mean_excess(self, q: float, s: float) -> float:
        """E[X - q | X > q] beyond a quantile q of tail mass s: q/(gamma - 1);
        DivergentTail for gamma <= 1."""
        if self.gamma <= 1.0:
            raise DivergentTail(
                f"Pareto CTE requires gamma > 1, got gamma={self.gamma}"
            )
        return q / (self.gamma - 1.0)


Marginal = Union[ExponentialMarginal, ParetoMarginal]


@dataclass(frozen=True)
class Alpha:
    """Confidence level, strictly inside (0, 1)."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _checked_level(self.value))


AlphaLike = Union[Alpha, float]


def level_of(alpha: AlphaLike) -> float:
    """Return the bare confidence level of an Alpha or float, validated.

    DomainError for a level outside (0, 1), and for a string or any value
    that float() cannot convert."""
    return alpha.value if isinstance(alpha, Alpha) else _checked_level(alpha)


def _checked_level(alpha) -> float:
    a = number("alpha", alpha)
    if not 0.0 < a < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {a}")
    return a


def _mot_level(a: float) -> float:
    """The level (1 + a)/2 whose quantile is the MoT at a level a."""
    return 0.5 * (1.0 + a)


@dataclass(frozen=True)
class RiskReport:
    """VaR, CTE and MoT of one risk at one confidence level."""

    alpha: Alpha
    var: float
    cte: float
    mot: float
    method: Method
    tolerance: float

    def __post_init__(self) -> None:
        # MoT sits deeper in the tail than VaR, and the mean of the tail
        # exceeds its left endpoint, for every continuous family in scope;
        # either may round onto VaR (the Pareto mean excess VaR/(gamma - 1)
        # falls below half an ulp of VaR near gamma = 1e16)
        if not self.var <= self.mot:
            raise DomainError(f"var={self.var} must not exceed mot={self.mot}")
        if not self.var <= self.cte:
            raise DomainError(f"var={self.var} must not exceed cte={self.cte}")


def _dispatch(m: Marginal):
    if isinstance(m, ExponentialMarginal):
        return "exp"
    if isinstance(m, ParetoMarginal):
        return "pareto"
    raise DomainError(f"unsupported marginal type: {type(m).__name__}")


def _points(x):
    """x as a float array. DomainError for a str or bytes point or element,
    which numpy would read as a number ("0.5"), for anything float() cannot
    convert, and for NaN."""
    import numpy as np

    xs = np.asarray(x)
    kind = xs.dtype.kind
    if kind in "SU" or (
        kind == "O" and any(isinstance(v, (str, bytes)) for v in xs.flat)
    ):
        raise DomainError(f"x must be a number, got {x!r}")
    try:
        xs = xs.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"x must be a number: {exc}") from None
    if np.isnan(xs).any():
        raise DomainError("x must not be NaN")
    return xs


def cdf(m: Marginal, x):
    """Distribution function; 0 below the support. DomainError where x is
    not a number or is NaN (`_points`)."""
    import numpy as np

    xs = _points(x)
    if _dispatch(m) == "exp":
        out = np.where(xs > 0.0, -np.expm1(-m.rate * np.maximum(xs, 0.0)), 0.0)
    else:
        out = np.where(
            xs > m.x0, 1.0 - (m.x0 / np.maximum(xs, m.x0)) ** m.gamma, 0.0
        )
    return out if out.ndim else float(out)


def pdf(m: Marginal, x):
    """Density; 0 outside the support. DomainError where x is not a number
    or is NaN (`_points`)."""
    import numpy as np

    xs = _points(x)
    if _dispatch(m) == "exp":
        out = np.where(
            xs >= 0.0, m.rate * np.exp(-m.rate * np.maximum(xs, 0.0)), 0.0
        )
    else:
        # gamma/x * (x0/x)^gamma: x0^gamma and x^(-gamma-1) apart leave
        # the float range
        safe = np.maximum(xs, m.x0)
        out = np.where(
            xs >= m.x0, m.gamma / safe * (m.x0 / safe) ** m.gamma, 0.0
        )
    return out if out.ndim else float(out)


def quantile(m: Marginal, p):
    """Left-continuous inverse CDF, exact; accepts p in [0, 1)."""
    import numpy as np

    ps = np.asarray(p, dtype=float)
    # min and max propagate NaN, so NaN fails the check too
    if ps.size and not (ps.min() >= 0.0 and ps.max() < 1.0):
        raise DomainError("quantile level must lie in [0, 1)")
    out = _quantile_into(m, ps, np.empty(ps.shape))
    return out if out.ndim else float(out)


def _quantile_into(m: Marginal, p, out):
    """quantile's formula written into out, which may be p itself.

    p must lie in [0, 1); nothing is checked.
    """
    import numpy as np

    if _dispatch(m) == "exp":
        # -log1p(-p) / rate, with the sign moved onto the divisor
        np.negative(p, out=out)
        np.log1p(out, out=out)
        np.divide(out, -m.rate, out=out)
    else:
        # x0 * (1 - p) ** (-1/gamma); **= takes numpy's scalar-power path
        # as ** does
        np.subtract(1.0, p, out=out)
        out **= -1.0 / m.gamma
        np.multiply(out, m.x0, out=out)
    return out


def _measure(m: Marginal, alpha: AlphaLike, measure: str) -> float:
    # the one path of every measure solves the composite laws too, so it
    # sits in `extremes`, which imports this module; a marginal is its law
    from .extremes import law_measures

    _dispatch(m)  # DomainError for anything else
    return law_measures(m, alpha, measure)


def var(m: Marginal, alpha: AlphaLike) -> float:
    """Value at risk: the alpha-quantile, in closed form."""
    return _measure(m, alpha, "var")


def cte(m: Marginal, alpha: AlphaLike) -> float:
    """Conditional tail expectation E[X | X > VaR], in closed form: VaR plus
    the mean excess, 1/rate or VaR/(gamma - 1).

    Raises:
        DivergentTail: for a Pareto marginal with gamma <= 1.
    """
    return _measure(m, alpha, "cte")


def mot(m: Marginal, alpha: AlphaLike) -> float:
    """Median of the tail beyond VaR: the quantile at level (1 + alpha)/2,
    read at its tail mass (1 - alpha)/2."""
    return _measure(m, alpha, "mot")


def report(m: Marginal, alpha: AlphaLike) -> RiskReport:
    """All three measures of a single marginal at one confidence level."""
    from .extremes import law_report  # as in _measure

    _dispatch(m)
    return law_report(m, alpha)
