"""Risk measures of the minimum and maximum of two dependent losses, and the
solve-and-report path shared by every composite law.

Under FGM dependence the survival function of either extreme is a signed
sum of exponential or Pareto survival terms built from the two marginal
parameters (`ExpTermMixture`, `ParetoTermMixture`): P(min > x) has the
terms (w, i*p1 + j*p2) of the pairs (w, i, j) of `_mixtures.fgm_pairs`, and
P(max > x) = S1(x) + S2(x) - P(min > x). These and the sum's law
(`aggregate._SumLaw`) share one interface: `lo`, the left end of the
support, `cdf`, and the closed-form `tail_expectation` int_q^inf x f(x) dx,
which raises `DivergentTail` where the integral diverges. `solve_level`
brackets up from `lo` and bisects the CDF (VaR at level alpha, MoT at
(1 + alpha) / 2), `cte_beyond` divides the tail integral beyond VaR by
1 - alpha, and `law_report` solves VaR once and reuses it for CTE.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import isnan
from typing import Union

from ._mixtures import ExpTermMixture, ParetoTermMixture, fgm_pairs
from .copula import FgmCopula
from .errors import DomainError
from .marginals import (
    Alpha,
    AlphaLike,
    ExponentialMarginal,
    Marginal,
    Method,
    ParetoMarginal,
    RiskReport,
    level_of,
)
from .numerics import DEFAULT_SETTINGS, SolverSettings, expand_bracket, solve_increasing


class ExtremeSelector(str, Enum):
    """Which order statistic of the pair: the minimum or the maximum."""

    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class BivariatePortfolio:
    """Two same-family marginals coupled by an FGM copula."""

    m1: Marginal
    m2: Marginal
    copula: FgmCopula

    def __post_init__(self) -> None:
        if type(self.m1) is not type(self.m2):
            raise DomainError(
                "both marginals must belong to the same family, got "
                f"{type(self.m1).__name__} and {type(self.m2).__name__}"
            )
        if not isinstance(self.m1, (ExponentialMarginal, ParetoMarginal)):
            raise DomainError(
                f"unsupported marginal type: {type(self.m1).__name__}"
            )
        if isinstance(self.m1, ParetoMarginal) and self.m1.x0 != self.m2.x0:
            raise DomainError(
                "Pareto marginals must share the same left endpoint, got "
                f"x0={self.m1.x0} and x0={self.m2.x0}"
            )


def _selector(s: Union[ExtremeSelector, str]) -> ExtremeSelector:
    try:
        return ExtremeSelector(s)
    except ValueError:
        raise DomainError(f"selector must be 'min' or 'max', got {s!r}") from None


def _mixture(p: BivariatePortfolio, s: ExtremeSelector):
    if isinstance(p.m1, ExponentialMarginal):
        p1, p2 = p.m1.rate, p.m2.rate
    else:
        p1, p2 = p.m1.gamma, p.m2.gamma
    terms = tuple((w, i * p1 + j * p2) for w, i, j in fgm_pairs(p.copula.theta))
    if s is ExtremeSelector.MAX:
        # P(max > x) = S1(x) + S2(x) - P(min > x)
        terms = ((1.0, p1), (1.0, p2)) + tuple((-w, r) for w, r in terms)
    if isinstance(p.m1, ExponentialMarginal):
        return ExpTermMixture(terms)
    return ParetoTermMixture(p.m1.x0, terms)


def extreme_cdf(p: BivariatePortfolio, s, x: float) -> float:
    """CDF of min(X1, X2) or max(X1, X2) at x.

    Equals u + v - C(u, v) for the minimum and C(u, v) for the maximum,
    with u = F1(x), v = F2(x).
    """
    if isnan(x):
        raise DomainError("x must not be NaN")
    return _mixture(p, _selector(s)).cdf(x)


def extreme_pdf(p: BivariatePortfolio, s, x: float) -> float:
    """Density of the selected extreme at x."""
    if isnan(x):
        raise DomainError("x must not be NaN")
    return _mixture(p, _selector(s)).pdf(x)


# expand_bracket and solve_increasing are looked up on this module at call
# time, so rebinding them here (as perfbench's layer tracing does) reaches
# the solves of the sum as well
def solve_level(law, level: float, settings: SolverSettings) -> float:
    """Smallest x with law.cdf(x) >= level: bracket up from law.lo, bisect."""
    lo, hi = expand_bracket(law.cdf, level, law.lo)
    return solve_increasing(law.cdf, level, lo, hi, settings)


def cte_beyond(law, q: float, a: float) -> float:
    """CTE at level a given its VaR q."""
    return law.tail_expectation(q) / (1.0 - a)


def law_report(law, a: float, settings: SolverSettings) -> RiskReport:
    """VaR, CTE and MoT of a composite law; VaR is solved once."""
    q = solve_level(law, a, settings)
    return RiskReport(
        alpha=Alpha(a),
        var=q,
        cte=cte_beyond(law, q, a),
        mot=solve_level(law, 0.5 * (1.0 + a), settings),
        method=Method.ROOT_SOLVE,
        tolerance=settings.abs_tol,
    )


def extreme_var(
    p: BivariatePortfolio,
    s,
    alpha: AlphaLike,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> float:
    """Value at risk of the selected extreme, by bracketed root solve."""
    return solve_level(_mixture(p, _selector(s)), level_of(alpha), settings)


def extreme_mot(
    p: BivariatePortfolio,
    s,
    alpha: AlphaLike,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> float:
    """Median of the tail beyond VaR: solves F(M) = (1 + alpha) / 2."""
    level = 0.5 * (1.0 + level_of(alpha))
    return solve_level(_mixture(p, _selector(s)), level, settings)


def extreme_cte(
    p: BivariatePortfolio,
    s,
    alpha: AlphaLike,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> float:
    """Conditional tail expectation of the selected extreme.

    A signed sum of closed-form tail integrals divided by 1 - alpha.

    Raises:
        DivergentTail: for Pareto marginals whose tail exponents make the
            conditional expectation infinite.
    """
    a = level_of(alpha)
    law = _mixture(p, _selector(s))
    return cte_beyond(law, solve_level(law, a, settings), a)


def extreme_report(
    p: BivariatePortfolio,
    s,
    alpha: AlphaLike,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> RiskReport:
    """All three measures of the selected extreme at one confidence level."""
    return law_report(_mixture(p, _selector(s)), level_of(alpha), settings)
