"""Risk measures of the minimum and maximum of two dependent losses, and the
one path that measures the law of every target.

Under FGM dependence either extreme's law is the copula read at the
marginals, F_max = C(F1, F2) and P(min > x) = C(S1, S2), as the FGM copula
is radially symmetric. `ExpTermMixture` evaluates its CDF and density with
every term nonnegative, and its mean excess from the FGM pairs, all at the
marginals' survivals. `ParetoTermMixture` is that exponential law read at
log(x/x0), with its own mean excess of Pareto pairs.

Every law has `mean_excess(q, s)`, E[X - q | X > q] at a quantile q of
tail mass s, in closed form (raising `DivergentTail` where it diverges), so
every CTE is VaR plus the mean excess beyond it. Each target's law
(`tables.law_of`) states its `method`. `law_measures` reads the quantiles
of a closed-form law (a marginal), each at its tail mass; it solves the
others, which share `lo`, the left end of the support, `cdf` and
`hi(level)`, `_mixtures.upper_end` of its marginals: `solve_level` bisects
the CDF once on [lo, hi(level)]. `law_report` builds every `RiskReport`
from `law_measures`, and every public measure of a marginal, an extreme or
the sum is one call into them.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from math import inf, isnan
from sys import float_info

from ._mixtures import ExpTermMixture, ParetoTermMixture, upper_end
from .copula import FgmCopula
from .errors import DomainError, number
from .marginals import (
    Alpha,
    AlphaLike,
    ExponentialMarginal,
    Marginal,
    Method,
    ParetoMarginal,
    RiskReport,
    _mot_level,
    level_of,
)
from .numerics import _ABS_TOL, solve_increasing

# Levels solve on a closed-form bracket. The benchmark's layer tracing
# (perfbench/tracing.py) still rebinds this name on this module, so it stays
# importable here until the harness stops doing so.
from .numerics import expand_bracket  # noqa: F401


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
        if not isinstance(self.copula, FgmCopula):
            raise DomainError(f"copula must be an FgmCopula, got {self.copula!r}")
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


def _mixture(p: BivariatePortfolio, s):
    """The law of the selected extreme."""
    if s not in ("min", "max"):  # an ExtremeSelector equals its value
        raise DomainError(f"selector must be 'min' or 'max', got {s!r}")
    target = "min" if s == "min" else "max"
    hi = partial(upper_end, target, p.m1, p.m2)
    # ordered: the FGM copula is exchangeable, so a swap keeps every bit
    if isinstance(p.m1, ExponentialMarginal):
        l1, l2 = sorted((p.m1.rate, p.m2.rate))
        return ExpTermMixture(l1, l2, p.copula.theta, target, hi)
    g1, g2 = sorted((p.m1.gamma, p.m2.gamma))
    return ParetoTermMixture(g1, g2, p.copula.theta, target, hi, p.m1.x0)


def extreme_cdf(p: BivariatePortfolio, s, x: float) -> float:
    """CDF of min(X1, X2) or max(X1, X2) at x.

    Equals u + v - C(u, v) for the minimum and C(u, v) for the maximum,
    with u = F1(x), v = F2(x).
    """
    x = number("x", x)
    if isnan(x):
        raise DomainError("x must not be NaN")
    return _mixture(p, s).cdf(x)


def extreme_pdf(p: BivariatePortfolio, s, x: float) -> float:
    """Density of the selected extreme at x."""
    x = number("x", x)
    if isnan(x):
        raise DomainError("x must not be NaN")
    return _mixture(p, s).pdf(x)


# solve_increasing is looked up on this module at call time, so rebinding it
# here (as perfbench's layer tracing does) reaches the solves of the sum too
def solve_level(law, level: float) -> float:
    """Smallest x with law.cdf(x) >= level: one bisection of [law.lo,
    law.hi(level)], the closed-form bracket of `_mixtures.upper_end`.

    A bracket end that overflows is clipped to the largest float; DomainError
    if the CDF there is still below the level."""
    hi = law.hi(level)
    if hi == inf:
        hi = float_info.max
        if not law.cdf(hi) >= level:
            raise DomainError(f"the bracket at level {level!r} overflows")
    return solve_increasing(law.cdf, level, law.lo, hi)


MEASURES = ("var", "cte", "mot")


def law_tolerance(law) -> float:
    """The x-axis tolerance a value of this law states: 0 in closed form."""
    return _ABS_TOL if law.method is Method.ROOT_SOLVE else 0.0


def law_measures(law, alpha: AlphaLike, measures):
    """The value of one measure (var, cte or mot) of a law at level alpha,
    or, for a tuple or list of measures, their values in that order.

    Each level is found once: VaR at alpha, which CTE reuses, and MoT at
    (1 + alpha) / 2. A law of `Method.CLOSED_FORM` gives its quantiles, read
    at the tail mass 1 - alpha or, for the MoT, half of it; any other is
    solved. CTE is VaR plus the law's mean excess beyond it, which the VaR's
    solver error moves only to second order, as d/dq of q + int_q^inf S / s
    is 1 - S(q)/s, 0 at the VaR. Raises DomainError for another measure, for
    a CTE that is NaN or below its VaR, or, for a solved law, where the MoT
    level rounds to 1 (alpha within 2**-53 of 1).
    """
    many = isinstance(measures, (tuple, list))
    names = tuple(measures) if many else (measures,)
    for name in names:
        if name not in MEASURES:
            raise DomainError(f"measure must be var, cte or mot, got {name!r}")
    a = level_of(alpha)
    closed = law.method is Method.CLOSED_FORM
    quantiles = {}
    values = []
    for name in names:
        level = _mot_level(a) if name == "mot" else a
        if level not in quantiles:
            if closed:  # 1 - a and its half are exact where (1 + a)/2 rounds
                s = 0.5 * (1.0 - a) if name == "mot" else 1.0 - a
                quantiles[level] = law.quantile(level, s)
            elif level < 1.0:
                quantiles[level] = solve_level(law, level)
            else:  # a solved CDF rounds to 1 at some finite x
                raise DomainError(
                    f"quantile level must lie in [0, 1), got {level!r} for "
                    f"{name} at alpha={a!r}"
                )
        q = quantiles[level]
        if name == "cte":
            var = q
            q = var + law.mean_excess(var, 1.0 - a)
            if not q >= var:  # NaN fails the check too
                raise DomainError(f"cte={q!r} must be at least var={var!r}")
        values.append(q)
    return tuple(values) if many else values[0]


def law_report(law, alpha: AlphaLike) -> RiskReport:
    """VaR, CTE and MoT of a law, with the method and tolerance it states."""
    a = level_of(alpha)
    var, cte, mot = law_measures(law, a, MEASURES)
    return RiskReport(
        alpha=Alpha(a),
        var=var,
        cte=cte,
        mot=mot,
        method=law.method,
        tolerance=law_tolerance(law),
    )


def extreme_var(p: BivariatePortfolio, s, alpha: AlphaLike) -> float:
    """Value at risk of the selected extreme, by bracketed root solve."""
    return law_measures(_mixture(p, s), alpha, "var")


def extreme_mot(p: BivariatePortfolio, s, alpha: AlphaLike) -> float:
    """Median of the tail beyond VaR: solves F(M) = (1 + alpha) / 2."""
    return law_measures(_mixture(p, s), alpha, "mot")


def extreme_cte(p: BivariatePortfolio, s, alpha: AlphaLike) -> float:
    """Conditional tail expectation of the selected extreme.

    VaR plus the mean excess beyond it, from the FGM pairs' tail integrals.

    Raises:
        DivergentTail: for Pareto marginals whose tail exponents make the
            conditional expectation infinite.
    """
    return law_measures(_mixture(p, s), alpha, "cte")


def extreme_report(p: BivariatePortfolio, s, alpha: AlphaLike) -> RiskReport:
    """All three measures of the selected extreme at one confidence level."""
    return law_report(_mixture(p, s), alpha)
