"""Risk measures of the sum of two FGM-dependent exponential losses.

The FGM joint density l1*l2*s1*s2*(1 + theta*(2*s1 - 1)*(2*s2 - 1)), with
si = exp(-li*xi), splits into four products of independent exponential
densities, so X1 + X2 is a signed mixture of four hypoexponential pairs:
weights (1 + theta, -theta, -theta, theta) on the rate pairs (l1, l2),
(2*l1, l2), (l1, 2*l2) and (2*l1, 2*l2).

Each pair (a, b), with b the smaller rate and d = a - b, is written through
the divided difference of the exponential, phi(z) = -expm1(-z)/z with
phi(0) = 1 (McCurdy, Ng and Parlett, Math. Comp. 43, 1984):

    S(x)                  = exp(-b*x) * (1 + b*x*phi(d*x))
    f(x)                  = a * exp(-b*x) * b*x*phi(d*x)
    int_q^inf x f(x) dx   = exp(-b*q) * (q*(1 + g) + 1/a + 1/b + g/a),
                            with g = b*q*phi(d*q)

These are smooth through d = 0, where the pair is Erlang(2, b), so equal
and 2:1 rates take the same path as every other rate pair. `_SumLaw` is a
composite law with `lo = 0`, a `cdf` and a `tail_expectation`, so the sum's
measures take the same solve-and-report path as the min and max
(`extremes.solve_level`, `cte_beyond` and `law_report`): VaR and MoT are
bracketed root solves of the CDF, CTE is the pairs' signed tail integrals
beyond VaR divided by 1 - alpha, and a report solves VaR once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, expm1

from .copula import FgmCopula
from .errors import DomainError
from .extremes import cte_beyond, law_report, solve_level
from .marginals import AlphaLike, ExponentialMarginal, RiskReport, level_of
from .numerics import DEFAULT_SETTINGS, SolverSettings

# Sums solve through extremes.solve_level. The benchmark's layer tracing
# (perfbench/tracing.py) still rebinds these four names on this module, so
# they stay importable here until the harness stops doing so.
from .numerics import (  # noqa: F401
    _quad_finite,
    expand_bracket,
    quad_tail,
    solve_increasing,
)

# relative distance to the rate ratios 1, 2 and 1/2 within which is_singular
# names a portfolio; perfbench/run.py labels its trace spans with it
_SINGULAR_RTOL = 1e-6


@dataclass(frozen=True)
class AggregateExpPortfolio:
    """Two exponential marginals coupled by an FGM copula, summed."""

    m1: ExponentialMarginal
    m2: ExponentialMarginal
    copula: FgmCopula

    def __post_init__(self) -> None:
        if not isinstance(self.m1, ExponentialMarginal) or not isinstance(
            self.m2, ExponentialMarginal
        ):
            raise DomainError("aggregate risk requires exponential marginals")


def is_singular(p: AggregateExpPortfolio) -> bool:
    """True when a hypoexponential pair of the sum is (nearly) Erlang.

    That is, the rates sit within _SINGULAR_RTOL of the ratio 1, or of 2 or
    1/2 under dependence; the closed form covers these rates too.
    """
    l1, l2 = p.m1.rate, p.m2.rate
    tol = _SINGULAR_RTOL * max(l1, l2)
    if abs(l2 - l1) < tol:
        return True
    if p.copula.theta != 0.0 and (
        abs(l1 - 2.0 * l2) < tol or abs(2.0 * l1 - l2) < tol
    ):
        return True
    return False


def _phi(z: float) -> float:
    """-expm1(-z)/z, the divided difference of exp(-t) over [0, z]; 1 at 0."""
    return -expm1(-z) / z if z else 1.0


class _SumLaw:
    """Distribution of X1 + X2 as four weighted hypoexponential pairs."""

    __slots__ = ("_pairs", "_k")
    lo = 0.0

    def __init__(self, p: AggregateExpPortfolio) -> None:
        l1, l2, th = p.m1.rate, p.m2.rate, p.copula.theta
        if l1 > l2:
            # the pairs and weights are symmetric under swapping the rates
            l1, l2 = l2, l1
        # (weight, a, b) with b = min(a, b) the rate of the slower term
        self._pairs = tuple(
            (w, max(r, s), min(r, s))
            for w, r, s in (
                (1.0 + th, l1, l2),
                (-th, 2.0 * l1, l2),
                (-th, l1, 2.0 * l2),
                (th, 2.0 * l1, 2.0 * l2),
            )
        )
        b1 = min(2.0 * l1, l2)
        # cdf constants: rates, weights, the rate gaps of the pairs
        # (l1, l2), (2*l1, l2) and (l1, 2*l2), and the slower rate of the
        # second pair with whether it is 2*l1
        self._k = (
            l1, l2, 1.0 + th, th,
            l2 - l1, abs(2.0 * l1 - l2), 2.0 * l2 - l1,
            b1, 2.0 * l1 <= l2,
        )

    def cdf(self, x: float) -> float:
        """1 - S(x), written out for the root solver's inner loop.

        With l1 <= l2 the slower rates of the four pairs are l1, b1, l1 and
        2*l1, so two exponentials and their squares cover every decay.
        """
        if x <= 0.0:
            return 0.0
        l1, l2, w0, th, d0, d1, d2, b1, b1_is_2l1 = self._k
        e1 = exp(-l1 * x)
        e11 = e1 * e1
        eb1 = e11 if b1_is_2l1 else exp(-l2 * x)
        z = d0 * x
        h0 = -expm1(-z) / z if z else 1.0
        z += z  # the gap of the pair (2*l1, 2*l2) is 2*d0
        h3 = -expm1(-z) / z if z else 1.0
        z = d1 * x
        h1 = -expm1(-z) / z if z else 1.0
        z = d2 * x
        h2 = -expm1(-z) / z if z else 1.0
        lx = l1 * x
        s = w0 * e1 * (1.0 + lx * h0) + th * (
            e11 * (1.0 + 2.0 * lx * h3)
            - eb1 * (1.0 + b1 * x * h1)
            - e1 * (1.0 + lx * h2)
        )
        c = 1.0 - s
        return c if 0.0 <= c <= 1.0 else (0.0 if c < 0.0 else 1.0)

    def pdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        val = sum(
            w * a * exp(-b * x) * (b * x) * _phi((a - b) * x)
            for w, a, b in self._pairs
        )
        return max(val, 0.0)

    def tail_expectation(self, q: float) -> float:
        """int_q^inf x f(x) dx, pair by pair in closed form."""
        total = 0.0
        for w, a, b in self._pairs:
            g = b * q * _phi((a - b) * q)
            total += w * exp(-b * q) * (q * (1.0 + g) + 1.0 / a + 1.0 / b + g / a)
        return total


def aggregate_pdf(p: AggregateExpPortfolio, x: float) -> float:
    """Density of X1 + X2 at x >= 0."""
    if x < 0.0:
        raise DomainError(f"x must be nonnegative, got {x}")
    return _SumLaw(p).pdf(x)


def aggregate_cdf(p: AggregateExpPortfolio, x: float) -> float:
    """Distribution function of X1 + X2 at x >= 0."""
    if x < 0.0:
        raise DomainError(f"x must be nonnegative, got {x}")
    return _SumLaw(p).cdf(x)


def aggregate_var(
    p: AggregateExpPortfolio,
    alpha: AlphaLike,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> float:
    """Value at risk of the aggregate, by bracketed root solve."""
    return solve_level(_SumLaw(p), level_of(alpha), settings)


def aggregate_mot(
    p: AggregateExpPortfolio,
    alpha: AlphaLike,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> float:
    """Median of the tail beyond VaR: solves F(M) = (1 + alpha) / 2."""
    return solve_level(_SumLaw(p), 0.5 * (1.0 + level_of(alpha)), settings)


def aggregate_cte(
    p: AggregateExpPortfolio,
    alpha: AlphaLike,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> float:
    """Conditional tail expectation of the aggregate.

    Signed sum of closed-form tail integrals beyond VaR divided by
    1 - alpha.
    """
    a = level_of(alpha)
    law = _SumLaw(p)
    return cte_beyond(law, solve_level(law, a, settings), a)


def aggregate_report(
    p: AggregateExpPortfolio,
    alpha: AlphaLike,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> RiskReport:
    """All three measures of the aggregate at one confidence level."""
    return law_report(_SumLaw(p), level_of(alpha), settings)
