"""Risk measures of the sum of two FGM-dependent exponential losses.

The FGM joint density l1*l2*s1*s2*(1 + theta*(2*s1 - 1)*(2*s2 - 1)), with
si = exp(-li*xi), splits into four products of independent exponential
densities, so X1 + X2 is a signed mixture of four hypoexponential pairs:
weights (1 + theta, -theta, -theta, theta) on the rate pairs (l1, l2),
(2*l1, l2), (l1, 2*l2) and (2*l1, 2*l2), the entries (w, i, j) of the
table `_mixtures.fgm_pairs` at (i*l1, j*l2) that the min and max read too.

Each pair (a, b), with b the smaller rate and d = a - b, is written through
the divided difference of the exponential, phi(z) = -expm1(-z)/z with
phi(0) = 1 (McCurdy, Ng and Parlett, Math. Comp. 43, 1984):

    S(x)                  = exp(-b*x) * (1 + b*x*phi(d*x))
    f(x)                  = a * exp(-b*x) * b*x*phi(d*x)
    int_q^inf x f(x) dx   = exp(-b*q) * (q*(1 + g) + 1/a + 1/b + g/a),
                            with g = b*q*phi(d*q)

These are smooth through d = 0, where the pair is Erlang(2, b), so equal
and 2:1 rates take the same path as every other rate pair.

The sum is measured on the same `BivariatePortfolio` as the min and max.
`_SumLaw` raises `DomainError` when the marginals are not exponential;
`AggregateExpPortfolio` is the subclass that makes the same check when it
is built. `_SumLaw` is the solved law that `tables.law_of` gives for the
sum, with `lo = 0`, a `cdf` and a `tail_expectation`, so the sum's
measures take the one path of every target, `extremes.law_measures`.
"""

from __future__ import annotations

from math import exp, expm1, inf

from ._mixtures import fgm_pairs
from .errors import DomainError
from .extremes import BivariatePortfolio, law_measures, law_report
from .marginals import AlphaLike, ExponentialMarginal, Method, RiskReport
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


def _check_exponential(p: BivariatePortfolio) -> None:
    # BivariatePortfolio already holds both marginals to one family
    if not isinstance(p.m1, ExponentialMarginal):
        raise DomainError("aggregate risk requires exponential marginals")


class AggregateExpPortfolio(BivariatePortfolio):
    """A BivariatePortfolio whose marginals are checked to be exponential."""

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_exponential(self)


def is_singular(p: BivariatePortfolio) -> bool:
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
    method = Method.ROOT_SOLVE

    def __init__(self, p: BivariatePortfolio) -> None:
        _check_exponential(p)
        l1, l2 = p.m1.rate, p.m2.rate
        if l1 > l2:
            # the pairs and weights are symmetric under swapping the rates
            l1, l2 = l2, l1
        # (weight, a, b) with b = min(a, b) the rate of the slower term
        self._pairs = tuple(
            (w, max(i * l1, j * l2), min(i * l1, j * l2))
            for w, i, j in fgm_pairs(p.copula.theta)
        )
        # cdf constants: rates, weights, the rate gaps of the first three
        # pairs, and the second pair's slower rate b1 with whether it is 2*l1
        (w0, _, _), (_, a1, b1), (_, a2, _), (th, _, _) = self._pairs
        self._k = (
            l1, l2, w0, th,
            l2 - l1, a1 - b1, a2 - l1,
            b1, b1 == 2.0 * l1,
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
        # at +inf each pair's b*x*phi(d*x) would be inf*0
        if not 0.0 < x < inf:
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


def aggregate_pdf(p: BivariatePortfolio, x: float) -> float:
    """Density of X1 + X2 at x >= 0."""
    if not x >= 0.0:  # NaN fails the check too
        raise DomainError(f"x must be nonnegative, got {x}")
    return _SumLaw(p).pdf(x)


def aggregate_cdf(p: BivariatePortfolio, x: float) -> float:
    """Distribution function of X1 + X2 at x >= 0."""
    if not x >= 0.0:  # NaN fails the check too
        raise DomainError(f"x must be nonnegative, got {x}")
    return _SumLaw(p).cdf(x)


def aggregate_var(
    p: BivariatePortfolio,
    alpha: AlphaLike,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> float:
    """Value at risk of the aggregate, by bracketed root solve."""
    return law_measures(_SumLaw(p), alpha, "var", settings)


def aggregate_mot(
    p: BivariatePortfolio,
    alpha: AlphaLike,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> float:
    """Median of the tail beyond VaR: solves F(M) = (1 + alpha) / 2."""
    return law_measures(_SumLaw(p), alpha, "mot", settings)


def aggregate_cte(
    p: BivariatePortfolio,
    alpha: AlphaLike,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> float:
    """Conditional tail expectation of the aggregate.

    Signed sum of closed-form tail integrals beyond VaR divided by
    1 - alpha.
    """
    return law_measures(_SumLaw(p), alpha, "cte", settings)


def aggregate_report(
    p: BivariatePortfolio,
    alpha: AlphaLike,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> RiskReport:
    """All three measures of the aggregate at one confidence level."""
    return law_report(_SumLaw(p), alpha, settings)
