"""Risk measures of the sum of two FGM-dependent exponential losses.

The FGM joint density l1*l2*s1*s2*(1 + theta*(2*s1 - 1)*(2*s2 - 1)), with
si = exp(-li*xi), splits into four products of independent exponential
densities, so X1 + X2 is a signed mixture of four hypoexponential pairs:
weights (1 + theta, -theta, -theta, theta) on the rate pairs (l1, l2),
(2*l1, l2), (l1, 2*l2) and (2*l1, 2*l2), the entries (w, i, j) of the
table `_mixtures.fgm_pairs` at (i*l1, j*l2) that the min and max read too.
`fgm_pairs` leaves out the pairs of weight 0, so at theta = 0 the sum is
one pair. The CDF, density and mean excess loop over one table of them.

Each pair (a, b), with b the smaller rate and e = b - a <= 0, is written
through the divided difference of the exponential, phi(z) = expm1(z)/z
with phi(0) = 1 (McCurdy, Ng and Parlett, Math. Comp. 43, 1984):

    S(x)              = exp(-b*x) * (1 + b*x*phi(e*x))
    f(x)              = a * exp(-b*x) * b*x*phi(e*x)
    int_q^inf S(x) dx = exp(-b*q) * (1/a + 1/b + g/a), with g = b*q*phi(e*q)

These are smooth through e = 0, where the pair is Erlang(2, b), so equal
and 2:1 rates take the same path as every other rate pair.

The sum is measured on the same `BivariatePortfolio` as the min and max.
`_SumLaw` raises `DomainError` when the marginals are not exponential;
`AggregateExpPortfolio` is the subclass that makes the same check when it
is built. `_SumLaw` is the solved law that `tables.law_of` gives for the
sum, with `lo = 0`, `hi`, a `cdf` and a `mean_excess`, so the sum's
measures take the one path of every target, `extremes.law_measures`.
"""

from __future__ import annotations

from functools import partial
from math import exp, expm1, inf

from ._mixtures import fgm_pairs, upper_end
from .errors import DomainError, number
from .extremes import BivariatePortfolio, law_measures, law_report
from .marginals import AlphaLike, ExponentialMarginal, Method, RiskReport

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
    """expm1(z)/z, the divided difference of exp(t) over [z, 0]; 1 at 0."""
    return expm1(z) / z if z else 1.0


class _SumLaw:
    """Distribution of X1 + X2: `cdf`, `pdf` and `mean_excess` loop over
    `_pairs`, the pairs of `fgm_pairs` as (w, -b, b - a, b, a), whose signs
    are folded in so that the root solver's calls to `cdf` negate nothing."""

    __slots__ = ("_pairs", "hi")
    lo = 0.0
    method = Method.ROOT_SOLVE

    def __init__(self, p: BivariatePortfolio) -> None:
        _check_exponential(p)
        self.hi = partial(upper_end, "sum", p.m1, p.m2)
        l1, l2 = p.m1.rate, p.m2.rate
        if l1 > l2:
            # the pairs and weights are symmetric under swapping the rates;
            # ordering them keeps every bit when x1 and x2 swap
            l1, l2 = l2, l1
        pairs = (  # (w, a, b) with b = min(a, b) the slower rate
            (w, max(i * l1, j * l2), min(i * l1, j * l2))
            for w, i, j in fgm_pairs(p.copula.theta)
        )
        self._pairs = tuple((w, -b, b - a, b, a) for w, a, b in pairs)

    def cdf(self, x: float) -> float:
        """1 - S(x), with phi written out for the root solver's inner loop."""
        if x <= 0.0:
            return 0.0
        s = 0.0
        for w, nb, nd, b, _ in self._pairs:
            z = nd * x
            s += w * exp(nb * x) * (1.0 + b * x * (expm1(z) / z if z else 1.0))
        c = 1.0 - s
        return c if 0.0 <= c <= 1.0 else (0.0 if c < 0.0 else 1.0)

    def pdf(self, x: float) -> float:
        # at +inf each pair's b*x*phi(d*x) would be inf*0
        if not 0.0 < x < inf:
            return 0.0
        val = sum(
            w * a * exp(nb * x) * (b * x) * _phi(nd * x)
            for w, nb, nd, b, a in self._pairs
        )
        return max(val, 0.0)

    def mean_excess(self, q: float, s: float) -> float:
        """E[X - q | X > q] at a quantile q of tail mass s: int_q^inf S / s,
        pair by pair in closed form (s only divides, so s = 1 gives the
        integral)."""
        total = 0.0
        for w, nb, nd, b, a in self._pairs:
            g = b * q * _phi(nd * q)
            total += w * exp(nb * q) * (1.0 / a + 1.0 / b + g / a)
        return total / s


def aggregate_pdf(p: BivariatePortfolio, x: float) -> float:
    """Density of X1 + X2 at x >= 0."""
    x = number("x", x)
    if not x >= 0.0:  # NaN fails the check too
        raise DomainError(f"x must be nonnegative, got {x}")
    return _SumLaw(p).pdf(x)


def aggregate_cdf(p: BivariatePortfolio, x: float) -> float:
    """Distribution function of X1 + X2 at x >= 0."""
    x = number("x", x)
    if not x >= 0.0:  # NaN fails the check too
        raise DomainError(f"x must be nonnegative, got {x}")
    return _SumLaw(p).cdf(x)


def aggregate_var(p: BivariatePortfolio, alpha: AlphaLike) -> float:
    """Value at risk of the aggregate, by bracketed root solve."""
    return law_measures(_SumLaw(p), alpha, "var")


def aggregate_mot(p: BivariatePortfolio, alpha: AlphaLike) -> float:
    """Median of the tail beyond VaR: solves F(M) = (1 + alpha) / 2."""
    return law_measures(_SumLaw(p), alpha, "mot")


def aggregate_cte(p: BivariatePortfolio, alpha: AlphaLike) -> float:
    """Conditional tail expectation of the aggregate.

    VaR plus the mean excess beyond it, a signed sum of closed-form pairs.
    """
    return law_measures(_SumLaw(p), alpha, "cte")


def aggregate_report(p: BivariatePortfolio, alpha: AlphaLike) -> RiskReport:
    """All three measures of the aggregate at one confidence level."""
    return law_report(_SumLaw(p), alpha)
