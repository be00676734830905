"""Survival-term mixtures underlying the composite distributions.

The FGM density splits into at most four weighted pairs of independent
marginals (`fgm_pairs`); the minimum, maximum and sum laws all read them.
The exponential extremes read the copula in nonnegative terms: the CDF is
F_max = C(F1, F2) or S_min = C(S1, S2), and the density l1 S1 dC/du +
l2 S2 dC/dv there. Only the mean excess beyond q, int_q^inf S / S(q), sums
the signed survival terms w_i * exp(-r_i x) of `extreme_terms`. As
X = x0 exp(E) with E ~ Exp(g) for X ~ Pareto(x0, g), the Pareto extremes
are that law read at log(x/x0), bar their mean excess, whose terms are
Pareto ones. The sum's four hypoexponential pairs are in `aggregate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .copula import _partial
from .errors import DivergentTail, DomainError
from .marginals import Marginal, Method

Terms = tuple[tuple[float, float], ...]

# upper_end's relative margin (64 ulps) over rounding in quantiles and cdfs
_MARGIN = 2.0**-46


def upper_end(target: str, m1: Marginal, m2: Marginal, level: float) -> float:
    """An x where the CDF of the min, max or sum of X1 ~ m1 and X2 ~ m2
    reaches level under any copula, from the quantiles q1, q2 at tail mass
    s: min(q1, q2) at s = 1 - level, as min <= Xi; max(q1, q2) and q1 + q2
    at s = (1 - level)/2, as F_max >= F1 + F2 - 1 and F_sum(q1 + q2) >=
    C(u, u) >= 2u - 1 = level at u = 1 - s. inf if it overflows."""
    s = (1.0 - level) * (1.0 - _MARGIN)
    if target == "min":
        hi = min(m1.tail_quantile(s), m2.tail_quantile(s))
    else:
        q1, q2 = m1.tail_quantile(0.5 * s), m2.tail_quantile(0.5 * s)
        hi = max(q1, q2) if target == "max" else q1 + q2
    return hi * (1.0 + _MARGIN)


def extreme_terms(p1: float, p2: float, theta: float, target: str) -> Terms:
    """The signed survival terms (w, i*p1 + j*p2) of the min, over the pairs
    (w, i, j) of `fgm_pairs`, or of the max: S1 + S2 - P(min > x)."""
    terms = tuple((w, i * p1 + j * p2) for w, i, j in fgm_pairs(theta))
    if target == "max":
        terms = ((1.0, p1), (1.0, p2)) + tuple((-w, r) for w, r in terms)
    return terms


@dataclass(frozen=True)
class ExpTermMixture:
    """The min or max (`target`) of FGM-coupled Exp(l1) and Exp(l2): `cdf` and
    `pdf` read the copula in nonnegative terms, `mean_excess` `extreme_terms`."""

    l1: float
    l2: float
    theta: float
    target: str
    hi: Callable[[float], float]  # see `upper_end`
    lo = 0.0
    method = Method.ROOT_SOLVE

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        t1, t2, th = self.l1 * x, self.l2 * x, self.theta
        s1, s2 = math.exp(-t1), math.exp(-t2)
        f1, f2 = -math.expm1(-t1), -math.expm1(-t2)
        if self.target == "max":
            # F1*F2*(1 + theta*S1*S2), exactly 1 at x = inf for theta >= 0,
            # with 1 - S1*S2 = F1 + S1*F2 for theta < 0
            if th >= 0.0:
                return f1 * f2 * (1.0 + th * s1 * s2)
            return f1 * f2 * ((1.0 + th) - th * (f1 + s1 * f2))
        # 1 - S1*S2*(1 + theta*F1*F2), every term nonnegative as theta*S2*F1 <= 1
        return f1 + s1 * f2 * (1.0 - th * s2 * f1)

    def pdf(self, x: float) -> float:
        if x < 0.0:
            return 0.0
        t1, t2, th = self.l1 * x, self.l2 * x, self.theta
        s1, s2 = math.exp(-t1), math.exp(-t2)
        f1, f2 = -math.expm1(-t1), -math.expm1(-t2)
        # the max's CDF is C(F1, F2), the min's survival C(S1, S2)
        u, ub, v, vb = (f1, s1, f2, s2) if self.target == "max" else (s1, f1, s2, f2)
        d1, d2 = _partial(th, u, ub, v, vb), _partial(th, v, vb, u, ub)
        return self.l1 * s1 * d1 + self.l2 * s2 * d2

    def mean_excess(self, q: float, s: float) -> float:
        """E[X - q | X > q] at a quantile q of tail mass s: int_q^inf S / s,
        term by term (s only divides, so s = 1 gives the integral);
        DomainError where a term rate r overflows, as exp(-r q)/r reads 0."""
        terms = extreme_terms(self.l1, self.l2, self.theta, self.target)
        if max(r for _, r in terms) == math.inf:
            raise DomainError(
                f"the {self.target}'s term rates i*l1 + j*l2 must be finite, "
                f"got l1={self.l1!r}, l2={self.l2!r}"
            )
        return sum(w * math.exp(-r * q) / r for w, r in terms) / s


def _log_ratio(x: float, x0: float) -> float:
    """log(x/x0) for x > x0: log1p((x - x0)/x0) below 2*x0, where x - x0 is
    exact, and log(x) - log(x0) where x/x0 overflows."""
    d = (x - x0) / x0
    if d < 1.0:
        return math.log1p(d)
    r = x / x0
    return math.log(r) if r < math.inf else math.log(x) - math.log(x0)


@dataclass(frozen=True)
class ParetoTermMixture(ExpTermMixture):
    """The min or max of FGM-coupled Pareto(x0, l1) and Pareto(x0, l2): the
    `ExpTermMixture` at rates (l1, l2) read at u = log(x/x0)."""

    x0: float

    @property
    def lo(self) -> float:
        return self.x0

    def cdf(self, x: float) -> float:
        if x <= self.x0:
            return 0.0
        return ExpTermMixture.cdf(self, _log_ratio(x, self.x0))

    def pdf(self, x: float) -> float:
        if x < self.x0:
            return 0.0
        return ExpTermMixture.pdf(self, _log_ratio(x, self.x0)) / x

    def mean_excess(self, q: float, s: float) -> float:
        """E[X - q | X > q] at a quantile q of tail mass s: int_q^inf S / s,
        term by term as q (x0/q)^g / (g - 1), s only dividing as for the
        exponential; every exponent must exceed 1. A term whose exponent
        overflows adds 0, where its share is below q/(g - 1) and so below
        the last digit of the CTE q + mean excess.

        Raises DivergentTail otherwise: for the minimum of two Pareto losses
        that is g1 + g2 <= 1, for the maximum min(g1, g2) <= 1. Raising the
        ratio x0/q <= 1 keeps large exponents from overflowing.
        """
        terms = extreme_terms(self.l1, self.l2, self.theta, self.target)
        g_min = min(g for _, g in terms)
        if g_min <= 1.0:
            raise DivergentTail(
                f"tail expectation requires every exponent > 1, got {g_min}"
            )
        r = self.x0 / q
        return sum(w * q * r**g / (g - 1.0) for w, g in terms) / s


def fgm_pairs(theta: float) -> tuple[tuple[float, int, int], ...]:
    """The FGM density as entries (w, i, j) of weighted independent pairs.

    f1*f2*(1 + theta*(2*S1 - 1)*(2*S2 - 1)) = sum of w * g_i1 * g_j2, with
    g_ik the density of marginal k at i times its rate or tail exponent:
    fk * 2*Sk is that density at twice the parameter, for both families.
    Entries of weight 0 (at theta = 0 or -1) are left out: a Pareto pair's
    exponent would decide whether a mean excess diverges, and 0 times an
    overflowed pair's NaN is NaN.
    """
    pairs = ((1.0 + theta, 1, 1), (-theta, 2, 1), (-theta, 1, 2), (theta, 2, 2))
    return tuple(pair for pair in pairs if pair[0])
