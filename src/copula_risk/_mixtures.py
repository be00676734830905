"""Survival-term mixtures underlying the composite distributions.

The FGM density splits into four weighted pairs of independent marginals
(`fgm_pairs`); the minimum, maximum and sum laws are all read from them.
The exponential extremes' CDF is the copula formula, F_max = C(F1, F2)
and S_min = C^(S1, S2), factored into nonnegative terms; density and tail
expectation sum the signed survival terms w_i * exp(-r_i x) of
`extreme_terms`. As X = x0 exp(E) with E ~ Exp(g) for X ~ Pareto(x0, g),
the Pareto extremes are that law read at log(x/x0), bar their tail
expectation. The sum's four hypoexponential pairs are in `aggregate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .errors import DivergentTail
from .marginals import Marginal, Method, _tail_quantile
from .numerics import exp_tail_integral, pareto_tail_integral

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
        hi = min(_tail_quantile(m1, s), _tail_quantile(m2, s))
    else:
        q1, q2 = _tail_quantile(m1, 0.5 * s), _tail_quantile(m2, 0.5 * s)
        hi = max(q1, q2) if target == "max" else q1 + q2
    return hi * (1.0 + _MARGIN)


def extreme_terms(p1: float, p2: float, theta: float, target: str) -> Terms:
    """The signed survival terms (w, i*p1 + j*p2) of the min, over the pairs
    (w, i, j) of `fgm_pairs`, or of the max: S1 + S2 - P(min > x)."""
    # a weight of exactly 0 (1 + theta at theta = -1) adds nothing to S, but
    # its exponent would decide whether a Pareto tail expectation diverges
    terms = tuple((w, i * p1 + j * p2) for w, i, j in fgm_pairs(theta) if w)
    if target == "max":
        terms = ((1.0, p1), (1.0, p2)) + tuple((-w, r) for w, r in terms)
    return terms


@dataclass(frozen=True)
class ExpTermMixture:
    """The min or max (`target`) of FGM-coupled Exp(l1) and Exp(l2). `cdf` is
    the copula formula in factored form, every term nonnegative for theta in
    [-1, 1]; `pdf` and `tail_expectation` sum the terms of `extreme_terms`."""

    l1: float
    l2: float
    theta: float
    target: str
    hi: Callable[[float], float]  # see `upper_end`
    lo = 0.0
    method = Method.ROOT_SOLVE

    @cached_property
    def terms(self) -> Terms:
        return extreme_terms(self.l1, self.l2, self.theta, self.target)

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        t1, t2, th = self.l1 * x, self.l2 * x, self.theta
        s1, s2 = math.exp(-t1), math.exp(-t2)
        f1, f2 = -math.expm1(-t1), -math.expm1(-t2)
        if self.target == "max":
            # F1*F2*(1 + theta*S1*S2), with 1 - S1*S2 = F1 + S1*F2 for theta < 0
            if th >= 0.0:
                return f1 * f2 * (1.0 + th * s1 * s2)
            return f1 * f2 * ((1.0 + th) - th * (f1 + s1 * f2))
        # 1 - S1*S2*(1 + theta*F1*F2), with 1 - S2*F1 = F2 + S1*S2 for theta > 0
        if th <= 0.0:
            return f1 + s1 * f2 * (1.0 - th * s2 * f1)
        return f1 + s1 * f2 * ((1.0 - th) + th * (f2 + s1 * s2))

    def pdf(self, x: float) -> float:
        if x < 0.0:
            return 0.0
        val = sum(w * r * math.exp(-r * x) for w, r in self.terms)
        return max(val, 0.0)

    def tail_expectation(self, q: float) -> float:
        """int_q^inf x f(x) dx, term by term in closed form."""
        return sum(w * exp_tail_integral(r, q) for w, r in self.terms)


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

    def tail_expectation(self, q: float) -> float:
        """int_q^inf x f(x) dx; every exponent must exceed 1 to converge.

        Raises DivergentTail otherwise: for the minimum of two Pareto losses
        that is g1 + g2 <= 1, for the maximum min(g1, g2) <= 1.
        """
        g_min = min(g for _, g in self.terms)
        if g_min <= 1.0:
            raise DivergentTail(
                f"tail expectation requires every exponent > 1, got {g_min}"
            )
        return sum(w * pareto_tail_integral(self.x0, g, q) for w, g in self.terms)


def fgm_pairs(theta: float) -> tuple[tuple[float, int, int], ...]:
    """The FGM density as entries (w, i, j) of weighted independent pairs.

    f1*f2*(1 + theta*(2*S1 - 1)*(2*S2 - 1)) = sum of w * g_i1 * g_j2, with
    g_ik the density of marginal k at i times its rate or tail exponent:
    fk * 2*Sk is that density at twice the parameter, for both families.
    """
    return (
        (1.0 + theta, 1, 1),
        (-theta, 2, 1),
        (-theta, 1, 2),
        (theta, 2, 2),
    )
