"""Survival-term mixtures underlying the composite distributions.

The FGM density splits into at most four weighted pairs of independent
marginals (`fgm_pairs`); the minimum, maximum and sum laws all read them.
The exponential extremes read the marginals at one point: the CDF is
F_max = C(F1, F2) or S_min = C(S1, S2), the density l1 S1 dC/du +
l2 S2 dC/dv there, and the mean excess int_q^inf S / S(q) the pairs'
closed-form tail integrals at S1 and S2. As X = x0 exp(E) with E ~ Exp(g)
for X ~ Pareto(x0, g), the Pareto extremes are that law read at
log(x/x0), bar their mean excess, whose pairs integrate as Pareto ones.
The sum's four hypoexponential pairs are in `aggregate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .copula import _partial
from .errors import DivergentTail
from .marginals import Marginal, Method

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


@dataclass(frozen=True)
class ExpTermMixture:
    """The min or max (`target`) of FGM-coupled Exp(l1) and Exp(l2), l1 <= l2,
    every method read at the marginals' survivals."""

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
        # li*Si as (li*hi)*hi with hi = exp(-ti/2): Si underflows first
        h1, h2 = math.exp(-0.5 * t1), math.exp(-0.5 * t2)
        s1, s2 = h1 * h1, h2 * h2
        f1, f2 = -math.expm1(-t1), -math.expm1(-t2)
        # the max's CDF is C(F1, F2), the min's survival C(S1, S2)
        u, ub, v, vb = (f1, s1, f2, s2) if self.target == "max" else (s1, f1, s2, f2)
        d1, d2 = _partial(th, u, ub, v, vb), _partial(th, v, vb, u, ub)
        return self.l1 * h1 * h1 * d1 + self.l2 * h2 * h2 * d2

    def mean_excess(self, q: float, s: float) -> float:
        """E[X - q | X > q] at a quantile q of tail mass s: int_q^inf S / s,
        s only dividing. A pair (w, i, j) integrates to w S1^i S2^j/(i l1 +
        j l2), here (1/l2)/(i r + j) at r = l1/l2 <= 1, finite for any pair;
        the max's is S1/l1 + S2/l2 less the min's. s divides before l2 does,
        so that a rate near 1e308 leaves no subnormal in between."""
        s1, s2 = math.exp(-self.l1 * q), math.exp(-self.l2 * q)
        r = self.l1 / self.l2
        m = sum(w * s1**i * s2**j / (i * r + j) for w, i, j in fgm_pairs(self.theta))
        if self.target == "max":
            return (s1 / s) / self.l1 + ((s2 - m) / s) / self.l2
        return (m / s) / self.l2


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
        """The exponential's at Sk = (x0/q)^gk: a pair integrates to
        w q S1^i S2^j/(i g1 + j g2 - 1), a marginal to q Sk/(gk - 1). A
        power that underflows adds 0, below the CTE's last digit. Raises
        DivergentTail where an exponent is at most 1: the min's smallest
        i g1 + j g2 (g1 + g2 bar theta = -1), the max's min(g1, g2)."""
        g1, g2, pairs = self.l1, self.l2, fgm_pairs(self.theta)
        gs = [i * g1 + j * g2 for _, i, j in pairs]
        g_min = min(g1, g2) if self.target == "max" else min(gs)
        if g_min <= 1.0:
            raise DivergentTail(
                f"tail expectation requires every exponent > 1, got {g_min}"
            )
        s1, s2 = (self.x0 / q) ** g1, (self.x0 / q) ** g2
        m = sum(w * s1**i * s2**j / (g - 1.0) for (w, i, j), g in zip(pairs, gs))
        if self.target == "max":
            m = s1 / (g1 - 1.0) + s2 / (g2 - 1.0) - m
        return q * (m / s)


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
