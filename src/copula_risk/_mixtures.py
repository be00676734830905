"""Signed survival-term mixtures underlying the composite distributions.

The FGM density splits into four weighted pairs of independent marginals
(`fgm_pairs`); the minimum, maximum and sum laws are all read from them.
The extremes have survival functions S(x) = sum_i w_i * b_i(x), where b_i
is an exponential term exp(-r_i x) or a Pareto term (x0/x)^(g_i), so CDF,
density and tail expectation follow term by term, on one code path for
both extremes. The sum's four hypoexponential pairs are in `aggregate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DivergentTail, DomainError
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
    C(u, u) >= 2u - 1 = level at u = 1 - s. DomainError if it overflows."""
    s = (1.0 - level) * (1.0 - _MARGIN)
    if target == "min":
        hi = min(_tail_quantile(m1, s), _tail_quantile(m2, s))
    else:
        q1, q2 = _tail_quantile(m1, 0.5 * s), _tail_quantile(m2, 0.5 * s)
        hi = max(q1, q2) if target == "max" else q1 + q2
    hi *= 1.0 + _MARGIN
    if not hi < math.inf:
        raise DomainError(f"the {target}'s bracket at level {level!r} overflows")
    return hi


@dataclass(frozen=True)
class ExpTermMixture:
    """S(x) = sum of w * exp(-r * x) over (w, r) terms, supported on x >= 0."""

    terms: Terms
    hi: Optional[Callable[[float], float]] = None  # see `upper_end`
    lo = 0.0
    method = Method.ROOT_SOLVE

    def survival(self, x: float) -> float:
        if x <= 0.0:
            return 1.0
        return sum(w * math.exp(-r * x) for w, r in self.terms)

    def cdf(self, x: float) -> float:
        if x <= 0.0:
            return 0.0
        return min(max(1.0 - self.survival(x), 0.0), 1.0)

    def pdf(self, x: float) -> float:
        if x < 0.0:
            return 0.0
        val = sum(w * r * math.exp(-r * x) for w, r in self.terms)
        return max(val, 0.0)

    def tail_expectation(self, q: float) -> float:
        """int_q^inf x f(x) dx, term by term in closed form."""
        return sum(w * exp_tail_integral(r, q) for w, r in self.terms)


@dataclass(frozen=True)
class ParetoTermMixture:
    """S(x) = sum of w * (x0/x)^g over (w, g) terms, supported on x >= x0."""

    x0: float
    terms: Terms
    hi: Optional[Callable[[float], float]] = None  # see `upper_end`
    method = Method.ROOT_SOLVE

    @property
    def lo(self) -> float:
        return self.x0

    def survival(self, x: float) -> float:
        if x <= self.x0:
            return 1.0
        return sum(w * (self.x0 / x) ** g for w, g in self.terms)

    def cdf(self, x: float) -> float:
        if x <= self.x0:
            return 0.0
        return min(max(1.0 - self.survival(x), 0.0), 1.0)

    def pdf(self, x: float) -> float:
        if x < self.x0:
            return 0.0
        # g/x * (x0/x)^g: x0^g and x^(-g-1) apart leave the float range
        val = sum(w * g / x * (self.x0 / x) ** g for w, g in self.terms)
        return max(val, 0.0)

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
        return sum(
            w * pareto_tail_integral(self.x0, g, q) for w, g in self.terms
        )


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
