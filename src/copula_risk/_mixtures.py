"""Signed survival-term mixtures underlying the composite distributions.

Every minimum, maximum and sum distribution in scope has a survival
function of the form S(x) = sum_i w_i * b_i(x), where b_i is either an
exponential survival term exp(-r_i x) or a Pareto survival term
(x0/x)^(g_i). CDF, density and tail expectation then all follow term by
term, which keeps one code path for every composite and makes each
coefficient independently checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivergentTail
from .numerics import exp_tail_integral, pareto_tail_integral

Terms = tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class ExpTermMixture:
    """S(x) = sum of w * exp(-r * x) over (w, r) terms, supported on x >= 0."""

    terms: Terms
    lo = 0.0

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


WeightedSlots = tuple[tuple[float, tuple[int, int]], ...]


def fgm_extreme_weights(theta: float, which: str) -> WeightedSlots:
    """Survival-term weights of min/max under FGM, as (weight, slot) pairs.

    A slot (i, j) stands for the combination i*p1 + j*p2 of the two marginal
    parameters; the caller maps slots onto actual rates or tail exponents.
    """
    if which == "min":
        return (
            (1.0 + theta, (1, 1)),
            (-theta, (2, 1)),
            (-theta, (1, 2)),
            (theta, (2, 2)),
        )
    if which == "max":
        return (
            (1.0, (1, 0)),
            (1.0, (0, 1)),
            (-1.0 - theta, (1, 1)),
            (theta, (2, 1)),
            (theta, (1, 2)),
            (-theta, (2, 2)),
        )
    raise ValueError(f"unknown extreme selector {which!r}")
