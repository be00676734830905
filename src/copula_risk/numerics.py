"""Shared numerical kernels: bracketed root finding and tail quadrature.

Every distribution function in this package is monotone, cheap and smooth,
so the root solver favours robustness over iteration count: plain bisection
converges in at most ceil(log2((hi - lo) / abs_tol)) steps and is fully
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import BracketInvalid, DomainError, NoBracket, NoConvergence

# deep enough for the endpoint cusp a polynomial tail with exponent >= 2.5
# leaves after the tail substitution; heavier tails (exponent near 1) can
# exhaust it, which surfaces as the documented NoConvergence error
_MAX_SIMPSON_DEPTH = 56

# relative tolerance of the adaptive quadrature, which the tests use as an
# oracle for the closed-form tail integrals
_QUAD_REL_TOL = 1e-10


# bisections that take any finite bracket to adjacent floats (2,099 at most)
_MAX_BISECTIONS = 2100
# bound on expand_bracket's doublings
_MAX_ITER = 200


@dataclass(frozen=True)
class SolverSettings:
    """Tolerance of the root solver, measured on the x axis."""

    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not 0 < self.abs_tol < math.inf:
            raise DomainError(f"abs_tol must lie in (0, inf), got {self.abs_tol}")


DEFAULT_SETTINGS = SolverSettings()


def solve_increasing(
    f: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> float:
    """Solve f(x) = target for a nondecreasing f bracketed on [lo, hi].

    Bisection keeping the invariant f(lo) <= target <= f(hi); when f is flat
    at the target the left-most solution is returned, matching the
    inf{x : f(x) >= target} quantile convention.

    Raises:
        BracketInvalid: if f(lo) > target or f(hi) < target.
        NoConvergence: if the interval is still wider than abs_tol after
            _MAX_BISECTIONS bisections.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo > target or fhi < target:
        raise BracketInvalid(
            f"[{lo}, {hi}] does not bracket target {target}: "
            f"f(lo)={flo}, f(hi)={fhi}"
        )
    if flo >= target:
        return lo
    for _ in range(_MAX_BISECTIONS):
        # the bits of 0.5 * (lo + hi) in the normal range, without overflow
        mid = 0.5 * lo + 0.5 * hi
        if hi - lo <= settings.abs_tol:
            return mid
        if not lo < mid < hi:
            # interval narrower than float resolution
            return mid
        if f(mid) >= target:
            hi = mid
        else:
            lo = mid
    raise NoConvergence(
        f"bisection did not reach abs_tol={settings.abs_tol} "
        f"in {_MAX_BISECTIONS} iterations"
    )


def expand_bracket(
    f: Callable[[float], float], target: float, lo: float
) -> tuple[float, float]:
    """Grow an upper bracket geometrically until f(hi) >= target.

    The candidate starts at max(lo, 1) and is doubled until the target is
    enclosed.

    Raises:
        NoBracket: if the target is still not reached after _MAX_ITER
            expansions.
    """
    hi = max(lo, 1.0)
    for _ in range(_MAX_ITER):
        if f(hi) >= target:
            return (lo, hi)
        hi *= 2.0
    raise NoBracket(
        f"f never reached {target} within {_MAX_ITER} expansions "
        f"(last tried hi={hi})"
    )


def exp_tail_integral(rate: float, q: float) -> float:
    """Closed form of the exponential tail expectation integral.

    Returns int_q^inf x * rate * exp(-rate*x) dx = (q + 1/rate) * exp(-rate*q).
    """
    if rate <= 0 or not math.isfinite(rate):
        raise DomainError(f"rate must be positive and finite, got {rate}")
    if q < 0:
        raise DomainError(f"q must be nonnegative, got {q}")
    return (q + 1.0 / rate) * math.exp(-rate * q)


def pareto_tail_integral(x0: float, gamma: float, q: float) -> float:
    """Closed form of the Pareto tail expectation integral.

    Returns int_q^inf x * gamma * x0^gamma * x^(-gamma-1) dx
          = gamma / (gamma - 1) * q * (x0/q)^gamma,
    which requires gamma > 1 to converge. Raising the ratio x0/q <= 1 keeps
    large exponents from overflowing where x0^gamma * q^(1-gamma) would.
    """
    if x0 <= 0:
        raise DomainError(f"x0 must be positive, got {x0}")
    if gamma <= 1:
        raise DomainError(f"tail integral diverges for gamma <= 1, got {gamma}")
    if q < x0:
        raise DomainError(f"q must be >= x0={x0}, got {q}")
    return gamma / (gamma - 1.0) * q * (x0 / q) ** gamma


def quad_tail(f: Callable[[float], float], lo: float) -> float:
    """Adaptive quadrature of int_lo^inf f(x) dx.

    The substitution x = lo + t/(1-t) maps the tail onto t in [0, 1); the
    transformed integrand is then handled by adaptive Simpson subdivision.
    Assumes f is absolutely integrable with eventually monotone decay, so
    the transformed integrand vanishes at t = 1.

    Exponential decay and polynomial decay x^(-p) with p >= 3 meet
    _QUAD_REL_TOL comfortably; heavier polynomial tails leave a cusp at
    t = 1 that plain Simpson cannot resolve to full tolerance, which
    surfaces as NoConvergence rather than a silently degraded result.
    """

    def g(t: float) -> float:
        if t >= 1.0:
            return 0.0
        onemt = 1.0 - t
        return f(lo + t / onemt) / (onemt * onemt)

    return _quad_finite(g, 0.0, 1.0, _QUAD_REL_TOL)


def _quad_finite(
    f: Callable[[float], float], a: float, b: float, rel_tol: float
) -> float:
    """Adaptive Simpson integration of f over the finite interval [a, b]."""
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    eps = max(abs(whole) * rel_tol, 1e-300)
    return _simpson_split(f, a, fa, m, fm, b, fb, whole, eps, _MAX_SIMPSON_DEPTH)


def _simpson_split(f, a, fa, m, fm, b, fb, whole, eps, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * eps:
        return left + right + delta / 15.0
    if depth <= 0 or not (a < lm < m < rm < b):
        # either the subdivision budget ran out or the interval has been
        # split down to float resolution without meeting tolerance
        raise NoConvergence(
            f"quadrature subdivision budget exhausted on [{a}, {b}]"
        )
    half = 0.5 * eps
    return _simpson_split(
        f, a, fa, lm, flm, m, fm, left, half, depth - 1
    ) + _simpson_split(f, m, fm, rm, frm, b, fb, right, half, depth - 1)
