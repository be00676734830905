"""Shared numerical kernels: bracketed root finding and an adaptive tail
quadrature.

Every distribution function in this package is monotone, cheap and smooth,
so the root solver favours robustness over iteration count: plain bisection
to the fixed x-axis tolerance _ABS_TOL ends within about 1,065 halvings of
any float bracket and is fully deterministic.

No measure is computed by quadrature: `quad_tail` is kept only as the
tests' oracle for the laws' closed-form mean excess and for the benchmark
harness, which still rebinds it.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import BracketInvalid, NoBracket, NoConvergence

# deep enough for the endpoint cusp a polynomial tail with exponent >= 2.5
# leaves after the tail substitution; heavier tails (exponent near 1) can
# exhaust it, which surfaces as the documented NoConvergence error
_MAX_SIMPSON_DEPTH = 56

# relative tolerance of the adaptive quadrature, which the tests use as an
# oracle for the closed-form tail integrals of the laws
_QUAD_REL_TOL = 1e-10


# width on the x axis at which bisection stops; every solved value states it
_ABS_TOL = 1e-12
# bound on expand_bracket's doublings
_MAX_ITER = 200


def solve_increasing(
    f: Callable[[float], float], target: float, lo: float, hi: float
) -> float:
    """Solve f(x) = target for a nondecreasing f bracketed on [lo, hi].

    Bisection keeping the invariant f(lo) <= target <= f(hi); when f is flat
    at the target the left-most solution is returned, matching the
    inf{x : f(x) >= target} quantile convention.

    Raises:
        BracketInvalid: if f(lo) > target or f(hi) < target.
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
    # the width halves from at most 2**1024 to _ABS_TOL ~ 2**-40: <= 1,065 steps
    while True:
        # the bits of 0.5 * (lo + hi) in the normal range, without overflow
        mid = 0.5 * lo + 0.5 * hi
        if hi - lo <= _ABS_TOL:
            return mid
        if not lo < mid < hi:
            # interval narrower than float resolution
            return mid
        if f(mid) >= target:
            hi = mid
        else:
            lo = mid


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
