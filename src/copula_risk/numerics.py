"""Shared numerical kernels: bracketed root finding and an adaptive tail
quadrature.

Every distribution function in this package is monotone, cheap and smooth,
so the root solver is Chandrupatla's hybrid of inverse quadratic
interpolation and bisection (T. R. Chandrupatla, Advances in Engineering
Software 28(3), 1997), with a bisection wherever the bracket has not halved
over three steps: about 11 evaluations per solve of a law, to adjacent
floats, where plain bisection to 1e-12 took about 44, and as deterministic.

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


# width on the x axis at which a solve stops by default; every solved value
# states it
_ABS_TOL = 1e-12
# relative width, two to four floats, below which a residual is rounding
# noise: a solve bisects there instead of interpolating, and an interpolated
# step lands at least half of it inside the bracket
_REL_WIDTH = 2.0**-51
# bound on expand_bracket's doublings
_MAX_ITER = 200


def solve_increasing(
    f: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    tail: float | None = None,
    tol: float = _ABS_TOL,
    rel: float | None = None,
) -> float:
    """Solve f(x) = target for a nondecreasing f bracketed on [lo, hi]; or,
    given `tail`, f(x) = tail for a nonincreasing survival f, `target` then
    naming the level 1 - tail that the solve reaches.

    Chandrupatla's method on the residual r, f - target or tail - f, which
    keeps the invariant r(lo) < 0 <= r(hi), so where r is 0 over a stretch
    the left-most solution is returned, matching the inf{x : F(x) >= level}
    quantile convention. A step interpolates r inversely through the last
    three points where that interpolant is monotone and the bracket is wider
    than w = max(_REL_WIDTH * |x|, stop), landing at least w/2 inside it so
    that a step from a point that close to the root crosses it. It bisects
    otherwise, and whenever the bracket has not halved over the last three
    steps, so a solve takes at most four times bisection's evaluations. The
    solve returns the bracket's midpoint once it is no wider than stop,
    `tol` or, given `rel`, min(tol, rel * |x|); or, at adjacent floats, the
    one where r >= 0: with tol = 0, the left-most float where r >= 0.

    Raises:
        BracketInvalid: if f(lo) and f(hi) do not bracket the target.
    """
    sign, t0 = (1.0, target) if tail is None else (-1.0, tail)
    flo = f(lo)
    fhi = f(hi)
    # x1 is the newest point and x2 the bracket's other end, so r(x1) and
    # r(x2) lie on either side of 0; x3 is the point dropped last
    x1, r1 = lo, sign * (flo - t0)
    x2, r2 = hi, sign * (fhi - t0)
    if r1 > 0.0 or r2 < 0.0:
        raise BracketInvalid(
            f"[{lo}, {hi}] does not bracket target {t0}: "
            f"f(lo)={flo}, f(hi)={fhi}"
        )
    if r1 == 0.0:
        return lo
    if hi - lo <= (tol if rel is None else min(tol, rel * abs(hi))):
        return 0.5 * lo + 0.5 * hi
    t = 0.5
    d1 = d2 = d3 = math.inf  # the bracket's widths before the last 3 steps
    while True:
        x = x1 + t * (x2 - x1)
        if not (x1 < x < x2 or x2 < x < x1):
            # the bits of 0.5 * (x1 + x2) in the normal range, without overflow
            x = 0.5 * x1 + 0.5 * x2
            if x == x1 or x == x2:  # adjacent floats
                return x1 if r1 >= 0.0 else x2
        r = sign * (f(x) - t0)
        if (r < 0.0) == (r1 < 0.0):
            x3, r3 = x1, r1
        else:
            x3, r3 = x2, r2
            x2, r2 = x1, r1
        x1, r1 = x, r
        dx = abs(x2 - x1)
        stop = tol if rel is None else min(tol, rel * abs(x1))
        if dx <= stop:
            return 0.5 * x1 + 0.5 * x2
        w = _REL_WIDTH * abs(x1)
        if w < stop:
            w = stop
        t = 0.5
        if w < dx <= 0.5 * d3:
            # Chandrupatla's test that the interpolant is monotone
            xi = (x1 - x2) / (x3 - x2)
            phi = (r1 - r2) / (r3 - r2)
            if phi * phi < xi and (1.0 - phi) * (1.0 - phi) < 1.0 - xi:
                t = r1 / (r1 - r2) * r3 / (r3 - r2) - (x3 - x1) / (
                    x2 - x1
                ) * r1 / (r3 - r1) * r2 / (r2 - r3)
                tl = 0.5 * w / dx
                t = tl if t < tl else (1.0 - tl if t > 1.0 - tl else t)
        d3, d2, d1 = d2, d1, dx


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
