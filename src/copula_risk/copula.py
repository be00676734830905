"""The FGM dependence structure on the unit square.

C(u, v) = uv + theta * uv(1-u)(1-v) for theta in [-1, 1]. Outside that
range the density goes negative, so theta is validated once at
construction. C, its u-derivative `_partial` and its density each sum
nonnegative terms, in one form per sign of theta, and the survival is
C(1 - u, 1 - v) by radial symmetry, so all keep their digits at the
corners. All functions accept scalars or numpy arrays; numpy is
imported on the first call, not with the module. The sampler calls the
conditional-quantile kernel `_conditional_quantile_into(theta, u, wv, s,
t, cap)` directly: it reads u, turns the w in wv into v in place and
needs only the two scratch arrays s and t, so a block is transformed
where it was drawn. `conditional_quantile` is its allocating, checking
wrapper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, number


@dataclass(frozen=True)
class FgmCopula:
    """One-parameter perturbation of independence; theta in [-1, 1]."""

    theta: float

    def __post_init__(self) -> None:
        theta = number("theta", self.theta)
        if not (math.isfinite(theta) and -1.0 <= theta <= 1.0):
            raise DomainError(f"theta must lie in [-1, 1], got {theta}")
        object.__setattr__(self, "theta", theta)


def _unit(name: str, x):
    import numpy as np

    xs = np.asarray(x, dtype=float)
    # min and max propagate NaN, so NaN fails the check too
    if xs.size and not (xs.min() >= 0.0 and xs.max() <= 1.0):
        raise DomainError(f"{name} must lie in [0, 1]")
    return xs


def _ret(out):
    return out if out.ndim else float(out)


def _cdf_raw(theta: float, us, vs):
    if theta >= 0.0:
        return us * vs * (1.0 + theta * (1.0 - us) * (1.0 - vs))
    return us * vs * ((1.0 + theta) - theta * (us + (1.0 - us) * vs))


def _partial(theta: float, u, ub, v, vb):
    """dC/du = v(1 + theta vb(ub - u)) at (u, v), with ub = 1 - u, vb = 1 - v,
    is v((1 - |theta|) + |theta|(v + 2 vb ub)), with u for ub if theta < 0."""
    a = abs(theta)
    return v * ((1.0 - a) + a * (v + 2.0 * vb * (ub if theta >= 0.0 else u)))


def cdf(c: FgmCopula, u, v):
    """Copula CDF C(u, v)."""
    us, vs = _unit("u", u), _unit("v", v)
    return _ret(_cdf_raw(c.theta, us, vs))


def density(c: FgmCopula, u, v):
    """Copula density c(u, v) = 1 + theta(1-2u)(1-2v) = (1 - |theta|) +
    2|theta|(uv + ub vb), with u vb + ub v if theta < 0; ub = 1 - u."""
    us, vs = _unit("u", u), _unit("v", v)
    a, ub, vb = abs(c.theta), 1.0 - us, 1.0 - vs
    same = us * vs + ub * vb if c.theta >= 0.0 else us * vb + ub * vs
    return _ret((1.0 - a) + 2.0 * a * same)


def survival(c: FgmCopula, u, v):
    """Joint survival P(U > u, V > v) = C(1 - u, 1 - v), by radial symmetry."""
    us, vs = _unit("u", u), _unit("v", v)
    return _ret(_cdf_raw(c.theta, 1.0 - us, 1.0 - vs))


def conditional_cdf(c: FgmCopula, v, given_u):
    """P(V <= v | U = u), the partial derivative of C in u."""
    vs, us = _unit("v", v), _unit("given_u", given_u)
    return _ret(_partial(c.theta, us, 1.0 - us, vs, 1.0 - vs))


def conditional_quantile(c: FgmCopula, w, given_u):
    """Inverse of conditional_cdf in v; the copula sampling kernel.

    With a = theta(1 - 2u) the conditional CDF is v + a*v(1-v) = w, a
    quadratic in v whose root in [0, 1] is evaluated in the cancellation-free
    form 2w / ((1+a) + sqrt((1+a)^2 - 4aw)).
    """
    import numpy as np

    ws, us = _unit("w", w), _unit("given_u", given_u)
    shape = np.broadcast_shapes(ws.shape, us.shape)
    out = np.empty(shape)
    out[...] = ws
    _conditional_quantile_into(
        c.theta, us, out, np.empty(shape), np.empty(shape), 1.0
    )
    return _ret(out)


def _conditional_quantile_into(theta: float, u, wv, s, t, cap: float):
    """conditional_quantile's formula, overwriting w in wv with v <= cap.

    wv holds w on entry and v on return; cap <= 1. u and w must lie in
    [0, 1]; nothing is checked. s and t are scratch arrays of wv's shape,
    and u may broadcast against it. Every step is one ufunc pass in place,
    in the order of the formula, so the bits do not depend on the buffers
    used. With only two scratch arrays, a and 1 + a are computed twice,
    by the same steps: once for the discriminant, once for the
    denominator.
    """
    import numpy as np

    np.multiply(u, 2.0, out=s)
    np.subtract(1.0, s, out=s)
    np.multiply(s, theta, out=s)  # a
    np.multiply(s, 4.0, out=t)
    np.multiply(t, wv, out=t)  # 4aw
    np.add(s, 1.0, out=s)  # 1 + a
    np.multiply(s, s, out=s)
    np.subtract(s, t, out=s)
    np.maximum(s, 0.0, out=s)
    np.sqrt(s, out=s)
    np.multiply(u, 2.0, out=t)
    np.subtract(1.0, t, out=t)
    np.multiply(t, theta, out=t)
    np.add(t, 1.0, out=t)  # 1 + a again
    np.add(t, s, out=s)
    # the denominator is 0 only at a = -1, w = 0, and otherwise at least
    # about 4e-162, so raising it to the least subnormal makes that cell's
    # quotient 0 and no other (an fmax of the quotient with 0 would too,
    # but at w = -0 its result's sign depends on the element's SIMD lane);
    # the quotient is never negative, so capping it is all that is left of
    # clipping to [0, 1]
    np.maximum(s, 5e-324, out=s)
    np.multiply(wv, 2.0, out=wv)
    np.divide(wv, s, out=wv)
    np.minimum(wv, cap, out=wv)
    return wv


def rectangle_mass(c: FgmCopula, u1, u2, v1, v2):
    """Probability mass of the rectangle [u1, u2] x [v1, v2].

    Nonnegative for every theta in [-1, 1] (the 2-increasing property).
    """
    u1s, u2s = _unit("u1", u1), _unit("u2", u2)
    v1s, v2s = _unit("v1", v1), _unit("v2", v2)
    if (u1s > u2s).any() or (v1s > v2s).any():
        raise DomainError("rectangle corners must satisfy u1 <= u2 and v1 <= v2")
    th = c.theta
    mass = (
        _cdf_raw(th, u2s, v2s)
        - _cdf_raw(th, u1s, v2s)
        - _cdf_raw(th, u2s, v1s)
        + _cdf_raw(th, u1s, v1s)
    )
    return _ret(mass)
