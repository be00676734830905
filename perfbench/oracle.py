"""High-precision reference values of VaR, CTE and MoT, built with mpmath.

Every reference comes from the defining expressions of the model, never
from the library's mixture coefficients:

- x1:  S(x) = 1 - u
- min: S(x) = 1 - u - v + C(u, v)
- max: S(x) = 1 - C(u, v)
- sum: the FGM joint density l1*l2*s1*s2*(c0 + c1*s1 + c2*s2 + c3*s1*s2),
  with si = exp(-li*xi) and (c0, c1, c2, c3) = (1+theta, -2theta, -2theta,
  4theta), splits into four independent exponential pairs; each pair's
  survival is the hypoexponential (or, at equal rates, Erlang) closed form.

with u = F1(x), v = F2(x) and C the FGM copula. VaR and MoT come from plain
bisection on a bracket made of marginal quantiles (Frechet-Hoeffding
bounds), CTE from VaR + int_VaR^inf S(x) dx / (1 - alpha). For the minimum
and maximum, S is a polynomial in the marginal survivals s1, s2; its
coefficients are interpolated exactly (in rationals) from the defining
expression, which turns the tail integral into a sum of closed-form terms.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

DPS = 60
# bisection stops once the bracket is this narrow relative to its upper end,
# which leaves every reference with more than 30 correct digits
_REL_WIDTH = mpmath.mpf(10) ** -34
_NODES = (0, 1, 2)


def _fgm(theta, u, v):
    return u * v * (1 + theta * (1 - u) * (1 - v))


def _extreme_survival(target, theta, s1, s2):
    """S of the target written in the marginal survivals s1 = 1-u, s2 = 1-v."""
    u, v = 1 - s1, 1 - s2
    if target == "x1":
        return 1 - u
    if target == "min":
        return 1 - u - v + _fgm(theta, u, v)
    if target == "max":
        return 1 - _fgm(theta, u, v)
    raise ValueError(f"unknown target {target!r}")


def _quadratic_coeffs(y0, y1, y2):
    """(a, b, c) with a + b t + c t^2 through (0, y0), (1, y1), (2, y2)."""
    c = (y2 - 2 * y1 + y0) / 2
    return (y0, y1 - y0 - c, c)


def survival_polynomial(target, theta):
    """Exact coefficients c[i][j] of S = sum c[i][j] * s1^i * s2^j.

    The FGM survival of every target is at most quadratic in each of s1 and
    s2, so tensor interpolation on the nodes {0, 1, 2} recovers it exactly;
    the arithmetic is rational, so no rounding enters.
    """
    th = Fraction(theta)
    grid = [
        [_extreme_survival(target, th, Fraction(a), Fraction(b)) for b in _NODES]
        for a in _NODES
    ]
    rows = [_quadratic_coeffs(*grid[a]) for a in range(3)]  # rows[a][j]
    cols = [_quadratic_coeffs(rows[0][j], rows[1][j], rows[2][j]) for j in range(3)]
    return [[cols[j][i] for j in range(3)] for i in range(3)]


class Cell:
    """One portfolio and confidence level, in mpmath numbers."""

    def __init__(self, family, target, p1, p2, x0, theta, alpha):
        self.family = family
        self.target = target
        self.p1, self.p2 = mpmath.mpf(p1), mpmath.mpf(p2)
        self.x0 = mpmath.mpf(x0)
        self.theta = mpmath.mpf(theta)
        self.alpha = mpmath.mpf(alpha)
        if target == "sum":
            if family != "exp":
                raise ValueError("sums are defined for exponential marginals")
            l1, l2 = self.p1, self.p2
            th = self.theta
            # (coefficient of l1*l2*s1^i*s2^j, rate pair of that term)
            raw = (
                (1 + th, l1, l2),
                (-2 * th, 2 * l1, l2),
                (-2 * th, l1, 2 * l2),
                (4 * th, 2 * l1, 2 * l2),
            )
            # l1*l2*exp(-a x1)*exp(-b x2) = (l1*l2/(a*b)) * [pair density]
            self.pairs = [(c * l1 * l2 / (a * b), a, b) for c, a, b in raw]
        else:
            self.poly = survival_polynomial(target, theta)

    def marginal_quantile(self, i, p):
        p = mpmath.mpf(p)
        param = self.p1 if i == 1 else self.p2
        if self.family == "exp":
            return -mpmath.log1p(-p) / param
        return self.x0 * (1 - p) ** (-1 / param)

    def _marginal_survival(self, x):
        if self.family == "exp":
            return mpmath.exp(-self.p1 * x), mpmath.exp(-self.p2 * x)
        if x <= self.x0:
            return mpmath.mpf(1), mpmath.mpf(1)
        return (self.x0 / x) ** self.p1, (self.x0 / x) ** self.p2

    def survival(self, x):
        s1, s2 = self._marginal_survival(x)
        if self.target == "sum":
            decay = {self.p1: s1, self.p2: s2, 2 * self.p1: s1 * s1, 2 * self.p2: s2 * s2}
            return sum(w * _pair_survival(a, b, x, decay) for w, a, b in self.pairs)
        return _extreme_survival(self.target, self.theta, s1, s2)

    def cdf(self, x):
        # loses at most 12 of the 60 digits, since alpha >= 1e-12
        return 1 - self.survival(x)

    def bracket(self, level):
        """[lo, hi] enclosing the level-quantile, from marginal quantiles."""
        q = self.marginal_quantile
        hl = (1 + level) / 2
        if self.target == "x1":
            return q(1, level / 2), q(1, hl)
        if self.target == "min":
            return min(q(1, level / 2), q(2, level / 2)), min(q(1, level), q(2, level))
        if self.target == "max":
            return max(q(1, level), q(2, level)), max(q(1, hl), q(2, hl))
        return max(q(1, level), q(2, level)), q(1, hl) + q(2, hl)

    def quantile(self, level):
        lo, hi = self.bracket(level)
        return bisect(self.cdf, level, lo, hi)

    def tail_integral(self, q):
        """int_q^inf S(x) dx in closed form, term by term."""
        if self.target == "sum":
            return sum(w * _pair_tail_integral(a, b, q) for w, a, b in self.pairs)
        total = mpmath.mpf(0)
        for i in range(3):
            for j in range(3):
                c = self.poly[i][j]
                if c == 0:
                    continue
                if i == 0 and j == 0:
                    raise ArithmeticError("survival does not vanish at infinity")
                cm = mpmath.mpf(c.numerator) / c.denominator
                h = i * self.p1 + j * self.p2
                if self.family == "exp":
                    total += cm * mpmath.exp(-h * q) / h
                elif h > 1:
                    total += cm * q * (self.x0 / q) ** h / (h - 1)
                else:
                    return mpmath.inf
        return total

    def measures(self):
        """(VaR, CTE, MoT) as mpmath numbers."""
        a = self.alpha
        var = self.quantile(a)
        cte = var + self.tail_integral(var) / (1 - a)
        mot = self.quantile((1 + a) / 2)
        return var, cte, mot


def _pair_survival(a, b, x, decay):
    """P(E_a + E_b > x) for independent exponentials of rates a and b.

    decay maps each rate r to exp(-r * x).
    """
    if a == b:
        return decay[a] * (1 + a * x)
    return (a * decay[b] - b * decay[a]) / (a - b)


def _pair_tail_integral(a, b, q):
    if a == b:
        return mpmath.exp(-a * q) * (2 + a * q) / a
    return (a * mpmath.exp(-b * q) / b - b * mpmath.exp(-a * q) / a) / (a - b)


def bisect(f, target, lo, hi):
    """Left-most x in [lo, hi] with f(x) >= target, for a nondecreasing f."""
    if f(lo) > target or f(hi) < target:
        raise ArithmeticError(f"[{lo}, {hi}] does not bracket {target}")
    while hi - lo > _REL_WIDTH * hi:
        mid = (lo + hi) / 2
        if f(mid) >= target:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def reference(family, target, p1, p2, x0, theta, alpha):
    """(VaR, CTE, MoT) of one cell to more than 30 digits, as mpmath numbers."""
    with mpmath.workdps(DPS):
        return Cell(family, target, p1, p2, x0, theta, alpha).measures()


def _rel(a, b):
    return abs(a - b) / abs(b)


def self_checks():
    """Compare the oracle with closed forms that bypass the library.

    Returns a list of (name, worst relative error); each must be < 1e-30.
    """
    out = []
    with mpmath.workdps(DPS):
        # min of independent exponentials is exponential with rate l1 + l2
        worst = mpmath.mpf(0)
        for l1, l2 in ((0.5, 0.6), (3e-150, 7e149), (1e8, 2.5e-3)):
            for alpha in (1e-12, 0.9, 1 - 1e-12):
                got = Cell("exp", "min", l1, l2, 0, 0.0, alpha).measures()
                r = mpmath.mpf(l1) + mpmath.mpf(l2)
                a = mpmath.mpf(alpha)
                var = -mpmath.log1p(-a) / r
                want = (var, var + 1 / r, -mpmath.log1p(-(1 + a) / 2) / r)
                worst = max(worst, *(_rel(g, w) for g, w in zip(got, want)))
        out.append(("min_theta0_is_exponential", float(worst)))
        # equal-rate sum at theta = 0 is Erlang(2): S(x) = e^{-lx}(1 + lx),
        # inverted with the lower branch of Lambert W
        worst = mpmath.mpf(0)
        for lam in (0.5, 1e-100, 4e120):
            for alpha in (1e-12, 0.9, 1 - 1e-12):
                got = Cell("exp", "sum", lam, lam, 0, 0.0, alpha).measures()
                lm, a = mpmath.mpf(lam), mpmath.mpf(alpha)

                def erlang_q(p):
                    w = mpmath.lambertw(-(1 - p) / mpmath.e, -1)
                    return (-1 - mpmath.re(w)) / lm

                var = erlang_q(a)
                cte = var + mpmath.exp(-lm * var) * (2 + lm * var) / (lm * (1 - a))
                want = (var, cte, erlang_q((1 + a) / 2))
                worst = max(worst, *(_rel(g, w) for g, w in zip(got, want)))
        out.append(("equal_rate_sum_theta0_is_erlang2", float(worst)))
    return out
