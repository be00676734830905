import math
import sys

import pytest
from hypothesis import given, strategies as st

from copula_risk.errors import (
    BracketInvalid,
    NoBracket,
    NoConvergence,
)
from copula_risk import numerics
from copula_risk._mixtures import ParetoTermMixture
from copula_risk.marginals import ExponentialMarginal, ParetoMarginal
from copula_risk.numerics import (
    expand_bracket,
    quad_tail,
    solve_increasing,
)


def indep_max_cdf(x):
    # CDF of max(X1, X2) for independent exp(0.5), exp(0.6)
    return (
        1.0
        - math.exp(-0.5 * x)
        - math.exp(-0.6 * x)
        + math.exp(-1.1 * x)
    )


class TestSolveIncreasing:
    def test_analytic_inverse(self):
        root = solve_increasing(lambda x: 1 - math.exp(-x), 0.9, 0.0, 50.0)
        assert root == pytest.approx(math.log(10.0), abs=1e-11)

    def test_identity(self):
        assert solve_increasing(lambda x: x, 0.5, 0.0, 1.0) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_independent_max_quantile(self):
        root = solve_increasing(indep_max_cdf, 0.9, 0.0, 50.0)
        assert root == pytest.approx(5.47, abs=5e-3)
        # frozen full-precision value from an external brentq solve
        assert root == pytest.approx(5.47019338256259, abs=1e-10)

    def test_left_most_solution_on_flat_stretch(self):
        f = lambda x: max(x, 0.0)
        assert solve_increasing(f, 0.0, -5.0, 10.0) == -5.0
        assert solve_increasing(f, 0.5, -5.0, 10.0) == pytest.approx(0.5, abs=1e-11)

    def test_bracket_invalid(self):
        with pytest.raises(BracketInvalid):
            solve_increasing(lambda x: x, 2.0, 0.0, 1.0)
        with pytest.raises(BracketInvalid):
            solve_increasing(lambda x: x, -1.0, 0.0, 1.0)

    def test_wide_bracket_converges(self):
        # narrowing [0, 1e300] to 1e-12 takes about 1,036 bisections, within
        # the budget that takes any finite bracket to adjacent floats
        assert solve_increasing(lambda x: x, 0.5, 0.0, 1e300) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_midpoint_of_a_bracket_near_the_largest_float(self):
        # lo + hi overflows here; the midpoint must not
        top = sys.float_info.max
        root = solve_increasing(lambda x: x, 0.999 * top, 0.0, top)
        assert root == pytest.approx(0.999 * top, rel=1e-15)

    def test_deterministic(self):
        a = solve_increasing(indep_max_cdf, 0.9, 0.0, 50.0)
        b = solve_increasing(indep_max_cdf, 0.9, 0.0, 50.0)
        assert a == b

    @given(
        lam=st.floats(0.05, 20.0),
        alpha=st.floats(0.01, 0.99),
    )
    def test_reevaluation_property(self, lam, alpha):
        f = lambda x: 1 - math.exp(-lam * x)
        root = solve_increasing(f, alpha, 0.0, 2000.0)
        # |f(root) - alpha| <= |f'| * _ABS_TOL near the root
        assert abs(f(root) - alpha) <= lam * 1e-11


class TestExpandBracket:
    def test_contract(self):
        f = lambda x: 1 - math.exp(-x)
        lo, hi = expand_bracket(f, 0.9, 0.0)
        assert lo == 0.0
        assert f(hi) >= 0.9
        assert hi >= math.log(10.0)

    def test_target_at_lower_bound(self):
        lo, hi = expand_bracket(lambda x: 1 - math.exp(-x), 0.0, 0.0)
        assert lo == 0.0 and hi >= lo

    def test_aggregate_cdf_bracket(self):
        from copula_risk import AggregateExpPortfolio, ExponentialMarginal, FgmCopula
        from copula_risk.aggregate import aggregate_cdf

        p = AggregateExpPortfolio(
            ExponentialMarginal(0.5), ExponentialMarginal(0.6), FgmCopula(0.9)
        )
        lo, hi = expand_bracket(lambda x: aggregate_cdf(p, x), 0.9, 0.0)
        assert hi >= 7.61

    def test_no_bracket(self):
        with pytest.raises(NoBracket):
            expand_bracket(lambda x: 0.5, 0.9, 0.0)


class TestExpTailIntegral:
    """Exp(rate)'s mean excess E[X - q | X > q], 1/rate at every q."""

    def test_mean_of_unit_exponential(self):
        assert ExponentialMarginal(1.0).mean_excess(0.0, 1.0) == 1.0

    def test_reproduces_published_cte(self):
        q = -math.log(0.1) / 0.5
        cte = q + ExponentialMarginal(0.5).mean_excess(q, 0.1)
        assert cte == pytest.approx(6.605, abs=5e-3)

    def test_against_quadrature_oracle(self):
        # frozen scipy.integrate.quad of 2x exp(-2x) over [1, inf), which
        # over S(1) is E[X | X > 1]
        s = math.exp(-2.0)
        assert 1.0 + ExponentialMarginal(2.0).mean_excess(1.0, s) == pytest.approx(
            0.20300292485491897 / s, rel=1e-12
        )

    def test_exact_mean_identity(self):
        for lam in (0.1, 0.5, 1.0, 3.0, 17.0):
            assert ExponentialMarginal(lam).mean_excess(0.0, 1.0) == 1.0 / lam

    def test_decreasing_in_q(self):
        # the tail integral int_q^inf x f = S(q) * (q + mean excess)
        vals = [
            math.exp(-0.7 * q) * (q + ExponentialMarginal(0.7).mean_excess(q, 1.0))
            for q in (0.0, 0.5, 1.0, 2.0, 5.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)


class TestParetoTailIntegral:
    """Pareto(x0, gamma)'s mean excess, q/(gamma - 1) beyond q, and that of
    the terms of a Pareto min or max."""

    def test_full_support_mean(self):
        cte = 1.0 + ParetoMarginal(1.0, 3.0).mean_excess(1.0, 1.0)
        assert cte == pytest.approx(1.5, rel=1e-15)

    def test_reproduces_published_cte(self):
        q = 0.1 ** (-1.0 / 3.0)
        cte = q + ParetoMarginal(1.0, 3.0).mean_excess(q, 0.1)
        assert cte == pytest.approx(3.23, abs=5e-3)

    def test_against_quadrature_oracle(self):
        # frozen scipy.integrate.quad of x * 4 * 2^4 * x^-5 over [3, inf),
        # which over S(3) = (2/3)^4 is E[X | X > 3]
        s = (2.0 / 3.0) ** 4
        assert 3.0 + ParetoMarginal(2.0, 4.0).mean_excess(3.0, s) == pytest.approx(
            0.7901234567901235 / s, rel=1e-12
        )

    @pytest.mark.parametrize("gamma", [160.0, 170.0])
    def test_steep_tail_at_small_scale(self, gamma):
        # the min of independent Pareto(x0, g1) and Pareto(x0, g2) is
        # Pareto(x0, g1 + g2): one term, whose int_q^inf S at s = 1 is
        # x0^gamma q^(1 - gamma)/(gamma - 1). x0^gamma and q^(1 - gamma)
        # leave the float range separately here
        mpmath = pytest.importorskip("mpmath")
        x0, q = 0.01, 0.0105
        with mpmath.workdps(30):
            ref = (
                mpmath.mpf(x0) ** gamma * mpmath.mpf(q) ** (1 - gamma)
                / (gamma - 1)
            )
        law = ParetoTermMixture(gamma - 70.0, 70.0, 0.0, "min", hi=None, x0=x0)
        assert law.mean_excess(q, 1.0) == pytest.approx(float(ref), rel=1e-13)


class TestQuadTail:
    def test_unit_exponential(self):
        assert quad_tail(lambda x: math.exp(-x), 0.0) == pytest.approx(
            1.0, rel=1e-10
        )

    def test_exponential_mean(self):
        f = lambda x: x * 0.5 * math.exp(-0.5 * x)
        assert quad_tail(f, 0.0) == pytest.approx(2.0, rel=1e-10)

    def test_independent_sum_tail(self):
        # frozen scipy value of int_7.14^inf x f_sum(x) dx, theta = 0
        f = lambda x: x * 3.0 * (math.exp(-0.5 * x) - math.exp(-0.6 * x))
        assert quad_tail(f, 7.14) == pytest.approx(0.9369, abs=5e-4)
        assert quad_tail(f, 7.14) == pytest.approx(
            0.9369617463553258, rel=1e-9
        )

    @pytest.mark.parametrize("lam", [0.2, 0.5, 1.0, 2.5])
    @pytest.mark.parametrize("q", [0.0, 0.7, 3.0])
    def test_agrees_with_exp_closed_form(self, lam, q):
        S = lambda x: math.exp(-lam * x)
        assert quad_tail(S, q) / S(q) == pytest.approx(
            ExponentialMarginal(lam).mean_excess(q, S(q)), rel=1e-8
        )

    @pytest.mark.parametrize("gamma", [3.0, 4.0, 6.0])
    @pytest.mark.parametrize("q_mult", [1.0, 1.5, 3.0])
    def test_agrees_with_pareto_closed_form(self, gamma, q_mult):
        # gammas at and above the reference tables' exponents; tails with
        # gamma below ~3 leave a cusp the Simpson scheme reports as
        # NoConvergence instead of resolving to full tolerance
        x0 = 1.3
        q = x0 * q_mult
        S = lambda x: (x0 / x) ** gamma
        assert quad_tail(S, q) / S(q) == pytest.approx(
            ParetoMarginal(x0, gamma).mean_excess(q, S(q)), rel=1e-8
        )

    def test_divergent_integrand_exhausts_budget(self):
        with pytest.raises(NoConvergence):
            quad_tail(lambda x: 1.0, 0.0)


def test_solver_stops_at_the_fixed_x_axis_tolerance():
    assert numerics._ABS_TOL == 1e-12
    # a bracket no wider than the tolerance is returned as its midpoint
    assert solve_increasing(lambda x: x, 0.25e-12, 0.0, 1e-12) == 0.5e-12
