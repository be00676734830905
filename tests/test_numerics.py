import math
import sys

import pytest
from hypothesis import given, strategies as st

from copula_risk.errors import (
    BracketInvalid,
    DomainError,
    NoBracket,
    NoConvergence,
)
from copula_risk import numerics
from copula_risk.numerics import (
    exp_tail_integral,
    expand_bracket,
    pareto_tail_integral,
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
    def test_mean_of_unit_exponential(self):
        assert exp_tail_integral(1.0, 0.0) == 1.0

    def test_reproduces_published_cte(self):
        q = -math.log(0.1) / 0.5
        assert exp_tail_integral(0.5, q) / 0.1 == pytest.approx(6.605, abs=5e-3)

    def test_against_quadrature_oracle(self):
        # frozen scipy.integrate.quad of 2x exp(-2x) over [1, inf)
        assert exp_tail_integral(2.0, 1.0) == pytest.approx(
            0.20300292485491897, rel=1e-12
        )

    def test_exact_mean_identity(self):
        for lam in (0.1, 0.5, 1.0, 3.0, 17.0):
            assert exp_tail_integral(lam, 0.0) == 1.0 / lam

    def test_decreasing_in_q(self):
        vals = [exp_tail_integral(0.7, q) for q in (0.0, 0.5, 1.0, 2.0, 5.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 0 for v in vals)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            exp_tail_integral(0.0, 1.0)
        with pytest.raises(DomainError):
            exp_tail_integral(-1.0, 1.0)
        with pytest.raises(DomainError):
            exp_tail_integral(1.0, -0.1)


class TestParetoTailIntegral:
    def test_full_support_mean(self):
        assert pareto_tail_integral(1.0, 3.0, 1.0) == pytest.approx(1.5, rel=1e-15)

    def test_reproduces_published_cte(self):
        q = 0.1 ** (-1.0 / 3.0)
        assert pareto_tail_integral(1.0, 3.0, q) / 0.1 == pytest.approx(
            3.23, abs=5e-3
        )

    def test_against_quadrature_oracle(self):
        # frozen scipy.integrate.quad of x * 4 * 2^4 * x^-5 over [3, inf)
        assert pareto_tail_integral(2.0, 4.0, 3.0) == pytest.approx(
            0.7901234567901235, rel=1e-12
        )

    @pytest.mark.parametrize("gamma", [160.0, 170.0])
    def test_steep_tail_at_small_scale(self, gamma):
        # x0^gamma and q^(1 - gamma) leave the float range separately here
        mpmath = pytest.importorskip("mpmath")
        x0, q = 0.01, 0.0105
        with mpmath.workdps(30):
            ref = (
                gamma * mpmath.mpf(x0) ** gamma * mpmath.mpf(q) ** (1 - gamma)
                / (gamma - 1)
            )
        assert pareto_tail_integral(x0, gamma, q) == pytest.approx(
            float(ref), rel=1e-13
        )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pareto_tail_integral(1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            pareto_tail_integral(1.0, 0.5, 2.0)
        with pytest.raises(DomainError):
            pareto_tail_integral(1.0, 3.0, 0.5)
        with pytest.raises(DomainError):
            pareto_tail_integral(-1.0, 3.0, 2.0)


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
        f = lambda x: x * lam * math.exp(-lam * x)
        assert quad_tail(f, q) == pytest.approx(
            exp_tail_integral(lam, q), rel=1e-8
        )

    @pytest.mark.parametrize("gamma", [3.0, 4.0, 6.0])
    @pytest.mark.parametrize("q_mult", [1.0, 1.5, 3.0])
    def test_agrees_with_pareto_closed_form(self, gamma, q_mult):
        # gammas at and above the reference tables' exponents; tails with
        # gamma below ~3 leave a cusp the Simpson scheme reports as
        # NoConvergence instead of resolving to full tolerance
        x0 = 1.3
        q = x0 * q_mult
        f = lambda x: x * gamma * x0**gamma * x ** (-gamma - 1.0)
        assert quad_tail(f, q) == pytest.approx(
            pareto_tail_integral(x0, gamma, q), rel=1e-8
        )

    def test_divergent_integrand_exhausts_budget(self):
        with pytest.raises(NoConvergence):
            quad_tail(lambda x: 1.0, 0.0)


def test_solver_stops_at_the_fixed_x_axis_tolerance():
    assert numerics._ABS_TOL == 1e-12
    # a bracket no wider than the tolerance is returned as its midpoint
    assert solve_increasing(lambda x: x, 0.25e-12, 0.0, 1e-12) == 0.5e-12
