import math

import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from copula_risk._mixtures import ParetoTermMixture
from copula_risk.copula import FgmCopula, cdf as copula_cdf
from copula_risk.errors import DivergentTail, DomainError
from copula_risk.extremes import (
    BivariatePortfolio,
    ExtremeSelector,
    extreme_cdf,
    extreme_cte,
    extreme_mot,
    extreme_pdf,
    extreme_report,
    extreme_var,
)
from copula_risk.marginals import (
    ExponentialMarginal,
    Method,
    ParetoMarginal,
    cdf as marginal_cdf,
    var as marginal_var,
)

E1, E2 = ExponentialMarginal(0.5), ExponentialMarginal(0.6)
P1, P2 = ParetoMarginal(1.0, 3.0), ParetoMarginal(1.0, 4.0)


def exp_portfolio(theta):
    return BivariatePortfolio(E1, E2, FgmCopula(theta))


def pareto_portfolio(theta):
    return BivariatePortfolio(P1, P2, FgmCopula(theta))


class TestConstruction:
    def test_mixed_families_rejected(self):
        with pytest.raises(DomainError):
            BivariatePortfolio(E1, P1, FgmCopula(0.5))

    def test_pareto_left_endpoints_must_match(self):
        with pytest.raises(DomainError):
            BivariatePortfolio(
                ParetoMarginal(1.0, 3.0), ParetoMarginal(2.0, 4.0), FgmCopula(0.0)
            )

    def test_copula_must_be_fgm(self):
        # a bare theta used to build, and failed when measured
        with pytest.raises(DomainError, match="FgmCopula"):
            BivariatePortfolio(E1, E2, 0.5)

    def test_selector_accepts_strings_and_enum(self):
        p = exp_portfolio(0.3)
        assert extreme_cdf(p, "min", 1.0) == extreme_cdf(
            p, ExtremeSelector.MIN, 1.0
        )
        with pytest.raises(DomainError):
            extreme_cdf(p, "median", 1.0)


# branches no other test reaches: a density below the support, and a
# marginal of neither family
@pytest.mark.parametrize(
    "call",
    [
        lambda: extreme_pdf(exp_portfolio(0.5), "min", -1.0),
        lambda: extreme_pdf(pareto_portfolio(0.5), "max", 0.5),
        lambda: BivariatePortfolio(object(), object(), FgmCopula(0.0)),
        lambda: marginal_cdf(object(), 1.0),
    ],
    ids=["exp-pdf-below-0", "pareto-pdf-below-x0", "portfolio", "marginal-cdf"],
)
def test_outside_the_support_or_the_families(call):
    try:
        got = call()
    except DomainError as exc:
        assert "unsupported marginal type: object" in str(exc)
    else:
        assert got == 0.0


class TestExtremeCdf:
    def test_independent_min_published_quantile(self):
        assert extreme_cdf(exp_portfolio(0.0), "min", 2.09) == pytest.approx(
            0.9, abs=1e-3
        )
        q = -math.log(0.1) / 1.1
        assert extreme_cdf(exp_portfolio(0.0), "min", q) == pytest.approx(
            0.9, abs=1e-14
        )

    def test_support_edge(self):
        for theta in (-1.0, 0.0, 0.7):
            assert extreme_cdf(exp_portfolio(theta), "min", 0.0) == 0.0
            assert extreme_cdf(exp_portfolio(theta), "max", 0.0) == 0.0
            assert extreme_cdf(pareto_portfolio(theta), "min", 1.0) == 0.0
            assert extreme_cdf(pareto_portfolio(theta), "max", 1.0) == 0.0

    @pytest.mark.parametrize("which", ["min", "max"])
    @pytest.mark.parametrize("make", [exp_portfolio, pareto_portfolio])
    def test_nan_rejected_and_limits_at_infinity(self, make, which):
        p = make(0.4)
        for bad in (math.nan, "1", b"1", None, 10**400):
            with pytest.raises(DomainError):
                extreme_cdf(p, which, bad)
            with pytest.raises(DomainError):
                extreme_pdf(p, which, bad)
        assert extreme_cdf(p, which, math.inf) == 1.0
        assert extreme_pdf(p, which, math.inf) == 0.0

    def test_independent_pareto_max_published_quantile(self):
        assert extreme_cdf(
            pareto_portfolio(0.0), "max", 2.4022
        ) == pytest.approx(0.9, abs=1e-3)

    @pytest.mark.parametrize("theta", [-1.0, -0.4, 0.0, 0.6, 1.0])
    def test_matches_copula_composition(self, theta):
        # F_min = u + v - C(u, v), F_max = C(u, v) with u = F1(x), v = F2(x)
        for p, xs in (
            (exp_portfolio(theta), (0.3, 1.0, 2.5, 6.0)),
            (pareto_portfolio(theta), (1.1, 1.5, 2.5, 6.0)),
        ):
            c = p.copula
            for x in xs:
                u = marginal_cdf(p.m1, x)
                v = marginal_cdf(p.m2, x)
                assert extreme_cdf(p, "min", x) == pytest.approx(
                    u + v - copula_cdf(c, u, v), abs=1e-14
                )
                assert extreme_cdf(p, "max", x) == pytest.approx(
                    copula_cdf(c, u, v), abs=1e-14
                )

    def test_leading_order_at_small_x(self):
        # F_min = (l1 + l2) x and F_max = (1 + theta) l1 l2 x**2, each to a
        # relative O(x)
        p, x = exp_portfolio(0.5), 1e-12
        assert extreme_cdf(p, "min", x) == pytest.approx(1.1e-12, rel=1e-11)
        assert extreme_cdf(p, "max", x) == pytest.approx(0.45e-24, rel=1e-11)

    @pytest.mark.parametrize("theta", [0.0, 0.5, 0.9])
    def test_bracketed_by_marginals(self, theta):
        p = exp_portfolio(theta)
        for x in (0.5, 1.5, 4.0, 8.0):
            fmin = extreme_cdf(p, "min", x)
            fmax = extreme_cdf(p, "max", x)
            for m in (p.m1, p.m2):
                assert fmax <= marginal_cdf(m, x) + 1e-14
                assert marginal_cdf(m, x) <= fmin + 1e-14


class TestExtremePdf:
    def test_independent_min_is_pooled_exponential(self):
        p = exp_portfolio(0.0)
        for x in (0.0, 0.5, 2.0, 7.0):
            assert extreme_pdf(p, "min", x) == pytest.approx(
                1.1 * math.exp(-1.1 * x), rel=1e-14
            )

    def test_pareto_max_vanishes_at_support_edge(self):
        assert extreme_pdf(pareto_portfolio(0.0), "max", 1.0) == 0.0

    @pytest.mark.parametrize("theta", [-0.8, 0.0, 0.5, 0.9])
    @pytest.mark.parametrize("which", ["min", "max"])
    def test_matches_cdf_derivative(self, theta, which):
        h = 1e-6
        for p, xs in (
            (exp_portfolio(theta), (0.5, 1.0, 2.5, 5.0)),
            (pareto_portfolio(theta), (1.2, 1.6, 2.5, 5.0)),
        ):
            for x in xs:
                fd = (
                    extreme_cdf(p, which, x + h) - extreme_cdf(p, which, x - h)
                ) / (2 * h)
                assert extreme_pdf(p, which, x) == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("theta", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("which", ["min", "max"])
    def test_integrates_to_one(self, theta, which):
        for p, lo in ((exp_portfolio(theta), 0.0), (pareto_portfolio(theta), 1.0)):
            total, _ = quad(
                lambda x: extreme_pdf(p, which, x), lo, 60.0, limit=200
            )
            tail = 1.0 - extreme_cdf(p, which, 60.0)
            assert total + tail == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    @pytest.mark.parametrize("which", ["min", "max"])
    def test_steep_tails_at_small_scale(self, theta, which):
        # x0**g * x**(-g - 1) leaves the float range at x0 = 0.01 and the
        # exponent 170 of the (2, 2) term
        p = BivariatePortfolio(
            ParetoMarginal(0.01, 45.0), ParetoMarginal(0.01, 40.0), FgmCopula(theta)
        )
        q = extreme_var(p, which, 0.9)
        h = q * 1e-6
        fd = (extreme_cdf(p, which, q + h) - extreme_cdf(p, which, q - h)) / (2 * h)
        dens = extreme_pdf(p, which, q)
        assert math.isfinite(dens)
        assert dens == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize(
        "rates, x", [((0.5, 0.6), 1e-9), ((0.0909, 0.1335), 7.8e-9)]
    )
    def test_countermonotone_max_density_near_zero(self, rates, x):
        # d/dx C(F1, F2) at theta = -1 is about 1e-18 here, where a signed
        # sum of survival terms would cancel to 4.4e-16 and 0.0
        mp = pytest.importorskip("mpmath")
        p = BivariatePortfolio(
            ExponentialMarginal(rates[0]), ExponentialMarginal(rates[1]),
            FgmCopula(-1.0),
        )
        got = extreme_pdf(p, "max", x)
        with mp.workdps(60):
            def copula_cdf_max(t):
                f1, f2 = (-mp.expm1(-mp.mpf(r) * t) for r in rates)
                return f1 * f2 * (1 - (1 - f1) * (1 - f2))

            want = mp.diff(copula_cdf_max, mp.mpf(x))
            assert abs(got - want) <= 1e-6 * want


class TestExtremeVar:
    def test_published_cells(self):
        assert extreme_var(exp_portfolio(0.5), "min", 0.9) == pytest.approx(
            2.3, abs=2e-2
        )
        assert extreme_var(exp_portfolio(0.9), "max", 0.9) == pytest.approx(
            5.43, abs=2e-2
        )
        assert extreme_var(pareto_portfolio(0.5), "min", 0.9) == pytest.approx(
            1.43, abs=2e-2
        )

    @pytest.mark.parametrize("theta", [-0.9, 0.0, 0.5, 0.9])
    @pytest.mark.parametrize("which", ["min", "max"])
    def test_defining_relation(self, theta, which):
        for p in (exp_portfolio(theta), pareto_portfolio(theta)):
            for alpha in (0.9, 0.95):
                q = extreme_var(p, which, alpha)
                assert extreme_cdf(p, which, q) == pytest.approx(alpha, abs=1e-10)

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.7, 1.0])
    def test_ordering_against_marginals(self, theta):
        for p in (exp_portfolio(theta), pareto_portfolio(theta)):
            for alpha in (0.9, 0.95):
                v1 = marginal_var(p.m1, alpha)
                v2 = marginal_var(p.m2, alpha)
                assert extreme_var(p, "min", alpha) <= min(v1, v2) + 1e-9
                assert extreme_var(p, "max", alpha) >= max(v1, v2) - 1e-9

    # a VaR near 1e-30, far below the absolute tolerance 1e-12: an
    # upper-tail solve also stops at a relative width
    @pytest.mark.parametrize("l2", [1e30, 2e30])
    def test_min_var_at_large_rates(self, l2):
        p = BivariatePortfolio(
            ExponentialMarginal(1e30), ExponentialMarginal(l2), FgmCopula(0.0)
        )
        # min of two independent exponentials is Exp(l1 + l2)
        expected = math.log(10.0) / (1e30 + l2)
        assert extreme_var(p, "min", 0.9) == pytest.approx(
            expected, rel=1e-10, abs=0.0
        )

    def test_pareto_min_var_across_a_huge_bracket(self):
        # at theta = 0 the min is Pareto(x0, g1 + g2), whose VaR at 0.99 is
        # 1e100, inside the bracket [1, 1e200]
        g = ParetoMarginal(1.0, 0.01)
        p = BivariatePortfolio(g, g, FgmCopula(0.0))
        expected = marginal_var(ParetoMarginal(1.0, 0.02), 0.99)
        assert extreme_var(p, "min", 0.99) == pytest.approx(expected, rel=1e-11)

    def test_pareto_min_var_past_an_overflowing_bracket_end(self):
        # both marginal quantiles at tail mass 0.01 are 1e200 * 100**100,
        # past the float range, so the bracket end is clipped to the largest
        # float; the min, Pareto(1e200, 0.02) at theta = 0, has VaR 1e300
        g = ParetoMarginal(1e200, 0.01)
        p = BivariatePortfolio(g, g, FgmCopula(0.0))
        expected = marginal_var(ParetoMarginal(1e200, 0.02), 0.99)
        assert extreme_var(p, "min", 0.99) == pytest.approx(expected, rel=1e-11)

    def test_max_var_at_small_rates(self):
        e = ExponentialMarginal(1e-100)
        p = BivariatePortfolio(e, e, FgmCopula(0.0))
        # max of two independent Exp(rate) has F(x) = (1 - exp(-rate*x))^2
        expected = -math.log1p(-math.sqrt(0.9)) / 1e-100
        assert extreme_var(p, "max", 0.9) == pytest.approx(expected, rel=1e-10)


class TestExtremeCte:
    # as in test_min_var_at_large_rates
    @pytest.mark.parametrize("l2", [1e30, 2e30])
    def test_min_cte_at_large_rates(self, l2):
        p = BivariatePortfolio(
            ExponentialMarginal(1e30), ExponentialMarginal(l2), FgmCopula(0.0)
        )
        # min of two independent exponentials is Exp(l1 + l2): CTE = VaR + mean
        expected = (math.log(10.0) + 1.0) / (1e30 + l2)
        assert extreme_cte(p, "min", 0.9) == pytest.approx(
            expected, rel=1e-10, abs=0.0
        )

    def test_published_cells(self):
        assert extreme_cte(exp_portfolio(0.1), "max", 0.9) == pytest.approx(
            7.369, abs=2e-2
        )
        assert extreme_cte(pareto_portfolio(0.9), "min", 0.9) == pytest.approx(
            1.74, abs=2e-2
        )

    def test_exp_min_theta_half_against_quadrature(self):
        # the published table prints 3.23 here, but recomputation from the
        # defining integral (and a 2e7-pair Monte Carlo run) gives 3.263;
        # the frozen value below is an external brentq+quad oracle result
        got = extreme_cte(exp_portfolio(0.5), "min", 0.9)
        assert got == pytest.approx(3.2629166039, abs=1e-8)
        p = exp_portfolio(0.5)
        q = extreme_var(p, "min", 0.9)
        tail, _ = quad(lambda x: x * extreme_pdf(p, "min", x), q, 80.0, limit=200)
        assert got == pytest.approx(tail / 0.1, abs=1e-6)

    @pytest.mark.parametrize("theta", [-0.7, 0.0, 0.6])
    @pytest.mark.parametrize("which", ["min", "max"])
    def test_matches_tail_quadrature(self, theta, which):
        for p, hi in ((exp_portfolio(theta), 90.0), (pareto_portfolio(theta), None)):
            q = extreme_var(p, which, 0.9)
            f = lambda x: x * extreme_pdf(p, which, x)
            if hi is None:
                tail, _ = quad(f, q, math.inf, limit=400)
            else:
                tail, _ = quad(f, q, hi, limit=400)
            assert extreme_cte(p, which, 0.9) == pytest.approx(
                tail / 0.1, rel=1e-8
            )

    def test_divergent_tails(self):
        thin = BivariatePortfolio(
            ParetoMarginal(1.0, 0.4), ParetoMarginal(1.0, 0.5), FgmCopula(0.5)
        )
        mixed = BivariatePortfolio(
            ParetoMarginal(1.0, 0.9), ParetoMarginal(1.0, 3.0), FgmCopula(0.5)
        )
        for fn in (extreme_cte, extreme_report):
            with pytest.raises(DivergentTail):
                fn(thin, "min", 0.9)
            with pytest.raises(DivergentTail):
                fn(mixed, "max", 0.9)
        # the rule lives on the Pareto law: its smallest exponent, here the
        # min's g1 + g2 = 0.9, must exceed 1
        law = ParetoTermMixture(0.4, 0.5, 0.5, "min", hi=None, x0=1.0)
        with pytest.raises(DivergentTail):
            law.mean_excess(2.0, 0.1)
        # VaR stays finite even when the tail expectation does not exist
        assert extreme_var(thin, "min", 0.9) > 1.0

    def test_zero_weight_terms_do_not_decide_divergence(self):
        # at theta = -1 the min's (1 + theta) term, of exponent g1 + g2,
        # weighs exactly 0 and is dropped; its CTE is finite (the value is
        # checked against the mpmath oracle in test_oracle.py)
        def pareto(theta, g1, g2):
            return BivariatePortfolio(
                ParetoMarginal(1.0, g1), ParetoMarginal(1.0, g2), FgmCopula(theta)
            )

        assert math.isfinite(extreme_cte(pareto(-1.0, 0.45, 0.45), "min", 0.9))
        # a weight near 0 is kept, and that tail does diverge
        with pytest.raises(DivergentTail):
            extreme_cte(pareto(-0.999, 0.45, 0.45), "min", 0.9)
        # the max keeps S1 and S2, so a marginal exponent <= 1 diverges
        for g1 in (0.45, 1.0):
            with pytest.raises(DivergentTail):
                extreme_cte(pareto(-1.0, g1, 3.0), "max", 0.9)

    def test_steep_tails_at_small_scale(self):
        # exponents 45 and 40 at x0 = 0.01 give the (2, 2) survival term
        # x0^170 * x^-170, whose two factors leave the float range apart.
        # The solver's x tolerance of 1e-12 is 1e-10 relative at this scale,
        # and tail exponents near 85 scale that by about 85 in the CTE.
        x0, a = 0.01, 0.9
        p = BivariatePortfolio(
            ParetoMarginal(x0, 45.0), ParetoMarginal(x0, 40.0), FgmCopula(0.0)
        )
        # the independent minimum is Pareto(x0, 85)
        q = x0 * (1 - a) ** (-1 / 85)
        assert extreme_cte(p, "min", a) == pytest.approx(q * 85 / 84, rel=1e-8)
        # the independent maximum has S = 1 - F1 * F2
        s_max = lambda x: 1 - (1 - (x0 / x) ** 45) * (1 - (x0 / x) ** 40)
        q = brentq(lambda x: s_max(x) - (1 - a), x0, 2 * x0, xtol=1e-16, rtol=1e-15)
        tail, _ = quad(s_max, q, math.inf, epsabs=0, epsrel=1e-13, limit=200)
        assert extreme_cte(p, "max", a) == pytest.approx(q + tail / (1 - a), rel=1e-8)
        dep = BivariatePortfolio(p.m1, p.m2, FgmCopula(0.5))
        for which in ("min", "max"):
            r = extreme_report(dep, which, a)
            assert math.isfinite(r.cte) and r.var < r.cte

    def test_min_cte_exists_when_exponent_sum_exceeds_one(self):
        p = BivariatePortfolio(
            ParetoMarginal(1.0, 0.7), ParetoMarginal(1.0, 0.6), FgmCopula(0.4)
        )
        assert extreme_cte(p, "min", 0.9) > extreme_var(p, "min", 0.9)


class TestExtremeMot:
    def test_published_values(self):
        assert extreme_mot(exp_portfolio(0.0), "min", 0.9) == pytest.approx(
            2.72, abs=1e-2
        )
        assert extreme_mot(exp_portfolio(0.9), "min", 0.9) == pytest.approx(
            3.14, abs=2e-2
        )
        assert extreme_mot(pareto_portfolio(0.0), "max", 0.9) == pytest.approx(
            2.98, abs=1e-2
        )

    @pytest.mark.parametrize("theta", [-0.9, 0.0, 0.5, 0.9])
    @pytest.mark.parametrize("which", ["min", "max"])
    def test_defining_relation(self, theta, which):
        for p in (exp_portfolio(theta), pareto_portfolio(theta)):
            for alpha in (0.9, 0.95):
                m = extreme_mot(p, which, alpha)
                assert extreme_cdf(p, which, m) == pytest.approx(
                    (1 + alpha) / 2, abs=1e-10
                )
                assert m > extreme_var(p, which, alpha)

    @pytest.mark.parametrize("theta", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("which", ["min", "max"])
    def test_tail_mass_between_var_and_mot(self, theta, which):
        for p in (exp_portfolio(theta), pareto_portfolio(theta)):
            lo = extreme_var(p, which, 0.9)
            hi = extreme_mot(p, which, 0.9)
            mass, _ = quad(lambda x: extreme_pdf(p, which, x), lo, hi)
            assert mass == pytest.approx(0.05, abs=1e-8)


class TestThetaZeroReduction:
    def test_exp_min_closed_forms(self):
        p = exp_portfolio(0.0)
        lam = 1.1
        assert extreme_var(p, "min", 0.9) == pytest.approx(
            -math.log(0.1) / lam, abs=1e-10
        )
        assert extreme_cte(p, "min", 0.9) == pytest.approx(
            (1 - math.log(0.1)) / lam, abs=1e-10
        )
        assert extreme_mot(p, "min", 0.9) == pytest.approx(
            -math.log(0.05) / lam, abs=1e-10
        )

    def test_pareto_min_closed_forms(self):
        p = pareto_portfolio(0.0)
        g = 7.0
        assert extreme_var(p, "min", 0.9) == pytest.approx(
            0.1 ** (-1 / g), abs=1e-10
        )
        assert extreme_cte(p, "min", 0.9) == pytest.approx(
            g / (g - 1) * 0.1 ** (-1 / g), abs=1e-10
        )
        assert extreme_mot(p, "min", 0.9) == pytest.approx(
            0.05 ** (-1 / g), abs=1e-10
        )

    def test_exp_max_against_independent_solve(self):
        p = exp_portfolio(0.0)
        f = lambda x: (
            1 - math.exp(-0.5 * x) - math.exp(-0.6 * x) + math.exp(-1.1 * x)
        )
        q_ref = brentq(lambda x: f(x) - 0.9, 0, 60, xtol=1e-13)
        assert extreme_var(p, "max", 0.9) == pytest.approx(q_ref, abs=1e-10)
        cte_ref = (
            (q_ref + 2.0) * math.exp(-0.5 * q_ref)
            + (q_ref + 1 / 0.6) * math.exp(-0.6 * q_ref)
            - (q_ref + 1 / 1.1) * math.exp(-1.1 * q_ref)
        ) / 0.1
        assert extreme_cte(p, "max", 0.9) == pytest.approx(cte_ref, abs=1e-10)
        m_ref = brentq(lambda x: f(x) - 0.95, 0, 60, xtol=1e-13)
        assert extreme_mot(p, "max", 0.9) == pytest.approx(m_ref, abs=1e-10)

    def test_pareto_max_against_independent_solve(self):
        p = pareto_portfolio(0.0)
        f = lambda x: 1 - x**-3.0 - x**-4.0 + x**-7.0
        q_ref = brentq(lambda x: f(x) - 0.9, 1 + 1e-12, 60, xtol=1e-13)
        assert extreme_var(p, "max", 0.9) == pytest.approx(q_ref, abs=1e-10)
        cte_ref = (
            3.0 / 2.0 * q_ref**-2.0
            + 4.0 / 3.0 * q_ref**-3.0
            - 7.0 / 6.0 * q_ref**-6.0
        ) / 0.1
        assert extreme_cte(p, "max", 0.9) == pytest.approx(cte_ref, abs=1e-10)


class TestMonotonicityInTheta:
    THETAS = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]

    @pytest.mark.parametrize("family", ["exp", "pareto"])
    @pytest.mark.parametrize("fn", [extreme_var, extreme_cte, extreme_mot])
    def test_min_measures_nondecreasing(self, family, fn):
        build = exp_portfolio if family == "exp" else pareto_portfolio
        vals = [fn(build(t), "min", 0.9) for t in self.THETAS]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_report_metadata():
    r = extreme_report(exp_portfolio(0.4), "min", 0.9)
    assert r.var < r.cte
    assert r.var < r.mot
    assert r.method is Method.ROOT_SOLVE
    assert r.tolerance == 1e-12
