import math

import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from copula_risk.aggregate import (
    AggregateExpPortfolio,
    aggregate_cdf,
    aggregate_cte,
    aggregate_mot,
    aggregate_pdf,
    aggregate_report,
    aggregate_var,
    is_singular,
)
from copula_risk.copula import FgmCopula
from copula_risk.errors import DomainError
from copula_risk.extremes import BivariatePortfolio, extreme_var
from copula_risk.marginals import ExponentialMarginal, Method, ParetoMarginal


def portfolio(theta, l1=0.5, l2=0.6):
    return AggregateExpPortfolio(
        ExponentialMarginal(l1), ExponentialMarginal(l2), FgmCopula(theta)
    )


def joint_pdf(p, x1, x2):
    """Joint density of (X1, X2): copula density times the marginal densities."""
    if x1 < 0.0 or x2 < 0.0:
        return 0.0
    l1, l2 = p.m1.rate, p.m2.rate
    u = 1 - math.exp(-l1 * x1)
    v = 1 - math.exp(-l2 * x2)
    dens = 1 + p.copula.theta * (1 - 2 * u) * (1 - 2 * v)
    return l1 * math.exp(-l1 * x1) * l2 * math.exp(-l2 * x2) * dens


def conv_pdf_oracle(theta, x, l1=0.5, l2=0.6):
    """Numerical convolution of the joint density."""
    p = portfolio(theta, l1, l2)
    val, _ = quad(
        lambda t: joint_pdf(p, t, x - t), 0.0, x, epsabs=1e-13, epsrel=1e-12,
        limit=200,
    )
    return val


class TestConstruction:
    def test_requires_exponential_marginals(self):
        pareto = (ParetoMarginal(1.0, 3.0), ParetoMarginal(1.0, 4.0))
        with pytest.raises(DomainError):
            AggregateExpPortfolio(*pareto, FgmCopula(0.0))
        # a plain portfolio is checked when its sum is measured
        p = BivariatePortfolio(*pareto, FgmCopula(0.5))
        for fn in (aggregate_var, aggregate_cdf, aggregate_pdf, aggregate_report):
            with pytest.raises(DomainError, match="exponential marginals"):
                fn(p, 0.9)

    @pytest.mark.parametrize("theta", [-1.0, 0.0, 0.5, 1.0])
    def test_plain_bivariate_portfolio_sums_alike(self, theta):
        checked = portfolio(theta)
        plain = BivariatePortfolio(checked.m1, checked.m2, checked.copula)
        assert type(plain) is BivariatePortfolio
        for fn in (aggregate_var, aggregate_cte, aggregate_mot, aggregate_report):
            assert fn(plain, 0.9) == fn(checked, 0.9)
        for x in (0.5, 3.0, 9.0):
            assert aggregate_cdf(plain, x) == aggregate_cdf(checked, x)
            assert aggregate_pdf(plain, x) == aggregate_pdf(checked, x)

    def test_singularity_guard(self):
        assert not is_singular(portfolio(0.9))
        assert is_singular(portfolio(0.0, 0.5, 0.5))
        assert is_singular(portfolio(0.7, 0.5, 1.0))  # l2 = 2*l1
        assert is_singular(portfolio(0.7, 1.0, 0.5))  # l1 = 2*l2
        # the 2:1 hyperplanes only matter when dependence is present
        assert not is_singular(portfolio(0.0, 0.5, 1.0))


class TestPdf:
    def test_vanishes_at_origin(self):
        assert aggregate_pdf(portfolio(0.0), 0.0) == 0.0
        assert aggregate_pdf(portfolio(0.8), 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_negative_x_rejected(self):
        with pytest.raises(DomainError):
            aggregate_pdf(portfolio(0.0), -1.0)

    @pytest.mark.parametrize("l2", [0.6, 0.5, 1.0])
    def test_nan_rejected_and_zero_at_infinity(self, l2):
        # equal, 2:1 and generic rates: inf*0 in a pair's terms gave NaN
        p = portfolio(0.7, 0.5, l2)
        with pytest.raises(DomainError):
            aggregate_pdf(p, math.nan)
        with pytest.raises(DomainError):
            aggregate_cdf(p, math.nan)
        assert aggregate_pdf(p, math.inf) == 0.0
        assert aggregate_cdf(p, math.inf) == 1.0

    def test_against_convolution_oracle_spot(self):
        # frozen external value of the theta = 0.7 convolution at x = 3
        assert aggregate_pdf(portfolio(0.7), 3.0) == pytest.approx(
            0.15051426622620953, rel=1e-9
        )

    @pytest.mark.parametrize("theta", [-1.0, -0.5, 0.0, 0.5, 1.0])
    def test_against_convolution_oracle_grid(self, theta):
        p = portfolio(theta)
        for x in (0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 15.0):
            assert aggregate_pdf(p, x) == pytest.approx(
                conv_pdf_oracle(theta, x), abs=1e-8
            )

    @pytest.mark.parametrize("theta", [-1.0, 0.0, 0.6, 1.0])
    def test_integrates_to_one(self, theta):
        p = portfolio(theta)
        total, _ = quad(lambda x: aggregate_pdf(p, x), 0.0, 120.0, limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_nonnegative(self):
        for theta in (-1.0, -0.3, 0.4, 1.0):
            p = portfolio(theta)
            assert all(
                aggregate_pdf(p, x) >= 0.0
                for x in [0.01 * k for k in range(1, 2000, 7)]
            )


class TestCdf:
    def test_zero_at_origin(self):
        assert aggregate_cdf(portfolio(0.5), 0.0) == 0.0

    def test_published_quantiles(self):
        p0 = portfolio(0.0)
        assert aggregate_cdf(p0, 7.14) == pytest.approx(0.9, abs=1e-3)
        assert aggregate_cdf(portfolio(0.5), 7.40) == pytest.approx(0.9, abs=1e-3)

    @pytest.mark.parametrize("theta", [-0.8, 0.0, 0.7])
    def test_matches_pdf_by_finite_differences(self, theta):
        p = portfolio(theta)
        h = 1e-6
        for x in (0.5, 2.0, 5.0, 9.0):
            fd = (aggregate_cdf(p, x + h) - aggregate_cdf(p, x - h)) / (2 * h)
            assert fd == pytest.approx(aggregate_pdf(p, x), abs=1e-6)

    def test_monotone_to_one(self):
        p = portfolio(0.9)
        xs = [0.5, 1.0, 3.0, 7.0, 15.0, 40.0]
        vals = [aggregate_cdf(p, x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert aggregate_cdf(p, 150.0) == pytest.approx(1.0, abs=1e-12)


class TestMeasures:
    def test_published_independent_values(self):
        p0 = portfolio(0.0)
        assert aggregate_var(p0, 0.9) == pytest.approx(7.14, abs=1e-2)
        assert aggregate_cte(p0, 0.9) == pytest.approx(9.369, abs=5e-3)
        assert aggregate_mot(p0, 0.9) == pytest.approx(8.71, abs=1e-2)

    def test_published_dependent_cells(self):
        assert aggregate_var(portfolio(0.1), 0.9) == pytest.approx(7.19, abs=2e-2)
        assert aggregate_var(portfolio(0.9), 0.9) == pytest.approx(7.61, abs=2e-2)
        assert aggregate_cte(portfolio(0.5), 0.9) == pytest.approx(9.72, abs=2e-2)
        assert aggregate_cte(portfolio(0.9), 0.9) == pytest.approx(9.99, abs=2e-2)
        assert aggregate_mot(portfolio(0.5), 0.9) == pytest.approx(9.05, abs=2e-2)
        assert aggregate_mot(portfolio(0.9), 0.9) == pytest.approx(9.31, abs=2e-2)

    @pytest.mark.parametrize("theta", [-0.9, 0.0, 0.5, 0.9])
    def test_defining_relations(self, theta):
        p = portfolio(theta)
        for alpha in (0.9, 0.95):
            assert aggregate_cdf(p, aggregate_var(p, alpha)) == pytest.approx(
                alpha, abs=1e-10
            )
            assert aggregate_cdf(p, aggregate_mot(p, alpha)) == pytest.approx(
                (1 + alpha) / 2, abs=1e-10
            )

    @pytest.mark.parametrize("theta", [-0.6, 0.0, 0.8])
    def test_cte_matches_tail_quadrature(self, theta):
        p = portfolio(theta)
        q = aggregate_var(p, 0.9)
        tail, _ = quad(lambda x: x * aggregate_pdf(p, x), q, 150.0, limit=300)
        assert aggregate_cte(p, 0.9) == pytest.approx(tail / 0.1, rel=1e-8)

    @pytest.mark.parametrize("theta", [0.0, 0.5, 0.9])
    def test_mot_tail_mass(self, theta):
        p = portfolio(theta)
        lo = aggregate_var(p, 0.9)
        hi = aggregate_mot(p, 0.9)
        mass, _ = quad(lambda x: aggregate_pdf(p, x), lo, hi)
        assert mass == pytest.approx(0.05, abs=1e-8)

    def test_theta_zero_reduction(self):
        p0 = portfolio(0.0)
        f = lambda x: 1 + 5 * math.exp(-0.6 * x) - 6 * math.exp(-0.5 * x)
        q_ref = brentq(lambda x: f(x) - 0.9, 1e-9, 80, xtol=1e-13)
        assert aggregate_var(p0, 0.9) == pytest.approx(q_ref, abs=1e-10)
        cte_ref = (
            6.0 * (q_ref + 2.0) * math.exp(-0.5 * q_ref)
            - 5.0 * (q_ref + 1 / 0.6) * math.exp(-0.6 * q_ref)
        ) / 0.1
        assert aggregate_cte(p0, 0.9) == pytest.approx(cte_ref, abs=1e-10)
        m_ref = brentq(lambda x: f(x) - 0.95, 1e-9, 80, xtol=1e-13)
        assert aggregate_mot(p0, 0.9) == pytest.approx(m_ref, abs=1e-10)

    def test_monotone_in_theta(self):
        thetas = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9]
        for fn in (aggregate_var, aggregate_cte, aggregate_mot):
            vals = [fn(portfolio(t), 0.9) for t in thetas]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("theta", [0.0, 0.5, 0.9])
    def test_dominates_maximum(self, theta):
        # X1 + X2 >= max(X1, X2) pointwise for nonnegative losses
        bi = BivariatePortfolio(
            ExponentialMarginal(0.5), ExponentialMarginal(0.6), FgmCopula(theta)
        )
        assert aggregate_var(portfolio(theta), 0.9) >= extreme_var(bi, "max", 0.9)


class TestSingularFallback:
    def test_equal_rates_erlang(self):
        # l1 = l2 = 0.5 with theta = 0 is the Erlang(2, 0.5) sum; frozen
        # references computed externally from the Erlang closed forms
        p = portfolio(0.0, 0.5, 0.5)
        for x in (1.0, 4.0, 9.0):
            erlang = 1 - math.exp(-0.5 * x) * (1 + 0.5 * x)
            assert aggregate_cdf(p, x) == pytest.approx(erlang, abs=1e-14)
        assert aggregate_var(p, 0.9) == pytest.approx(7.77944033973486, abs=1e-11)
        assert aggregate_cte(p, 0.9) == pytest.approx(10.188461700982657, abs=1e-11)
        assert aggregate_mot(p, 0.9) == pytest.approx(9.487729036781158, abs=1e-11)

    def test_dependent_singular_rates(self):
        # l2 = 2*l1 hits a closed-form pole when theta != 0; frozen
        # references from an external quad+brentq oracle
        p = portfolio(0.7, 0.5, 1.0)
        assert aggregate_pdf(p, 2.0) == pytest.approx(
            0.20655339964638536, rel=1e-13
        )
        assert aggregate_pdf(p, 5.0) == pytest.approx(
            0.07559159310517208, rel=1e-13
        )
        assert aggregate_var(p, 0.9) == pytest.approx(6.206125994508013, abs=1e-11)
        assert aggregate_cte(p, 0.9) == pytest.approx(8.299831455034667, abs=1e-11)
        assert aggregate_mot(p, 0.9) == pytest.approx(7.683012094338032, abs=1e-11)

    def test_report_method_reflects_path(self):
        # equal and 2:1 rates take the same closed-form path as any others
        assert aggregate_report(portfolio(0.4), 0.9).method is Method.ROOT_SOLVE
        for p in (portfolio(0.0, 0.5, 0.5), portfolio(0.7, 0.5, 1.0)):
            r = aggregate_report(p, 0.9)
            assert r.method is Method.ROOT_SOLVE
            assert r.var < r.cte and r.var < r.mot


def test_joint_pdf_composition():
    p = portfolio(0.7)
    got = joint_pdf(p, 1.0, 2.0)
    u = 1 - math.exp(-0.5)
    v = 1 - math.exp(-1.2)
    ref = (
        0.5 * math.exp(-0.5) * 0.6 * math.exp(-1.2)
        * (1 + 0.7 * (1 - 2 * u) * (1 - 2 * v))
    )
    assert got == pytest.approx(ref, rel=1e-14)


# --------------------------------------------------------------------------
# High-precision oracle for the rate ratios 1, 2 and 1/2 and their
# neighbourhoods, built from the defining densities with mpmath.

_MP_DPS = 30


def _mp_pair_survival(a, b, x, mp):
    """P(E_a + E_b > x) for independent exponentials: hypoexponential or Erlang."""
    if a == b:
        return mp.exp(-a * x) * (1 + a * x)
    return (a * mp.exp(-b * x) - b * mp.exp(-a * x)) / (a - b)


def _mp_pair_tail(a, b, q, mp):
    """int_q^inf P(E_a + E_b > x) dx."""
    if a == b:
        return mp.exp(-a * q) * (2 + a * q) / a
    return (a * mp.exp(-b * q) / b - b * mp.exp(-a * q) / a) / (a - b)


def _mp_components(l1, l2, theta, mp):
    """(weight, a, b) such that S(x) = sum weight * P(E_a + E_b > x).

    Multiplying out the FGM density l1*l2*s1*s2*(1 + theta*(2*s1-1)*(2*s2-1))
    gives terms c_ij * l1*s1^i * l2*s2^j for i, j in {1, 2}, with
    c_ij = [i = j = 1] + theta*k_i*k_j, k_1 = -1, k_2 = 2. The term
    l1*s1^i * l2*s2^j is 1/(i*j) times the density of the independent pair
    Exp(i*l1), Exp(j*l2), whose sum has the pair survival above.
    """
    k = {1: -1, 2: 2}
    l1, l2, th = mp.mpf(l1), mp.mpf(l2), mp.mpf(theta)
    return [
        (((1 if i == j == 1 else 0) + th * k[i] * k[j]) / (i * j), i * l1, j * l2)
        for i in (1, 2)
        for j in (1, 2)
    ]


def _mp_bisect(f, level, l1, l2, mp):
    """Quantile of X1 + X2 by bisection on a bracket that always holds it.

    X1 + X2 >= max(X1, X2) gives the lower end; P(X1 + X2 > q1 + q2) <=
    P(X1 > q1) + P(X2 > q2) with the marginal quantiles at (1 + level)/2
    gives the upper end.
    """
    lo = -mp.log1p(-level) / min(l1, l2)
    hi = -mp.log1p(-(1 + level) / 2) * (1 / l1 + 1 / l2)
    while hi - lo > hi * mp.mpf(10) ** (-22):
        mid = (lo + hi) / 2
        if f(mid) >= level:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def mp_sum_measures(l1, l2, theta, alpha):
    """(VaR, CTE, MoT) of X1 + X2 to about 20 digits, as floats."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(_MP_DPS):
        comps = _mp_components(l1, l2, theta, mpmath)

        def cdf(x):
            return 1 - sum(w * _mp_pair_survival(a, b, x, mpmath) for w, a, b in comps)

        a = mpmath.mpf(alpha)
        l1, l2 = mpmath.mpf(l1), mpmath.mpf(l2)
        var = _mp_bisect(cdf, a, l1, l2, mpmath)
        tail = sum(w * _mp_pair_tail(p, q, var, mpmath) for w, p, q in comps)
        cte = var + tail / (1 - a)
        mot = _mp_bisect(cdf, (1 + a) / 2, l1, l2, mpmath)
        return float(var), float(cte), float(mot)


HYPERPLANE_RATIOS = (1.0, 2.0, 0.5, 1.0 + 2e-6, 2.0 * (1.0 + 2e-6), 0.5 * (1.0 + 2e-6))


class TestHyperplanes:
    """Reports on and within 2e-6 of the rate ratios 1, 2 and 1/2."""

    @pytest.mark.parametrize("ratio", HYPERPLANE_RATIOS)
    @pytest.mark.parametrize("theta", [-1.0, -0.4, 0.0, 0.7, 1.0])
    def test_report_within_stated_tolerance(self, ratio, theta):
        l1 = 0.5
        p = portfolio(theta, l1, l1 * ratio)
        for alpha in (0.5, 0.9, 0.99):
            var, cte, mot = mp_sum_measures(l1, l1 * ratio, theta, alpha)
            r = aggregate_report(p, alpha)
            assert r.method is Method.ROOT_SOLVE
            assert abs(r.var - var) <= r.tolerance
            assert abs(r.mot - mot) <= r.tolerance
            assert r.cte == pytest.approx(cte, rel=1e-12)

    def test_near_equal_rates_var(self):
        # at l2/l1 - 1 = 2e-6 the cancelling coefficients of the plain
        # hypoexponential form cost about 1e-11 on the x axis
        p = portfolio(0.5, 0.5, 0.5 * (1.0 + 2e-6))
        var, _, _ = mp_sum_measures(0.5, 0.5 * (1.0 + 2e-6), 0.5, 0.9)
        assert abs(aggregate_var(p, 0.9) - var) <= 1e-13 * var

    def test_small_equal_rates_are_erlang(self):
        # Erlang(2, l) quantile: l*q = -1 - W_{-1}(-(1 - alpha)/e)
        mpmath = pytest.importorskip("mpmath")
        lam = 1e-4
        with mpmath.workdps(_MP_DPS):
            def erlang_q(level):
                w = mpmath.lambertw(-(1 - mpmath.mpf(level)) / mpmath.e, -1)
                return float((-1 - mpmath.re(w)) / lam)

            var, mot = erlang_q(0.9), erlang_q(0.95)
            cte = float(
                var + mpmath.exp(-lam * var) * (2 + lam * var) / (lam * 0.1)
            )
        r = aggregate_report(portfolio(0.0, lam, lam), 0.9)
        assert r.var == pytest.approx(var, rel=1e-14)
        assert r.cte == pytest.approx(cte, rel=1e-13)
        assert r.mot == pytest.approx(mot, rel=1e-14)

    @pytest.mark.parametrize("ratio", [1.0, 2.0, 0.5])
    @pytest.mark.parametrize("theta", [-1.0, 0.7])
    def test_pdf_against_convolution(self, ratio, theta):
        for x in (0.5, 3.0, 12.0):
            assert aggregate_pdf(portfolio(theta, 0.5, 0.5 * ratio), x) == pytest.approx(
                conv_pdf_oracle(theta, x, 0.5, 0.5 * ratio), rel=1e-10
            )
