import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from copula_risk.errors import DivergentTail, DomainError
from copula_risk.marginals import (
    Alpha,
    ExponentialMarginal,
    Method,
    ParetoMarginal,
    RiskReport,
    cdf,
    cte,
    mot,
    pdf,
    quantile,
    report,
    var,
)
from copula_risk.numerics import quad_tail
from copula_risk.tables import build_portfolio, compute_measure

EXP1 = ExponentialMarginal(0.5)
EXP2 = ExponentialMarginal(0.6)
PAR1 = ParetoMarginal(1.0, 3.0)
PAR2 = ParetoMarginal(1.0, 4.0)


def _mp_mot(m, alpha):
    """The MoT of m at alpha in mpmath: its quantile at the exact tail mass
    (1 - alpha)/2. The Pareto exponent is the float -1/gamma that the
    formula is given; its rounding, up to 2**-53 * |log s| relative, is
    the formula's."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        s = (1 - mpmath.mpf(alpha)) / 2
        if isinstance(m, ExponentialMarginal):
            return float(-mpmath.log(s) / m.rate)
        return float(m.x0 * s ** mpmath.mpf(-1.0 / m.gamma))


class TestConstruction:
    def test_invalid_parameters(self):
        # float() reads "0.5", cannot convert None and overflows on 10**400
        for bad in (0.0, -1.0, math.inf, math.nan, "0.5", b"0.5", None, 10**400):
            with pytest.raises(DomainError):
                ExponentialMarginal(bad)
        for x0, gamma in ((0.0, 3.0), (1.0, -2.0), ("1", 3.0), (1.0, None)):
            with pytest.raises(DomainError):
                ParetoMarginal(x0, gamma)

    def test_alpha_bounds(self):
        Alpha(0.5)
        for bad in (0.0, 1.0, -0.2, 1.7, Alpha(0.5)):
            with pytest.raises(DomainError):
                Alpha(bad)


class TestCdf:
    def test_support_edges(self):
        assert cdf(EXP1, 0.0) == 0.0
        assert cdf(EXP1, -3.0) == 0.0
        assert cdf(PAR1, 1.0) == 0.0
        assert cdf(PAR1, 0.2) == 0.0

    def test_published_quantiles(self):
        assert cdf(EXP1, 4.605) == pytest.approx(0.9, abs=1e-4)
        assert cdf(PAR1, 2.154) == pytest.approx(0.9, abs=1e-4)

    def test_monotone_and_limits(self):
        xs = [0.1, 0.5, 1.0, 3.0, 10.0, 80.0]
        vals = [cdf(EXP2, x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert cdf(EXP2, 200.0) == pytest.approx(1.0, abs=1e-12)
        assert cdf(PAR2, 1e9) == pytest.approx(1.0, abs=1e-12)


class TestPdf:
    def test_known_values(self):
        assert pdf(ExponentialMarginal(1.0), 0.0) == 1.0
        assert pdf(PAR1, 1.0) == 3.0
        assert pdf(EXP1, 2.0) == pytest.approx(0.18394, abs=1e-5)

    def test_matches_cdf_derivative(self):
        h = 1e-6
        for m, xs in ((EXP1, (0.5, 2.0, 6.0)), (PAR2, (1.2, 2.0, 4.0))):
            for x in xs:
                fd = (cdf(m, x + h) - cdf(m, x - h)) / (2 * h)
                assert pdf(m, x) == pytest.approx(fd, abs=1e-6)

    def test_steep_pareto_at_small_scale(self):
        # x0**170 underflows and q**-171 overflows; their product does not
        m, a = ParetoMarginal(0.01, 170.0), 0.9
        q = var(m, a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pdf(m, q) == pytest.approx(170.0 * (1 - a) / q, rel=1e-12)

    def test_outside_support(self):
        assert pdf(EXP1, -1.0) == 0.0
        assert pdf(PAR1, 0.9) == 0.0

    @pytest.mark.parametrize("m", [EXP1, EXP2, PAR1, PAR2])
    def test_integrates_to_one(self, m):
        lo = 0.0 if isinstance(m, ExponentialMarginal) else m.x0
        assert quad_tail(lambda x: pdf(m, x), lo) == pytest.approx(1.0, abs=1e-8)


class TestVar:
    def test_published_values(self):
        assert var(EXP1, 0.9) == pytest.approx(4.605, abs=5e-3)
        assert var(EXP2, 0.9) == pytest.approx(3.837, abs=5e-3)
        assert var(ParetoMarginal(1.0, 4.0), 0.9) == pytest.approx(1.778, abs=5e-3)

    @given(
        lam=st.floats(0.01, 50.0),
        alpha=st.floats(0.001, 0.999),
    )
    def test_exp_round_trip(self, lam, alpha):
        m = ExponentialMarginal(lam)
        assert cdf(m, var(m, alpha)) == pytest.approx(alpha, abs=1e-12)

    @given(
        x0=st.floats(0.1, 10.0),
        gamma=st.floats(0.2, 20.0),
        alpha=st.floats(0.001, 0.999),
    )
    def test_pareto_round_trip(self, x0, gamma, alpha):
        m = ParetoMarginal(x0, gamma)
        assert cdf(m, var(m, alpha)) == pytest.approx(alpha, abs=1e-12)

    def test_accepts_alpha_object(self):
        assert var(EXP1, Alpha(0.9)) == var(EXP1, 0.9)

    # float() reads "0.9" as 0.9; a string is no level, nor what float()
    # cannot convert
    @pytest.mark.parametrize("alpha", ["0.9", "abc", b"0.9", None, [0.9]])
    def test_non_numeric_alpha_is_a_domain_error(self, alpha):
        with pytest.raises(DomainError, match="must be a number"):
            Alpha(alpha)
        with pytest.raises(DomainError, match="must be a number"):
            var(EXP1, alpha)
        with pytest.raises(DomainError, match="must be a number"):
            compute_measure(build_portfolio("exp", 0.5), "min", "var", alpha)

    @pytest.mark.parametrize("m", [EXP1, PAR1, ParetoMarginal(1e-3, 45.0)])
    @pytest.mark.parametrize(
        "alpha", [1e-300, 1e-12, 0.3, 0.5, 0.9, 0.99, 1 - 1e-12]
    )
    def test_agrees_with_the_array_quantile(self, m, alpha):
        # var and mot compute in math, quantile in numpy: same formulas,
        # each within an ulp or so of the correctly rounded value. The MoT
        # is read at its exact tail mass (1 - alpha)/2, not at the level
        # 0.5 * (1 + alpha), which rounds near 1 (3.9e-6 off for EXP1 at
        # 1 - 1e-12)
        assert var(m, alpha) == pytest.approx(quantile(m, alpha), rel=5e-16)
        assert mot(m, alpha) == pytest.approx(_mp_mot(m, alpha), rel=5e-16)

    def test_overflow_is_inf(self):
        # (1e-6)^(-100) leaves the float range: float ** raises
        # OverflowError there, where numpy's power gave inf
        m = ParetoMarginal(1.0, 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert var(m, 0.999999) == math.inf
            assert mot(m, 0.999999) == math.inf

    def test_level_rounding_to_one_is_a_domain_error(self):
        # (1 + alpha)/2 rounds to 1 for the largest alpha below 1; only a
        # solved law raises there, as a closed form reads the tail mass 2**-54
        alpha = math.nextafter(1.0, 0.0)
        for m in (EXP1, PAR1):
            assert mot(m, alpha) == pytest.approx(_mp_mot(m, alpha), rel=5e-16)
        with pytest.raises(DomainError):
            compute_measure(build_portfolio("exp", 0.5), "min", "mot", alpha)


class TestCte:
    def test_published_values(self):
        assert cte(EXP1, 0.9) == pytest.approx(6.605, abs=5e-3)
        assert cte(EXP2, 0.9) == pytest.approx(5.504, abs=5e-3)
        assert cte(PAR1, 0.9) == pytest.approx(3.23, abs=5e-3)

    @given(lam=st.floats(0.01, 50.0), alpha=st.floats(0.001, 0.999))
    def test_exp_identity(self, lam, alpha):
        m = ExponentialMarginal(lam)
        assert cte(m, alpha) - var(m, alpha) == pytest.approx(1.0 / lam, rel=1e-12)

    @given(
        x0=st.floats(0.1, 10.0),
        gamma=st.floats(1.05, 20.0),
        alpha=st.floats(0.001, 0.999),
    )
    def test_pareto_identity(self, x0, gamma, alpha):
        m = ParetoMarginal(x0, gamma)
        assert cte(m, alpha) / var(m, alpha) == pytest.approx(
            gamma / (gamma - 1.0), rel=1e-12
        )

    def test_matches_tail_integral(self):
        # CTE is VaR plus the integral of the survival beyond it over 1 - alpha
        def survival(m):
            if isinstance(m, ExponentialMarginal):
                return lambda x: math.exp(-m.rate * x)
            return lambda x: (m.x0 / x) ** m.gamma

        for m, alpha in ((EXP1, 0.9), (EXP2, 0.95), (PAR1, 0.9), (PAR2, 0.99)):
            q = var(m, alpha)
            assert cte(m, alpha) == pytest.approx(
                q + quad_tail(survival(m), q) / (1 - alpha), rel=1e-12
            )

    def test_divergent_tail(self):
        with pytest.raises(DivergentTail):
            cte(ParetoMarginal(1.0, 1.0), 0.9)
        with pytest.raises(DivergentTail):
            cte(ParetoMarginal(2.0, 0.7), 0.9)


class TestMot:
    def test_published_values(self):
        assert mot(EXP1, 0.95) == pytest.approx(7.37, abs=1e-2)
        assert mot(PAR1, 0.9) == pytest.approx(2.71, abs=1e-2)
        assert mot(EXP1, 0.9) == pytest.approx(5.99, abs=1e-2)

    @given(lam=st.floats(0.01, 50.0), alpha=st.floats(0.001, 0.999))
    def test_defining_level_exp(self, lam, alpha):
        m = ExponentialMarginal(lam)
        assert cdf(m, mot(m, alpha)) == pytest.approx((1 + alpha) / 2, abs=1e-12)

    def test_defining_tail_mass_by_quadrature(self):
        for m, alpha in ((EXP1, 0.9), (EXP2, 0.95), (PAR1, 0.9), (PAR2, 0.8)):
            lo, hi = var(m, alpha), mot(m, alpha)
            mass, _ = quad(lambda x: pdf(m, x), lo, hi)
            assert mass == pytest.approx((1 - alpha) / 2, abs=1e-9)

    def test_exceeds_var(self):
        for m in (EXP1, EXP2, PAR1, PAR2):
            for alpha in (0.5, 0.9, 0.99):
                assert mot(m, alpha) > var(m, alpha)


class TestQuantile:
    def test_domain(self):
        with pytest.raises(DomainError):
            quantile(EXP1, 1.0)
        with pytest.raises(DomainError):
            quantile(EXP1, -0.1)
        assert quantile(EXP1, 0.0) == 0.0
        assert quantile(PAR1, 0.0) == PAR1.x0

    @pytest.mark.parametrize("m", [EXP1, PAR1])
    def test_nan_level_rejected(self, m):
        # a check written as "below 0 or at least 1" returned nan silently
        with pytest.raises(DomainError):
            quantile(m, float("nan"))
        with pytest.raises(DomainError):
            quantile(m, np.array([0.5, float("nan")]))


def _quantile_formula(m, p):
    # the formula as it was written before it became an in-place kernel
    ps = np.asarray(p, dtype=float)
    if isinstance(m, ExponentialMarginal):
        return -np.log1p(-ps) / m.rate
    return m.x0 * (1.0 - ps) ** (-1.0 / m.gamma)


class TestQuantileKernel:
    """The in-place kernel gives the bits of the formula it replaced."""

    LEVELS = np.random.default_rng(3).random(10_003)

    @pytest.mark.parametrize(
        "m", [EXP1, PAR1, ParetoMarginal(2.0, 1.0), ParetoMarginal(1e-3, 2.0)]
    )
    @pytest.mark.parametrize(
        "p",
        [
            np.float64(0.9),  # 0-d
            np.array(0.0),
            np.array([]),
            LEVELS,
            LEVELS[::3],  # strided
            np.column_stack((LEVELS, LEVELS))[:, 1],  # strided column
            LEVELS.reshape(7, -1)[:, ::2]  # 2-d, strided,
        ],
    )
    def test_bytewise(self, m, p):
        got = np.asarray(quantile(m, p), dtype=float)
        want = np.asarray(_quantile_formula(m, p))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert isinstance(quantile(m, p), float) == (np.ndim(p) == 0)


class TestRiskReport:
    def test_report_fields(self):
        r = report(EXP1, 0.9)
        assert r.var < r.cte
        assert r.var < r.mot
        assert r.method is Method.CLOSED_FORM
        assert r.tolerance == 0.0
        assert r.alpha.value == 0.9

    def test_cte_may_round_onto_var(self):
        # gamma/(gamma - 1) rounds to 1, so the correctly rounded VaR, CTE
        # and MoT of this Pareto law are one float
        m = ParetoMarginal(1.0, 1e16)
        r = report(m, 0.9)
        assert r.var == r.cte == r.mot == 1.0000000000000002
        assert (var(m, 0.9), cte(m, 0.9)) == (r.var, r.cte)

    def test_invariants_enforced(self):
        a = Alpha(0.9)
        with pytest.raises(DomainError):
            RiskReport(a, var=2.0, cte=1.0, mot=3.0,
                       method=Method.CLOSED_FORM, tolerance=0.0)
        with pytest.raises(DomainError):
            RiskReport(a, var=2.0, cte=3.0, mot=1.0,
                       method=Method.CLOSED_FORM, tolerance=0.0)
