import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import dblquad, quad

from copula_risk.copula import (
    FgmCopula,
    cdf,
    conditional_cdf,
    conditional_quantile,
    density,
    rectangle_mass,
    survival,
)
from copula_risk.errors import DomainError

thetas = st.floats(-1.0, 1.0)
units = st.floats(0.0, 1.0)

THETA_GRID = (-1.0, -0.5, 0.0, 0.5, 1.0)


class TestConstruction:
    def test_theta_validated_once(self):
        FgmCopula(-1.0)
        FgmCopula(1.0)
        for bad in (-1.001, 1.5, float("nan"), "0.5", b"0.5", None, 10**400):
            with pytest.raises(DomainError):
                FgmCopula(bad)


class TestCdf:
    def test_product_copula(self):
        assert cdf(FgmCopula(0.0), 0.3, 0.7) == pytest.approx(0.21, rel=1e-15)

    def test_direct_evaluation(self):
        assert cdf(FgmCopula(1.0), 0.5, 0.5) == pytest.approx(0.3125, rel=1e-15)

    def test_boundary_example(self):
        assert cdf(FgmCopula(0.63), 1.0, 0.4) == pytest.approx(0.4, rel=1e-15)

    @given(theta=thetas, u=units, v=units)
    def test_boundary_axioms(self, theta, u, v):
        c = FgmCopula(theta)
        assert cdf(c, u, 0.0) == 0.0
        assert cdf(c, 0.0, v) == 0.0
        assert cdf(c, u, 1.0) == pytest.approx(u, abs=1e-15)
        assert cdf(c, 1.0, v) == pytest.approx(v, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            cdf(FgmCopula(0.5), 1.2, 0.5)
        with pytest.raises(DomainError):
            cdf(FgmCopula(0.5), 0.5, -0.1)


class TestDensity:
    def test_independence(self):
        c = FgmCopula(0.0)
        for u, v in ((0.0, 0.0), (0.3, 0.9), (1.0, 0.2)):
            assert density(c, u, v) == 1.0

    def test_corner_value(self):
        assert density(FgmCopula(1.0), 0.0, 0.0) == 2.0

    def test_mixed_finite_difference_of_cdf(self):
        c = FgmCopula(0.5)
        h = 1e-5
        u, v = 0.25, 0.75
        fd = (
            cdf(c, u + h, v + h)
            - cdf(c, u + h, v - h)
            - cdf(c, u - h, v + h)
            + cdf(c, u - h, v - h)
        ) / (4 * h * h)
        assert density(c, u, v) == pytest.approx(0.875, rel=1e-12)
        assert fd == pytest.approx(0.875, abs=1e-6)

    @given(theta=thetas, u=units, v=units)
    def test_nonnegative(self, theta, u, v):
        assert density(FgmCopula(theta), u, v) >= 0.0

    def test_zero_only_at_corners_for_extreme_theta(self):
        assert density(FgmCopula(1.0), 0.0, 1.0) == 0.0
        assert density(FgmCopula(1.0), 1.0, 0.0) == 0.0
        assert density(FgmCopula(-1.0), 0.0, 0.0) == 0.0
        assert density(FgmCopula(-1.0), 1.0, 1.0) == 0.0
        grid = np.linspace(0.01, 0.99, 15)
        for theta in (1.0, -1.0):
            c = FgmCopula(theta)
            for u in grid:
                for v in grid:
                    assert density(c, u, v) > 0.0

    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_integrates_to_one(self, theta):
        c = FgmCopula(theta)
        total, _ = dblquad(lambda v, u: density(c, u, v), 0, 1, 0, 1)
        assert total == pytest.approx(1.0, abs=1e-10)


class TestSurvival:
    def test_independence(self):
        assert survival(FgmCopula(0.0), 0.3, 0.7) == pytest.approx(0.21, rel=1e-15)

    def test_total_mass(self):
        for theta in THETA_GRID:
            assert survival(FgmCopula(theta), 0.0, 0.0) == 1.0

    def test_direct_value(self):
        assert survival(FgmCopula(0.9), 0.5, 0.5) == pytest.approx(
            0.30625, rel=1e-15
        )

    @given(theta=thetas, u=units, v=units)
    def test_survival_identity(self, theta, u, v):
        c = FgmCopula(theta)
        assert survival(c, u, v) == pytest.approx(
            1.0 - u - v + cdf(c, u, v), abs=1e-15
        )


class TestConditional:
    def test_independence(self):
        assert conditional_cdf(FgmCopula(0.0), 0.4, 0.9) == pytest.approx(0.4)

    def test_upper_boundary(self):
        for theta in THETA_GRID:
            assert conditional_cdf(FgmCopula(theta), 1.0, 0.3) == 1.0
            assert conditional_cdf(FgmCopula(theta), 0.0, 0.3) == 0.0

    def test_known_value(self):
        assert conditional_cdf(FgmCopula(1.0), 0.5, 0.0) == pytest.approx(0.75)

    @given(theta=thetas, u=units, v1=units, v2=units)
    def test_monotone_in_v(self, theta, u, v1, v2):
        lo, hi = min(v1, v2), max(v1, v2)
        c = FgmCopula(theta)
        assert conditional_cdf(c, lo, u) <= conditional_cdf(c, hi, u) + 1e-15

    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_marginal_consistency(self, theta):
        # integrating the conditional over the conditioning variable
        # recovers the uniform marginal
        c = FgmCopula(theta)
        for v in (0.1, 0.37, 0.62, 0.95):
            total, _ = quad(lambda u: conditional_cdf(c, v, u), 0, 1)
            assert total == pytest.approx(v, abs=1e-10)


class TestConditionalQuantile:
    def test_independence(self):
        assert conditional_quantile(FgmCopula(0.0), 0.63, 0.2) == pytest.approx(
            0.63, rel=1e-15
        )

    def test_inverse_of_known_conditional(self):
        assert conditional_quantile(FgmCopula(1.0), 0.75, 0.0) == pytest.approx(
            0.5, rel=1e-14
        )

    def test_against_bisection_oracle(self):
        # frozen bisection solve of conditional_cdf(v | u=0.8) = 0.3, theta=0.7
        got = conditional_quantile(FgmCopula(0.7), 0.3, 0.8)
        assert got == pytest.approx(0.4008730129872228, abs=1e-13)

    @given(theta=thetas, w=units, u=units)
    def test_round_trip(self, theta, w, u):
        c = FgmCopula(theta)
        v = conditional_quantile(c, w, u)
        assert 0.0 <= v <= 1.0
        assert conditional_cdf(c, v, u) == pytest.approx(w, abs=1e-14)

    @given(theta=thetas, v=units, u=units)
    def test_inverse_round_trip(self, theta, v, u):
        c = FgmCopula(theta)
        w = conditional_cdf(c, v, u)
        assert conditional_quantile(c, w, u) == pytest.approx(v, abs=1e-12)

    def test_degenerate_corner(self):
        # a = -1 makes the conditional CDF equal v^2; quantile is sqrt(w)
        c = FgmCopula(-1.0)
        assert conditional_quantile(c, 0.0, 0.0) == 0.0
        assert conditional_quantile(c, 0.49, 0.0) == pytest.approx(0.7, rel=1e-12)


def _conditional_quantile_formula(theta, w, u):
    # the formula as it was written before it became an in-place kernel
    ws, us = np.asarray(w, dtype=float), np.asarray(u, dtype=float)
    a = theta * (1.0 - 2.0 * us)
    disc = (1.0 + a) ** 2 - 4.0 * a * ws
    denom = (1.0 + a) + np.sqrt(np.maximum(disc, 0.0))
    out = np.where(denom > 0.0, 2.0 * ws / np.where(denom > 0.0, denom, 1.0), 0.0)
    return np.clip(out, 0.0, 1.0)


class TestConditionalQuantileKernel:
    """The in-place kernel gives the bits of the formula it replaced."""

    @pytest.mark.parametrize("theta", [-1.0, 1.0])
    def test_corners_bytewise(self, theta):
        # includes a = -1, w = 0, where the denominator vanishes
        u, w = np.meshgrid([0.0, 0.5, 1.0], [0.0, 1.0])
        got = conditional_quantile(FgmCopula(theta), w, u)
        want = _conditional_quantile_formula(theta, w, u)
        assert got.tobytes() == want.tobytes()
        for ui, wi in zip(u.ravel(), w.ravel()):
            one = conditional_quantile(FgmCopula(theta), wi, ui)
            assert np.float64(one).tobytes() == np.float64(
                _conditional_quantile_formula(theta, wi, ui)
            ).tobytes()

    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_random_and_broadcast_bytewise(self, theta):
        rng = np.random.default_rng(8)
        u, w = rng.random(10_001), rng.random(10_001)
        for args in ((w, u), (w[::3], u[::3]), (w[:7, None], u[None, :5]),
                     (0.3, u), (w, 0.0)):
            got = conditional_quantile(FgmCopula(theta), *args)
            want = _conditional_quantile_formula(theta, *args)
            assert got.tobytes() == want.tobytes()

    def test_empty_passes_the_range_check(self):
        got = conditional_quantile(FgmCopula(0.5), np.array([]), np.array([]))
        assert got.shape == (0,)


class TestRectangleMass:
    def test_full_square(self):
        for theta in THETA_GRID:
            assert rectangle_mass(FgmCopula(theta), 0, 1, 0, 1) == pytest.approx(
                1.0, rel=1e-15
            )

    def test_product_rectangle(self):
        assert rectangle_mass(FgmCopula(0.0), 0.2, 0.5, 0.1, 0.6) == pytest.approx(
            0.15, rel=1e-12
        )

    def test_negative_dependence_quadrant(self):
        got = rectangle_mass(FgmCopula(-1.0), 0.0, 0.5, 0.0, 0.5)
        assert got == pytest.approx(0.1875, rel=1e-13)
        c = FgmCopula(-1.0)
        num, _ = dblquad(lambda v, u: density(c, u, v), 0, 0.5, 0, 0.5)
        assert got == pytest.approx(num, abs=1e-10)

    @given(
        theta=st.sampled_from(THETA_GRID),
        a=units, b=units, c_=units, d=units,
    )
    def test_two_increasing_property(self, theta, a, b, c_, d):
        u1, u2 = min(a, b), max(a, b)
        v1, v2 = min(c_, d), max(c_, d)
        assert rectangle_mass(FgmCopula(theta), u1, u2, v1, v2) >= -1e-15

    def test_unordered_rejected(self):
        with pytest.raises(DomainError):
            rectangle_mass(FgmCopula(0.5), 0.6, 0.4, 0.1, 0.2)


def test_vectorized_evaluation():
    c = FgmCopula(0.4)
    u = np.array([0.1, 0.5, 0.9])
    v = np.array([0.2, 0.5, 0.8])
    out = cdf(c, u, v)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(cdf(c, 0.5, 0.5))
    w = conditional_quantile(c, v, u)
    assert np.all((w >= 0) & (w <= 1))


NAN = float("nan")


@pytest.mark.parametrize(
    "fn, args",
    [
        (cdf, (NAN, 0.5)),
        (cdf, (0.5, NAN)),
        (density, (NAN, 0.5)),
        (survival, (0.5, NAN)),
        (conditional_cdf, (NAN, 0.5)),
        (conditional_cdf, (0.5, NAN)),
        (conditional_quantile, (NAN, 0.5)),
        (conditional_quantile, (0.5, NAN)),
        (conditional_quantile, (np.array([0.2, NAN]), np.array([0.5, 0.5]))),
        (rectangle_mass, (0.1, NAN, 0.1, 0.2)),
        (rectangle_mass, (0.1, 0.2, NAN, 0.2)),
    ],
)
def test_nan_arguments_rejected(fn, args):
    # NaN compares false both ways, so a check written as "below 0 or
    # above 1" let it through: cdf returned nan, conditional_quantile 0.0
    with pytest.raises(DomainError):
        fn(FgmCopula(0.5), *args)
