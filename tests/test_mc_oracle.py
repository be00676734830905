import math

import numpy as np
import pytest

from copula_risk import cli
from copula_risk.copula import FgmCopula, conditional_quantile, rectangle_mass
from copula_risk.errors import DomainError, LowTailCount
from copula_risk.extremes import BivariatePortfolio, extreme_var
from copula_risk.marginals import (
    ExponentialMarginal,
    ParetoMarginal,
    cdf as marginal_cdf,
    quantile,
)
from copula_risk.mc_oracle import (
    _BLOCK,
    _tail_mean_estimate,
    EstimateWithError,
    SampleBatch,
    empirical_cte,
    empirical_mot,
    empirical_var,
    sample_pairs,
    scalar_sample,
)

E1, E2 = ExponentialMarginal(0.5), ExponentialMarginal(0.6)


def exp_portfolio(theta):
    return BivariatePortfolio(E1, E2, FgmCopula(theta))


def pareto_portfolio(theta):
    return BivariatePortfolio(
        ParetoMarginal(1.0, 3.0), ParetoMarginal(1.0, 4.0), FgmCopula(theta)
    )


class TestSampling:
    def test_deterministic_regeneration(self):
        p = exp_portfolio(0.6)
        a = sample_pairs(p, 5000, seed=123)
        b = sample_pairs(p, 5000, seed=123)
        assert np.array_equal(a.pairs, b.pairs)
        c = sample_pairs(p, 5000, seed=124)
        assert not np.array_equal(a.pairs, c.pairs)

    def test_streams_are_independent_substreams(self):
        p = exp_portfolio(0.6)
        a = sample_pairs(p, 1000, seed=5, stream=0)
        b = sample_pairs(p, 1000, seed=5, stream=1)
        assert not np.array_equal(a.pairs, b.pairs)

    def test_prefix_consistency_across_sizes(self):
        p = exp_portfolio(0.2)
        small = sample_pairs(p, 1000, seed=9)
        large = sample_pairs(p, 100_000, seed=9)
        assert np.array_equal(small.pairs, large.pairs[:1000])

    def test_batch_is_read_only(self):
        batch = sample_pairs(exp_portfolio(0.0), 100, seed=1)
        with pytest.raises(ValueError):
            batch.pairs[0, 0] = -1.0

    @pytest.mark.parametrize(
        "n", [1, 1000, _BLOCK, _BLOCK + 3, 3 * _BLOCK - 5]
    )
    @pytest.mark.parametrize(
        "portfolio", [exp_portfolio(-1.0), pareto_portfolio(0.5)]
    )
    def test_matches_concatenated_blocks(self, portfolio, n):
        # the construction before blocks were written in place: whole
        # blocks, concatenated per column, cut to n, then column-stacked
        root = np.random.SeedSequence(entropy=17, spawn_key=(3,))
        x1_parts, x2_parts = [], []
        for child in root.spawn(-(-n // _BLOCK)):
            rng = np.random.default_rng(child)
            u = rng.random(_BLOCK)
            w = rng.random(_BLOCK)
            v = np.minimum(
                conditional_quantile(portfolio.copula, w, u),
                np.nextafter(1.0, 0.0),
            )
            x1_parts.append(quantile(portfolio.m1, u))
            x2_parts.append(quantile(portfolio.m2, v))
        old = np.column_stack(
            (np.concatenate(x1_parts)[:n], np.concatenate(x2_parts)[:n])
        )
        batch = sample_pairs(portfolio, n, seed=17, stream=3)
        assert batch.pairs.shape == (n, 2)
        assert batch.pairs.tobytes() == old.tobytes()

    def test_columns_contiguous_and_read_only(self):
        batch = sample_pairs(exp_portfolio(0.5), _BLOCK + 3, seed=4)
        assert batch.x1.flags.c_contiguous and batch.x2.flags.c_contiguous
        assert not batch.pairs.flags.writeable
        for column in (batch.x1, batch.x2):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column.sort()

    def test_supports(self):
        b = sample_pairs(pareto_portfolio(0.9), 50_000, seed=2)
        assert b.x1.min() >= 1.0 and b.x2.min() >= 1.0
        b = sample_pairs(exp_portfolio(-0.9), 50_000, seed=2)
        assert b.x1.min() >= 0.0 and b.x2.min() >= 0.0

    def test_n_validated(self):
        with pytest.raises(DomainError):
            sample_pairs(exp_portfolio(0.0), 0, seed=1)

    def test_scalar_sample_targets(self):
        batch = sample_pairs(exp_portfolio(0.4), 1000, seed=3)
        mn = scalar_sample(batch, "min")
        mx = scalar_sample(batch, "max")
        sm = scalar_sample(batch, "sum")
        assert np.all(mn <= mx)
        assert np.allclose(sm, batch.x1 + batch.x2)
        with pytest.raises(DomainError):
            scalar_sample(batch, "median")

    def test_independence_correlation(self):
        batch = sample_pairs(exp_portfolio(0.0), 1_000_000, seed=11)
        u = marginal_cdf(E1, batch.x1)
        v = marginal_cdf(E2, batch.x2)
        corr = np.corrcoef(u, v)[0, 1]
        assert abs(corr) <= 3.0 / math.sqrt(batch.n)

    def test_full_dependence_concordance(self):
        # FGM gives uniform-scale correlation theta / 3
        batch = sample_pairs(exp_portfolio(1.0), 1_000_000, seed=12)
        u = marginal_cdf(E1, batch.x1)
        v = marginal_cdf(E2, batch.x2)
        corr = np.corrcoef(u, v)[0, 1]
        assert corr > 0.0
        assert corr == pytest.approx(1.0 / 3.0, abs=5e-3)

    def test_published_min_exceedance_probability(self):
        batch = sample_pairs(exp_portfolio(0.0), 1_000_000, seed=13)
        mn = scalar_sample(batch, "min")
        frac = float(np.mean(mn > 2.09))
        se = math.sqrt(0.1 * 0.9 / batch.n)
        assert frac == pytest.approx(0.10, abs=3 * se + 1e-3)


class TestMarginalFidelity:
    @pytest.mark.parametrize("side", ["x1", "x2"])
    @pytest.mark.parametrize("family", ["exp", "pareto"])
    def test_ks_distance_below_critical(self, side, family):
        build = exp_portfolio if family == "exp" else pareto_portfolio
        p = build(0.7)
        batch = sample_pairs(p, 100_000, seed=21)
        xs = np.sort(scalar_sample(batch, side))
        m = p.m1 if side == "x1" else p.m2
        f = marginal_cdf(m, xs)
        n = xs.size
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(grid - f), np.max(f - (grid - 1.0 / n)))
        assert ks < 1.628 / math.sqrt(n)  # 1% critical value


class TestCopulaFidelity:
    @pytest.mark.parametrize("theta", [-0.9, 0.0, 0.9])
    def test_rectangle_masses(self, theta):
        p = exp_portfolio(theta)
        batch = sample_pairs(p, 200_000, seed=31)
        u = marginal_cdf(E1, batch.x1)
        v = marginal_cdf(E2, batch.x2)
        edges = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        c = p.copula
        for i in range(4):
            for j in range(4):
                expected = rectangle_mass(
                    c, edges[i], edges[i + 1], edges[j], edges[j + 1]
                )
                inside = (
                    (u > edges[i]) & (u <= edges[i + 1])
                    & (v > edges[j]) & (v <= edges[j + 1])
                )
                frac = float(np.mean(inside))
                se = math.sqrt(expected * (1 - expected) / batch.n)
                assert abs(frac - expected) <= 4.0 * se


class TestEmpiricalEstimators:
    SAMPLE_100 = np.arange(1.0, 101.0)

    def test_var_order_statistic(self):
        est = empirical_var(self.SAMPLE_100, 0.9)
        assert est.point == 90.0
        assert est.n == 100

    def test_mot_order_statistic(self):
        assert empirical_mot(self.SAMPLE_100, 0.9).point == 95.0

    def test_cte_tail_mean_and_floor(self):
        with pytest.raises(LowTailCount):
            empirical_cte(self.SAMPLE_100, 0.9)
        est = empirical_cte(self.SAMPLE_100, 0.9, min_tail=10)
        assert est.point == pytest.approx(95.5)
        big = np.arange(1.0, 1001.0)
        assert empirical_cte(big, 0.9).point == pytest.approx(950.5)

    def test_empty_and_bad_alpha(self):
        with pytest.raises(DomainError):
            empirical_var(np.array([]), 0.9)
        with pytest.raises(DomainError):
            empirical_var(self.SAMPLE_100, 1.0)
        with pytest.raises(DomainError):
            empirical_mot(self.SAMPLE_100, 0.0)

    def test_estimates_near_published_values(self):
        batch = sample_pairs(exp_portfolio(0.5), 1_000_000, seed=41)
        mn = scalar_sample(batch, "min")
        est = empirical_var(mn, 0.9)
        assert abs(est.point - 2.30) <= 3 * est.std_error + 5e-3
        analytic = extreme_var(exp_portfolio(0.5), "min", 0.9)
        assert abs(est.point - analytic) <= 3 * est.std_error

    def test_std_error_scales_inverse_sqrt(self):
        p = exp_portfolio(0.3)
        batch = sample_pairs(p, 320_000, seed=51)
        sm = scalar_sample(batch, "sum")
        ses = [
            empirical_var(sm[:n], 0.9).std_error
            for n in (20_000, 80_000, 320_000)
        ]
        for a, b in zip(ses, ses[1:]):
            # quadrupling n should halve the standard error, roughly
            assert 0.3 <= b / a <= 0.8

    def test_cte_std_error_covers_threshold_uncertainty(self):
        # spread of the estimator across independent substreams should be
        # consistent with its reported standard error
        p = exp_portfolio(0.0)
        analytic = 9.369752271895342  # verified against quadrature
        pulls = []
        ses = []
        for stream in range(40):
            batch = sample_pairs(p, 50_000, seed=61, stream=stream)
            est = empirical_cte(scalar_sample(batch, "sum"), 0.9)
            pulls.append((est.point - analytic) / est.std_error)
            ses.append(est.std_error)
        z = np.asarray(pulls)
        # standardized pulls should look standard normal, not inflated
        assert abs(z.mean()) < 0.6
        assert 0.6 < z.std(ddof=1) < 1.5
        assert max(abs(z)) < 4.0


def _masked_tail_mean(xs, level, min_tail):
    # the estimator as it was written before it selected the tail with a
    # searchsorted: a boolean mask over the whole sample
    n = xs.size
    r = min(max(math.ceil(level * n), 1), n)
    qhat = float(xs[r - 1])
    tail = xs[xs > qhat]
    if tail.size < min_tail:
        raise LowTailCount(f"{tail.size} < {min_tail}")
    point = float(tail.mean())
    var_hat = float(tail.var(ddof=1)) + level * (point - qhat) ** 2
    return EstimateWithError(point, math.sqrt(var_hat / tail.size), n)


class TestTailMeanSelection:
    """The searchsorted tail is the masked tail, on tail-sorted samples."""

    @staticmethod
    def tied_sample(above, seed):
        # integers: 100 copies of 10 straddle the 900th order statistic of
        # 1000, with `above` values in 11..15 and the rest in 0..9
        rng = np.random.default_rng(seed)
        xs = np.concatenate((
            rng.integers(0, 10, 1000 - 100 - above),
            np.full(100, 10),
            rng.integers(11, 16, above),
        )).astype(float)
        rng.shuffle(xs)
        return cli._tail_sorted(xs, cli._first_read(1000, (0.9,)), None)

    @pytest.mark.parametrize("seed", range(5))
    def test_exactly_min_tail_exceedances(self, seed):
        xs = self.tied_sample(30, seed)
        est = _tail_mean_estimate(xs, 0.9, 30)
        assert xs[899] == 10.0
        assert est == _masked_tail_mean(xs, 0.9, 30)

    @pytest.mark.parametrize("seed", range(5))
    def test_one_short_of_min_tail_raises(self, seed):
        xs = self.tied_sample(29, seed)
        with pytest.raises(LowTailCount):
            _masked_tail_mean(xs, 0.9, 30)
        with pytest.raises(LowTailCount, match="only 29 exceedances"):
            _tail_mean_estimate(xs, 0.9, 30)

    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.999])
    def test_continuous_sample_bytewise(self, level):
        batch = sample_pairs(exp_portfolio(0.5), 200_003, seed=71)
        xs = cli._tail_sorted(
            scalar_sample(batch, "sum"),
            cli._first_read(batch.n, (level,)),
            None,
        )
        assert _tail_mean_estimate(xs, level, 30) == _masked_tail_mean(
            xs, level, 30
        )


def test_sample_batch_validation():
    pairs = np.zeros((5, 2))
    pairs.setflags(write=False)
    SampleBatch(pairs=pairs, seed=1, n=5)
    with pytest.raises(DomainError):
        SampleBatch(pairs=pairs, seed=1, n=6)
    with pytest.raises(DomainError):
        SampleBatch(pairs=pairs, seed=1, n=0)
    est = EstimateWithError(1.0, 0.1, 10)
    assert est.point == 1.0
