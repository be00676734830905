"""Seeded Monte Carlo ground truth for every analytic measure.

Sampling uses the conditional-distribution method: draw (u, w) uniform,
invert the conditional copula CDF to get v, and map (u, v) through the
marginal quantile functions. Pairs are generated in fixed-size blocks,
each block from its own substream spawned from (seed, stream, block
index), so a batch is reproducible bit for bit, any prefix of a longer
batch matches a shorter one, and blocks can be farmed out to workers
without changing the merged result. Each block is written in place, in
index order, into one preallocated column-major (n, 2) array, so both
columns are contiguous and nothing is concatenated.

numpy is imported on first use, where a batch is sampled or estimated:
importing this module (and so the package and its CLI) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .copula import conditional_quantile
from .errors import DomainError, LowTailCount
from .extremes import BivariatePortfolio
from .marginals import AlphaLike, level_of, quantile

if TYPE_CHECKING:
    import numpy as np

_BLOCK = 1 << 16
_V_CAP = math.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class SampleBatch:
    """n dependent (x1, x2) pairs with the seed that regenerates them."""

    pairs: np.ndarray  # shape (n, 2), read-only
    seed: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        if self.pairs.shape != (self.n, 2):
            raise DomainError(
                f"pairs must have shape ({self.n}, 2), got {self.pairs.shape}"
            )

    @property
    def x1(self) -> np.ndarray:
        return self.pairs[:, 0]

    @property
    def x2(self) -> np.ndarray:
        return self.pairs[:, 1]


@dataclass(frozen=True)
class EstimateWithError:
    """A point estimate with its standard error and sample count."""

    point: float
    std_error: float
    n: int


def sample_pairs(
    portfolio: BivariatePortfolio, n: int, seed: int, stream: int = 0
) -> SampleBatch:
    """Draw n dependent pairs from the portfolio's copula and marginals.

    Batches with different stream indices are independent substreams of the
    same seed, for decorrelating several portfolios or parallel workers.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    import numpy as np

    seed = int(seed)
    pairs = np.empty((n, 2), order="F")
    root = np.random.SeedSequence(entropy=seed, spawn_key=(int(stream),))
    for start, child in zip(range(0, n, _BLOCK), root.spawn(-(-n // _BLOCK))):
        rng = np.random.default_rng(child)
        # every block draws a full _BLOCK of u then of w, so its values do
        # not depend on n; only the pairs the batch keeps are transformed
        take = min(_BLOCK, n - start)
        u = rng.random(_BLOCK)[:take]
        w = rng.random(_BLOCK)[:take]
        v = np.minimum(
            conditional_quantile(portfolio.copula, w, u), _V_CAP
        )
        pairs[start:start + take, 0] = quantile(portfolio.m1, u)
        pairs[start:start + take, 1] = quantile(portfolio.m2, v)
    pairs.setflags(write=False)
    return SampleBatch(pairs=pairs, seed=seed, n=n)


def scalar_sample(batch: SampleBatch, target: str) -> np.ndarray:
    """Derive the scalar loss sample (x1, x2, min, max or sum) of a batch.

    x1 and x2 are read-only views into the batch; min, max and sum are
    fresh arrays the caller may reorder in place.
    """
    import numpy as np

    if target == "x1":
        return batch.x1
    if target == "x2":
        return batch.x2
    if target == "min":
        return np.minimum(batch.x1, batch.x2)
    if target == "max":
        return np.maximum(batch.x1, batch.x2)
    if target == "sum":
        return batch.x1 + batch.x2
    raise DomainError(f"unknown target {target!r}")


def _sorted_sample(sample) -> np.ndarray:
    import numpy as np

    xs = np.sort(np.asarray(sample, dtype=float).ravel())
    if xs.size == 0:
        raise DomainError("sample must be nonempty")
    return xs


def _order_stat_estimate(xs: np.ndarray, level: float) -> EstimateWithError:
    """Empirical quantile at the given level with a binomial-method SE.

    The point estimate is the order statistic at ceil(level * n) (the
    left-continuous inverse). The standard error is
    sqrt(level(1-level)/n) / density, with the density estimated by a
    central difference of order statistics one binomial standard deviation
    to either side.
    """
    n = xs.size
    r = min(max(math.ceil(level * n), 1), n)
    point = float(xs[r - 1])
    k = max(1, round(math.sqrt(n * level * (1.0 - level))))
    i_lo = max(r - k, 1)
    i_hi = min(r + k, n)
    width = float(xs[i_hi - 1] - xs[i_lo - 1])
    if width > 0.0 and i_hi > i_lo:
        dens = (i_hi - i_lo) / n / width
        se = math.sqrt(level * (1.0 - level) / n) / dens
    else:
        se = 0.0
    return EstimateWithError(point=point, std_error=se, n=n)


def _tail_mean_estimate(
    xs: np.ndarray, level: float, min_tail: int
) -> EstimateWithError:
    n = xs.size
    r = min(max(math.ceil(level * n), 1), n)
    qhat = float(xs[r - 1])
    tail = xs[xs > qhat]
    if tail.size < min_tail:
        raise LowTailCount(
            f"only {tail.size} exceedances above the empirical quantile, "
            f"need at least {min_tail}"
        )
    point = float(tail.mean())
    # influence-function variance of the tail mean: the threshold is itself
    # estimated, which adds level*(point - qhat)^2 on top of the tail
    # variance; the bare tail-std/sqrt(k) undercovers by ~40% here
    var_hat = float(tail.var(ddof=1)) + level * (point - qhat) ** 2
    se = math.sqrt(var_hat / tail.size)
    return EstimateWithError(point=point, std_error=se, n=n)


def empirical_var(sample, alpha: AlphaLike) -> EstimateWithError:
    """Empirical value at risk: the order statistic at ceil(alpha * n)."""
    return _order_stat_estimate(_sorted_sample(sample), level_of(alpha))


def empirical_mot(sample, alpha: AlphaLike) -> EstimateWithError:
    """Empirical tail median: the order statistic at level (1 + alpha)/2."""
    return _order_stat_estimate(
        _sorted_sample(sample), 0.5 * (1.0 + level_of(alpha))
    )


def empirical_cte(
    sample, alpha: AlphaLike, min_tail: int = 30
) -> EstimateWithError:
    """Mean of the values strictly above the empirical VaR.

    Raises:
        LowTailCount: if fewer than min_tail values exceed the empirical
            VaR; below that the standard error estimate is unreliable.
    """
    return _tail_mean_estimate(
        _sorted_sample(sample), level_of(alpha), min_tail
    )
