"""Seeded Monte Carlo ground truth for every analytic measure.

Sampling uses the conditional-distribution method: draw (u, w) uniform,
invert the conditional copula CDF to get v, and map (u, v) through the
marginal quantile functions. Pairs are generated in fixed-size blocks,
each block from its own substream spawned from (seed, stream, block
index), so a batch is reproducible bit for bit and any prefix of a
longer batch matches a shorter one. The blocks of a batch are split
among at most two threads, the caller and one started for the batch
(numpy releases the GIL in the draws and in the ufunc loops). Each
takes the next block from a shared queue, so a thread on a slower CPU
takes fewer; since no block's bits depend on which thread runs it or
when, the result equals a serial run. `_drain` holds that queue-and-
threads scheme, and `verify` derives each batch's min, max and sum and
selects their order statistics on it too. Each block is written in
place, at its own rows, into one preallocated column-major (n, 2) array,
so both columns are contiguous and nothing is concatenated. Each block
draws u straight into its stretch of the x1 column and w into its
stretch of x2; the copula kernel then turns w into v in place and the
marginal kernels map both columns in place; a partial last block draws
only the rows it keeps. Each thread has a workspace of two block-sized
arrays, the copula kernel's scratch. So sampling allocates nothing per
block, and a batch's workspace is four blocks at most.

The estimators read a sample's order statistics from `_first_read` up;
`_select_tail` puts those in place as a full sort would, for `verify`'s
target samples and for the copy that each `empirical_*` takes.

numpy is imported on first use, where a batch is sampled or estimated:
importing this module (and so the package and its CLI) does not load it.
"""

from __future__ import annotations

import math
import operator
import os
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .copula import _conditional_quantile_into
from .errors import DomainError, LowTailCount
from .extremes import BivariatePortfolio
from .marginals import AlphaLike, _mot_level, _quantile_into, level_of

# Sampling calls the in-place kernels above. The benchmark's layer tracing
# (perfbench/tracing.py) still rebinds these two public names on this
# module, so they stay importable here until the harness stops doing so.
from .copula import conditional_quantile  # noqa: F401
from .marginals import quantile  # noqa: F401

if TYPE_CHECKING:
    import numpy as np

_BLOCK = 1 << 16
_V_CAP = math.nextafter(1.0, 0.0)
# at most this many threads, the caller's included, run one `_drain`; each
# sampling thread holds two blocks of workspace, which the memory bound of
# `verify` counts
_WORKERS = 2


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
    The seed and stream must be nonnegative integers.
    """
    try:
        n, seed, stream = map(operator.index, (n, seed, stream))
    except TypeError:
        raise DomainError(
            f"n, seed and stream must be integers, got n={n!r}, "
            f"seed={seed!r}, stream={stream!r}"
        ) from None
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if seed < 0 or stream < 0:
        raise DomainError(
            f"seed and stream must be >= 0, got seed={seed}, stream={stream}"
        )
    import numpy as np

    pairs = np.empty((n, 2), order="F")
    root = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    blocks = root.spawn(-(-n // _BLOCK))
    _drain(_sample_blocks, deque(zip(range(0, n, _BLOCK), blocks)),
           portfolio, pairs)
    pairs.setflags(write=False)
    return SampleBatch(pairs=pairs, seed=seed, n=n)


def _drain(work, jobs: deque, *args) -> None:
    """Run work(taken, *args) on the caller and on pool threads until
    jobs is empty: the blocks of `sample_pairs`, the row blocks whose
    min, max and sum `verify` derives, or the target samples whose tails
    it selects.

    Each thread's `taken` yields jobs popped off the shared deque (pops
    are thread-safe), so a thread on a slower CPU takes fewer. There are
    min(_WORKERS, usable CPUs, len(jobs)) threads, the caller's included;
    with one, the caller works alone and no pool is started. Whatever a
    pool thread raises is raised here, after every thread has stopped.
    """

    def taken():
        while True:
            try:
                yield jobs.popleft()
            except IndexError:  # every job is taken
                return

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    workers = min(_WORKERS, cpus, len(jobs))
    if workers <= 1:
        work(taken(), *args)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1) as pool:
        done = [
            pool.submit(work, taken(), *args) for _ in range(workers - 1)
        ]
        work(taken(), *args)
        for future in done:
            future.result()


def _sample_blocks(jobs, portfolio: BivariatePortfolio, pairs) -> None:
    """Write the block of each (start, SeedSequence) job into pairs."""
    import numpy as np

    n = pairs.shape[0]
    theta = portfolio.copula.theta
    # the copula kernel's scratch, reused by every block of this worker
    s, t = np.empty((2, _BLOCK))
    for start, child in jobs:
        rng = np.random.default_rng(child)
        take = min(_BLOCK, n - start)
        x1 = pairs[start:start + take, 0]
        x2 = pairs[start:start + take, 1]
        # u and w are the heads of a full _BLOCK of each, whatever n is:
        # PCG64 spends one 64-bit output per double
        rng.random(take, out=x1)
        rng.bit_generator.advance(_BLOCK - take)
        rng.random(take, out=x2)
        _conditional_quantile_into(theta, x1, x2, s[:take], t[:take], _V_CAP)
        _quantile_into(portfolio.m1, x1, x1)
        _quantile_into(portfolio.m2, x2, x2)


def scalar_sample(batch: SampleBatch, target: str) -> np.ndarray:
    """Derive the scalar loss sample (x1, x2, min, max or sum) of a batch.

    x1 and x2 are read-only views into the batch; min, max and sum are
    fresh arrays.
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
        return np.add(batch.x1, batch.x2)
    raise DomainError(f"unknown target {target!r}")


def _read_window(n: int, level: float) -> tuple[int, int, int]:
    """(r, lo, hi), 1-based: the order statistic r = ceil(level * n) and
    r -/+ k within [1, n], k one binomial standard deviation.
    """
    r = min(max(math.ceil(level * n), 1), n)
    k = max(1, round(math.sqrt(n * level * (1.0 - level))))
    return r, max(r - k, 1), min(r + k, n)


def _first_read(n: int, alphas) -> int:
    """Lowest 0-based order statistic the estimators read at any alpha:
    VaR and MoT read `_read_window` at alpha and at (1 + alpha)/2, CTE the
    window's point at alpha and the values above it."""
    first = n - 1
    for a in map(level_of, alphas):
        for lv in (a, _mot_level(a)):
            first = min(first, _read_window(n, lv)[1] - 1)
    return first


def _select_tail(xs, first: int) -> None:
    """Partition xs in place at `first` and sort it from there up, so that
    every index from `first` on holds what a full sort puts there."""
    xs.partition(first)
    xs[first:].sort()


def _selected(sample, alpha: AlphaLike) -> np.ndarray:
    """A float copy of the sample, its tail selected for alpha; raises
    DomainError if it is empty or holds NaN (inf is a value like any)."""
    import numpy as np

    xs = np.array(sample, dtype=float).ravel()
    if xs.size == 0:
        raise DomainError("sample must be nonempty")
    _select_tail(xs, _first_read(xs.size, (alpha,)))
    if np.isnan(xs[-1]):  # partition and sort put NaN above inf
        raise DomainError("sample must not hold NaN")
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
    r, i_lo, i_hi = _read_window(n, level)
    point = float(xs[r - 1])
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
    """Mean of the values above the order statistic at ceil(level * n).

    xs must hold that order statistic at its sorted index r - 1, sorted
    from there up, with nothing above it below that index (a full sort,
    or `_select_tail` at or below r - 1); the tail is then the suffix past
    the last copy of the threshold.
    """
    n = xs.size
    r = _read_window(n, level)[0]
    qhat = float(xs[r - 1])
    upper = xs[r - 1:]
    tail = upper[upper.searchsorted(qhat, side="right"):]
    # the standard error's ddof=1 variance needs two exceedances whatever
    # min_tail asks
    need = max(min_tail, 2)
    if tail.size < need:
        raise LowTailCount(
            f"only {tail.size} exceedances above the empirical quantile, "
            f"need at least {need}"
        )
    point = float(tail.mean())
    if point == math.inf:  # the spread of a tail holding inf is inf, not inf - inf
        return EstimateWithError(point=point, std_error=math.inf, n=n)
    # influence-function variance of the tail mean: the threshold is itself
    # estimated, which adds level*(point - qhat)^2 on top of the tail
    # variance; the bare tail-std/sqrt(k) undercovers by ~40% here
    var_hat = float(tail.var(ddof=1)) + level * (point - qhat) ** 2
    se = math.sqrt(var_hat / tail.size)
    return EstimateWithError(point=point, std_error=se, n=n)


def empirical_var(sample, alpha: AlphaLike) -> EstimateWithError:
    """Empirical value at risk: the order statistic at ceil(alpha * n)."""
    return _order_stat_estimate(_selected(sample, alpha), level_of(alpha))


def empirical_mot(sample, alpha: AlphaLike) -> EstimateWithError:
    """Empirical tail median: the order statistic at level (1 + alpha)/2."""
    return _order_stat_estimate(
        _selected(sample, alpha), _mot_level(level_of(alpha))
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
        _selected(sample, alpha), level_of(alpha), min_tail
    )
