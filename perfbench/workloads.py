"""Seeded inputs of the benchmark workloads; standard library only.

Each workload is a fixed list of operations, built from the seed before
anything is timed, that the runner executes in whole passes. Every
continuous parameter is drawn by stratified sampling (one draw per equal
slice of its range, slices shuffled), so the mix of cheap and expensive
cells, and with it the cost of a pass, changes little from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("sweep", "edge", "verify")
TABLE_IDS = tuple(range(1, 16))
SWEEP_ALPHAS = (0.9, 0.95, 0.99, 0.995)
SUM_SINGULAR_RATIOS = (1.0, 2.0, 0.5)


@dataclass(frozen=True)
class Cell:
    """One report request: a portfolio, a target and a confidence level.

    p1 and p2 are the exponential rates, or the Pareto tail exponents that
    share the left endpoint x0 (x0 is 0 for exponentials). Target "x1" is
    the single-risk report of the first marginal.
    """

    family: str
    target: str
    p1: float
    p2: float
    x0: float
    theta: float
    alpha: float


@dataclass(frozen=True)
class Op:
    """One operation of a pass: a table id, a report cell or a verify grid."""

    kind: str  # "table" | "report" | "verify"
    table_id: int = 0
    cell: Cell | None = None


def _strata(rng: random.Random, n: int) -> list[float]:
    """n uniforms in [0, 1), one in each slice [i/n, (i+1)/n), shuffled."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def _log_uniform(u: float, lo: float, hi: float) -> float:
    a, b = math.log10(lo), math.log10(hi)
    return 10.0 ** (a + u * (b - a))


def _away_from_singular(l1: float, l2: float) -> float:
    """Nudge l2 so that l2/l1 is at least 1e-2 (relative) away from 1, 2, 1/2."""
    while any(abs(l2 / (k * l1) - 1.0) < 1e-2 for k in SUM_SINGULAR_RATIOS):
        l2 *= 1.05
    return l2


def _sweep_cells(rng: random.Random, family: str, target: str, n: int) -> list[Cell]:
    ua, ub, ut, ualpha = (_strata(rng, n) for _ in range(4))
    cells = []
    for i in range(n):
        # half the cells sit on the published confidence levels
        alpha = SWEEP_ALPHAS[i % 4] if i < n // 2 else 0.5 + 0.499 * ualpha[i]
        theta = -1.0 + 2.0 * ut[i]
        if family == "exp":
            l1 = _log_uniform(ua[i], 1e-2, 1e2)
            l2 = _log_uniform(ub[i], 1e-2, 1e2)
            if target == "sum":
                l2 = _away_from_singular(l1, l2)
            cells.append(Cell(family, target, l1, l2, 0.0, theta, alpha))
        else:
            x0 = _log_uniform(ua[i], 0.1, 10.0)
            g1 = 1.5 + 8.5 * ub[i]
            g2 = 1.5 + 8.5 * rng.random()
            cells.append(Cell(family, target, g1, g2, x0, theta, alpha))
    return cells


def _edge_alpha(i: int, u: float) -> float:
    """Both tails: every fourth cell at 1e-12 or 1 - 1e-12, the rest log-uniform."""
    if i % 4 == 0:
        return 1e-12 if i % 8 == 0 else 1.0 - 1e-12
    if u < 0.5:
        return _log_uniform(2.0 * u, 1e-12, 1e-2)
    return 1.0 - _log_uniform(2.0 * u - 1.0, 1e-12, 1e-2)


def _edge_theta(i: int, u: float) -> float:
    if i % 3 == 0:
        return 1.0 if i % 6 == 0 else -1.0
    return -1.0 + 2.0 * u


def _edge_scale(i: int, u: float) -> float:
    """Log-uniform over 1e-8..1e8; every eighth cell over 1e-200..1e200."""
    if i % 8 == 1:
        return _log_uniform(u, 1e-200, 1e200)
    return _log_uniform(u, 1e-8, 1e8)


def _edge_cells(rng: random.Random, family: str, target: str, n: int) -> list[Cell]:
    us, ur, ut, ualpha = (_strata(rng, n) for _ in range(4))
    cells = []
    for i in range(n):
        alpha = _edge_alpha(i, ualpha[i])
        theta = _edge_theta(i, ut[i])
        scale = _edge_scale(i, us[i])
        if family == "pareto":
            g1 = 1.0 + _log_uniform(ur[i], 1e-2, 49.0)
            g2 = 1.0 + _log_uniform(rng.random(), 1e-2, 49.0)
            cells.append(Cell(family, target, g1, g2, scale, theta, alpha))
            continue
        if target == "sum" and i % 2 == 0:
            # closed-form path, but within 1e-6..1e-4 of a singular ratio
            k = SUM_SINGULAR_RATIOS[(i // 2) % 3]
            ratio = k * (1.0 + _log_uniform(ur[i], 1.5e-6, 1e-4))
        else:
            ratio = _log_uniform(ur[i], 1e-2, 1e2)
            if target == "sum":
                ratio = _away_from_singular(1.0, ratio)
        cells.append(Cell(family, target, scale, scale * ratio, 0.0, theta, alpha))
    return cells


# Two sums that take the nested-quadrature fallback: an exactly equal rate
# pair, and a 2:1 pair 1e-7 away from exact at theta = -1. The panel is
# fixed, not seeded: one fallback report costs from 0.1 s to over 10 s
# depending on its parameters (rates below 1 run for minutes: rate 1e-4
# takes 86 s and ends in NoConvergence), so seeded fallback cells would make
# the cost of a pass a lottery of the seed. Each panel report takes about
# 1 s, so a run of 30 s holds enough of them (at least 11) for the latency
# tail to fall among them. The two cost about the same, so that the tail,
# which falls about halfway down the panel's samples, does not jump between
# a cheap and a dear cell as the number of passes changes. The seed varies
# every other edge cell.
FALLBACK_PANEL = (
    Cell("exp", "sum", 3.0, 3.0, 0.0, 0.5, 0.9),
    Cell("exp", "sum", 3.0, 6.0 * (1.0 + 1e-7), 0.0, -1.0, 0.9),
)


def build(workload: str, seed: int) -> list[Op]:
    """The operation list of one pass of the workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify":
        return [Op("verify")]
    if workload == "sweep":
        cells = (
            _sweep_cells(rng, "exp", "x1", 20)
            + _sweep_cells(rng, "pareto", "x1", 20)
            + _sweep_cells(rng, "exp", "min", 20)
            + _sweep_cells(rng, "exp", "max", 20)
            + _sweep_cells(rng, "pareto", "min", 20)
            + _sweep_cells(rng, "pareto", "max", 20)
            + _sweep_cells(rng, "exp", "sum", 40)
        )
        rng.shuffle(cells)
        return [Op("table", table_id=t) for t in TABLE_IDS] + [
            Op("report", cell=c) for c in cells
        ]
    if workload == "edge":
        cells = (
            _edge_cells(rng, "exp", "x1", 12)
            + _edge_cells(rng, "pareto", "x1", 12)
            + _edge_cells(rng, "exp", "min", 16)
            + _edge_cells(rng, "exp", "max", 16)
            + _edge_cells(rng, "pareto", "min", 16)
            + _edge_cells(rng, "pareto", "max", 16)
            + _edge_cells(rng, "exp", "sum", 24)
        )
        rng.shuffle(cells)
        # the panel is 2 of 114 operations, just under 2%, so that the
        # latency tail (p99, or the 11th largest below 1000 samples) falls
        # among the panel's samples. The cheap cells come first, so that the
        # first operation, the one the set-up probe times, is never a
        # multi-second fallback.
        return [Op("report", cell=c) for c in cells] + [
            Op("report", cell=c) for c in FALLBACK_PANEL
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
