"""The benchmark's own arithmetic: percentiles, failure accounting, error scores."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple

EPS = 2.0**-52
# a percentile is reported only with at least this many samples beyond it
TAIL_BEYOND = 10


def nearest_rank(sorted_xs: list, p: float):
    """The nearest-rank p-th percentile (0 < p <= 100) of ascending data."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_xs)))
    return sorted_xs[rank - 1]


def tail_percentile(xs: list) -> tuple[float, float]:
    """(percentile, value) of the latency tail.

    p99 when at least TAIL_BEYOND samples lie beyond it; with fewer samples
    the highest nearest-rank percentile that still has TAIL_BEYOND samples
    beyond it, which is the (n - TAIL_BEYOND)-th smallest; never below the
    median.
    """
    s = sorted(xs)
    n = len(s)
    if n - math.ceil(0.99 * n) >= TAIL_BEYOND:
        return 99.0, nearest_rank(s, 99.0)
    rank = n - TAIL_BEYOND
    if rank < math.ceil(n / 2):
        return 50.0, nearest_rank(s, 50.0)
    return 100.0 * rank / n, s[rank - 1]


class Attempt(NamedTuple):
    """One timed call: it stands for `units` operations, `failed` of which failed.

    A report or table is one operation; a verify grid is one per cell.
    """

    latency_ns: int
    units: int
    failed: int


@dataclass(frozen=True)
class Summary:
    attempted: int
    failed: int
    completed_per_s: float
    p50_ns: float
    tail_p: float
    tail_ns: float
    samples: int


def summarize(attempts, wall_s: float) -> Summary:
    """Throughput and latency over completed calls.

    Failed operations count in `attempted` and `failed` and their time stays
    in wall_s, so they lower the throughput; a call all of whose operations
    failed is left out of the latencies.
    """
    attempted = failed = 0
    lat = array("q")
    for a in attempts:
        attempted += a.units
        failed += a.failed
        if a.failed < a.units:
            lat.append(a.latency_ns)
    if lat:
        lat = array("q", sorted(lat))
        p50 = nearest_rank(lat, 50.0)
        tail_p, tail = tail_percentile(lat)
    else:
        p50 = tail_p = tail = float("nan")
    return Summary(
        attempted=attempted,
        failed=failed,
        completed_per_s=(attempted - failed) / wall_s,
        p50_ns=p50,
        tail_p=tail_p,
        tail_ns=tail,
        samples=len(lat),
    )


def digits_lost(max_rel_err: float) -> float:
    """Decimal digits lost by the worst value: log10(1 + min(err, 1) / eps).

    0 for an exact result and 15.65 (all of them) once the error reaches
    100%; the log makes the worst case of a few hundred values steady.
    """
    return math.log10(1.0 + min(max_rel_err, 1.0) / EPS)


def within_tolerance(value: float, ref: float, tolerance: float, relative: bool) -> bool:
    """Whether value meets the tolerance stated for it, plus one ulp of rounding."""
    bound = tolerance * abs(ref) if relative else tolerance
    return abs(value - ref) <= bound + math.ulp(ref)
