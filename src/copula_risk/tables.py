"""Registry of the published reference tables and their computation.

Each of the fifteen tables fixes a family, a target and a measure at
alpha = 0.9 over the dependence grid theta in {0.1, ..., 0.9}. The
registry keeps the values exactly as published; the `suspect_thetas`
field marks cells whose published entry fails independent recomputation
from the defining equations (the computed value also disagrees with a
Monte Carlo estimate by far more than sampling error, so the published
entries themselves appear to be misprints). Computed output never
substitutes a published value: tables always carry both plus their delta.

`build_portfolio` assembles one `BivariatePortfolio` per family and theta.
`law_of` gives the law of any target on it: a marginal (x1, x2), the
minimum, the maximum or the sum; only the sum's law restricts the family,
raising DomainError for Pareto marginals. `compute_measure` measures that
law through `extremes.law_measures`, the one path of every measure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from .aggregate import _SumLaw
from .copula import FgmCopula
from .errors import DomainError
from .extremes import BivariatePortfolio, _mixture, law_measures
from .marginals import ExponentialMarginal, MarginalLaw, ParetoMarginal

DEFAULT_THETA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
DEFAULT_EXP_RATES = (0.5, 0.6)
DEFAULT_PARETO_X0 = 1.0
DEFAULT_PARETO_GAMMAS = (3.0, 4.0)
DEFAULT_TABLE_ALPHA = 0.9


@dataclass(frozen=True)
class TableDef:
    """One published table: what it measures and the values it prints."""

    table_id: int
    family: str  # "exp" | "pareto"
    target: str  # "min" | "max" | "sum"
    measure: str  # "var" | "cte" | "mot"
    printed: Mapping[float, float]
    suspect_thetas: frozenset = field(default_factory=frozenset)


def _tdef(tid, family, target, measure, values, suspect=()):
    return TableDef(
        table_id=tid,
        family=family,
        target=target,
        measure=measure,
        printed=dict(zip(DEFAULT_THETA_GRID, values)),
        suspect_thetas=frozenset(suspect),
    )


TABLES: dict[int, TableDef] = {
    1: _tdef(1, "exp", "min", "var", (2.14, 2.22, 2.3, 2.38, 2.45)),
    2: _tdef(2, "exp", "min", "cte", (3.04, 3.17, 3.23, 3.35, 3.44), {0.5}),
    3: _tdef(3, "exp", "max", "var", (5.46, 5.45, 5.45, 5.44, 5.43)),
    4: _tdef(4, "exp", "max", "cte", (7.369, 7.366, 7.361, 7.356, 7.351)),
    5: _tdef(5, "pareto", "min", "var", (1.39, 1.41, 1.43, 1.45, 1.47)),
    6: _tdef(6, "pareto", "min", "cte", (1.63, 1.66, 1.69, 1.71, 1.74)),
    7: _tdef(7, "pareto", "max", "var", (2.401, 2.40, 2.395, 2.39, 2.387)),
    8: _tdef(8, "pareto", "max", "cte", (3.50, 3.49, 3.49, 3.49, 3.49)),
    9: _tdef(9, "exp", "sum", "var", (7.19, 7.30, 7.40, 7.51, 7.61)),
    10: _tdef(10, "exp", "sum", "cte", (9.44, 9.58, 9.72, 9.86, 9.99)),
    11: _tdef(11, "exp", "min", "mot", (2.64, 2.88, 2.97, 3.07, 3.14), {0.1}),
    12: _tdef(12, "exp", "max", "mot", (6.77, 6.77, 6.78, 6.77, 6.77)),
    13: _tdef(13, "pareto", "min", "mot", (1.52, 1.55, 1.58, 1.61, 1.64), {0.1}),
    14: _tdef(14, "pareto", "max", "mot", (2.98, 2.98, 2.975, 2.97, 2.97)),
    15: _tdef(15, "exp", "sum", "mot", (8.78, 8.93, 9.05, 9.20, 9.31)),
}

# figure id -> (VaR table id, CTE table id) whose series it plots
FIGURES: dict[int, tuple[int, int]] = {1: (1, 2), 2: (5, 6), 3: (9, 10)}


@dataclass(frozen=True)
class TableSpec:
    """A table request: which table, over which grid and parameters."""

    table_id: int
    theta_grid: tuple = DEFAULT_THETA_GRID
    alpha: float = DEFAULT_TABLE_ALPHA
    exp_rates: tuple = DEFAULT_EXP_RATES
    pareto_x0: float = DEFAULT_PARETO_X0
    pareto_gammas: tuple = DEFAULT_PARETO_GAMMAS

    def __post_init__(self) -> None:
        if self.table_id not in TABLES:
            raise DomainError(f"table_id must lie in 1..15, got {self.table_id}")

    @property
    def is_reference_setup(self) -> bool:
        """True when parameters match the published tables' settings."""
        return (
            self.alpha == DEFAULT_TABLE_ALPHA
            and tuple(self.exp_rates) == DEFAULT_EXP_RATES
            and self.pareto_x0 == DEFAULT_PARETO_X0
            and tuple(self.pareto_gammas) == DEFAULT_PARETO_GAMMAS
        )


def build_portfolio(
    family: str,
    theta: float,
    exp_rates=DEFAULT_EXP_RATES,
    pareto_x0=DEFAULT_PARETO_X0,
    pareto_gammas=DEFAULT_PARETO_GAMMAS,
) -> BivariatePortfolio:
    """The one portfolio of a family that every target is measured on."""
    if family == "exp":
        m1 = ExponentialMarginal(exp_rates[0])
        m2 = ExponentialMarginal(exp_rates[1])
    elif family == "pareto":
        m1 = ParetoMarginal(pareto_x0, pareto_gammas[0])
        m2 = ParetoMarginal(pareto_x0, pareto_gammas[1])
    else:
        raise DomainError(f"family must be 'exp' or 'pareto', got {family!r}")
    return BivariatePortfolio(m1, m2, FgmCopula(theta))


def law_of(portfolio: BivariatePortfolio, target: str):
    """The law of x1, x2, min, max or sum on the portfolio."""
    if target in ("x1", "x2"):
        return MarginalLaw(portfolio.m1 if target == "x1" else portfolio.m2)
    if target in ("min", "max"):
        return _mixture(portfolio, target)
    if target == "sum":
        return _SumLaw(portfolio)
    raise DomainError(f"target must be x1, x2, min, max or sum, got {target!r}")


def compute_measure(
    portfolio: BivariatePortfolio, target: str, measure, alpha: float
):
    """One measure of one target on a portfolio, or a tuple of measures'
    values in the order asked: `law_measures` on `law_of`.

    Raises DomainError for an unknown target or measure, and for a sum of
    marginals that are not exponential.
    """
    return law_measures(law_of(portfolio, target), alpha, measure)


def _printed_value(tdef: TableDef, theta: float) -> Optional[float]:
    for k, v in tdef.printed.items():
        if abs(k - theta) < 1e-9:
            return v
    return None


def compute_table(spec: TableSpec) -> list[dict]:
    """One row per theta: computed value, published value and their delta.

    The published value is attached only when the request runs the
    tables' own parameter settings; rounding is for display elsewhere,
    never here.
    """
    tdef = TABLES[spec.table_id]
    rows = []
    for theta in spec.theta_grid:
        portfolio = build_portfolio(
            tdef.family,
            theta,
            exp_rates=spec.exp_rates,
            pareto_x0=spec.pareto_x0,
            pareto_gammas=spec.pareto_gammas,
        )
        value = compute_measure(portfolio, tdef.target, tdef.measure, spec.alpha)
        published = (
            _printed_value(tdef, theta) if spec.is_reference_setup else None
        )
        rows.append(
            {
                "table_id": tdef.table_id,
                "theta": theta,
                "measure": tdef.measure,
                "target": tdef.target,
                "value": value,
                "paper_value": published,
                "delta": None if published is None else value - published,
            }
        )
    return rows
