"""The library's printed values against the independent mpmath oracle.

perfbench/oracle.py builds every reference to more than 30 digits from the
defining copula expressions: the min and max survival polynomials are
interpolated from the copula itself and the sum's pairs from the joint
density, never from the library's weights. So this checks the FGM pair
table that the min, max and sum laws read, on a fixed grid: the cells of
the 15 published tables and the analytic values of the `verify` grid.
"""

from pathlib import Path

import pytest

pytest.importorskip("mpmath")

from copula_risk import cli  # noqa: E402
from copula_risk.marginals import level_of  # noqa: E402
from copula_risk.tables import (  # noqa: E402
    DEFAULT_EXP_RATES,
    DEFAULT_PARETO_GAMMAS,
    DEFAULT_PARETO_X0,
    TABLES,
    TableSpec,
    build_portfolio,
    compute_measure,
    compute_table,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MEASURES = ("var", "cte", "mot")
REL_TOL = 1e-11


@pytest.fixture
def reference(monkeypatch):
    """(family, target, theta, alpha, measure) -> the oracle's value."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import oracle

    cache = {}

    def ref(family, target, theta, alpha, measure):
        key = (family, target, theta, alpha)
        if key not in cache:
            if family == "exp":
                (p1, p2), x0 = DEFAULT_EXP_RATES, 0.0
            else:
                (p1, p2), x0 = DEFAULT_PARETO_GAMMAS, DEFAULT_PARETO_X0
            cache[key] = oracle.reference(
                family, target, p1, p2, x0, theta, alpha
            )
        return cache[key][MEASURES.index(measure)]

    return ref


def _rel(got, want):
    return float(abs(got - want) / abs(want))


def test_oracle_self_checks(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import oracle

    for name, err in oracle.self_checks():
        assert err < 1e-30, name


def test_published_table_cells(reference):
    errors = {}
    for table_id, tdef in TABLES.items():
        spec = TableSpec(table_id)
        for row in compute_table(spec):
            want = reference(
                tdef.family, tdef.target, row["theta"], spec.alpha,
                tdef.measure,
            )
            errors[table_id, row["theta"]] = _rel(row["value"], want)
    assert len(errors) == 75
    worst = max(errors, key=errors.get)
    assert errors[worst] < REL_TOL, (worst, errors[worst])


def test_verify_grid_analytic_values(reference):
    grid = (
        ("exp", cli.VERIFY_EXP_THETAS, cli.VERIFY_EXP_ALPHAS,
         cli.VERIFY_EXP_TARGETS),
        ("pareto", cli.VERIFY_PARETO_THETAS, cli.VERIFY_PARETO_ALPHAS,
         cli.VERIFY_PARETO_TARGETS),
    )
    errors = {}
    for family, thetas, alphas, targets in grid:
        for theta in thetas:
            p = build_portfolio(family, theta)
            for target in targets:
                for a in map(level_of, alphas):
                    for measure in cli.VERIFY_MEASURES:
                        got = compute_measure(p, target, measure, a)
                        want = reference(family, target, theta, a, measure)
                        errors[family, target, theta, a, measure] = _rel(
                            got, want
                        )
    assert len(errors) == 90
    worst = max(errors, key=errors.get)
    assert errors[worst] < REL_TOL, (worst, errors[worst])


@pytest.mark.parametrize(
    "gammas, want",
    [((0.45, 0.45), 33.22704961902782), ((0.6, 0.3), 45.68750939767206)],
)
def test_countermonotone_pareto_min_cte_is_finite(monkeypatch, gammas, want):
    # at theta = -1 the (1 + theta) term of the min has weight 0, so its
    # exponent g1 + g2 <= 1 does not make the tail expectation diverge
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import oracle

    p = build_portfolio("pareto", -1.0, pareto_x0=1.0, pareto_gammas=gammas)
    got = compute_measure(p, "min", "cte", 0.9)
    ref = oracle.reference("pareto", "min", *gammas, 1.0, -1.0, 0.9)[1]
    assert _rel(got, ref) < REL_TOL
    assert _rel(got, want) < REL_TOL
