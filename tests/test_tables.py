import math

import pytest

from copula_risk.errors import DomainError
from copula_risk.marginals import Method
from copula_risk.tables import (
    DEFAULT_THETA_GRID,
    FIGURES,
    TABLES,
    TableSpec,
    build_portfolio,
    compute_measure,
    compute_table,
    law_of,
)

# Full-precision recomputation of all 15 tables by an external oracle
# (scipy brentq on the copula-composed CDFs; tail quadrature for CTE),
# frozen here as the regression reference for the analytic pipeline.
TABLE_TRUTH = {
    1: (2.1353573273, 2.2186972534, 2.3002922439, 2.3795794962, 2.4561745205),
    2: (3.0581370293, 3.1640732039, 3.2629166039, 3.3552006393, 3.4414628767),
    3: (5.4659861926, 5.4574872916, 5.4488728983, 5.4401395161, 5.4312834802),
    4: (7.3695408119, 7.3653735306, 7.3611682230, 7.3569240208, 7.3526400220),
    5: (1.3986169509, 1.4168568973, 1.4349554012, 1.4527754297, 1.4702132650),
    6: (1.6356150722, 1.6634737588, 1.6897855379, 1.7146466299, 1.7381575605),
    7: (2.4007652747, 2.3978179508, 2.3948371485, 2.3918219606, 2.3887714402),
    8: (3.4996452290, 3.4980120999, 3.4963672715, 3.4947105116, 3.4930415802),
    9: (7.1920499681, 7.2969479055, 7.4024531449, 7.5081672923, 7.6137121993),
    10: (9.4434320801, 9.5873147142, 9.7265978866, 9.8613457252, 9.9916433941),
    11: (2.7771144191, 2.8802077125, 2.9773625030, 3.0686584689, 3.1543545678),
    12: (6.7871521009, 6.7830086502, 6.7788371384, 6.7746371421, 6.7704082277),
    13: (1.5470022712, 1.5720294096, 1.5960071607, 1.6188925682, 1.6406909798),
    14: (2.9789518869, 2.9772545494, 2.9755480188, 2.9738321765, 2.9721069014),
    15: (8.7884890425, 8.9272071000, 9.0627109795, 9.1947324057, 9.3230940231),
}


@pytest.mark.parametrize("table_id", sorted(TABLES))
def test_matches_frozen_oracle(table_id):
    rows = compute_table(TableSpec(table_id=table_id))
    assert [r["theta"] for r in rows] == list(DEFAULT_THETA_GRID)
    for row, truth in zip(rows, TABLE_TRUTH[table_id]):
        assert row["value"] == pytest.approx(truth, abs=2e-6)


@pytest.mark.parametrize("table_id", sorted(TABLES))
def test_published_values_attached_with_delta(table_id):
    tdef = TABLES[table_id]
    for row in compute_table(TableSpec(table_id=table_id)):
        printed = tdef.printed[row["theta"]]
        assert row["paper_value"] == printed
        assert row["delta"] == pytest.approx(row["value"] - printed, abs=1e-15)
        assert row["table_id"] == table_id
        assert row["measure"] == tdef.measure
        assert row["target"] == tdef.target


def test_nonsuspect_cells_reproduce_published_values():
    for table_id, tdef in TABLES.items():
        if table_id in (11, 13):
            continue  # tables with a demonstrated misprint are covered below
        for row in compute_table(TableSpec(table_id=table_id)):
            if row["theta"] in tdef.suspect_thetas:
                continue
            assert abs(row["delta"]) <= 0.02, (table_id, row)


def test_suspect_cells_disagree_with_print():
    # these published entries fail recomputation from their own defining
    # equations (confirmed by quadrature and Monte Carlo); the pipeline
    # must surface the disagreement, not hide it
    expected_suspects = {2: {0.5}, 11: {0.1}, 13: {0.1}}
    for table_id, thetas in expected_suspects.items():
        assert TABLES[table_id].suspect_thetas == frozenset(thetas)
        for row in compute_table(TableSpec(table_id=table_id)):
            if row["theta"] in thetas:
                assert abs(row["delta"]) > 0.02


def test_invalid_table_id():
    with pytest.raises(DomainError):
        TableSpec(table_id=16)
    with pytest.raises(DomainError):
        TableSpec(table_id=0)


def test_figures_map_to_var_cte_table_pairs():
    assert FIGURES == {1: (1, 2), 2: (5, 6), 3: (9, 10)}
    for var_id, cte_id in FIGURES.values():
        assert TABLES[var_id].measure == "var"
        assert TABLES[cte_id].measure == "cte"
        assert TABLES[var_id].target == TABLES[cte_id].target


def test_build_portfolio_rejects_pareto_sum():
    # one portfolio serves every target; the sum's law rejects Pareto
    # marginals when the sum is measured
    pareto = build_portfolio("pareto", 0.5)
    for measure in ("var", "cte", "mot"):
        with pytest.raises(DomainError):
            compute_measure(pareto, "sum", measure, 0.9)
    with pytest.raises(DomainError):
        build_portfolio("lognormal", 0.5)


@pytest.mark.parametrize("target", ["x1", "min", "sum"])
def test_unknown_measure_is_a_domain_error(target):
    with pytest.raises(DomainError, match="'foo'"):
        compute_measure(build_portfolio("exp", 0.5), target, "foo", 0.9)


TARGETS = ("x1", "x2", "min", "max", "sum")


def test_law_of_every_target_states_its_method():
    p = build_portfolio("exp", 0.5)
    # a marginal is the law of its own target
    assert law_of(p, "x1") is p.m1
    assert law_of(p, "x2") is p.m2
    for target in TARGETS:
        solved = target in ("min", "max", "sum")
        want = Method.ROOT_SOLVE if solved else Method.CLOSED_FORM
        assert law_of(p, target).method is want


@pytest.mark.parametrize("measure", ["var", ("var", "cte", "mot")])
def test_unknown_target_names_all_five(measure):
    p = build_portfolio("exp", 0.5)
    with pytest.raises(DomainError, match="x1, x2, min, max or sum, got 'x3'"):
        law_of(p, "x3")
    with pytest.raises(DomainError, match="x1, x2, min, max or sum, got 'x3'"):
        compute_measure(p, "x3", measure, 0.9)


@pytest.mark.parametrize(
    "family, target",
    [(f, t) for f in ("exp", "pareto") for t in TARGETS if (f, t) != ("pareto", "sum")],
)
def test_a_tuple_of_measures_gives_each_value_in_order(family, target):
    p = build_portfolio(family, -0.4)
    order = ("mot", "var", "cte", "var")
    values = compute_measure(p, target, order, 0.95)
    assert values == tuple(compute_measure(p, target, m, 0.95) for m in order)
    with pytest.raises(DomainError, match="'foo'"):
        compute_measure(p, target, ("var", "foo"), 0.95)


@pytest.mark.parametrize(
    "family, target",
    [("exp", t) for t in TARGETS] + [("pareto", "min"), ("pareto", "max")],
)
@pytest.mark.parametrize("measure", ["mot", ("var", "cte", "mot")])
def test_mot_level_rounding_to_one_is_a_domain_error(family, target, measure):
    # (1 + alpha)/2 rounds to 1.0 for the largest alpha below 1, and a
    # solved CDF rounds to 1.0 at a finite x (34.396 for the exp min at
    # theta = 0.5), which must not pass for the MoT. A marginal's closed
    # form reads the exact tail mass 2**-54: -log(2**-54)/rate
    alpha = 1.0 - 2.0**-53
    p = build_portfolio(family, 0.5)
    if target in ("x1", "x2"):
        rate = (p.m1 if target == "x1" else p.m2).rate
        value = compute_measure(p, target, measure, alpha)
        mot = value[-1] if isinstance(measure, tuple) else value
        assert mot == pytest.approx(54.0 * math.log(2.0) / rate, rel=5e-16)
    else:
        with pytest.raises(DomainError, match="must lie in \\[0, 1\\)"):
            compute_measure(p, target, measure, alpha)
    var, cte = compute_measure(p, target, ("var", "cte"), alpha)
    assert var < cte
