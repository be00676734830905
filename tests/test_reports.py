"""Reports of the min, max and sum: VaR is solved once and reused for CTE.

Every composite report takes one root solve for VaR and one for MoT, and
its fields are exactly the values the single-measure functions return.
"""

import pytest

from copula_risk import cli, extremes
from copula_risk.aggregate import (
    AggregateExpPortfolio,
    aggregate_cte,
    aggregate_mot,
    aggregate_report,
    aggregate_var,
)
from copula_risk.copula import FgmCopula
from copula_risk.extremes import (
    BivariatePortfolio,
    extreme_cte,
    extreme_mot,
    extreme_report,
    extreme_var,
)
from copula_risk.marginals import ExponentialMarginal, ParetoMarginal

E1, E2 = ExponentialMarginal(0.5), ExponentialMarginal(0.6)
P1, P2 = ParetoMarginal(1.0, 3.0), ParetoMarginal(1.0, 4.0)
THETAS = (-1.0, 0.0, 0.5, 1.0)
ALPHAS = (0.5, 0.9, 0.99)


@pytest.fixture
def solved_levels(monkeypatch):
    """Targets of every root solve a composite makes, in call order."""
    levels = []
    original = extremes.solve_increasing

    def counted(f, target, *args, **kwargs):
        levels.append(target)
        return original(f, target, *args, **kwargs)

    monkeypatch.setattr(extremes, "solve_increasing", counted)
    return levels


@pytest.mark.parametrize("m1, m2", [(E1, E2), (P1, P2)], ids=["exp", "pareto"])
@pytest.mark.parametrize("which", ["min", "max"])
def test_extreme_report_solves_twice(solved_levels, m1, m2, which):
    p = BivariatePortfolio(m1, m2, FgmCopula(0.5))
    extreme_report(p, which, 0.9)
    assert solved_levels == [0.9, 0.95]


def test_aggregate_report_solves_twice(solved_levels):
    aggregate_report(AggregateExpPortfolio(E1, E2, FgmCopula(0.5)), 0.9)
    assert solved_levels == [0.9, 0.95]


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("m1, m2", [(E1, E2), (P1, P2)], ids=["exp", "pareto"])
@pytest.mark.parametrize("which", ["min", "max"])
def test_extreme_report_matches_measures(theta, alpha, m1, m2, which):
    p = BivariatePortfolio(m1, m2, FgmCopula(theta))
    r = extreme_report(p, which, alpha)
    assert r.var == extreme_var(p, which, alpha)
    assert r.cte == extreme_cte(p, which, alpha)
    assert r.mot == extreme_mot(p, which, alpha)


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("alpha", ALPHAS)
def test_aggregate_report_matches_measures(theta, alpha):
    p = AggregateExpPortfolio(E1, E2, FgmCopula(theta))
    r = aggregate_report(p, alpha)
    assert r.var == aggregate_var(p, alpha)
    assert r.cte == aggregate_cte(p, alpha)
    assert r.mot == aggregate_mot(p, alpha)


@pytest.mark.parametrize(
    "argv, solves",
    [
        # one report per (target, alpha): VaR and MoT, over 8 exponential
        # (theta, alpha) cells of 3 targets and 3 Pareto cells of 2
        (["verify", "--mc-n", "2000"], 60),
        # one VaR per theta, which the CTE beside it reuses
        (["figure", "1"], 5),
        (["figure", "3"], 5),
        (["table", "2"], 5),
        (["measure", "--dist", "exp", "--target", "min", "--measure", "cte"], 1),
    ],
    ids=["verify", "figure-1", "figure-3", "table-2", "measure-cte"],
)
def test_cli_solves_each_level_once(solved_levels, capsys, argv, solves):
    assert cli.main(argv) in (0, 1)
    capsys.readouterr()
    assert len(solved_levels) == solves
