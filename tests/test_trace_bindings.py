"""The benchmark's layer tracing still finds every name it rebinds.

perfbench/tracing.py traces the program by rebinding module-level names
(the root solver in `extremes` and `aggregate`, the samplers and
estimators in `cli`, ...). This test fails as soon as the library drops
or renames one of them, instead of leaving it to the harness's own tests.
"""

from pathlib import Path

from copula_risk import extremes
from copula_risk.aggregate import AggregateExpPortfolio, aggregate_report
from copula_risk.copula import FgmCopula
from copula_risk.marginals import ExponentialMarginal

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_layer_tracing_binds_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    original = extremes.solve_increasing
    p = AggregateExpPortfolio(
        ExponentialMarginal(0.5), ExponentialMarginal(0.6), FgmCopula(0.5)
    )
    plain = aggregate_report(p, 0.9)
    with tracing.layer_tracing(tracing.Tracer()) as t:
        traced = aggregate_report(p, 0.9)
    assert traced == plain
    assert extremes.solve_increasing is original
    # sums solve through the traced solver too: VaR and MoT
    assert t.counts["numerics.solves"] == 2
