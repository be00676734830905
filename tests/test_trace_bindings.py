"""The benchmark's layer tracing still finds every name it rebinds.

perfbench/tracing.py traces the program by rebinding module-level names
(the root solver in `extremes` and `aggregate`, the samplers and
estimators in `cli`, ...). This test fails as soon as the library drops
or renames one of them, instead of leaving it to the harness's own tests,
and as soon as the min or max stop solving on the two mixture classes
whose CDFs it times.
The tracer's span stack is not thread-safe, so every traced call must
also stay on the calling thread.
"""

import os
import threading
from pathlib import Path

import pytest

from copula_risk import cli, extremes
from copula_risk.aggregate import AggregateExpPortfolio, aggregate_report
from copula_risk.copula import FgmCopula
from copula_risk.marginals import ExponentialMarginal
from copula_risk.tables import build_portfolio

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


@pytest.mark.parametrize("which", ["min", "max"])
@pytest.mark.parametrize("family", ["exp", "pareto"])
def test_every_extreme_cdf_evaluation_is_a_mixture_span(
    monkeypatch, family, which
):
    # the harness times mixture CDFs by the bound method's class; were the
    # min or max solved on another class or through a closure, mixtures.cdf
    # would read 0. At alpha = 0.1 the VaR is solved on the CDF and the MoT,
    # at 0.55, on the survival; at alpha = 0.9 both on the survival.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    for alpha in (0.1, 0.9):
        with tracing.layer_tracing(tracing.Tracer()) as t:
            extremes.extreme_report(build_portfolio(family, 0.5), which, alpha)
        evals = t.counts["numerics.solve_evals"]
        assert evals > 0
        assert t.count("mixtures.cdf") == evals


def test_traced_verify_spans_run_on_the_calling_thread(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    # two usable CPUs at least, so verify's stages start their pool threads
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
    )

    class Recording(tracing.Tracer):
        def __init__(self):
            super().__init__()
            self.threads = set()

        def enter(self, name):
            self.threads.add(threading.current_thread())
            super().enter(name)

    with tracing.layer_tracing(Recording()) as t:
        cli.main(["verify", "--mc-n", "20000"])
    capsys.readouterr()
    assert t.threads == {threading.main_thread()}
    for name in ("mc_oracle.sample", "mc_oracle.estimate",
                 "tables.compute_measure", "cli.verify_cells"):
        assert t.count(name) >= 1, name
    assert t._stack == []
