"""The benchmark's runner still reads every name and field it uses.

perfbench/run.py calls into the library by name (`aggregate.is_singular`,
`cli.main`, `cli.VERIFY_*`, `tables.compute_table`, the report functions)
and reads result fields (`RiskReport.method`, `.tolerance`, the verify
CSV). This runs each operation of the seed-1 `sweep` and `edge` workloads
and the `verify` grid once through the runner's own call, outcome,
span-name and value-checking code, without the mpmath oracle, so a
library change that breaks one of those reads fails here instead of
ending a benchmark run with no metrics.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from copula_risk.errors import CopulaRiskError

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
SPANS = {
    "tables.compute_table", "cli.main", "marginals.report", "extremes.report",
    "aggregate.report", "aggregate.fallback_report",
}


@pytest.fixture(scope="module")
def run():
    # run.py puts perfbench/ on sys.path to import its own modules; take it
    # off again once they are loaded
    saved = list(sys.path)
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.mark.parametrize("workload", ["sweep", "edge", "verify"])
def test_every_operation_runs_through_the_runner(run, workload):
    grid = run.verify_grid_size()
    assert grid == 90
    for op in run.workloads.build(workload, 1):
        try:
            result = run.make_call(op, 1)()
        except Exception as exc:  # counted as failed, as the runner does
            result = exc
        key, units, failed = run.outcome(op, result, grid)
        assert run.span_name(op) in SPANS
        if isinstance(result, Exception):
            # edge fails by design, with typed errors or float overflow
            assert workload == "edge", (op, result)
            assert isinstance(result, (CopulaRiskError, OverflowError)), result
            continue
        if op.kind == "verify":
            assert key[0] == "grid" and key[1] in (0, 1)
            assert (units, failed) == (grid, 0)
        values = run.checked_values(op, result)
        assert len(values) == {"report": 3, "table": 5, "verify": grid}[op.kind]
