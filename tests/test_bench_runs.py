"""A short timed run of each benchmark workload exits 0 and reads correct,
in both modes: end to end (`--trace 0`) and per layer (`--trace 1`, which
rebinds the library's layer boundaries to traced wrappers).

perfbench/run.py ends with one JSON line whose "correct" field is true only
when every check of its `check()` holds: the mpmath oracle's self-checks,
the same result on every pass and, on `sweep` and `verify`, every value
within 1e-6 of the oracle's reference. test_bench_contract.py runs each
operation without the oracle; this runs the whole command, about 5 s per
workload and mode.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload", ["sweep", "edge", "verify"])
def test_short_run_is_correct(workload):
    _assert_correct(workload, "0")


@pytest.mark.parametrize("workload", ["sweep", "edge", "verify"])
def test_short_traced_run_is_correct(workload):
    _assert_correct(workload, "1")


def _assert_correct(workload, trace):
    pytest.importorskip("mpmath")
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", trace],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, last
