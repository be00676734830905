from pathlib import Path

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "package", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("package")

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def oracle(monkeypatch):
    """perfbench/oracle.py: 60-digit mpmath references of every measure,
    built from the defining copula expressions. Skips without mpmath."""
    pytest.importorskip("mpmath")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import oracle

    return oracle
