"""Reports of the min, max and sum: VaR is solved once and reused for CTE.

Every composite report takes one root solve for VaR and one for MoT, and
its fields are exactly the values the single-measure functions return.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from copula_risk import cli, extremes, report
from copula_risk.aggregate import (
    AggregateExpPortfolio,
    aggregate_cdf,
    aggregate_cte,
    aggregate_mot,
    aggregate_pdf,
    aggregate_report,
    aggregate_var,
)
from copula_risk.copula import FgmCopula
from copula_risk.errors import DomainError
from copula_risk.extremes import (
    BivariatePortfolio,
    extreme_cte,
    extreme_mot,
    extreme_pdf,
    extreme_report,
    extreme_var,
)
from copula_risk.marginals import Alpha, ExponentialMarginal, ParetoMarginal

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


# a term rate that overflows gives no report of the sum, as it gives no
# single CTE: at rates 1e308 its pair (2*l1, 2*l2) holds b - a = inf - inf,
# whose CTE read NaN
@pytest.mark.parametrize("target", ["sum"], ids=["exp-sum"])
def test_cte_below_its_var_is_a_domain_error(target):
    m = ExponentialMarginal(1e308)
    p = BivariatePortfolio(m, m, FgmCopula(0.5))
    with pytest.raises(DomainError, match="term rates .* must be finite"):
        aggregate_report(p, 0.9)


# no law in the package gives a CTE below its VaR, so a marginal whose mean
# excess is NaN or negative stands in to reach the check every CTE passes
@pytest.mark.parametrize("excess", [float("nan"), -1.0], ids=["nan", "negative"])
def test_law_with_a_cte_below_its_var(excess):
    class Stub(ExponentialMarginal):
        def mean_excess(self, q, s):
            return excess

    law = Stub(0.5)
    with pytest.raises(DomainError, match=r"cte=.* must be at least var="):
        extremes.law_measures(law, 0.9, "cte")
    with pytest.raises(DomainError, match=r"cte=.* must be at least var="):
        extremes.law_report(law, 0.9)


# the min's and max's mean excess forms no term rate, so at rates 1e308 each
# report has a finite CTE above its VaR; both carry the VaR's error, the
# solver's absolute tolerance far above the VaR (library against oracle:
# the min's VaR 1.1513e-308 against 1.2660e-308 and CTE 1.8084e-308 against
# 1.7954e-308, the max's 1.4979e-308 against 2.9574e-308 and 5.6291e-308
# against 3.9767e-308)
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the solver's tolerance 1e-12 is absolute, so a "
    "VaR near 1e-308 is returned as a bracket midpoint",
)
@pytest.mark.parametrize("target", ["min", "max"])
def test_extreme_reports_at_the_largest_rates(oracle, target):
    m = ExponentialMarginal(1e308)
    r = extreme_report(BivariatePortfolio(m, m, FgmCopula(0.5)), target, 0.9)
    assert r.var <= r.cte < float("inf")
    want = oracle.reference("exp", target, 1e308, 1e308, 0.0, 0.5, 0.9)
    for got, ref in zip((r.var, r.cte, r.mot), want):
        assert got == pytest.approx(float(ref), rel=1e-12, abs=0.0)


# the same rates give no CDF, density or VaR of the sum, where the terms
# enter: its NaN was clipped to a CDF of 1.0 at x = 1e-308 (the oracle's is
# 0.2938) and solved to a VaR of 2.996e-308 (the oracle's is 4.034e-308),
# and its density read NaN
@pytest.mark.parametrize("call", [
    lambda p: aggregate_cdf(p, 1e-308),
    lambda p: aggregate_pdf(p, 1e-308),
    lambda p: aggregate_var(p, 0.9),
], ids=["sum-cdf", "sum-pdf", "sum-var"])
def test_overflowed_term_rates_are_a_domain_error(call):
    m = ExponentialMarginal(1e308)
    p = BivariatePortfolio(m, m, FgmCopula(0.5))
    with pytest.raises(DomainError, match="term rates .* must be finite"):
        call(p)


# the min's and max's densities read the copula's partials at the
# marginals, with no term rate: the values are l1 S1 dC/du + l2 S2 dC/dv at
# (S1, S2) and (F1, F2) in mpmath at 60 digits, met to 8 ulps times
# 1 + l1*x + l2*x; at rates 1e200 and l*x = 1600 the max's exp(-l*x)
# underflows, while l*exp(-l*x) is a normal float
@pytest.mark.parametrize("target, rate, x, want", [
    ("min", 1e308, 1e-308, 2.9327592238371466e307),
    ("max", 1e308, 1e-308, 4.4248295995917005e307),
    ("max", 1e200, 8e-198, 7.3357491683560654e-148),
], ids=["min", "max", "max-past-exp-underflow"])
def test_densities_at_the_largest_rates(target, rate, x, want):
    m = ExponentialMarginal(rate)
    p = BivariatePortfolio(m, m, FgmCopula(0.5))
    assert extreme_pdf(p, target, x) == pytest.approx(
        want, rel=8 * 2.0**-52 * (1 + 2 * rate * x), abs=0.0
    )


# at exponents 1e20 the law is all but a point mass at x0 = 1 (the oracle's
# VaR and CTE are 1.0): the mean excess beyond the solved VaR underflows to
# 0, so CTE is that VaR, within the solver tolerance of the oracle
@pytest.mark.parametrize("target", ["max", "min"], ids=["pareto-max", "pareto-min"])
def test_cte_may_round_onto_its_var(target):
    m = ParetoMarginal(1.0, 1e20)
    r = extreme_report(BivariatePortfolio(m, m, FgmCopula(0.5)), target, 0.9)
    assert r.cte == r.var == 1.000000000000007


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


# each constructor stores the float its check converted the parameter to,
# so a Decimal, a Fraction or a float32 measures as that float does
@pytest.mark.parametrize("kind", [Decimal, Fraction, np.float32])
def test_parameters_measure_as_the_floats_they_convert_to(kind):
    def both(make, *values):
        """make of the values as kind, and of the floats they convert to."""
        converted = [kind(str(v)) for v in values]
        return make(*converted), make(*map(float, converted))

    alpha, alpha_f = both(Alpha, 0.9)
    cop, cop_f = both(FgmCopula, 0.5)
    families = [
        (both(ExponentialMarginal, 0.5), both(ExponentialMarginal, 0.6)),
        (both(ParetoMarginal, 1.0, 3.0), both(ParetoMarginal, 1.0, 4.0)),
    ]
    for (m1, m1_f), (m2, m2_f) in families:
        p = BivariatePortfolio(m1, m2, cop)
        p_f = BivariatePortfolio(m1_f, m2_f, cop_f)
        got = [report(m1, alpha), report(m2, alpha)]
        want = [report(m1_f, alpha_f), report(m2_f, alpha_f)]
        for which in ("min", "max"):
            got.append(extreme_report(p, which, alpha))
            want.append(extreme_report(p_f, which, alpha_f))
        if isinstance(m1, ExponentialMarginal):
            got.append(aggregate_report(p, alpha))
            want.append(aggregate_report(p_f, alpha_f))
        assert got == want
        assert all(type(r.cte) is float for r in got)
