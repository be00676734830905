"""The library's printed values against the independent mpmath oracle.

perfbench/oracle.py builds every reference to more than 30 digits from the
defining copula expressions: the min and max survival polynomials are
interpolated from the copula itself and the sum's pairs from the joint
density, never from the library's weights. So this checks the FGM pair
table that the min, max and sum laws read, on a fixed grid: the cells of
the 15 published tables and the analytic values of the `verify` grid.

The extremes' CDFs are also fuzzed against the copula formula itself,
F_max = C(F1, F2) and F_min = 1 - C^(S1, S2), in mpmath at 60 digits, the
sum's CDF and tail integral against the oracle's pair survival, and the
CTE of every solved target against the oracle's at 1e-14 relative.
"""

import math

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from copula_risk import cli
from copula_risk.aggregate import AggregateExpPortfolio, _SumLaw, aggregate_cdf
from copula_risk.copula import FgmCopula
from copula_risk.extremes import BivariatePortfolio, extreme_cdf
from copula_risk.marginals import ExponentialMarginal, ParetoMarginal, level_of
from copula_risk.tables import (
    DEFAULT_EXP_RATES,
    DEFAULT_PARETO_GAMMAS,
    DEFAULT_PARETO_X0,
    DEFAULT_TABLE_ALPHA,
    TABLES,
    TableSpec,
    build_portfolio,
    compute_measure,
    compute_table,
)

MEASURES = ("var", "cte", "mot")
REL_TOL = 1e-11
CDF_REL_TOL = 2e-15
SUM_CDF_ABS_TOL = 4 * 2.0**-52
SUM_TAIL_REL_TOL = 1e-14
CTE_REL_TOL = 1e-14

exponents = st.floats(-200.0, 200.0)
thetas = st.one_of(st.sampled_from((-1.0, 1.0)), st.floats(-1.0, 1.0))
targets = st.sampled_from(("min", "max"))


@pytest.fixture
def reference(oracle):
    """(family, target, theta, alpha, measure) -> the oracle's value."""
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


def test_oracle_self_checks(oracle):
    for name, err in oracle.self_checks():
        assert err < 1e-30, name


def test_published_table_cells(reference):
    errors = {}
    for table_id, tdef in TABLES.items():
        for row in compute_table(TableSpec(table_id)):
            want = reference(
                tdef.family, tdef.target, row["theta"], DEFAULT_TABLE_ALPHA,
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
def test_countermonotone_pareto_min_cte_is_finite(oracle, gammas, want):
    # at theta = -1 the (1 + theta) term of the min has weight 0, so its
    # exponent g1 + g2 <= 1 does not make the tail expectation diverge
    p = build_portfolio("pareto", -1.0, pareto_x0=1.0, pareto_gammas=gammas)
    got = compute_measure(p, "min", "cte", 0.9)
    ref = oracle.reference("pareto", "min", *gammas, 1.0, -1.0, 0.9)[1]
    assert _rel(got, ref) < REL_TOL
    assert _rel(got, want) < REL_TOL


def _copula_cdf_rel_error(p, target, x):
    """Relative error of extreme_cdf at x against the copula formula at 60
    digits, from the float x and parameters. oracle.Cell.cdf is not the
    judge here: it rounds to 2**-53 near 0."""
    mp = pytest.importorskip("mpmath")
    got = extreme_cdf(p, target, x)
    with mp.workdps(60):
        x, theta = mp.mpf(x), p.copula.theta
        if isinstance(p.m1, ExponentialMarginal):
            s1, s2 = (mp.exp(-mp.mpf(m.rate) * x) for m in (p.m1, p.m2))
        else:
            s1, s2 = ((mp.mpf(m.x0) / x) ** m.gamma for m in (p.m1, p.m2))
        f1, f2 = 1 - s1, 1 - s2
        if target == "max":
            want = f1 * f2 * (1 + theta * s1 * s2)
        else:
            want = 1 - s1 * s2 * (1 + theta * f1 * f2)
        return float(abs(got - want) / want)


@settings(max_examples=400)
@given(
    l1=exponents.map(lambda e: 10.0**e),
    ratio=st.one_of(
        st.sampled_from((1.0, 2.0)), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
    ),
    theta=thetas,
    t=st.floats(-12.0, math.log10(50.0)).map(lambda e: 10.0**e),
    target=targets,
)
def test_exp_extreme_cdf_is_the_copula_formula(l1, ratio, theta, t, target):
    # rates log-uniform over 1e-200..1e200 (the second within 1e3 of the
    # first), at t = l1 * x from 1e-12 to 50: both tails of either extreme
    p = BivariatePortfolio(
        ExponentialMarginal(l1), ExponentialMarginal(l1 * ratio), FgmCopula(theta)
    )
    assert _copula_cdf_rel_error(p, target, t / l1) <= CDF_REL_TOL


# log(x/x0) is log1p((x - x0)/x0) below 2*x0 and log of the ratio above;
# the next test takes the ratio past the float range
@example(x0=1.0, g1=3.0, g2=4.0, theta=0.5, rel=1.0 + 1e-9, target="min")
@example(x0=1.0, g1=3.0, g2=4.0, theta=-1.0, rel=1.0 + 1e-12, target="max")
@example(x0=1.0, g1=3.0, g2=4.0, theta=1.0, rel=10.0, target="min")
@given(
    x0=exponents.map(lambda e: 10.0**e),
    g1=st.floats(1.0, 50.0, exclude_min=True),
    g2=st.floats(1.0, 50.0, exclude_min=True),
    theta=thetas,
    rel=st.floats(1.0 + 1e-12, 10.0),
    target=targets,
)
def test_pareto_extreme_cdf_is_the_copula_formula(x0, g1, g2, theta, rel, target):
    p = BivariatePortfolio(
        ParetoMarginal(x0, g1), ParetoMarginal(x0, g2), FgmCopula(theta)
    )
    assert _copula_cdf_rel_error(p, target, x0 * rel) <= CDF_REL_TOL


@pytest.mark.parametrize("theta", [-1.0, 0.0, 0.5, 1.0])
@pytest.mark.parametrize("target", ["min", "max"])
def test_pareto_extreme_cdf_where_x_over_x0_overflows(theta, target):
    # x / x0 = 1e400 is past the float range; its log is not
    p = BivariatePortfolio(
        ParetoMarginal(1e-200, 0.01), ParetoMarginal(1e-200, 0.02),
        FgmCopula(theta),
    )
    assert _copula_cdf_rel_error(p, target, 1e200) <= CDF_REL_TOL


# rate ratios at 1, 2 and 1/2 (where a pair of the sum is Erlang), within
# 1e-12 to 1e-4 of them, and log-uniform over 1e-3..1e3
_singular_ratios = st.sampled_from((1.0, 2.0, 0.5))
sum_ratios = st.one_of(
    _singular_ratios,
    st.tuples(
        _singular_ratios,
        st.sampled_from((-1.0, 1.0)),
        st.floats(-12.0, -4.0).map(lambda e: 10.0**e),
    ).map(lambda r: r[0] * (1.0 + r[1] * r[2])),
    st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
)


# Erlang pairs at both ends of the rate range
@example(l1=1e200, ratio=1.0, theta=0.0, t=1e-3)
@example(l1=1e200, ratio=2.0, theta=1.0, t=50.0)
@example(l1=1e-200, ratio=0.5, theta=-1.0, t=1e-12)
# the oracle fixture is a stateless module, safe to share between examples
@settings(
    max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    l1=exponents.map(lambda e: 10.0**e),
    ratio=sum_ratios,
    theta=st.one_of(st.sampled_from((-1.0, 0.0, 1.0)), st.floats(-1.0, 1.0)),
    t=st.floats(-12.0, math.log10(50.0)).map(lambda e: 10.0**e),
)
def test_exp_sum_is_the_oracle_pair_survival(oracle, l1, ratio, theta, t):
    # t = x * (the smaller rate) from 1e-12 to 50; the CDF is judged in
    # absolute terms, the tail integral int_x^inf S relative to itself
    # where t >= 1e-3
    mp = pytest.importorskip("mpmath")
    l2 = l1 * ratio
    p = AggregateExpPortfolio(
        ExponentialMarginal(l1), ExponentialMarginal(l2), FgmCopula(theta)
    )
    x = t / min(l1, l2)
    got_cdf = aggregate_cdf(p, x)
    # the mean excess at tail mass 1 is the integral of S beyond x
    got_tail = _SumLaw(p).mean_excess(x, 1.0) if t >= 1e-3 else None
    with mp.workdps(60):
        cell = oracle.Cell("exp", "sum", l1, l2, 0.0, theta, 0.5)
        s = cell.survival(mp.mpf(x))
        assert float(abs(got_cdf - (1 - s))) <= SUM_CDF_ABS_TOL
        if got_tail is not None:
            want = cell.tail_integral(mp.mpf(x))
            assert float(abs(got_tail - want) / want) <= SUM_TAIL_REL_TOL


moderate = st.floats(-2.0, 2.0).map(lambda e: 10.0**e)


@st.composite
def cte_cells(draw):
    """A solved target's (family, target, p1, p2, x0): exponential rates,
    the second also at the ratios 1, 2 and 1/2 to the first, or Pareto x0
    with tail exponents in [1.05, 50]."""
    family = draw(st.sampled_from(("exp", "pareto")))
    if family == "exp":
        l1 = draw(moderate)
        ratio = draw(st.sampled_from((None, 1.0, 2.0, 0.5)))
        l2 = draw(moderate) if ratio is None else l1 * ratio
        target = draw(st.sampled_from(("min", "max", "sum")))
        return family, target, l1, l2, 0.0
    g1, g2 = (draw(st.floats(1.05, 50.0)) for _ in range(2))
    return family, draw(targets), g1, g2, draw(moderate)


@settings(
    max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    cell=cte_cells(),
    theta=st.one_of(st.sampled_from((-1.0, 1.0)), st.floats(-1.0, 1.0)),
    alpha=st.floats(0.01, 1.0 - 1e-6),
)
def test_cte_is_the_oracle(oracle, cell, theta, alpha):
    # rates and x0 log-uniform over 1e-2..1e2; the oracle's CTE is its VaR
    # plus the integral of S beyond it over 1 - alpha, to 30 digits
    family, target, p1, p2, x0 = cell
    if family == "exp":
        p = build_portfolio("exp", theta, exp_rates=(p1, p2))
    else:
        p = build_portfolio(
            "pareto", theta, pareto_x0=x0, pareto_gammas=(p1, p2)
        )
    got = compute_measure(p, target, "cte", alpha)
    with oracle.mpmath.workdps(oracle.DPS):
        ref = oracle.Cell(family, target, p1, p2, x0, theta, alpha)
        var = ref.quantile(ref.alpha)
        want = var + ref.tail_integral(var) / (1 - ref.alpha)
    assert _rel(got, want) <= CTE_REL_TOL
