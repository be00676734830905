"""The library's printed values against the independent mpmath oracle.

perfbench/oracle.py builds every reference to more than 30 digits from the
defining copula expressions: the min and max survival polynomials are
interpolated from the copula itself and the sum's pairs from the joint
density, never from the library's weights. So this checks the FGM pair
table that the min, max and sum laws read, on a fixed grid: the cells of
the 15 published tables and the analytic values of the `verify` grid.

The extremes' CDFs are also fuzzed against the copula formula itself,
F_max = C(F1, F2) and F_min = 1 - C^(S1, S2), in mpmath at 60 digits, and
their densities against the partials of C there; the copula API at its
corners, the sum's CDF and tail integral against the oracle's pair
survival, and the CTE of every solved target against the oracle's at
1e-14 relative. The min's and max's tail integral, at the oracle's VaR,
is held to the oracle's at 1e-14 relative over the fuzz domain of
test_fuzz_domain.py, with exponential rates up to 1.7e308. Over that
domain every solved VaR and MoT is held to the oracle at 1e-13 relative,
the sum's VaR at alpha <= 1e-3 apart, and every CTE at 1e-12: strict
xfails until the solver stops at a relative tolerance (ROADMAP item 2),
and for the sum's lower tail until its pairs no longer cancel (item 9b).
"""

import math

import pytest
from hypothesis import (
    HealthCheck, Phase, assume, example, given, settings, strategies as st,
)

from copula_risk import cli, copula
from copula_risk.aggregate import AggregateExpPortfolio, _SumLaw, aggregate_cdf
from copula_risk.copula import FgmCopula
from copula_risk.extremes import BivariatePortfolio, extreme_cdf, extreme_pdf
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
    law_of,
)
from test_fuzz_domain import alphas, gammas, rate_pairs

MEASURES = ("var", "cte", "mot")
REL_TOL = 1e-11
CDF_REL_TOL = 2e-15
SUM_CDF_ABS_TOL = 4 * 2.0**-52
SUM_TAIL_REL_TOL = 1e-14
CTE_REL_TOL = 1e-14
FUZZ_CTE_REL_TOL = 1e-12
VAR_MOT_REL_TOL = 1e-13
TAIL_REL_TOL = 1e-14
TAIL_ABS_TOL = 4 * 2.0**-1074
EPS = 2.0**-52

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


# Every solved VaR far below the solver's absolute tolerance 1e-12 meets
# that tolerance while missing by a large share of itself (the exponential
# min at rates 2e30 is pinned in test_extremes.py): at rates (1e30, 2e30)
# and theta = 0 the max's is off by -37% and the sum's by -24%; at Pareto
# x0 = 1e-13, gammas (3, 4) and theta = 0.5 the min's by -3.2% and the
# max's by -22%.
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the solver's tolerance 1e-12 is absolute, so a "
    "VaR far below it is returned as a bracket midpoint",
)
@pytest.mark.parametrize(
    "family, target, p1, p2, x0, theta",
    [
        ("exp", "max", 1e30, 2e30, 0.0, 0.0),
        ("exp", "sum", 1e30, 2e30, 0.0, 0.0),
        ("pareto", "min", 3.0, 4.0, 1e-13, 0.5),
        ("pareto", "max", 3.0, 4.0, 1e-13, 0.5),
    ],
    ids=["exp-max", "exp-sum", "pareto-min", "pareto-max"],
)
def test_var_far_below_the_solver_tolerance(
    oracle, family, target, p1, p2, x0, theta
):
    if family == "exp":
        p = build_portfolio("exp", theta, exp_rates=(p1, p2))
    else:
        p = build_portfolio("pareto", theta, pareto_x0=x0, pareto_gammas=(p1, p2))
    want = float(oracle.reference(family, target, p1, p2, x0, theta, 0.9)[0])
    got = compute_measure(p, target, "var", 0.9)
    assert abs(got - want) <= 1e-12  # the tolerance the value states
    assert got == pytest.approx(want, rel=1e-9, abs=0.0)


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


def _copula_pdf_rel_error(p, target, x):
    """Relative error of extreme_pdf at x against the derivative of
    C(F1, F2) for the max, l1 S1 dC/du + l2 S2 dC/dv at (F1, F2), and of
    F1 + F2 - C(F1, F2) for the min, from the float x and parameters; for
    Pareto marginals li is gi/x. The partials cancel down to the size of the
    smaller Si, at least 1e-305 here, so 400 digits leave over 60. Only a density
    above 1e-270 is judged: below the normal range a float has fewer
    digits, and a term that underflows there would show in a density not
    far above it."""
    mp = pytest.importorskip("mpmath")
    got = extreme_pdf(p, target, x)
    with mp.workdps(400):
        x, theta = mp.mpf(x), p.copula.theta
        if isinstance(p.m1, ExponentialMarginal):
            ls = [mp.mpf(m.rate) for m in (p.m1, p.m2)]
            s1, s2 = (mp.exp(-rate * x) for rate in ls)
        else:
            ls = [mp.mpf(m.gamma) / x for m in (p.m1, p.m2)]
            s1, s2 = ((mp.mpf(m.x0) / x) ** m.gamma for m in (p.m1, p.m2))
        u, v = 1 - s1, 1 - s2
        if target == "max":  # dC/du and dC/dv
            du = v * (1 + theta * (1 - v) * (1 - 2 * u))
            dv = u * (1 + theta * (1 - u) * (1 - 2 * v))
        else:  # 1 - dC/du = (1 - v)(1 - theta v(1 - 2u))
            du = s2 * (1 - theta * v * (1 - 2 * u))
            dv = s1 * (1 - theta * u * (1 - 2 * v))
        want = ls[0] * s1 * du + ls[1] * s2 * dv
        assume(want > 1e-270)
        return float(abs(got - want) / want)


# a signed sum of survival terms cancels near x = 0 (ROADMAP item 9's cells)
@example(l1=0.5, ratio=1.2, theta=-1.0, t=5e-10, target="max")
@settings(max_examples=400)
@given(
    l1=exponents.map(lambda e: 10.0**e),
    ratio=st.one_of(
        st.sampled_from((1.0, 2.0, 0.5)),
        st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    ),
    theta=thetas,
    t=st.floats(-12.0, math.log10(50.0)).map(lambda e: 10.0**e),
    target=targets,
)
def test_exp_extreme_pdf_is_the_copula_partials(l1, ratio, theta, t, target):
    # t = x times the smaller rate, from 1e-12 to 50, while li*x <= 700
    # keeps exp(-li*x) normal; the error bound grows with the li*x that
    # exp is evaluated at
    l2 = l1 * ratio
    x = t / min(l1, l2)
    assume(max(l1, l2) * x <= 700.0)
    p = BivariatePortfolio(
        ExponentialMarginal(l1), ExponentialMarginal(l2), FgmCopula(theta)
    )
    bound = 8 * EPS * (1 + l1 * x + l2 * x)
    assert _copula_pdf_rel_error(p, target, x) <= bound


@example(x0=1.0, g1=3.0, g2=4.0, theta=-1.0, rel=1.0 + 1e-9, target="max")
@settings(max_examples=400)
@given(
    x0=st.floats(-100.0, 100.0).map(lambda e: 10.0**e),
    g1=st.floats(0.01, 50.0),
    g2=st.floats(0.01, 50.0),
    theta=thetas,
    rel=st.floats(1.0 + 1e-12, 10.0),
    target=targets,
)
def test_pareto_extreme_pdf_is_the_copula_partials(x0, g1, g2, theta, rel, target):
    x = x0 * rel
    p = BivariatePortfolio(
        ParetoMarginal(x0, g1), ParetoMarginal(x0, g2), FgmCopula(theta)
    )
    bound = 8 * EPS * (2 + (g1 + g2) * math.log(x / x0))
    assert _copula_pdf_rel_error(p, target, x) <= bound


# where 1 - u - v + C(u, v), 1 + theta(1-2u)(1-2v) or u(1-u) cancel, the
# values are 1.5e-20, 2e-30, 3e-20 and 4e-10; conditional_cdf takes
# (v, given_u), so its u is v here
@pytest.mark.parametrize(
    "func, theta, u, v, want",
    [
        (copula.survival, 0.5, 1 - 1e-10, 1 - 1e-10,
         lambda t, u, v: (1 - u) * (1 - v) * (1 + t * u * v)),
        (copula.cdf, -1.0, 1e-10, 1e-10,
         lambda t, u, v: u * v * (1 + t * (1 - u) * (1 - v))),
        (copula.conditional_cdf, -1.0, 1e-10, 1e-10,
         lambda t, u, v: u * (1 + t * (1 - u) * (1 - 2 * v))),
        (copula.density, 1.0, 1e-10, 1 - 1e-10,
         lambda t, u, v: 1 + t * (1 - 2 * u) * (1 - 2 * v)),
    ],
    ids=["survival", "cdf", "conditional-cdf", "density"],
)
def test_copula_at_the_corners(func, theta, u, v, want):
    mp = pytest.importorskip("mpmath")
    got = func(FgmCopula(theta), u, v)
    with mp.workdps(50):
        w = want(theta, mp.mpf(u), mp.mpf(v))
        assert float(abs(got - w) / w) <= 4 * EPS


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


@st.composite
def fuzz_cells(draw):
    """A solved target's (family, target, p1, p2, x0) over the fuzz domain
    of test_fuzz_domain.py."""
    if draw(st.booleans()):
        l1, l2 = draw(rate_pairs())
        return "exp", draw(st.sampled_from(("min", "max", "sum"))), l1, l2, 0.0
    g1, g2, x0 = draw(gammas), draw(gammas), 10.0 ** draw(exponents)
    return "pareto", draw(targets), g1, g2, x0


# The gate of ROADMAP item 2a, landed ahead of the tail-space solve that
# is to meet it. The examples are item 2's cells: at rates (1e30, 2e30)
# the exponential min's, max's and sum's VaR, and at x0 = 1e-13 the
# Pareto min's and max's, each meet the absolute 1e-12 and miss by
# percents. The sum's VaR at alpha <= 1e-3 is left out: its four signed
# pairs cancel there, which is item 9b's.
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the solver's tolerance 1e-12 is absolute, so "
    "a VaR or MoT far below 1 misses 1e-13 relative",
)
@example(cell=("exp", "min", 1e30, 2e30, 0.0), theta=0.0, alpha=0.9)
@example(cell=("exp", "max", 1e30, 2e30, 0.0), theta=0.0, alpha=0.9)
@example(cell=("exp", "sum", 1e30, 2e30, 0.0), theta=0.0, alpha=0.9)
@example(cell=("pareto", "min", 3.0, 4.0, 1e-13), theta=0.5, alpha=0.9)
@example(cell=("pareto", "max", 3.0, 4.0, 1e-13), theta=0.5, alpha=0.9)
@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    phases=(Phase.explicit, Phase.generate),
    report_multiple_bugs=False,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cell=fuzz_cells(), theta=thetas, alpha=alphas)
def test_var_and_mot_are_the_oracle(oracle, cell, theta, alpha):
    family, target, p1, p2, x0 = cell
    if family == "exp":
        p = build_portfolio("exp", theta, exp_rates=(p1, p2))
    else:
        p = build_portfolio(
            "pareto", theta, pareto_x0=x0, pareto_gammas=(p1, p2)
        )
    lower_sum = target == "sum" and alpha <= 1e-3
    measures = ("mot",) if lower_sum else ("var", "mot")
    got = compute_measure(p, target, measures, alpha)
    with oracle.mpmath.workdps(oracle.DPS):
        ref = oracle.Cell(family, target, p1, p2, x0, theta, alpha)
        levels = {"var": ref.alpha, "mot": (1 + ref.alpha) / 2}
        for measure, value in zip(measures, got):
            want = ref.quantile(levels[measure])
            assert _rel(value, want) <= VAR_MOT_REL_TOL, (measure, value, want)


# rates up to 1.7e308, past where i*l1 + j*l2 overflows; a ratio that
# would leave the float range scales the first rate down instead
wide_exponents = st.floats(-200.0, math.log10(1.7e308))


@st.composite
def extreme_cells(draw):
    """A min's or max's (family, target, p1, p2, x0) over the fuzz domain
    of test_fuzz_domain.py, with exponential rates up to 1.7e308."""
    if draw(st.booleans()):
        g1, g2, x0 = draw(gammas), draw(gammas), 10.0 ** draw(exponents)
        return "pareto", draw(targets), g1, g2, x0
    l1 = 10.0 ** draw(wide_exponents)
    ratio = draw(st.sampled_from((None, 1.0, 2.0, 0.5, 1.0 + 1e-9, 2.0 - 1e-8)))
    if ratio is None:
        l2 = 10.0 ** draw(wide_exponents)
    else:
        l1, l2 = (l1, l1 * ratio) if l1 * ratio <= 1.7e308 else (l1 / ratio, l1)
    return "exp", draw(targets), l1, l2, 0.0


# The min's and max's tail integral, int_q^inf S = mean_excess(q, 1), at the
# oracle's VaR q, against the oracle's at that same float q. A value below
# the normal range keeps fewer digits, so a few units of the smallest
# subnormal are allowed besides the relative bound. The examples are rates
# near the largest float, where a term rate i*l1 + j*l2 overflows; at
# (1e308, 1.7e308) the order of the final divisions decides whether a
# subnormal intermediate loses digits.
@example(cell=("exp", "min", 1e308, 1e308, 0.0), theta=0.5, alpha=0.9)
@example(cell=("exp", "max", 1e308, 1e308, 0.0), theta=0.5, alpha=0.9)
@example(cell=("exp", "min", 1e308, 1.7e308, 0.0), theta=-1.0, alpha=0.99)
@example(cell=("exp", "max", 1e308, 1.7e308, 0.0), theta=-1.0, alpha=0.99)
@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cell=extreme_cells(), theta=thetas, alpha=alphas)
def test_extreme_tail_integral_is_the_oracle(oracle, cell, theta, alpha):
    family, target, p1, p2, x0 = cell
    if family == "exp":
        p = build_portfolio("exp", theta, exp_rates=(p1, p2))
    else:
        p = build_portfolio(
            "pareto", theta, pareto_x0=x0, pareto_gammas=(p1, p2)
        )
    with oracle.mpmath.workdps(oracle.DPS):
        ref = oracle.Cell(family, target, p1, p2, x0, theta, alpha)
        q = float(ref.quantile(ref.alpha))
        want = float(ref.tail_integral(oracle.mpmath.mpf(q)))
    got = law_of(p, target).mean_excess(q, 1.0)
    assert abs(got - want) <= TAIL_REL_TOL * want + TAIL_ABS_TOL, (q, got, want)


# The CTE half of ROADMAP item 2a's gate, over the same cells and settings
# as test_var_and_mot_are_the_oracle. The CTE is VaR plus a mean excess
# that the VaR's error moves only to second order, so it misses where the
# VaR misses by a share of itself: at item 2's cells, the examples.
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the solver's tolerance 1e-12 is absolute, so "
    "the VaR that a CTE adds its mean excess to misses far below 1",
)
@example(cell=("exp", "min", 1e30, 2e30, 0.0), theta=0.0, alpha=0.9)
@example(cell=("exp", "max", 1e30, 2e30, 0.0), theta=0.0, alpha=0.9)
@example(cell=("exp", "sum", 1e30, 2e30, 0.0), theta=0.0, alpha=0.9)
@example(cell=("pareto", "min", 3.0, 4.0, 1e-13), theta=0.5, alpha=0.9)
@example(cell=("pareto", "max", 3.0, 4.0, 1e-13), theta=0.5, alpha=0.9)
@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    phases=(Phase.explicit, Phase.generate),
    report_multiple_bugs=False,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cell=fuzz_cells(), theta=thetas, alpha=alphas)
def test_cte_over_the_fuzz_domain_is_the_oracle(oracle, cell, theta, alpha):
    family, target, p1, p2, x0 = cell
    if family == "exp":
        p = build_portfolio("exp", theta, exp_rates=(p1, p2))
    else:
        p = build_portfolio(
            "pareto", theta, pareto_x0=x0, pareto_gammas=(p1, p2)
        )
    got = compute_measure(p, target, "cte", alpha)
    with oracle.mpmath.workdps(oracle.DPS):
        want = oracle.Cell(family, target, p1, p2, x0, theta, alpha).measures()[1]
    assert _rel(got, want) <= FUZZ_CTE_REL_TOL, (got, want)


# The sum's VaR in its lower tail, which test_var_and_mot_are_the_oracle
# leaves out. Its four signed pairs cancel there, as F(x) is about
# (1 + theta) l1 l2 x**2 / 2 at small x, and the absolute stop of item 2
# lets that show: the examples miss by 1.1e-11 and 1.9e-10 relative. The
# oracle runs at 450 digits: its CDF 1 - S keeps 12 fewer than it carries
# at alpha = 1e-12, and where the rates lie up to 1e400 apart, the VaR
# lies within that ratio's inverse of the bracket's lower end, max(q1, q2).
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP items 9b and 2: the sum's four signed pairs cancel in "
    "its lower tail, and the solver's absolute tolerance 1e-12 admits "
    "what that costs",
)
@example(rates=(0.5, 0.6), theta=1.0, alpha=1e-4)
@example(rates=(0.5, 0.6), theta=0.5, alpha=1e-6)
@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    phases=(Phase.explicit, Phase.generate),
    report_multiple_bugs=False,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    rates=rate_pairs(),
    theta=thetas,
    alpha=st.floats(-12.0, -3.0).map(lambda e: 10.0**e),
)
def test_sum_var_in_its_lower_tail_is_the_oracle(oracle, rates, theta, alpha):
    p = build_portfolio("exp", theta, exp_rates=rates)
    got = compute_measure(p, "sum", "var", alpha)
    with oracle.mpmath.workdps(450):
        ref = oracle.Cell("exp", "sum", *rates, 0.0, theta, alpha)
        want = ref.quantile(ref.alpha)
    assert _rel(got, want) <= VAR_MOT_REL_TOL, (got, want)
