"""The paper's dependence claims as properties, checked without an oracle
over the moderate domain of the `sweep` benchmark workload: exponential
rates log-uniform in [1e-2, 1e2], Pareto x0 log-uniform in [0.1, 10] and
tail exponents in [1.5, 10], alpha in [0.5, 0.999] and theta on a grid of
step 1/4 over [-1, 1].

- Losses are nonnegative, so min <= X_i <= max <= X1 + X2 pointwise, and
  VaR, MoT and CTE keep that order.
- FGM copulas grow with theta in the concordance order, so
  S_min = S1 S2 (1 + theta F1 F2) and F_max = F1 F2 (1 + theta S1 S2) both
  grow with theta: the min's VaR, MoT and CTE are nondecreasing in theta,
  the max's nonincreasing.
- The same order makes X1 + X2 grow in convex order, so the sum's CTE is
  nondecreasing in theta (its VaR is not monotone, and is not checked).
- {min, max} = {X1, X2}, so beyond any q the integrals of the survival
  functions of the min and the max add up to those of the two marginals.
- At theta = 0 the min of two exponentials is Exp(l1 + l2) and the min of
  two Paretos Pareto(x0, g1 + g2), with closed-form measures.

Each comparison allows 1e-12 + 1e-11 |value|. At extreme scales and
levels the solver breaks these properties; those cells belong to the
tail-space solve of ROADMAP item 2, not here.
"""

import math

import pytest
from hypothesis import given, strategies as st

from copula_risk import marginals
from copula_risk.marginals import ExponentialMarginal, ParetoMarginal
from copula_risk.tables import build_portfolio, compute_measure, law_of

THETAS = tuple(k / 4 for k in range(-4, 5))
MEASURES = ("var", "mot", "cte")


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


rates = log_uniform(1e-2, 1e2)
gammas = st.floats(1.5, 10.0)
PARAMS = {
    "exp": st.fixed_dictionaries({"exp_rates": st.tuples(rates, rates)}),
    "pareto": st.fixed_dictionaries({
        "pareto_x0": log_uniform(0.1, 10.0),
        "pareto_gammas": st.tuples(gammas, gammas),
    }),
}
alphas = st.floats(0.5, 0.999)


def at_most(lower, upper):
    return lower <= upper + 1e-12 + 1e-11 * abs(upper)


def close(got, want):
    return abs(got - want) <= 1e-12 + 1e-11 * abs(want)


@pytest.mark.parametrize("family", ["exp", "pareto"])
@given(data=st.data(), alpha=alphas, theta=st.sampled_from(THETAS))
def test_pointwise_order(family, data, alpha, theta):
    p = build_portfolio(family, theta, **data.draw(PARAMS[family]))
    chain = [("min",), ("x1", "x2"), ("max",)]
    if family == "exp":  # the sum is solved for exponentials only
        chain.append(("sum",))
    values = {
        t: compute_measure(p, t, MEASURES, alpha) for ts in chain for t in ts
    }
    for lowers, uppers in zip(chain, chain[1:]):
        for lo_t in lowers:
            for hi_t in uppers:
                for measure, lo, hi in zip(
                    MEASURES, values[lo_t], values[hi_t]
                ):
                    assert at_most(lo, hi), (measure, lo_t, hi_t, lo, hi)


# At the paper's parameters the max's VaR read below x1's while the solve
# bisected F = 1 - S, whose survival terms near 1e-16 had lost their digits:
# 72.66 against 73.47 (exp), 181,760.5 against 208,063.8 (Pareto).
@pytest.mark.parametrize("theta", [-1.0, 0.0, 0.5, 1.0])
@pytest.mark.parametrize("family", ["exp", "pareto"])
def test_var_order_at_the_largest_alpha(family, theta):
    p = build_portfolio(family, theta)
    lo, x1, x2, hi = (
        compute_measure(p, t, "var", 1 - 2**-53)
        for t in ("min", "x1", "x2", "max")
    )
    for x in (x1, x2):
        assert at_most(lo, x) and at_most(x, hi), (lo, x, hi)


@pytest.mark.parametrize("family", ["exp", "pareto"])
@given(data=st.data(), alpha=alphas)
def test_extremes_are_monotone_in_theta(family, data, alpha):
    params = data.draw(PARAMS[family])
    rows = []
    for theta in THETAS:
        p = build_portfolio(family, theta, **params)
        rows.append(
            {t: compute_measure(p, t, MEASURES, alpha) for t in ("min", "max")}
        )
    for theta, before, after in zip(THETAS, rows, rows[1:]):
        for measure, b, a in zip(MEASURES, before["min"], after["min"]):
            assert at_most(b, a), ("min", measure, theta, b, a)
        for measure, b, a in zip(MEASURES, before["max"], after["max"]):
            assert at_most(a, b), ("max", measure, theta, b, a)


@given(data=st.data(), alpha=alphas)
def test_sum_cte_is_nondecreasing_in_theta(data, alpha):
    params = data.draw(PARAMS["exp"])
    ctes = [
        compute_measure(build_portfolio("exp", theta, **params), "sum", "cte",
                        alpha)
        for theta in THETAS
    ]
    for theta, before, after in zip(THETAS, ctes, ctes[1:]):
        assert at_most(before, after), (theta, before, after)


def survival(m, x):
    if isinstance(m, ExponentialMarginal):
        return math.exp(-m.rate * x)
    return (m.x0 / x) ** m.gamma


@pytest.mark.parametrize("family", ["exp", "pareto"])
@given(data=st.data(), alpha=alphas, theta=st.sampled_from(THETAS))
def test_min_and_max_tails_add_up(family, data, alpha, theta):
    p = build_portfolio(family, theta, **data.draw(PARAMS[family]))
    q = marginals.var(p.m1, alpha)
    # int_q^inf S of a law is s times its mean excess at tail mass s = S(q);
    # a mixture's mean excess is that integral over s, so s = 1 reads it
    got = (law_of(p, "min").mean_excess(q, 1.0)
           + law_of(p, "max").mean_excess(q, 1.0))
    want = 0.0
    for target, m in (("x1", p.m1), ("x2", p.m2)):
        s = survival(m, q)
        want += s * law_of(p, target).mean_excess(q, s)
    assert close(got, want), (q, got, want)


def independent_min(family, params):
    """The closed-form law of the min of the two marginals at theta = 0."""
    if family == "exp":
        return ExponentialMarginal(sum(params["exp_rates"]))
    return ParetoMarginal(params["pareto_x0"], sum(params["pareto_gammas"]))


@pytest.mark.parametrize("family", ["exp", "pareto"])
@given(data=st.data(), alpha=alphas)
def test_independent_min_quantiles_are_closed_form(family, data, alpha):
    params = data.draw(PARAMS[family])
    p = build_portfolio(family, 0.0, **params)
    m = independent_min(family, params)
    var, mot = compute_measure(p, "min", ("var", "mot"), alpha)
    assert close(var, marginals.var(m, alpha)), (var, m)
    assert close(mot, marginals.mot(m, alpha)), (mot, m)


# the solved min's CTE is VaR plus the mean excess, which the VaR's solver
# error moves only to second order
@pytest.mark.parametrize("family, params, alpha", [
    ("pareto", {"pareto_x0": 0.1, "pareto_gammas": (8.0, 10.0)}, 0.9),
    ("exp", {"exp_rates": (100.0, 100.0)}, 0.95),
])
def test_independent_min_cte_is_closed_form(family, params, alpha):
    p = build_portfolio(family, 0.0, **params)
    cte = compute_measure(p, "min", "cte", alpha)
    assert close(cte, marginals.cte(independent_min(family, params), alpha))
