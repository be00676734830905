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

Each comparison allows 1e-12 + 1e-11 |value|. At extreme scales and
levels the solver breaks these properties; those cells belong to the
tail-space solve of ROADMAP item 2, not here.
"""

import math

import pytest
from hypothesis import given, strategies as st

from copula_risk.tables import build_portfolio, compute_measure

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
