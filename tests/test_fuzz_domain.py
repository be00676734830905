"""Properties over the fuzz domain of ROADMAP item 2: rates and x0
log-uniform over 1e-200..1e200, tail exponents in (1, 50], theta in
[-1, 1] with both endpoints, and alpha from 1e-12 to 1 - 1e-12.

- Every solved level is bracketed in closed form: `law.hi(tail)` comes
  from the marginals' quantiles at the level's tail mass
  (`_mixtures.upper_end`), the law reaches the level there in floating
  point, and no report searches for a bracket.
- Swap, bit for bit: the FGM copula is exchangeable, C(u, v) = C(v, u),
  and every law takes its marginals' parameters in ascending order, so
  the min, max and sum keep every bit of their measures when the
  marginals are swapped.
- Exact identities, each value held to the tolerance its report states
  plus one ulp of rounding, as the benchmark scores values:
  - scale: exponential measures at rates 2**k (l1, l2) are those at
    (l1, l2) divided by 2**k; Pareto measures at 2**k x0 are 2**k times
    those at x0 (a power of two keeps the scaled parameters exact);
  - family map: a Pareto(x0, g) loss is x0 exp(E) with E ~ Exp(g), and
    exp is increasing, so the Pareto min's and max's VaR and MoT are x0
    exp of the exponential law's at rates (g1, g2). CTE does not map.

  Each runs with the examples that failed while the solver bisected F = 1 - S
  to an absolute tolerance.
"""

import math

import pytest
from hypothesis import example, given, strategies as st

from copula_risk import aggregate, extremes, numerics
from copula_risk.errors import CopulaRiskError, DomainError
from copula_risk.extremes import law_measures, law_report, law_tolerance
from copula_risk.marginals import _mot_level
from copula_risk.tables import build_portfolio, law_of

MEASURES = ("var", "mot", "cte")
SOLVED = {"exp": ("min", "max", "sum"), "pareto": ("min", "max")}
LOG10_2 = math.log10(2.0)

exponents = st.floats(-200.0, 200.0)
gammas = st.floats(1.0, 50.0, exclude_min=True)
thetas = st.one_of(st.sampled_from((-1.0, 1.0)), st.floats(-1.0, 1.0))
tails = st.floats(-12.0, math.log10(0.5)).map(lambda e: 10.0**e)
alphas = st.one_of(
    st.floats(1e-12, 1.0 - 1e-12), tails, tails.map(lambda t: 1.0 - t)
)


@st.composite
def scaled(draw, n):
    """n scales log-uniform over 1e-200..1e200, and a power-of-two shift k
    that keeps every one of them inside that range."""
    es = [draw(exponents) for _ in range(n)]
    k = draw(st.integers(
        math.ceil((-200.0 - min(es)) / LOG10_2),
        math.floor((200.0 - max(es)) / LOG10_2),
    ))
    return tuple(10.0**e for e in es), k


@st.composite
def rate_pairs(draw):
    """Exponential rates, also at and within 1e-8 of the ratios 1 and 2,
    where pairs of the sum are Erlang."""
    l1 = 10.0 ** draw(exponents)
    ratio = draw(st.sampled_from((None, 1.0, 2.0, 0.5, 1.0 + 1e-9, 2.0 - 1e-8)))
    return l1, 10.0 ** draw(exponents) if ratio is None else l1 * ratio


@st.composite
def portfolios(draw, family, theta):
    if family == "exp":
        return build_portfolio("exp", theta, exp_rates=draw(rate_pairs()))
    return build_portfolio(
        "pareto", theta, pareto_x0=10.0 ** draw(exponents),
        pareto_gammas=(draw(gammas), draw(gammas)),
    )


@given(data=st.data(), theta=thetas, alpha=alphas)
def test_every_bracket_reaches_its_level(data, theta, alpha):
    family = data.draw(st.sampled_from(("exp", "pareto")))
    p = data.draw(portfolios(family, theta))
    for target in SOLVED[family]:
        law = law_of(p, target)
        for level, tail in ((alpha, 1.0 - alpha),
                            (_mot_level(alpha), 0.5 * (1.0 - alpha))):
            if not level < 1.0:
                continue
            hi = law.hi(tail)
            # what the solve reads: the survival from 1/2 up, else the CDF
            reached = (law.survival(hi) <= tail if level >= 0.5
                       else law.cdf(hi) >= level)
            assert reached, (target, level, hi)
            try:
                extremes.solve_level(law, level, tail)
            except CopulaRiskError:  # any other error fails the test
                pass


@pytest.mark.parametrize("family, target, params", [
    # the max's quantile at tail mass 0.05 is 1e200 * 20**100
    ("pareto", "max", {"pareto_x0": 1e200, "pareto_gammas": (0.01, 0.01)}),
    # -log(0.05) / 5e-324 is inf
    ("exp", "sum", {"exp_rates": (5e-324, 1.0)}),
])
def test_a_bracket_beyond_the_float_range_raises(family, target, params):
    p = build_portfolio(family, 0.5, **params)
    with pytest.raises(DomainError, match="overflows"):
        law_measures(law_of(p, target), 0.9, "var")


@pytest.mark.parametrize("family", ["exp", "pareto"])
def test_no_report_searches_for_a_bracket(monkeypatch, family):
    def search(*args, **kwargs):
        raise AssertionError("a report searched for its bracket")

    for module in (numerics, extremes, aggregate):
        monkeypatch.setattr(module, "expand_bracket", search)
    for theta in (-1.0, 0.0, 0.5, 1.0):
        p = build_portfolio(family, theta)
        for target in ("x1", "x2") + SOLVED[family]:
            for alpha in (1e-6, 0.5, 0.9, 0.999):
                law_report(law_of(p, target), alpha)


def reported(p, target, alpha, measures=MEASURES):
    """A target's values of the measures, and the tolerance its report states."""
    law = law_of(p, target)
    return law_measures(law, alpha, measures), law_tolerance(law)


def agree(a, ta, b, tb):
    """Whether two values of one quantity, each within its stated tolerance
    plus one ulp, can be equal."""
    return abs(a - b) <= ta + tb + math.ulp(a) + math.ulp(b)


def ldexp(x, k):
    """x * 2**k, inf where that leaves the float range."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.inf


@given(rates_k=scaled(2), theta=thetas, alpha=alphas)
# values near 1e91, whose CTE holds only if the VaR's solver error reaches
# it to second order
@example(rates_k=((0.5, 0.6), -300), theta=-1.0, alpha=1.0 - 1e-6)
# the max's CTE at VaRs near 3e-13, whose brackets are narrower than the
# solver tolerance and so are returned as their midpoints
@example(rates_k=((1.0, 1.0), 43), theta=-1.0, alpha=0.99)
def test_exponential_measures_scale_with_the_rates(rates_k, theta, alpha):
    (l1, l2), k = rates_k
    p = build_portfolio("exp", theta, exp_rates=(l1, l2))
    pk = build_portfolio(
        "exp", theta, exp_rates=(math.ldexp(l1, k), math.ldexp(l2, k))
    )
    bad = []
    for target in SOLVED["exp"]:
        (v, tv), (vk, tk) = reported(p, target, alpha), reported(pk, target, alpha)
        for measure, x, y in zip(MEASURES, v, vk):
            if not agree(y, tk, ldexp(x, -k), ldexp(tv, -k)):
                bad.append((target, measure, y, ldexp(x, -k)))
    assert not bad


@given(x0_k=scaled(1), g1=gammas, g2=gammas, theta=thetas, alpha=alphas)
# values near 1e90, the same for the min's CTE
@example(x0_k=((1.0,), 300), g1=3.0, g2=4.0, theta=0.0, alpha=0.9)
# the min's CTE at x0 = 2**-41, whose VaR bracket is narrower than the
# solver tolerance and so is returned as its midpoint
@example(x0_k=((1.0,), -41), g1=8.0, g2=1.0625, theta=0.0, alpha=0.9999)
def test_pareto_measures_scale_with_x0(x0_k, g1, g2, theta, alpha):
    (x0,), k = x0_k
    p = build_portfolio("pareto", theta, pareto_x0=x0, pareto_gammas=(g1, g2))
    pk = build_portfolio(
        "pareto", theta, pareto_x0=math.ldexp(x0, k), pareto_gammas=(g1, g2)
    )
    bad = []
    for target in SOLVED["pareto"]:
        (v, tv), (vk, tk) = reported(p, target, alpha), reported(pk, target, alpha)
        for measure, x, y in zip(MEASURES, v, vk):
            if not agree(y, tk, ldexp(x, k), ldexp(tv, k)):
                bad.append((target, measure, y, ldexp(x, k)))
    assert not bad


@given(rates=rate_pairs(), x0=exponents.map(lambda e: 10.0**e), g1=gammas,
       g2=gammas, theta=thetas, alpha=alphas)
# the Pareto max's MoT, near 5e4, where the solver tolerance is below the float spacing
@example(rates=(1.0, 1.0), x0=1e4, g1=1.125, g2=1.625, theta=-1.0, alpha=0.5)
# the exponential min's CTE read 18.16537261131145 one way and
# 18.165372611311447 the other while each law kept its marginals' order
@example(rates=(0.1604, 0.0133), x0=1.0, g1=3.0, g2=4.0, theta=-0.681, alpha=0.9)
def test_measures_are_unchanged_by_swapping_the_marginals(
    rates, x0, g1, g2, theta, alpha
):
    pairs = [
        (build_portfolio("exp", theta, exp_rates=rates),
         build_portfolio("exp", theta, exp_rates=rates[::-1]), SOLVED["exp"]),
        (build_portfolio("pareto", theta, pareto_x0=x0, pareto_gammas=(g1, g2)),
         build_portfolio("pareto", theta, pareto_x0=x0, pareto_gammas=(g2, g1)),
         SOLVED["pareto"]),
    ]
    bad = []
    for p, swapped, targets in pairs:
        for target in targets:
            v = law_measures(law_of(p, target), alpha, MEASURES)
            vs = law_measures(law_of(swapped, target), alpha, MEASURES)
            for measure, x, y in zip(MEASURES, v, vs):
                if not x == y:
                    bad.append((type(p.m1).__name__, target, measure, x, y))
    assert not bad


@given(x0=exponents.map(lambda e: 10.0**e), g1=gammas, g2=gammas,
       theta=thetas, alpha=alphas)
# the min's VaR and MoT at alpha = 1 - 1e-12, where F is flat over many floats
@example(x0=1.0, g1=2.0, g2=2.0, theta=-1.0, alpha=1.0 - 1e-12)
def test_pareto_quantiles_are_x0_exp_of_the_exponential_ones(
    x0, g1, g2, theta, alpha
):
    pareto = build_portfolio("pareto", theta, pareto_x0=x0, pareto_gammas=(g1, g2))
    exp = build_portfolio("exp", theta, exp_rates=(g1, g2))
    bad = []
    for target in SOLVED["pareto"]:
        v, tv = reported(pareto, target, alpha, ("var", "mot"))
        ve, te = reported(exp, target, alpha, ("var", "mot"))
        for measure, x, y in zip(("var", "mot"), v, ve):
            # y within te of the exponential value puts x0 exp(y) within
            # x0 exp(y) expm1(te) of the Pareto one
            want = x0 * math.exp(y)
            if not agree(x, tv, want, want * math.expm1(te)):
                bad.append((target, measure, x, want))
    assert not bad
