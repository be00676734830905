"""Acceptance gate: every exit criterion at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.

Criterion 3 is EXPECTED TO FAIL on exactly one cell. The published
minimum-CTE table prints 3.23 at theta = 0.5; recomputation from the
defining tail integral gives 3.2629 (bisection + closed-form tail sums,
confirmed by independent quadrature and by a 2e7-pair Monte Carlo run to
within 0.002). The 3.23 entry cannot be reproduced by the defining
equations at the stated +-0.02, so the criterion is asserted as written
and left red rather than weakened around a misprint. See README.
"""

import csv
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from copula_risk.aggregate import (
    AggregateExpPortfolio,
    aggregate_cdf,
    aggregate_cte,
    aggregate_mot,
    aggregate_pdf,
    aggregate_var,
)
from copula_risk.cli import main as cli_main
from copula_risk.copula import FgmCopula, cdf as copula_cdf, density, rectangle_mass
from copula_risk.extremes import (
    BivariatePortfolio,
    extreme_cdf,
    extreme_cte,
    extreme_mot,
    extreme_pdf,
    extreme_var,
)
from copula_risk.marginals import (
    ExponentialMarginal,
    ParetoMarginal,
    cte,
    mot,
    pdf as marginal_pdf,
    var,
)
from copula_risk.mc_oracle import empirical_mot, sample_pairs, scalar_sample
from copula_risk.numerics import quad_tail
from copula_risk.tables import TABLES, TableSpec, compute_table

E1, E2 = ExponentialMarginal(0.5), ExponentialMarginal(0.6)
P1, P2 = ParetoMarginal(1.0, 3.0), ParetoMarginal(1.0, 4.0)


def exp_bi(theta):
    return BivariatePortfolio(E1, E2, FgmCopula(theta))


def pareto_bi(theta):
    return BivariatePortfolio(P1, P2, FgmCopula(theta))


def exp_agg(theta):
    return AggregateExpPortfolio(E1, E2, FgmCopula(theta))


def _check(failures, label, got, want, tol):
    if not abs(got - want) <= tol:
        failures.append(
            f"{label}: computed {got:.6f}, expected {want} within {tol}"
        )


def _report(num, name, failures, note=""):
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE {num} ({name}): {status}"
    if note:
        line += f" [{note}]"
    print(line)
    for f in failures:
        print(f"  - {f}")
    assert not failures, f"criterion {num} ({name}): {failures}"


def test_criterion_1_single_risk_closed_forms():
    t0 = time.perf_counter()
    bad = []
    _check(bad, "exp(0.5) var", var(E1, 0.9), 4.605, 0.005)
    _check(bad, "exp(0.6) var", var(E2, 0.9), 3.837, 0.005)
    _check(bad, "exp(0.5) cte", cte(E1, 0.9), 6.605, 0.005)
    _check(bad, "exp(0.6) cte", cte(E2, 0.9), 5.504, 0.005)
    _check(bad, "pareto(1,3) var", var(P1, 0.9), 2.154, 0.005)
    _check(bad, "pareto(1,4) var", var(P2, 0.9), 1.778, 0.005)
    _check(bad, "pareto(1,3) cte", cte(P1, 0.9), 3.23, 0.005)
    _check(bad, "pareto(1,4) cte", cte(P2, 0.9), 2.37, 0.005)
    _check(bad, "exp(0.5)@0.95 var", var(E1, 0.95), 5.99, 0.01)
    _check(bad, "exp(0.5)@0.95 mot", mot(E1, 0.95), 7.37, 0.01)
    _check(bad, "exp(0.5)@0.95 cte", cte(E1, 0.95), 7.99, 0.01)
    _check(bad, "pareto(1,3) var", var(P1, 0.9), 2.15, 0.01)
    _check(bad, "pareto(1,3) mot", mot(P1, 0.9), 2.71, 0.01)
    _check(bad, "pareto(1,3) cte", cte(P1, 0.9), 3.23, 0.01)
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        bad.append(f"runtime {elapsed:.3f}s, expected milliseconds")
    _report(1, "single-risk closed forms", bad, f"{elapsed * 1e3:.1f} ms")


def test_criterion_2_independent_composites():
    t0 = time.perf_counter()
    bad = []
    bi_e, bi_p, agg = exp_bi(0.0), pareto_bi(0.0), exp_agg(0.0)
    _check(bad, "exp min var", extreme_var(bi_e, "min", 0.9), 2.09, 0.01)
    _check(bad, "exp min cte", extreme_cte(bi_e, "min", 0.9), 3.00, 0.01)
    _check(bad, "exp max var", extreme_var(bi_e, "max", 0.9), 5.47, 0.01)
    _check(bad, "exp max cte", extreme_cte(bi_e, "max", 0.9), 7.37, 0.01)
    _check(bad, "pareto min var", extreme_var(bi_p, "min", 0.9), 1.389, 0.01)
    _check(bad, "pareto max var", extreme_var(bi_p, "max", 0.9), 2.4022, 0.01)
    _check(bad, "pareto min cte", extreme_cte(bi_p, "min", 0.9), 1.62, 0.01)
    _check(bad, "pareto max cte", extreme_cte(bi_p, "max", 0.9), 3.5005, 0.01)
    _check(bad, "aggregate var", aggregate_var(agg, 0.9), 7.14, 0.01)
    _check(bad, "aggregate cte", aggregate_cte(agg, 0.9), 9.369, 0.01)
    _check(bad, "aggregate mot", aggregate_mot(agg, 0.9), 8.71, 0.01)
    _check(bad, "exp min mot", extreme_mot(bi_e, "min", 0.9), 2.72, 0.01)
    _check(bad, "exp max mot", extreme_mot(bi_e, "max", 0.9), 6.78, 0.01)
    _check(bad, "pareto min mot", extreme_mot(bi_p, "min", 0.9), 1.53, 0.01)
    _check(bad, "pareto max mot", extreme_mot(bi_p, "max", 0.9), 2.98, 0.01)
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        bad.append(f"runtime {elapsed:.3f}s, expected milliseconds")
    _report(2, "independent composites", bad, f"{elapsed * 1e3:.1f} ms")


def test_criterion_3_dependent_tables():
    # every cell of the published tables 1-10, 12, 14 and 15 within +-0.02;
    # the theta = 0.5 cell of table 2 is a demonstrated misprint (see module
    # docstring) and is expected to leave this criterion red as written
    t0 = time.perf_counter()
    bad = []
    for table_id in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15):
        printed = TABLES[table_id].printed
        for row in compute_table(TableSpec(table_id=table_id)):
            want = printed[row["theta"]]
            if abs(row["value"] - want) > 0.02:
                bad.append(
                    f"table {table_id} theta={row['theta']}: computed "
                    f"{row['value']:.6f} vs published {want} "
                    f"(|delta|={abs(row['value'] - want):.4f} > 0.02; "
                    "recomputation confirmed by quadrature and Monte Carlo)"
                )
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        bad.append(f"runtime {elapsed:.3f}s, expected < 1 s")
    _report(3, "dependent-table cells", bad, f"{elapsed * 1e3:.0f} ms")


def test_criterion_4_suspected_errata_cells():
    bad = []
    cases = [
        (11, exp_bi(0.1), 2.64, 0),
        (13, pareto_bi(0.1), 1.52, 1),
    ]
    for table_id, portfolio, printed_value, stream in cases:
        m = extreme_mot(portfolio, "min", 0.9)
        level = extreme_cdf(portfolio, "min", m)
        if abs(level - 0.95) > 1e-10:
            bad.append(
                f"table {table_id}: CDF at computed MoT is {level!r}, "
                "not 0.95 within 1e-10"
            )
        batch = sample_pairs(portfolio, 1_000_000, seed=42, stream=stream)
        est = empirical_mot(scalar_sample(batch, "min"), 0.9)
        if abs(m - est.point) > 3 * est.std_error:
            bad.append(
                f"table {table_id}: computed {m:.4f} vs Monte Carlo "
                f"{est.point:.4f} +- {est.std_error:.4f}"
            )
        if abs(m - printed_value) <= 0.02:
            bad.append(
                f"table {table_id}: computed {m:.4f} unexpectedly matches "
                f"the published {printed_value} (misprint diagnosis wrong?)"
            )
        row = compute_table(TableSpec(table_id=table_id))[0]
        if not (row["paper_value"] == printed_value and abs(row["delta"]) > 0.02):
            bad.append(f"table {table_id}: report does not flag the deviation")
    _report(4, "suspected errata cells", bad)


def test_criterion_5_theta_zero_reduction():
    bad = []
    tol = 1e-10

    # exponential extremes
    p = exp_bi(0.0)
    lam = 1.1
    _check(bad, "exp min var", extreme_var(p, "min", 0.9),
           -math.log(0.1) / lam, tol)
    _check(bad, "exp min cte", extreme_cte(p, "min", 0.9),
           (1 - math.log(0.1)) / lam, tol)
    _check(bad, "exp min mot", extreme_mot(p, "min", 0.9),
           -math.log(0.05) / lam, tol)
    f = lambda x: 1 - math.exp(-0.5 * x) - math.exp(-0.6 * x) + math.exp(-1.1 * x)
    q = brentq(lambda x: f(x) - 0.9, 0, 80, xtol=1e-13)
    _check(bad, "exp max var", extreme_var(p, "max", 0.9), q, tol)
    cte_ref = (
        (q + 2.0) * math.exp(-0.5 * q)
        + (q + 1 / 0.6) * math.exp(-0.6 * q)
        - (q + 1 / 1.1) * math.exp(-1.1 * q)
    ) / 0.1
    _check(bad, "exp max cte", extreme_cte(p, "max", 0.9), cte_ref, tol)
    _check(bad, "exp max mot", extreme_mot(p, "max", 0.9),
           brentq(lambda x: f(x) - 0.95, 0, 80, xtol=1e-13), tol)

    # Pareto extremes
    p = pareto_bi(0.0)
    g = 7.0
    _check(bad, "pareto min var", extreme_var(p, "min", 0.9),
           0.1 ** (-1 / g), tol)
    _check(bad, "pareto min cte", extreme_cte(p, "min", 0.9),
           g / (g - 1) * 0.1 ** (-1 / g), tol)
    _check(bad, "pareto min mot", extreme_mot(p, "min", 0.9),
           0.05 ** (-1 / g), tol)
    fp = lambda x: 1 - x**-3.0 - x**-4.0 + x**-7.0
    qp = brentq(lambda x: fp(x) - 0.9, 1 + 1e-12, 80, xtol=1e-13)
    _check(bad, "pareto max var", extreme_var(p, "max", 0.9), qp, tol)
    cte_p = (1.5 * qp**-2.0 + 4.0 / 3.0 * qp**-3.0 - 7.0 / 6.0 * qp**-6.0) / 0.1
    _check(bad, "pareto max cte", extreme_cte(p, "max", 0.9), cte_p, tol)
    _check(bad, "pareto max mot", extreme_mot(p, "max", 0.9),
           brentq(lambda x: fp(x) - 0.95, 1 + 1e-12, 80, xtol=1e-13), tol)

    # aggregate
    agg = exp_agg(0.0)
    fs = lambda x: 1 + 5 * math.exp(-0.6 * x) - 6 * math.exp(-0.5 * x)
    qs = brentq(lambda x: fs(x) - 0.9, 1e-9, 120, xtol=1e-13)
    _check(bad, "aggregate var", aggregate_var(agg, 0.9), qs, tol)
    cte_s = (
        6.0 * (qs + 2.0) * math.exp(-0.5 * qs)
        - 5.0 * (qs + 1 / 0.6) * math.exp(-0.6 * qs)
    ) / 0.1
    _check(bad, "aggregate cte", aggregate_cte(agg, 0.9), cte_s, tol)
    _check(bad, "aggregate mot", aggregate_mot(agg, 0.9),
           brentq(lambda x: fs(x) - 0.95, 1e-9, 120, xtol=1e-13), tol)
    _report(5, "theta-zero reduction", bad)


def test_criterion_6_oracle_suite(tmp_path):
    out = tmp_path / "verify.csv"
    t0 = time.perf_counter()
    rc = cli_main([
        "verify", "--mc-n", "1000000", "--seed", "42", "--out", str(out),
    ])
    elapsed = time.perf_counter() - t0
    with out.open() as f:
        rows = list(csv.DictReader(f))
    bad = []
    if rc != 0:
        bad.append(f"verify exited {rc}")
    for r in rows:
        if r["status"] != "pass":
            bad.append(
                f"{r['family']}/{r['target']}/{r['measure']} theta={r['theta']} "
                f"alpha={r['alpha']}: status={r['status']} z={r['z']}"
            )
    if len(rows) != 90:
        bad.append(f"expected 90 grid cells, got {len(rows)}")
    if elapsed >= 30.0:
        bad.append(f"runtime {elapsed:.1f}s, target < 30 s")
    _report(6, "Monte Carlo oracle suite", bad, f"{elapsed:.1f} s")


def test_criterion_7_property_suites():
    bad = []
    rng = np.random.default_rng(2024)
    theta_grid = (-1.0, -0.5, 0.0, 0.5, 1.0)

    # copula axioms on randomized grids
    for theta in theta_grid:
        c = FgmCopula(theta)
        for u in rng.random(40):
            if copula_cdf(c, u, 0.0) != 0.0 or copula_cdf(c, 0.0, u) != 0.0:
                bad.append(f"boundary C(.,0)/C(0,.) violated at theta={theta}")
            if abs(copula_cdf(c, u, 1.0) - u) > 1e-15:
                bad.append(f"boundary C(u,1)=u violated at theta={theta}")
        pts = rng.random((200, 4))
        for a, b, x, y in pts:
            u1, u2 = min(a, b), max(a, b)
            v1, v2 = min(x, y), max(x, y)
            if rectangle_mass(c, u1, u2, v1, v2) < -1e-15:
                bad.append(f"negative rectangle mass at theta={theta}")
        uv = rng.random((200, 2))
        if any(density(c, u, v) < 0.0 for u, v in uv):
            bad.append(f"negative density at theta={theta}")

    # CDF/PDF finite-difference consistency within 1e-6
    h = 1e-6
    for theta in (0.0, 0.5, 0.9):
        for p, which, xs in (
            (exp_bi(theta), "min", (0.8, 2.2, 4.5)),
            (exp_bi(theta), "max", (2.0, 5.0, 8.0)),
            (pareto_bi(theta), "min", (1.2, 1.6, 2.4)),
            (pareto_bi(theta), "max", (1.5, 2.4, 4.0)),
        ):
            for x in xs:
                fd = (extreme_cdf(p, which, x + h)
                      - extreme_cdf(p, which, x - h)) / (2 * h)
                if abs(fd - extreme_pdf(p, which, x)) > 1e-6:
                    bad.append(f"extreme fd mismatch {which} theta={theta} x={x}")
        agg = exp_agg(theta)
        for x in (1.0, 4.0, 9.0):
            fd = (aggregate_cdf(agg, x + h) - aggregate_cdf(agg, x - h)) / (2 * h)
            if abs(fd - aggregate_pdf(agg, x)) > 1e-6:
                bad.append(f"aggregate fd mismatch theta={theta} x={x}")

    # densities integrate to one within 1e-8
    for m in (E1, P1):
        lo = 0.0 if isinstance(m, ExponentialMarginal) else m.x0
        if abs(quad_tail(lambda x: marginal_pdf(m, x), lo) - 1.0) > 1e-8:
            bad.append(f"marginal density of {m} does not integrate to 1")
    for theta in (0.0, 0.9):
        for p, lo in ((exp_bi(theta), 0.0), (pareto_bi(theta), 1.0)):
            for which in ("min", "max"):
                total = quad_tail(lambda x: extreme_pdf(p, which, x), lo)
                if abs(total - 1.0) > 1e-8:
                    bad.append(f"extreme {which} density theta={theta}: {total}")
        total = quad_tail(lambda x: aggregate_pdf(exp_agg(theta), x), 0.0)
        if abs(total - 1.0) > 1e-8:
            bad.append(f"aggregate density theta={theta}: {total}")

    # MoT tail mass between VaR and MoT equals (1 - alpha)/2 within 1e-8
    for m in (E1, P2):
        lo, hi = var(m, 0.9), mot(m, 0.9)
        mass, _ = quad(lambda x: marginal_pdf(m, x), lo, hi)
        if abs(mass - 0.05) > 1e-8:
            bad.append(f"marginal MoT mass {m}: {mass}")
    for p, which in ((exp_bi(0.5), "min"), (pareto_bi(0.5), "max")):
        lo = extreme_var(p, which, 0.9)
        hi = extreme_mot(p, which, 0.9)
        mass, _ = quad(lambda x: extreme_pdf(p, which, x), lo, hi)
        if abs(mass - 0.05) > 1e-8:
            bad.append(f"extreme MoT mass {which}: {mass}")
    agg = exp_agg(0.5)
    mass, _ = quad(
        lambda x: aggregate_pdf(agg, x),
        aggregate_var(agg, 0.9), aggregate_mot(agg, 0.9),
    )
    if abs(mass - 0.05) > 1e-8:
        bad.append(f"aggregate MoT mass: {mass}")

    # monotonicity in dependence for the min side and the aggregate
    thetas = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9]
    for fam, build in (("exp", exp_bi), ("pareto", pareto_bi)):
        for fn in (extreme_var, extreme_cte, extreme_mot):
            vals = [fn(build(t), "min", 0.9) for t in thetas]
            if not all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])):
                bad.append(f"{fam} min {fn.__name__} not monotone in theta")
    for fn in (aggregate_var, aggregate_cte, aggregate_mot):
        vals = [fn(exp_agg(t), 0.9) for t in thetas]
        if not all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])):
            bad.append(f"aggregate {fn.__name__} not monotone in theta")

    _report(7, "property suites", bad)


def test_criterion_8_determinism(tmp_path):
    bad = []
    for run in (1, 2):
        out = tmp_path / f"tables_run{run}.csv"
        chunks = []
        for table_id in sorted(TABLES):
            t_out = tmp_path / f"t{table_id}_run{run}.csv"
            rc = cli_main(["table", str(table_id), "--out", str(t_out)])
            if rc != 0:
                bad.append(f"table {table_id} run {run} exited {rc}")
            chunks.append(t_out.read_bytes())
        out.write_bytes(b"".join(chunks))
    if (tmp_path / "tables_run1.csv").read_bytes() != (
        tmp_path / "tables_run2.csv"
    ).read_bytes():
        bad.append("table emissions differ between runs")

    v1 = tmp_path / "verify1.csv"
    v2 = tmp_path / "verify2.csv"
    rc1 = cli_main(["verify", "--mc-n", "100000", "--seed", "11",
                    "--out", str(v1)])
    rc2 = cli_main(["verify", "--mc-n", "100000", "--seed", "11",
                    "--out", str(v2)])
    if rc1 != rc2:
        bad.append(f"verify exit codes differ: {rc1} vs {rc2}")
    if v1.read_bytes() != v2.read_bytes():
        bad.append("verify reports differ for equal seeds")
    _report(8, "determinism", bad)
