"""Command-line front end.

Subcommands:
    measure  one risk measure for one portfolio
    table    reproduce a published reference table with deltas
    figure   the (theta, VaR, CTE) series behind a published figure
    verify   cross-check every analytic measure against Monte Carlo

Exit codes: 0 success, 1 verification failure, 2 usage or parameter error.
Error records are emitted as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .errors import CopulaRiskError, DomainError, LowTailCount
from .marginals import level_of
from .mc_oracle import (
    _order_stat_estimate,
    _tail_mean_estimate,
    sample_pairs,
    scalar_sample,
)
from .numerics import DEFAULT_SETTINGS, SolverSettings
from .tables import (
    DEFAULT_EXP_RATES,
    DEFAULT_PARETO_GAMMAS,
    DEFAULT_PARETO_X0,
    DEFAULT_THETA_GRID,
    FIGURES,
    TABLES,
    TableSpec,
    build_portfolio,
    compute_measure,
    compute_table,
)

# Monte Carlo cross-check grid: the exponential family exercises negative,
# zero and strong positive dependence at two confidence levels for all
# three composites; the Pareto family covers both extremes at alpha = 0.9.
VERIFY_EXP_THETAS = (-0.9, 0.0, 0.5, 0.9)
VERIFY_EXP_ALPHAS = (0.9, 0.95)
VERIFY_EXP_TARGETS = ("min", "max", "sum")
VERIFY_PARETO_THETAS = (0.0, 0.5, 0.9)
VERIFY_PARETO_ALPHAS = (0.9,)
VERIFY_PARETO_TARGETS = ("min", "max")
VERIFY_MEASURES = ("var", "cte", "mot")
VERIFY_Z_LIMIT = 3.0

MEASURE_FIELDS = (
    "dist", "l1", "l2", "x0", "g1", "g2", "theta", "alpha",
    "target", "measure", "value", "method", "tolerance",
)
TABLE_FIELDS = (
    "table_id", "theta", "measure", "target", "value", "paper_value", "delta",
)
FIGURE_FIELDS = ("figure_id", "theta", "var", "cte")
VERIFY_FIELDS = (
    "family", "target", "measure", "theta", "alpha", "mc_n",
    "analytic", "empirical", "std_error", "z", "status",
)


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _emit(records: list[dict], fields: tuple, args) -> None:
    if args.format == "json":
        text = json.dumps(
            [{k: r.get(k) for k in fields} for r in records], indent=2
        ) + "\n"
    else:
        lines = [",".join(fields)]
        for r in records:
            lines.append(",".join(_fmt_cell(r.get(k)) for k in fields))
        text = "\n".join(lines) + "\n"
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")


def _resolve_seed(arg_seed) -> int:
    if arg_seed is not None:
        return int(arg_seed)
    env = os.environ.get("COPULA_RISK_SEED")
    if not env:
        return 42
    try:
        return int(env)
    except ValueError:
        raise DomainError(
            f"COPULA_RISK_SEED must be an integer, got {env!r}"
        ) from None


def cmd_measure(args) -> int:
    settings = SolverSettings(abs_tol=args.tol)
    portfolio = build_portfolio(
        args.dist, args.theta,
        exp_rates=(args.l1, args.l2),
        pareto_x0=args.x0,
        pareto_gammas=(args.g1, args.g2),
    )
    value = compute_measure(portfolio, args.target, args.measure, args.alpha, settings)
    if args.target in ("x1", "x2"):
        method, tol = "closed_form", 0.0
    else:
        method, tol = "root_solve", settings.abs_tol
    record = {
        "dist": args.dist,
        "l1": args.l1 if args.dist == "exp" else None,
        "l2": args.l2 if args.dist == "exp" else None,
        "x0": args.x0 if args.dist == "pareto" else None,
        "g1": args.g1 if args.dist == "pareto" else None,
        "g2": args.g2 if args.dist == "pareto" else None,
        "theta": args.theta,
        "alpha": args.alpha,
        "target": args.target,
        "measure": args.measure,
        "value": value,
        "method": method,
        "tolerance": tol,
    }
    _emit([record], MEASURE_FIELDS, args)
    return 0


def cmd_table(args) -> int:
    settings = SolverSettings(abs_tol=args.tol)
    grid = DEFAULT_THETA_GRID
    if args.theta_grid:
        try:
            grid = tuple(float(t) for t in args.theta_grid.split(","))
        except ValueError:
            raise DomainError(
                "--theta-grid must be comma-separated numbers, "
                f"got {args.theta_grid!r}"
            ) from None
    spec = TableSpec(
        table_id=args.table_id,
        theta_grid=grid,
        alpha=args.alpha,
        exp_rates=(args.l1, args.l2),
        pareto_x0=args.x0,
        pareto_gammas=(args.g1, args.g2),
    )
    _emit(compute_table(spec, settings), TABLE_FIELDS, args)
    return 0


def cmd_figure(args) -> int:
    settings = SolverSettings(abs_tol=args.tol)
    var_id, cte_id = FIGURES[args.figure_id]
    var_rows = compute_table(TableSpec(table_id=var_id), settings)
    cte_rows = compute_table(TableSpec(table_id=cte_id), settings)
    records = [
        {
            "figure_id": args.figure_id,
            "theta": vr["theta"],
            "var": vr["value"],
            "cte": cr["value"],
        }
        for vr, cr in zip(var_rows, cte_rows)
    ]
    _emit(records, FIGURE_FIELDS, args)
    return 0


def _first_read(n: int, alphas) -> int:
    """Lowest 0-based order statistic the estimators read at any alpha.

    VaR and MoT read the order statistics from ceil(level*n) - k up, with
    k one binomial standard deviation, at the levels alpha and
    (1 + alpha)/2; CTE reads ceil(alpha*n) and the values above it.
    """
    first = n - 1
    for a in map(level_of, alphas):
        for lv in (a, 0.5 * (1.0 + a)):
            k = max(1, round(math.sqrt(n * lv * (1.0 - lv))))
            first = min(first, max(math.ceil(lv * n) - k, 1) - 1)
    return first


def _tail_sorted(sample, first: int, out):
    """The sample with its order statistics from `first` up in place.

    Everything below index `first` is at most the value there, in no
    particular order, and everything from there up is sorted: each index
    an estimator reads holds what a full sort puts there, and the values
    above any order statistic at or past `first` come in the same order.
    A read-only sample (x1 or x2, a view into the batch) is first copied
    into out, an array of its size.
    """
    if not sample.flags.writeable:
        out[...] = sample
        sample = out
    sample.partition(first)
    sample[first:].sort()
    return sample


def _verify_cells(family, thetas, alphas, targets, mc_n, seed, settings,
                  stream_base=0):
    import numpy as np

    if mc_n < 1:
        raise DomainError(f"mc_n must be >= 1, got {mc_n}")
    records = []
    first = _first_read(mc_n, alphas)
    # every target's scalar sample is written into this one array, so a
    # sample lives only until the next target's replaces it
    buf = np.empty(mc_n)
    for stream, theta in enumerate(thetas, start=stream_base):
        portfolio = build_portfolio(family, theta)
        # drop the last theta's pairs before drawing this theta's
        batch = None
        batch = sample_pairs(portfolio, mc_n, seed, stream=stream)
        for target in targets:
            xs = _tail_sorted(scalar_sample(batch, target, buf), first, buf)
            for alpha in alphas:
                a = level_of(alpha)
                for measure in VERIFY_MEASURES:
                    analytic = compute_measure(
                        portfolio, target, measure, a, settings
                    )
                    record = {
                        "family": family,
                        "target": target,
                        "measure": measure,
                        "theta": theta,
                        "alpha": a,
                        "mc_n": mc_n,
                        "analytic": analytic,
                    }
                    try:
                        if measure == "var":
                            est = _order_stat_estimate(xs, a)
                        elif measure == "mot":
                            est = _order_stat_estimate(xs, 0.5 * (1.0 + a))
                        else:
                            est = _tail_mean_estimate(xs, a, 30)
                    except LowTailCount:
                        record.update(
                            empirical=None, std_error=None, z=None,
                            status="low_tail_count",
                        )
                        records.append(record)
                        continue
                    if est.std_error > 0.0:
                        z = abs(analytic - est.point) / est.std_error
                    else:
                        z = 0.0 if analytic == est.point else float("inf")
                    record.update(
                        empirical=est.point,
                        std_error=est.std_error,
                        z=z,
                        status="pass" if z <= VERIFY_Z_LIMIT else "fail",
                    )
                    records.append(record)
    return records


def cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    settings = SolverSettings(abs_tol=args.tol)
    exp_thetas = VERIFY_EXP_THETAS
    par_thetas = VERIFY_PARETO_THETAS
    if args.theta is not None:
        exp_thetas = par_thetas = (args.theta,)
    records = _verify_cells(
        "exp", exp_thetas, VERIFY_EXP_ALPHAS, VERIFY_EXP_TARGETS,
        args.mc_n, seed, settings, stream_base=0,
    )
    records += _verify_cells(
        "pareto", par_thetas, VERIFY_PARETO_ALPHAS, VERIFY_PARETO_TARGETS,
        args.mc_n, seed, settings, stream_base=len(exp_thetas),
    )
    _emit(records, VERIFY_FIELDS, args)
    return 0 if all(r["status"] == "pass" for r in records) else 1


def _add_output_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output file (default: stdout)")
    p.add_argument("--tol", type=float, default=DEFAULT_SETTINGS.abs_tol,
                   help="solver tolerance on the x axis (default 1e-12)")


def _add_portfolio_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--l1", type=float, default=DEFAULT_EXP_RATES[0],
                   help="first exponential rate")
    p.add_argument("--l2", type=float, default=DEFAULT_EXP_RATES[1],
                   help="second exponential rate")
    p.add_argument("--x0", type=float, default=DEFAULT_PARETO_X0,
                   help="Pareto left endpoint (shared)")
    p.add_argument("--g1", type=float, default=DEFAULT_PARETO_GAMMAS[0],
                   help="first Pareto tail exponent")
    p.add_argument("--g2", type=float, default=DEFAULT_PARETO_GAMMAS[1],
                   help="second Pareto tail exponent")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copula-risk",
        description="Tail risk measures of FGM-coupled bivariate losses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="compute one risk measure")
    p.add_argument("--dist", choices=("exp", "pareto"), required=True)
    _add_portfolio_opts(p)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=0.9)
    p.add_argument("--target", choices=("x1", "x2", "min", "max", "sum"),
                   required=True)
    p.add_argument("--measure", choices=("var", "cte", "mot"), required=True)
    _add_output_opts(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("table", help="reproduce a reference table")
    p.add_argument("table_id", type=int, choices=sorted(TABLES))
    p.add_argument("--theta-grid", default=None,
                   help="comma-separated thetas (default 0.1,0.3,0.5,0.7,0.9)")
    p.add_argument("--alpha", type=float, default=0.9)
    _add_portfolio_opts(p)
    _add_output_opts(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("figure", help="emit a figure's plot-ready series")
    p.add_argument("figure_id", type=int, choices=sorted(FIGURES))
    _add_output_opts(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("verify", help="Monte Carlo cross-check of all measures")
    p.add_argument("--mc-n", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: COPULA_RISK_SEED or 42)")
    p.add_argument("--theta", type=float, default=None,
                   help="restrict the grid to one dependence value")
    _add_output_opts(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CopulaRiskError as exc:
        sys.stderr.write(
            json.dumps(
                {
                    "error": {
                        "type": type(exc).__name__,
                        "message": str(exc),
                        "exit_code": 2,
                    }
                }
            )
            + "\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
