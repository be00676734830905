"""Command-line front end.

Subcommands:
    measure  one risk measure for one portfolio
    table    reproduce a published reference table with deltas, at the
             tables' own setting; any other setting is a `measure` call
    figure   the (theta, VaR, CTE) series behind a published figure
    verify   cross-check every analytic measure against Monte Carlo

Exit codes: 0 success, 1 verification failure, 2 usage or parameter error.
Error records are emitted as one JSON object on stderr.

`verify` samples each batch, derives its min, max and sum and selects
their tails on the calling thread and at most one thread started for each
of those three stages (`mc_oracle._drain`), and solves the analytic values
on the calling thread alone. The started threads run only numpy kernels;
the samplers, estimators and analytic solves are called through this
module's names on the calling thread, where the benchmark's layer tracing
rebinds them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import deque
from pathlib import Path

from .errors import CopulaRiskError, DomainError, LowTailCount
from .extremes import law_measures, law_tolerance
from .marginals import _mot_level, level_of
from .mc_oracle import (
    _BLOCK,
    _drain,
    _first_read,
    _order_stat_estimate,
    _select_tail,
    _tail_mean_estimate,
    sample_pairs,
)
from .tables import (
    DEFAULT_EXP_RATES,
    DEFAULT_PARETO_GAMMAS,
    DEFAULT_PARETO_X0,
    DEFAULT_TABLE_ALPHA,
    DEFAULT_THETA_GRID,
    FIGURES,
    TABLES,
    TableSpec,
    build_portfolio,
    compute_measure,
    compute_table,
    law_of,
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
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise DomainError(
                f"cannot write --out {args.out!r}: {exc.strerror or exc}"
            ) from None


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
    portfolio = build_portfolio(
        args.dist, args.theta,
        exp_rates=(args.l1, args.l2),
        pareto_x0=args.x0,
        pareto_gammas=(args.g1, args.g2),
    )
    law = law_of(portfolio, args.target)
    value = law_measures(law, args.alpha, args.measure)
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
        "method": law.method.value,
        "tolerance": law_tolerance(law),
    }
    _emit([record], MEASURE_FIELDS, args)
    return 0


def cmd_table(args) -> int:
    _emit(compute_table(TableSpec(args.table_id)), TABLE_FIELDS, args)
    return 0


def cmd_figure(args) -> int:
    tdef = TABLES[FIGURES[args.figure_id][0]]  # its CTE table differs only in measure
    records = []
    for theta in DEFAULT_THETA_GRID:
        var, cte = compute_measure(
            build_portfolio(tdef.family, theta), tdef.target, ("var", "cte"),
            DEFAULT_TABLE_ALPHA,
        )
        records.append(
            {"figure_id": args.figure_id, "theta": theta, "var": var, "cte": cte}
        )
    _emit(records, FIGURE_FIELDS, args)
    return 0


def _derive_blocks(starts, x1, x2, buf, with_sum: bool) -> None:
    """For the rows of each block taken, write min(x1, x2) into buf, the
    max over x1 and, with_sum, buf + x1 over x2: min + max is bitwise
    x1 + x2, as IEEE addition commutes."""
    import numpy as np

    for start in starts:
        rows = slice(start, start + _BLOCK)
        a, b, m = x1[rows], x2[rows], buf[rows]
        np.minimum(a, b, out=m)
        np.maximum(a, b, out=a)
        if with_sum:
            np.add(m, a, out=b)


def _select_slots(slots, first: int) -> None:
    """`_select_tail` each target sample taken off the shared queue."""
    for xs in slots:
        _select_tail(xs, first)


def _verify_cells(family, thetas, alphas, targets, mc_n, seed, stream_base=0):
    """Records of the Monte Carlo cross-check of min, max and sum targets.

    Per theta, the batch from `sample_pairs` goes through three stages.
    (1) `_derive_blocks` derives the targets on `mc_oracle._drain`, one
    `_BLOCK` of rows at a time, so each block's three passes read rows
    still in cache: the min goes into one n-float buffer reused by every
    batch, the max over column 0 and, when the sum is a target, min + max
    (bitwise x1 + x2, as IEEE addition commutes) over column 1.
    `_verify_cells` owns the batch it drew, so it re-enables writes on
    `batch.pairs`, which `sample_pairs` allocated and marked read-only.
    (2) Each target's sample is partitioned at `_first_read` and its tail
    sorted in place on `_drain`.
    (3) The caller solves the analytic values, runs the estimators and
    builds the records, per target, alpha and measure. The pool threads
    of `_drain` run only numpy kernels, so every traced name is called
    through this module, on the calling thread.

    Raises:
        DomainError: for mc_n < 1, or a target other than min, max or sum.
    """
    import numpy as np

    if mc_n < 1:
        raise DomainError(f"mc_n must be >= 1, got {mc_n}")
    for target in targets:
        if target not in ("min", "max", "sum"):
            raise DomainError(
                f"verify checks the min, max and sum, got target {target!r}"
            )
    records = []
    first = _first_read(mc_n, alphas)
    levels = [level_of(alpha) for alpha in alphas]
    # the min of every batch is written into this one array; nothing else
    # of n floats is allocated
    buf = np.empty(mc_n)
    for stream, theta in enumerate(thetas, start=stream_base):
        portfolio = build_portfolio(family, theta)
        # drop the last theta's pairs, and every view of them, before
        # drawing this theta's
        batch = samples = xs = None
        batch = sample_pairs(portfolio, mc_n, seed, stream=stream)
        batch.pairs.setflags(write=True)
        _drain(_derive_blocks, deque(range(0, mc_n, _BLOCK)),
               batch.x1, batch.x2, buf, "sum" in targets)
        samples = {"min": buf, "max": batch.x1, "sum": batch.x2}
        slots = deque(samples[t] for t in dict.fromkeys(targets))
        _drain(_select_slots, slots, first)
        for target in targets:
            xs = samples[target]
            for a in levels:
                solved = compute_measure(portfolio, target, VERIFY_MEASURES, a)
                for measure, analytic in zip(VERIFY_MEASURES, solved):
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
                            est = _order_stat_estimate(xs, _mot_level(a))
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
    exp_thetas = VERIFY_EXP_THETAS
    par_thetas = VERIFY_PARETO_THETAS
    if args.theta is not None:
        exp_thetas = par_thetas = (args.theta,)
    records = _verify_cells(
        "exp", exp_thetas, VERIFY_EXP_ALPHAS, VERIFY_EXP_TARGETS,
        args.mc_n, seed, stream_base=0,
    )
    records += _verify_cells(
        "pareto", par_thetas, VERIFY_PARETO_ALPHAS, VERIFY_PARETO_TARGETS,
        args.mc_n, seed, stream_base=len(exp_thetas),
    )
    _emit(records, VERIFY_FIELDS, args)
    return 0 if all(r["status"] == "pass" for r in records) else 1


def _add_output_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="output file (default: stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copula-risk",
        description="Tail risk measures of FGM-coupled bivariate losses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="compute one risk measure")
    p.add_argument("--dist", choices=("exp", "pareto"), required=True)
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
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--alpha", type=float, default=0.9)
    p.add_argument("--target", choices=("x1", "x2", "min", "max", "sum"),
                   required=True)
    p.add_argument("--measure", choices=("var", "cte", "mot"), required=True)
    _add_output_opts(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("table", help="reproduce a published table as printed")
    p.add_argument("table_id", type=int, choices=sorted(TABLES))
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
