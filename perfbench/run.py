"""Benchmark of the copula-risk calculator.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep|edge|verify|all \\
        --seed N --seconds S --trace 0|1

Each workload runs in this one process as a closed loop with one client:
the next operation starts when the previous one returns. Operations run in
whole passes over a list built from the seed before timing starts, until
at least --seconds have passed. With --trace 0 the run prints the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run
(see README.md). The last line of standard output is one JSON object.

On sweep and edge the operations' times are scaled to a fixed host speed,
measured by a calibration kernel run between operations (calibrate.py);
the raw wall-clock figures are printed on `#` lines.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
# workloads whose times are scaled by the calibration kernel: the pure-Python
# ones. On the numpy-bound verify grid no kernel tried (pure Python, numpy
# in cache, numpy streaming 8 MB, or a mix) steadied the times.
CALIBRATED = ("sweep", "edge")
# completed values on sweep and verify must match the reference this closely
REL_GATE = 1e-6


def _import_library() -> float:
    """Import the package from the checkout's source tree; return the seconds taken."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import copula_risk  # noqa: F401
    import copula_risk.cli  # noqa: F401

    return time.perf_counter() - t0


# ---------------------------------------------------------------- operations


def _report(cell):
    from copula_risk import (
        AggregateExpPortfolio,
        BivariatePortfolio,
        ExponentialMarginal,
        FgmCopula,
        ParetoMarginal,
        aggregate_report,
        extreme_report,
        report,
    )

    if cell.family == "exp":
        m1, m2 = ExponentialMarginal(cell.p1), ExponentialMarginal(cell.p2)
    else:
        m1, m2 = ParetoMarginal(cell.x0, cell.p1), ParetoMarginal(cell.x0, cell.p2)
    if cell.target == "x1":
        return report(m1, cell.alpha)
    cop = FgmCopula(cell.theta)
    if cell.target == "sum":
        return aggregate_report(AggregateExpPortfolio(m1, m2, cop), cell.alpha)
    return extreme_report(BivariatePortfolio(m1, m2, cop), cell.target, cell.alpha)


def _verify(seed: int):
    from copula_risk import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--seed", str(seed)])
    return code, buf.getvalue()


def verify_grid_size() -> int:
    from copula_risk import cli

    return len(cli.VERIFY_MEASURES) * (
        len(cli.VERIFY_EXP_THETAS) * len(cli.VERIFY_EXP_ALPHAS) * len(cli.VERIFY_EXP_TARGETS)
        + len(cli.VERIFY_PARETO_THETAS)
        * len(cli.VERIFY_PARETO_ALPHAS)
        * len(cli.VERIFY_PARETO_TARGETS)
    )


def span_name(op) -> str:
    """The layer a harness-level call enters first; names the traced span."""
    from copula_risk.aggregate import AggregateExpPortfolio, is_singular
    from copula_risk import ExponentialMarginal, FgmCopula

    if op.kind == "table":
        return "tables.compute_table"
    if op.kind == "verify":
        return "cli.main"
    c = op.cell
    if c.target == "x1":
        return "marginals.report"
    if c.target != "sum":
        return "extremes.report"
    p = AggregateExpPortfolio(
        ExponentialMarginal(c.p1), ExponentialMarginal(c.p2), FgmCopula(c.theta)
    )
    return "aggregate.fallback_report" if is_singular(p) else "aggregate.report"


def make_call(op, seed: int):
    if op.kind == "table":
        from copula_risk.tables import TableSpec, compute_table

        spec = TableSpec(op.table_id)
        return lambda: compute_table(spec)
    if op.kind == "verify":
        return lambda: _verify(seed)
    return lambda: _report(op.cell)


def outcome(op, result, grid_size: int):
    """(key, units, failed): a comparable summary of one call's result.

    An operation fails if it raised or returned a non-finite value; a
    verify grid counts one operation per cell.
    """
    if isinstance(result, BaseException):
        units = grid_size if op.kind == "verify" else 1
        return ("raised", type(result).__name__), units, units
    if op.kind == "verify":
        code, text = result
        rows = text.splitlines()[1:]
        if code not in (0, 1) or len(rows) != grid_size:
            return ("grid", code, text), grid_size, grid_size
        bad = 0
        for row in rows:
            fields = row.split(",")
            status = fields[-1]
            try:
                finite = all(math.isfinite(float(f)) for f in fields[6:9])
            except ValueError:
                finite = False
            bad += status == "low_tail_count" or not finite
        return ("grid", code, text), grid_size, bad
    if op.kind == "table":
        values = tuple(r["value"] for r in result)
    else:
        values = (result.var, result.cte, result.mot)
    ok = all(math.isfinite(v) for v in values)
    return ("values", values), 1, 0 if ok else 1


# -------------------------------------------------------------- measurement


class Run(NamedTuple):
    """One timed loop: per call, the latency (scaled to the calibrated host
    speed on calibrated workloads), the operations and the failed ones, in
    arrays, so that the record adds little memory however many passes run;
    the scaled and the raw sum of the latencies, and the number of passes."""

    latency_ns: array
    units: array
    failed: array
    busy_s: float
    raw_busy_s: float
    passes: int

    def attempts(self):
        return map(metrics.Attempt, self.latency_ns, self.units, self.failed)


class Measurement:
    """Attempts, per-operation outcomes and determinism over whole passes."""

    def __init__(self, ops, seed: int, calibrated: bool):
        self.ops = ops
        self.calls = [make_call(op, seed) for op in ops]
        self.grid_size = verify_grid_size()
        self.first: list = [None] * len(ops)  # (key, result) of the first pass
        self.first_outcomes: list = [None] * len(ops)  # (units, failed) of the first pass
        self.mismatches = 0
        self.untyped = 0
        self.cal = calibrate.Calibration() if calibrated else None

    def attempted_failed(self) -> tuple[int, int]:
        """Operations, and failed ones, in one pass: the same on every pass
        (the checks see to that), so the same for every run of a seed."""
        return (sum(u for u, _ in self.first_outcomes), sum(f for _, f in self.first_outcomes))

    def run(self, seconds: float, calls=None) -> Run:
        """Whole passes until `seconds` have passed."""
        from copula_risk import CopulaRiskError

        calls = calls or self.calls
        starts, latencies, units_of, failed_of = array("q"), array("q"), array("i"), array("i")
        cal = self.cal
        clock = time.perf_counter_ns
        start = clock()
        passes = 0
        while clock() - start < seconds * 1e9 or passes == 0:
            for i, call in enumerate(calls):
                if cal:
                    cal.maybe_sample()
                t0 = clock()
                try:
                    result = call()
                except Exception as exc:  # every failure is counted, none stops the run
                    result = exc
                dt = clock() - t0
                key, units, failed = outcome(self.ops[i], result, self.grid_size)
                if isinstance(result, Exception) and not isinstance(result, CopulaRiskError):
                    self.untyped += 1
                starts.append(t0)
                latencies.append(dt)
                units_of.append(units)
                failed_of.append(failed)
                if self.first[i] is None:
                    self.first[i] = (key, result)
                    self.first_outcomes[i] = (units, failed)
                elif self.first[i][0] != key:
                    self.mismatches += 1
            passes += 1
        scaled = latencies
        if cal:
            cal.sample()
            scaled = array("q", (round(dt * cal.scale(t0, t0 + dt))
                                 for t0, dt in zip(starts, latencies)))
        return Run(scaled, units_of, failed_of, sum(scaled) / 1e9, sum(latencies) / 1e9, passes)


def warm_up(meas: Measurement) -> None:
    """Run the first operation once, untimed, so lazy set-up finishes first."""
    with contextlib.suppress(Exception):
        meas.calls[0]()


def setup_probe_times(args) -> list[float]:
    """Seconds from interpreter start to the first completed result, per fresh
    process; raw wall-clock times (see calibrate.py for why)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "done":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(t)
    return times


def probe(args) -> int:
    _import_library()
    op = workloads.build(args.workload, args.seed)[0]
    try:
        make_call(op, args.seed)()
    except Exception:  # a failed first result is still a completed one
        pass
    print("done", flush=True)
    return 0


# -------------------------------------------------------------- correctness


def _cell_of(family, target, theta, alpha):
    from copula_risk import tables

    if family == "exp":
        l1, l2 = tables.DEFAULT_EXP_RATES
        return workloads.Cell(family, target, l1, l2, 0.0, theta, alpha)
    g1, g2 = tables.DEFAULT_PARETO_GAMMAS
    return workloads.Cell(family, target, g1, g2, tables.DEFAULT_PARETO_X0, theta, alpha)


def checked_values(op, result):
    """(cell, measure index, value, tolerance, relative) for every value of a call."""
    from copula_risk import tables

    idx = {"var": 0, "cte": 1, "mot": 2}
    if op.kind == "report":
        rel = result.method.value == "quadrature"
        return [(op.cell, k, v, result.tolerance, rel)
                for k, v in enumerate((result.var, result.cte, result.mot))]
    if op.kind == "table":
        tdef = tables.TABLES[op.table_id]
        out = []
        for row in result:
            cell = _cell_of(tdef.family, tdef.target, row["theta"], tables.DEFAULT_TABLE_ALPHA)
            out.append((cell, idx[row["measure"]], row["value"]))
    else:
        out = []
        for row in result[1].splitlines()[1:]:
            f = row.split(",")
            cell = _cell_of(f[0], f[1], float(f[3]), float(f[4]))
            out.append((cell, idx[f[2]], float(f[6])))
    # tables and the verify grid state no tolerance: use the one the
    # library's report states for the same cell
    stated = {}
    values = []
    for cell, k, v in out:
        if cell not in stated:
            r = _report(cell)
            stated[cell] = (r.tolerance, r.method.value == "quadrature")
        values.append((cell, k, v) + stated[cell])
    return values


def check(meas: Measurement, workload: str) -> dict:
    import oracle

    checks = {}
    self_err = max(err for _, err in oracle.self_checks())
    checks["oracle_self_checks"] = self_err < 1e-30
    checks["same_result_every_pass"] = meas.mismatches == 0
    refs = {}
    max_rel = 0.0
    over_tol = 0
    n_values = 0
    sizes = {"report": 3, "table": 5, "verify": meas.grid_size}
    for op, (key, result) in zip(meas.ops, meas.first):
        if key[0] == "raised" or (op.kind == "verify" and key[1] not in (0, 1)):
            n_values += sizes[op.kind]
            over_tol += sizes[op.kind]
            max_rel = max(max_rel, 1.0)
            continue
        for cell, k, v, tol, rel in checked_values(op, result):
            if cell not in refs:
                refs[cell] = oracle.reference(
                    cell.family, cell.target, cell.p1, cell.p2, cell.x0, cell.theta, cell.alpha
                )
            ref = refs[cell][k]
            n_values += 1
            if not math.isfinite(v):
                over_tol += 1
                max_rel = max(max_rel, 1.0)
                continue
            err = float(abs(v - ref) / abs(ref))
            max_rel = max(max_rel, err)
            if not metrics.within_tolerance(v, float(ref), tol, rel):
                over_tol += 1
    if workload in ("sweep", "verify"):
        checks[f"values_within_{REL_GATE:g}_of_reference"] = max_rel <= REL_GATE
    fails = None
    if workload == "verify":
        key = meas.first[0][0]
        grid_ok = key[0] == "grid" and key[1] in (0, 1)
        checks["verify_exit_code_0_or_1"] = grid_ok
        rows = key[2].splitlines() if grid_ok else []
        checks[f"verify_csv_has_{meas.grid_size}_rows"] = len(rows) == meas.grid_size + 1
        checks["verify_csv_byte_identical"] = meas.mismatches == 0
        fails = sum(row.endswith(",fail") for row in rows)
    return {
        "checks": checks,
        "max_rel_err": max_rel,
        "cells_over_tol": over_tol,
        "values": n_values,
        "mc_fail_cells": fails,
    }


# ------------------------------------------------------------------ reports


def run_record(args) -> dict:
    import mpmath
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args) -> dict:
    setup = setup_probe_times(args)
    _import_library()
    ops = workloads.build(args.workload, args.seed)
    meas = Measurement(ops, args.seed, args.workload in CALIBRATED)
    warm_up(meas)
    r = meas.run(args.seconds)
    s = metrics.summarize(r.attempts(), r.busy_s)
    acc = check(meas, args.workload)
    rss = peak_rss_mb()
    attempted, failed = meas.attempted_failed()
    failed_frac = failed / attempted
    print(f"# run {json.dumps(run_record(args))}")
    print(f"# passes {r.passes} busy_s {r.busy_s:.3f} latency samples {s.samples}; "
          f"tail is p{s.tail_p:.4g}")
    if meas.cal:
        print(f"# scaled to a kernel time of {calibrate.REF_NS} ns; raw busy_s "
              f"{r.raw_busy_s:.3f}, raw reports_per_s "
              f"{(s.attempted - s.failed) / r.raw_busy_s:.6g}, "
              f"{len(meas.cal.times)} kernel samples, mean "
              f"{statistics.mean(meas.cal.durations):.0f} ns")
    print(f"# setup probes s {[round(t, 4) for t in setup]}")
    zero_prone = {
        "failed_frac": (failed_frac, "ratio"),
        "max_rel_err": (acc["max_rel_err"], "ratio"),
        "cells_over_tol": (acc["cells_over_tol"], f"of {acc['values']} values"),
    }
    if args.workload == "verify":
        zero_prone["verify_s"] = (s.p50_ns / 1e9, "s")
        zero_prone["mc_fail_cells"] = (acc["mc_fail_cells"], "cells")
    for name, (v, unit) in zero_prone.items():
        print(f"# {name} {v:.6g} {unit}")
    for name, ok in acc["checks"].items():
        print(f"# check {name} {'ok' if ok else 'FAILED'}")
    values = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "reports_per_s": _metric(s.completed_per_s, "1/s"),
        "report_p50_us": _metric(s.p50_ns / 1e3, "us"),
        "report_tail_us": _metric(s.tail_ns / 1e3, "us"),
        "ok_frac": _metric(1.0 - failed_frac, "ratio"),
        "digits_lost": _metric(metrics.digits_lost(acc["max_rel_err"]), "digits"),
        "within_tol_frac": _metric(1.0 - acc["cells_over_tol"] / acc["values"], "ratio"),
        "peak_rss_mb": _metric(rss, "MB"),
    }
    for name, m in values.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    return {
        "correct": all(acc["checks"].values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }


def per_layer(args) -> dict:
    import tracing

    import_s = _import_library()
    ops = workloads.build(args.workload, args.seed)
    meas = Measurement(ops, args.seed, args.workload in CALIBRATED)
    warm_up(meas)
    plain = meas.run(args.seconds / 2)
    tracer = tracing.Tracer()

    def harness_call(name, call):
        """A span around one operation that also counts the CDF evaluations inside it."""
        def traced():
            before = tracer.count("mixtures.cdf")
            tracer.enter(name)
            try:
                return call()
            finally:
                tracer.exit()
                tracer.counts[name + ".cdf_evals"] += tracer.count("mixtures.cdf") - before

        return traced

    calls = [harness_call(span_name(op), c) for op, c in zip(ops, meas.calls)]
    untyped_before = meas.untyped
    with tracing.layer_tracing(tracer):
        tracer.enter("harness")
        t0 = time.perf_counter_ns()
        traced = meas.run(args.seconds / 2, calls)
        traced_ns = time.perf_counter_ns() - t0
        tracer.exit()
    acc = check(meas, args.workload)
    t = tracer
    counts = t.counts
    per_pass = 1.0 / traced.passes

    def mean_us(name):
        return t.incl_ns(name) / t.count(name) / 1e3 if t.count(name) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    self_total = sum(rec[2] for rec in t.spans.values())
    layer = {
        "numerics.solves": (counts["numerics.solves"] * per_pass, "count"),
        "numerics.evals_per_solve": (ratio(counts["numerics.solve_evals"], counts["numerics.solves"]), "count"),
        "numerics.solve_s": (t.self_ns("numerics.solve") / 1e9 * per_pass, "s"),
        "numerics.solve_failures": (counts["numerics.solve_failures"] * per_pass, "count"),
        "numerics.quad_calls": (t.count("numerics.quad") * per_pass, "count"),
        "numerics.quad_s": (t.self_ns("numerics.quad") / 1e9 * per_pass, "s"),
        "mixtures.cdf_evals": (t.count("mixtures.cdf") * per_pass, "count"),
        "mixtures.cdf_ns": (ratio(t.self_ns("mixtures.cdf"), t.count("mixtures.cdf")), "ns"),
        "extremes.report_us": (mean_us("extremes.report"), "us"),
        "extremes.evals_per_report": (ratio(counts["extremes.report.cdf_evals"], t.count("extremes.report")), "count"),
        "aggregate.report_us": (mean_us("aggregate.report"), "us"),
        "aggregate.fallback_report_s": (mean_us("aggregate.fallback_report") / 1e6, "s"),
        "aggregate.fallback_share": (t.incl_ns("aggregate.fallback_report") / traced_ns, "ratio"),
        "marginals.report_us": (mean_us("marginals.report"), "us"),
        "marginals.quantile_ns_per_value": (ratio(t.self_ns("marginals.quantile"), counts["marginals.quantile_values"]), "ns"),
        "copula.cq_ns_per_pair": (ratio(t.self_ns("copula.conditional_quantile"), counts["copula.cq_pairs"]), "ns"),
        "mc_oracle.sample_s": (t.incl_ns("mc_oracle.sample") / 1e9 * per_pass, "s"),
        "mc_oracle.pairs_per_s": (ratio(counts["mc_oracle.pairs"] * 1e9, t.incl_ns("mc_oracle.sample")), "1/s"),
        "mc_oracle.estimate_s": (t.incl_ns("mc_oracle.estimate") / 1e9 * per_pass, "s"),
        "cli.select_s": (t.self_ns("cli.verify_cells") / 1e9 * per_pass, "s"),
        "cli.emit_s": (t.incl_ns("cli.emit") / 1e9 * per_pass, "s"),
        "tables.table_s": (t.incl_ns("tables.compute_table") / 1e9 * per_pass, "s"),
        "cli.import_s": (import_s, "s"),
        "errors.untyped_failures": ((meas.untyped - untyped_before) * per_pass, "count"),
        "trace.overhead_frac": ((traced.busy_s / traced.passes) / (plain.busy_s / plain.passes) - 1.0, "ratio"),
        "trace.accounted_frac": (self_total / traced_ns, "ratio"),
    }
    print(f"# run {json.dumps(run_record(args))}")
    print(f"# untraced passes {plain.passes} in {plain.busy_s:.3f} s; "
          f"traced passes {traced.passes} in {traced.busy_s:.3f} s")
    print("# self time by span, s per pass:")
    for name, (n, incl, self_ns) in sorted(t.spans.items(), key=lambda kv: -kv[1][2]):
        print(f"#   {name:32s} {self_ns / 1e9 * per_pass:12.6f}  ({n} spans)")
    for name, ok in acc["checks"].items():
        print(f"# check {name} {'ok' if ok else 'FAILED'}")
    values = {}
    for name, (v, unit) in layer.items():
        values[name] = _metric(v, unit)
        print(f"{args.workload} {name} {v:.6g} {unit}")
    attempted, failed = meas.attempted_failed()
    return {
        "correct": all(acc["checks"].values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "copula_risk" / "__init__.py").is_file():
        print(f"error: no copula_risk sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for w in workloads.WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
        return code
    if args.probe:
        return probe(args)
    result = per_layer(args) if args.trace else end_to_end(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
