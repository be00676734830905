import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import copula_risk
from copula_risk import cli, mc_oracle
from copula_risk.aggregate import aggregate_report
from copula_risk.cli import main
from copula_risk.errors import DomainError, LowTailCount
from copula_risk.extremes import extreme_report
from copula_risk.marginals import level_of, report
from copula_risk.mc_oracle import (
    _BLOCK,
    _order_stat_estimate,
    _tail_mean_estimate,
    sample_pairs,
    scalar_sample,
)
from copula_risk.tables import (
    TableSpec,
    build_portfolio,
    compute_measure,
    compute_table,
)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def assert_one_error_record(capsys, needle, *argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["type"] == "DomainError"
    assert error["exit_code"] == 2
    assert needle in error["message"]


class TestMeasure:
    def test_published_min_var_cell(self, capsys):
        rc, out, _ = run_cli(
            capsys, "measure", "--dist", "exp", "--l1", "0.5", "--l2", "0.6",
            "--theta", "0.5", "--target", "min", "--measure", "var",
            "--alpha", "0.9",
        )
        assert rc == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["value"]) == pytest.approx(2.3, abs=2e-2)
        assert rows[0]["method"] == "root_solve"
        assert rows[0]["dist"] == "exp"
        assert rows[0]["x0"] == ""  # irrelevant family parameters left blank

    # a VaR near 1e-30, far below the absolute tolerance 1e-12: an
    # upper-tail solve also stops at a relative width, so its CTE is right
    # to 1e-10 relative
    @pytest.mark.parametrize("l2", [1e30, 2e30])
    def test_min_cte_at_large_rates(self, capsys, l2):
        rc, out, _ = run_cli(
            capsys, "measure", "--dist", "exp", "--l1", "1e30", "--l2",
            repr(l2), "--theta", "0", "--target", "min", "--measure", "cte",
        )
        assert rc == 0
        expected = (math.log(10.0) + 1.0) / (1e30 + l2)
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(
            expected, rel=1e-10, abs=0.0
        )

    # at rates 1e308 the sum's pair rate 2*l1 overflows to inf
    @pytest.mark.parametrize(
        "target, needle",
        [("sum", "term rates i*l1 and j*l2 must be finite")],
        ids=["exp-sum"],
    )
    def test_cte_below_its_var_is_a_parameter_error(self, capsys, target, needle):
        assert_one_error_record(
            capsys, needle, "measure", "--dist", "exp", "--l1", "1e308",
            "--l2", "1e308", "--target", target, "--theta", "0.5",
            "--measure", "cte",
        )

    # the min's and max's mean excess forms no term rate, so there the CLI
    # prints the library's finite CTE, above its VaR (its error against the
    # oracle is pinned in test_reports.py)
    @pytest.mark.parametrize("target", ["min", "max"], ids=["exp-min", "exp-max"])
    def test_extreme_cte_at_the_largest_rates(self, capsys, target):
        rc, out, _ = run_cli(
            capsys, "measure", "--dist", "exp", "--l1", "1e308", "--l2",
            "1e308", "--target", target, "--theta", "0.5", "--measure", "cte",
        )
        assert rc == 0
        m = copula_risk.ExponentialMarginal(1e308)
        p = copula_risk.BivariatePortfolio(m, m, copula_risk.FgmCopula(0.5))
        r = extreme_report(p, target, 0.9)
        assert float(parse_csv(out)[0]["value"]) == r.cte
        assert r.var < r.cte < math.inf

    # the sum's VaR there read 2.996e-308, where the oracle's is 4.034e-308
    def test_overflowed_sum_var_is_a_parameter_error(self, capsys):
        assert_one_error_record(
            capsys, "term rates i*l1 and j*l2 must be finite", "measure",
            "--dist", "exp", "--l1", "1e308", "--l2", "1e308", "--target",
            "sum", "--theta", "0.5", "--measure", "var",
        )

    # at exponents 1e20 the mean excess beyond the solved VaR underflows to
    # 0, so CTE is that VaR: the first float above x0, where the survival
    # first falls to the tail mass, one ulp above the oracle's 1.0
    @pytest.mark.parametrize("target", ["max", "min"], ids=["pareto-max", "pareto-min"])
    def test_cte_may_round_onto_its_var(self, capsys, target):
        rc, out, _ = run_cli(
            capsys, "measure", "--dist", "pareto", "--g1", "1e20", "--g2",
            "1e20", "--target", target, "--theta", "0.5", "--measure", "cte",
        )
        assert rc == 0
        assert float(parse_csv(out)[0]["value"]) == 1.0000000000000002

    def test_independent_max_cte_default_rates(self, capsys):
        rc, out, _ = run_cli(
            capsys, "measure", "--dist", "exp", "--theta", "0",
            "--target", "max", "--measure", "cte",
        )
        assert rc == 0
        assert float(parse_csv(out)[0]["value"]) == pytest.approx(7.37, abs=1e-2)

    def test_marginal_target_uses_closed_form(self, capsys):
        rc, out, _ = run_cli(
            capsys, "measure", "--dist", "pareto", "--target", "x1",
            "--measure", "mot", "--alpha", "0.9",
        )
        assert rc == 0
        row = parse_csv(out)[0]
        assert float(row["value"]) == pytest.approx(2.71, abs=1e-2)
        assert row["method"] == "closed_form"

    def test_equal_rate_sum_takes_the_closed_form(self, capsys):
        rc, out, _ = run_cli(
            capsys, "measure", "--dist", "exp", "--l1", "0.5", "--l2", "0.5",
            "--theta", "0", "--target", "sum", "--measure", "var",
            "--alpha", "0.9",
        )
        assert rc == 0
        row = parse_csv(out)[0]
        assert row["method"] == "root_solve"
        assert float(row["tolerance"]) == 1e-12
        # frozen Erlang(2, 0.5) quantile at 0.9
        assert float(row["value"]) == pytest.approx(7.77944033973486, abs=1e-12)

    def test_pareto_sum_is_a_parameter_error(self, capsys):
        rc, out, err = run_cli(
            capsys, "measure", "--dist", "pareto", "--target", "sum",
            "--measure", "var",
        )
        assert rc == 2
        record = json.loads(err)
        assert record["error"]["type"] == "DomainError"
        assert record["error"]["exit_code"] == 2

    def test_bad_alpha_is_a_parameter_error(self, capsys):
        rc, _, err = run_cli(
            capsys, "measure", "--dist", "exp", "--target", "min",
            "--measure", "var", "--alpha", "1.5",
        )
        assert rc == 2
        assert json.loads(err)["error"]["type"] == "DomainError"

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["measure", "--dist", "cauchy", "--target", "min",
                  "--measure", "var"])
        assert exc.value.code == 2

    def test_json_and_csv_agree(self, capsys):
        argv = ["measure", "--dist", "exp", "--theta", "0.3",
                "--target", "sum", "--measure", "mot"]
        _, out_csv, _ = run_cli(capsys, *argv, "--format", "csv")
        _, out_json, _ = run_cli(capsys, *argv, "--format", "json")
        csv_row = parse_csv(out_csv)[0]
        json_row = json.loads(out_json)[0]
        assert float(csv_row["value"]) == json_row["value"]
        assert float(csv_row["tolerance"]) == json_row["tolerance"]
        assert csv_row["method"] == json_row["method"]


def _library_report(portfolio, target, alpha):
    if target in ("x1", "x2"):
        return report(portfolio.m1 if target == "x1" else portfolio.m2, alpha)
    if target == "sum":
        return aggregate_report(portfolio, alpha)
    return extreme_report(portfolio, target, alpha)


@pytest.mark.parametrize("measure", ["var", "cte", "mot"])
@pytest.mark.parametrize(
    "dist,target",
    [(d, t) for d in ("exp", "pareto") for t in ("x1", "x2", "min", "max", "sum")
     if (d, t) != ("pareto", "sum")],
)
def test_measure_matches_the_library(capsys, dist, target, measure):
    rc, out, _ = run_cli(
        capsys, "measure", "--dist", dist, "--theta", "0.5",
        "--alpha", "0.95", "--target", target, "--measure", measure,
    )
    assert rc == 0
    row = parse_csv(out)[0]
    portfolio = build_portfolio(dist, 0.5)
    assert float(row["value"]) == compute_measure(portfolio, target, measure, 0.95)
    rep = _library_report(portfolio, target, 0.95)
    assert row["method"] == rep.method.value
    assert float(row["tolerance"]) == rep.tolerance


class TestTable:
    def test_published_cells(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "3")
        assert rc == 0
        rows = parse_csv(out)
        assert [float(r["theta"]) for r in rows] == [0.1, 0.3, 0.5, 0.7, 0.9]
        assert float(rows[0]["value"]) == pytest.approx(5.46, abs=2e-2)
        rc, out, _ = run_cli(capsys, "table", "8")
        assert float(parse_csv(out)[2]["value"]) == pytest.approx(3.49, abs=2e-2)

    def test_header_schema(self, capsys):
        _, out, _ = run_cli(capsys, "table", "1")
        header = out.splitlines()[0]
        assert header == "table_id,theta,measure,target,value,paper_value,delta"

    def test_misprinted_cell_flagged_by_delta(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "11")
        rows = parse_csv(out)
        first = rows[0]
        assert float(first["theta"]) == 0.1
        assert float(first["value"]) == pytest.approx(2.777, abs=2e-3)
        assert float(first["paper_value"]) == 2.64
        assert abs(float(first["delta"])) > 0.1

    # a table is printed at its own setting; any other is a `measure` call
    @pytest.mark.parametrize(
        "option", ["--theta-grid", "--alpha", "--l1", "--l2", "--x0", "--g1", "--g2"]
    )
    def test_takes_no_parameter_option(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            main(["table", "9", option, "0.5"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "t1.csv"
        rc, out, _ = run_cli(capsys, "table", "1", "--out", str(target))
        assert rc == 0 and out == ""
        assert target.read_text().startswith("table_id,theta")

    def test_unwritable_out_is_a_parameter_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "t1.csv"
        assert_one_error_record(
            capsys, str(target), "table", "1", "--out", str(target)
        )

    def test_garbage_env_seed_is_ignored(self, capsys, monkeypatch):
        # tables never sample, so COPULA_RISK_SEED is not read
        clean = run_cli(capsys, "table", "1")
        monkeypatch.setenv("COPULA_RISK_SEED", "not-a-number")
        assert run_cli(capsys, "table", "1") == clean
        assert clean[0] == 0 and clean[2] == ""

    def test_byte_stable_across_runs(self, capsys):
        _, first, _ = run_cli(capsys, "table", "15")
        _, second, _ = run_cli(capsys, "table", "15")
        assert first == second


class TestFigure:
    def test_figure_matches_tables(self, capsys):
        rc, out, _ = run_cli(capsys, "figure", "1")
        assert rc == 0
        rows = parse_csv(out)
        var_rows = compute_table(TableSpec(table_id=1))
        cte_rows = compute_table(TableSpec(table_id=2))
        for row, vr, cr in zip(rows, var_rows, cte_rows):
            assert float(row["var"]) == vr["value"]
            assert float(row["cte"]) == cr["value"]

    def test_figure_three_uses_aggregate_series(self, capsys):
        _, out, _ = run_cli(capsys, "figure", "3")
        rows = parse_csv(out)
        assert float(rows[-1]["var"]) == pytest.approx(7.61, abs=2e-2)
        assert float(rows[-1]["cte"]) == pytest.approx(9.99, abs=2e-2)

    def test_json_round_trip(self, capsys):
        _, out_csv, _ = run_cli(capsys, "figure", "2")
        _, out_json, _ = run_cli(capsys, "figure", "2", "--format", "json")
        for c_row, j_row in zip(parse_csv(out_csv), json.loads(out_json)):
            assert float(c_row["var"]) == j_row["var"]
            assert float(c_row["cte"]) == j_row["cte"]


class TestVerify:
    def test_small_grid_passes(self, capsys):
        rc, out, _ = run_cli(
            capsys, "verify", "--mc-n", "20000", "--seed", "42",
        )
        rows = parse_csv(out)
        assert rc == 0
        assert all(r["status"] == "pass" for r in rows)
        assert len(rows) == 90  # 4*2*3*3 exponential + 3*1*2*3 pareto cells

    def test_theta_filter_restricts_grid(self, capsys):
        rc, out, _ = run_cli(
            capsys, "verify", "--mc-n", "20000", "--theta", "0",
        )
        rows = parse_csv(out)
        assert {r["theta"] for r in rows} == {"0"}
        assert len(rows) == 24  # 1*2*3*3 exp + 1*1*2*3 pareto

    def test_low_tail_count_reported(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--mc-n", "100", "--theta", "0.5")
        rows = parse_csv(out)
        assert rc == 1
        cte_rows = [r for r in rows if r["measure"] == "cte"]
        assert cte_rows and all(
            r["status"] == "low_tail_count" for r in cte_rows
        )
        assert all(r["empirical"] == "" for r in cte_rows)

    def test_one_pair_has_no_standard_error(self, capsys):
        # one pair gives an order statistic with no spread around it: its
        # standard error is 0, so any gap to the analytic value is z = inf,
        # and no value lies above it for a tail mean
        rc, out, _ = run_cli(capsys, "verify", "--mc-n", "1", "--theta", "0.5")
        rows = parse_csv(out)
        assert rc == 1
        assert len(rows) == 24
        for r in rows:
            if r["measure"] == "cte":
                assert r["status"] == "low_tail_count"
            else:
                assert (r["std_error"], r["z"], r["status"]) == ("0", "inf", "fail")

    def test_deterministic_given_seed(self, capsys):
        argv = ["verify", "--mc-n", "50000", "--seed", "7"]
        rc1, out1, _ = run_cli(capsys, *argv)
        rc2, out2, _ = run_cli(capsys, *argv)
        assert (rc1, out1) == (rc2, out2)

    def test_garbage_env_seed_is_parameter_error(self, capsys, monkeypatch):
        monkeypatch.setenv("COPULA_RISK_SEED", "not-a-number")
        rc, _, err = run_cli(capsys, "verify", "--mc-n", "1000")
        assert rc == 2
        assert json.loads(err)["error"]["type"] == "DomainError"

    @pytest.mark.parametrize("mc_n", ["-1", "0"])
    def test_non_positive_mc_n_is_a_parameter_error(self, capsys, mc_n):
        rc, out, err = run_cli(capsys, "verify", "--mc-n", mc_n)
        assert rc == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "DomainError"
        assert error["exit_code"] == 2

    def test_negative_seed_flag_is_a_parameter_error(self, capsys):
        assert_one_error_record(
            capsys, "seed=-3", "verify", "--mc-n", "100", "--seed", "-3"
        )

    def test_negative_env_seed_is_a_parameter_error(self, capsys, monkeypatch):
        monkeypatch.setenv("COPULA_RISK_SEED", "-3")
        assert_one_error_record(capsys, "seed=-3", "verify", "--mc-n", "100")

    def test_unwritable_out_is_a_parameter_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "v.csv"
        assert_one_error_record(
            capsys, str(target), "verify", "--mc-n", "100", "--out", str(target)
        )

    def test_sampling_threads_end_with_the_run(self, capsys):
        # 200,000 pairs are four blocks, sampled by worker threads
        baseline = threading.active_count()
        run_cli(capsys, "verify", "--mc-n", "200000")
        assert threading.active_count() == baseline

    def test_env_seed_honored_and_overridable(self, capsys, monkeypatch):
        monkeypatch.setenv("COPULA_RISK_SEED", "99")
        _, out_env, _ = run_cli(capsys, "verify", "--mc-n", "20000",
                                "--theta", "0.5")
        _, out_flag, _ = run_cli(capsys, "verify", "--mc-n", "20000",
                                 "--theta", "0.5", "--seed", "99")
        assert out_env == out_flag
        _, out_other, _ = run_cli(capsys, "verify", "--mc-n", "20000",
                                  "--theta", "0.5", "--seed", "100")
        assert out_env != out_other


class TestVerifyTailSort:
    """`_verify_cells` sorts only the tail the estimators read.

    The reference is the same grid with every scalar sample fully sorted.
    """

    @staticmethod
    def grid(seed, mc_n):
        return cli._verify_cells(
            "exp", cli.VERIFY_EXP_THETAS, cli.VERIFY_EXP_ALPHAS,
            cli.VERIFY_EXP_TARGETS, mc_n, seed,
        ) + cli._verify_cells(
            "pareto", cli.VERIFY_PARETO_THETAS, cli.VERIFY_PARETO_ALPHAS,
            cli.VERIFY_PARETO_TARGETS, mc_n, seed,
            stream_base=len(cli.VERIFY_EXP_THETAS),
        )

    @pytest.mark.parametrize("mc_n", [100, 1000, 20000, 2**16 + 3])
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_records_equal_full_sort(self, monkeypatch, seed, mc_n):
        records = self.grid(seed, mc_n)
        monkeypatch.setattr(cli, "_select_tail", lambda xs, first: xs.sort())
        assert records == self.grid(seed, mc_n)
        if mc_n == 100:
            assert any(r["status"] == "low_tail_count" for r in records)


def reference_cells(family, thetas, alphas, targets, mc_n, seed,
                    stream_base=0):
    """`_verify_cells` by the public sampler and a full sort per target."""
    records = []
    for stream, theta in enumerate(thetas, start=stream_base):
        portfolio = build_portfolio(family, theta)
        batch = sample_pairs(portfolio, mc_n, seed, stream=stream)
        for target in targets:
            xs = np.sort(scalar_sample(batch, target))
            for a in map(level_of, alphas):
                for measure in cli.VERIFY_MEASURES:
                    analytic = compute_measure(portfolio, target, measure, a)
                    record = {
                        "family": family, "target": target,
                        "measure": measure, "theta": theta, "alpha": a,
                        "mc_n": mc_n, "analytic": analytic,
                        "empirical": None, "std_error": None, "z": None,
                        "status": "low_tail_count",
                    }
                    try:
                        if measure == "cte":
                            est = _tail_mean_estimate(xs, a, 30)
                        else:
                            level = a if measure == "var" else (1 + a) / 2
                            est = _order_stat_estimate(xs, level)
                    except LowTailCount:
                        records.append(record)
                        continue
                    if est.std_error > 0.0:
                        z = abs(analytic - est.point) / est.std_error
                    else:
                        z = 0.0 if analytic == est.point else math.inf
                    record.update(
                        empirical=est.point, std_error=est.std_error, z=z,
                        status="pass" if z <= cli.VERIFY_Z_LIMIT else "fail",
                    )
                    records.append(record)
    return records


class TestVerifyBuffers:
    """`_verify_cells` derives every target in place in the batch and one
    reused array."""

    @staticmethod
    def grid(cells, targets, mc_n):
        return cells(
            "exp", (-0.9, 0.5), cli.VERIFY_EXP_ALPHAS, targets, mc_n, 5,
        ) + cells(
            "pareto", (0.9,), cli.VERIFY_PARETO_ALPHAS,
            tuple(t for t in targets if t != "sum"),  # no Pareto sum
            mc_n, 5, stream_base=2,
        )

    @pytest.mark.parametrize("mc_n", [100, 2**16 + 3])
    @pytest.mark.parametrize(
        "targets", [("min", "max", "sum"), ("sum", "max", "min")],
    )
    def test_records_equal_fresh_samples(self, targets, mc_n):
        records = self.grid(cli._verify_cells, targets, mc_n)
        fresh = self.grid(reference_cells, targets, mc_n)
        assert records == fresh
        assert [r["target"] for r in records] == [r["target"] for r in fresh]

    @pytest.mark.parametrize("targets", [("x1",), ("min", "x2"), ("median",)])
    def test_marginal_or_unknown_target_is_a_domain_error(self, targets):
        with pytest.raises(DomainError, match="min, max and sum"):
            cli._verify_cells("exp", (0.5,), (0.9,), targets, 1000, 5)

    def test_peak_memory_is_one_batch_and_one_sample(self):
        n = 2**18
        thetas, alphas = (0.0, 0.5, 0.9), (0.9,)
        targets = ("min", "max", "sum")
        # first calls fill caches, load code and start a thread pool
        # outside the traced run
        cli._verify_cells("exp", thetas, alphas, targets, 2 * _BLOCK, 3)
        tracemalloc.start()
        try:
            cli._verify_cells("exp", thetas, alphas, targets, n, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # numpy reports its data buffers to tracemalloc. Live at once, at
        # most: one theta's (n, 2) pairs, one scalar sample of n floats and
        # the sampler's workspace of four blocks, plus 1 MiB for everything
        # else (records, reports, array headers). Keeping the last theta's
        # pairs while drawing the next, or a fresh sample per target
        # alongside the one it replaces, would exceed it by 1 MiB or more.
        bound = 8 * (2 * n + n + 4 * _BLOCK) + 2**20
        assert peak <= bound, (peak, bound)


class TestVerifyWorkers:
    """The per-batch stages give the same records on any number of threads."""

    @pytest.mark.parametrize("mc_n", [100, 2**16 + 3, 200_000])
    @pytest.mark.parametrize(
        "targets", [("min", "max", "sum"), ("sum", "max", "min")],
    )
    def test_records_equal_across_worker_counts(
        self, monkeypatch, targets, mc_n
    ):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(8)), raising=False
        )
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(mc_oracle, "_WORKERS", workers)
            runs.append(
                TestVerifyBuffers.grid(cli._verify_cells, targets, mc_n)
            )
        assert runs[0] == runs[1] == runs[2]
        if mc_n == 100:
            assert any(r["status"] == "low_tail_count" for r in runs[0])

    def test_select_error_propagates_and_threads_end(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(8)), raising=False
        )
        batches = []
        sample = cli.sample_pairs

        def recorded(*args, **kwargs):
            batches.append(sample(*args, **kwargs))
            return batches[-1]

        select = cli._select_tail

        def failing(xs, first):
            # the sum is written over the x2 column
            if np.may_share_memory(xs, batches[-1].x2):
                raise ValueError("injected")
            select(xs, first)

        monkeypatch.setattr(cli, "sample_pairs", recorded)
        monkeypatch.setattr(cli, "_select_tail", failing)
        baseline = threading.active_count()
        with pytest.raises(ValueError, match="injected"):
            cli._verify_cells("exp", (0.5,), (0.9,), ("min", "max", "sum"),
                              2 * _BLOCK + 1, 5)
        assert threading.active_count() == baseline

    def test_derive_error_propagates_and_threads_end(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(8)), raising=False
        )
        derive = cli._derive_blocks

        def failing(starts, *args):
            def checked():
                for start in starts:
                    # the last block, whichever thread takes it
                    if start == 2 * _BLOCK:
                        raise ValueError("injected")
                    yield start

            derive(checked(), *args)

        monkeypatch.setattr(cli, "_derive_blocks", failing)
        baseline = threading.active_count()
        with pytest.raises(ValueError, match="injected"):
            cli._verify_cells("exp", (0.5,), (0.9,), ("min", "max", "sum"),
                              2 * _BLOCK + 1, 5)
        assert threading.active_count() == baseline


def test_cold_start_without_numpy():
    """The package, its CLI and the analytic subcommands never load numpy,
    nor the thread pool that sampling starts."""
    script = """
import contextlib, io, sys
import copula_risk, copula_risk.cli
assert "numpy" not in sys.modules, "on import"
runs = [["table", "1"], ["figure", "1"]]
for dist in ("exp", "pareto"):
    for target in ("x1", "min", "max"):
        for measure in ("var", "cte", "mot"):
            runs.append(["measure", "--dist", dist, "--target", target,
                         "--measure", measure])
for measure in ("var", "cte", "mot"):
    runs.append(["measure", "--dist", "exp", "--target", "sum",
                 "--measure", measure])
with contextlib.redirect_stdout(io.StringIO()):
    for argv in runs:
        assert copula_risk.cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, "after the subcommands"
assert "concurrent.futures" not in sys.modules, "after the subcommands"
"""
    src = str(Path(copula_risk.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
