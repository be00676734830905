import csv
import io
import json

import pytest

from copula_risk.cli import main
from copula_risk.tables import TableSpec, compute_table


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


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

    def test_custom_theta_grid(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "9", "--theta-grid", "0.2,0.6")
        rows = parse_csv(out)
        assert [float(r["theta"]) for r in rows] == [0.2, 0.6]
        assert all(r["paper_value"] == "" for r in rows)

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "t1.csv"
        rc, out, _ = run_cli(capsys, "table", "1", "--out", str(target))
        assert rc == 0 and out == ""
        assert target.read_text().startswith("table_id,theta")

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
