import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import chainring
from chainring import cli, simulate
from chainring.modcount import ChainRingSpec, free_fraction_by_rank, total_by_rank

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, argv):
    status = cli.run(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        status, out, _ = run_cli(capsys, ["count", "free", "--n", "2", "--q", "2", "--s", "2", "--K", "1"])
        assert status == 0
        assert out == "6\n"

    def test_invalid_params_exit_2(self, capsys):
        status, _, err = run_cli(
            capsys, ["prob", "free-length", "--n", "2", "--q", "2", "--s", "2", "--ell", "3"]
        )
        assert status == 2
        assert "does not divide" in err

    def test_budget_exit_3(self, capsys):
        status, _, err = run_cli(capsys, ["oracle", "verify", "--p", "2", "--s", "2", "--n", "5"])
        assert status == 3
        assert "budget" in err

    def test_census_budgets_exit_3(self, capsys):
        status, out, err = run_cli(capsys, ["oracle", "verify", "--p", "3", "--s", "3", "--n", "3"])
        assert (status, out, err) == (3, "", "error: 27^9 generator matrices exceed budget 16777216\n")
        # passes the matrix budget; its one census level would hold 2^32 span entries
        status, out, err = run_cli(capsys, ["oracle", "verify", "--p", "2", "--s", "16", "--n", "1"])
        assert status == 3
        assert out == ""
        assert err.startswith("error: ") and "span entries" in err and err.count("\n") == 1

    def test_census_exact_past_float32_products(self, capsys):
        status, out, _ = run_cli(capsys, ["oracle", "verify", "--p", "2", "--s", "13", "--n", "1"])
        assert status == 0
        assert out.splitlines()[-2:] == ["total 14", "PASS"]

    def test_verification_fail_exit_1(self, capsys, monkeypatch):
        real = simulate.verify_census

        def broken(ring, n, budget=simulate.CENSUS_BUDGET):
            census, rows, _ = real(ring, n, budget)
            return census, rows, False

        monkeypatch.setattr(cli.simulate, "verify_census", broken)
        status, out, _ = run_cli(capsys, ["oracle", "verify", "--p", "2", "--s", "2", "--n", "2"])
        assert status == 1
        assert out.rstrip().endswith("FAIL")

    def test_cap_hit_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("CHAINRING_MAX_INDEX", "3")
        for subject in ("limit", "bounds"):
            status, out, err = run_cli(capsys, ["density", subject, "--q", "2", "--s", "4"])
            assert status == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "max_index=3" in err

    def test_exact_total_over_budget_exits_3(self, capsys):
        start = time.perf_counter()
        status, out, err = run_cli(capsys, ["count", "length", "--n", "3000", "--q", "2", "--s", "3", "--ell", "4500"])
        assert time.perf_counter() - start < 5
        assert status == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "budget" in err

    @pytest.mark.parametrize(
        "argv",
        [
            "code entropy --metric lee --p 2 --s 2 --n 0 --delta 0.1",
            "code gv-experiment --metric hamming --p 2 --s 2 --n 0 --delta 0.05 --eps 0.15 --trials 10 --seed 1",
            "code gv-experiment --metric hamming --p 2 --s 2 --n 6 --delta 0.05 --eps 0.15 --trials 10 --seed -1",
            "prob free-rank --n 4 --q 2 --s 2 --K 2 --precision -3",
        ],
    )
    def test_out_of_range_inputs_exit_2(self, capsys, argv):
        status, out, err = run_cli(capsys, argv.split())
        assert (status, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_oracle_verify_passes(self, capsys):
        status, out, _ = run_cli(capsys, ["oracle", "verify", "--p", "2", "--s", "2", "--n", "2"])
        assert status == 0
        assert out.rstrip().endswith("PASS")


class TestCountAndProb:
    def test_count_type_example(self, capsys):
        status, out, _ = run_cli(
            capsys, ["count", "type", "--n", "10", "--q", "2", "--s", "3", "--type", "3,3,0"]
        )
        assert status == 0
        assert out.strip() == "5152095836763209072640"

    def test_count_length(self, capsys):
        _, out, _ = run_cli(capsys, ["count", "length", "--n", "2", "--q", "2", "--s", "2", "--ell", "2"])
        assert out.strip() == "7"

    def test_prob_table2_cell(self, capsys):
        _, out, _ = run_cli(capsys, ["prob", "free-rank", "--n", "100", "--q", "2", "--s", "2", "--K", "50"])
        assert out.strip().endswith("= 0.460263")

    def test_prob_unimodular(self, capsys):
        _, out, _ = run_cli(capsys, ["prob", "unimodular", "--k", "1", "--n", "2", "--q", "2"])
        assert out.strip() == "3/4 = 0.750000"


    def test_integers_past_the_str_digit_limit_print_in_full(self, capsys):
        # 180,000 digits, beyond the interpreter's default limit of 4300
        ring = ChainRingSpec(q=2, s=2)
        expected = total_by_rank(100000, ring, 3)
        argv = ["count", "rank", "--n", "100000", "--q", "2", "--s", "2", "--K", "3"]
        status, text, _ = run_cli(capsys, argv)
        assert status == 0
        assert int(Decimal(text)) == expected
        status, out, _ = run_cli(capsys, argv + ["--format", "json"])
        assert status == 0
        assert json.loads(out)["result"]["count"] + "\n" == text

    def test_long_ratio_prints_in_full(self, capsys):
        argv = ["prob", "free-rank", "--n", "300", "--q", "2", "--s", "2", "--K", "100"]
        expected = free_fraction_by_rank(300, ChainRingSpec(q=2, s=2), 100)
        status, out, _ = run_cli(capsys, argv)
        assert status == 0
        fraction, decimal_text = out.rstrip("\n").split(" = ")
        numerator, denominator = fraction.split("/")
        assert (int(Decimal(numerator)), int(Decimal(denominator))) == (expected.numerator, expected.denominator)
        assert decimal_text == "1-7.9e-31"
        status, out, _ = run_cli(capsys, argv + ["--format", "json"])
        assert status == 0
        result = json.loads(out)["result"]
        assert int(Decimal(result["numerator"])) == expected.numerator
        assert int(Decimal(result["denominator"])) == expected.denominator

    def test_precision_past_the_str_digit_limit(self, capsys):
        argv = ["prob", "free-rank", "--n", "4", "--q", "2", "--s", "2", "--K", "2", "--precision", "5000"]
        expected = free_fraction_by_rank(4, ChainRingSpec(q=2, s=2), 2)
        status, out, _ = run_cli(capsys, argv)
        assert status == 0
        whole, frac = out.rstrip("\n").split(" = ")[1].split(".")
        assert len(frac) == 5000
        shown = Fraction(int(whole) * 10 ** 5000 + int(Decimal(frac)), 10 ** 5000)
        assert abs(shown - expected) <= Fraction(1, 2 * 10 ** 5000)


class TestCodeAndDensity:
    def test_ball(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["code", "ball", "--metric", "lee", "--p", "2", "--s", "2", "--n", "1", "--w", "1", "--closed"],
        )
        assert out.strip() == "3"

    def test_gv(self, capsys):
        _, out, _ = run_cli(
            capsys, ["code", "gv", "--metric", "lee", "--p", "2", "--s", "2", "--n", "2", "--d", "2"]
        )
        assert out.strip() == "16/5 = 3.200000"

    def test_entropy_text(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["code", "entropy", "--metric", "hamming", "--p", "2", "--s", "2", "--n", "400", "--delta", "0.2"],
        )
        assert abs(float(out.strip()) - 0.519) < 0.02

    def test_density_bounds_text(self, capsys):
        _, out, _ = run_cli(capsys, ["density", "bounds", "--q", "2", "--s", "3"])
        lines = out.strip().splitlines()
        assert lines[0].startswith("lower 0.3553")
        assert lines[1].startswith("exact 0.4708")
        assert lines[2].startswith("upper 0.9841")

    def test_rank_trend_csv(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["density", "rank-trend", "--q", "2", "--s", "2", "--rprime", "2/5",
             "--n-list", "10,20", "--format", "csv"],
        )
        lines = out.strip().splitlines()
        assert lines[0] == "n,K,probability"
        assert lines[1].startswith("10,4,") and lines[2].startswith("20,8,")

    def test_ball_defaults_to_open(self, capsys):
        _, out, _ = run_cli(
            capsys, ["code", "ball", "--metric", "lee", "--p", "2", "--s", "2", "--n", "1", "--w", "1"]
        )
        assert out.strip() == "1"  # strict inequality: only the zero vector

    def test_precision_flag_controls_rendering_only(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["prob", "unimodular", "--k", "1", "--n", "2", "--q", "2", "--precision", "3"],
        )
        assert out.strip() == "3/4 = 0.750"

    def test_malformed_type_exits_2(self, capsys):
        status, _, err = run_cli(
            capsys, ["count", "type", "--n", "4", "--q", "2", "--s", "2", "--type", "a,b"]
        )
        assert status == 2 and "cannot parse" in err

    def test_invalid_metric_combination_reported(self, capsys):
        status, _, err = run_cli(
            capsys,
            ["code", "ball", "--metric", "lee", "--p", "4", "--s", "2", "--n", "1", "--w", "1"],
        )
        assert status == 2
        assert "prime" in err


class TestJsonEnvelope:
    def test_schema_and_params_echo(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["prob", "unimodular", "--k", "1", "--n", "2", "--q", "2", "--format", "json"],
        )
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["tool"] == "chainring"
        assert doc["command"] == "prob unimodular"
        assert doc["params"]["k"] == 1 and doc["params"]["n"] == 2
        assert doc["result"]["decimal"] == "0.750000"
        assert "truncation_policy" in doc

    def test_density_json_carries_error_bound(self, capsys):
        _, out, _ = run_cli(capsys, ["density", "limit", "--q", "2", "--s", "2", "--format", "json"])
        doc = json.loads(out)
        assert abs(doc["result"]["value"] - 0.59546) < 1e-5
        assert 0 < doc["result"]["abs_error"] < 1e-9

    def test_gv_experiment_report(self, capsys):
        argv = [
            "code", "gv-experiment", "--metric", "lee", "--p", "2", "--s", "2",
            "--n", "8", "--delta", "0.05", "--eps", "0.2", "--trials", "10",
            "--seed", "3", "--format", "json",
        ]
        _, out, _ = run_cli(capsys, argv)
        doc = json.loads(out)
        result = doc["result"]
        assert set(result) >= {"params", "k", "g_n", "bound_exact", "bound_decimal",
                               "fractions", "sigma", "pass", "vacuous"}
        assert result["params"]["seed"] == 3


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        cases = [
            ["density", "table1", "--format", "csv"],
            ["prob", "free-rank", "--n", "50", "--q", "3", "--s", "2", "--K", "20", "--format", "json"],
            ["oracle", "enumerate", "--p", "2", "--s", "3", "--n", "2", "--format", "csv"],
            ["code", "gv-experiment", "--metric", "lee", "--p", "2", "--s", "2",
             "--n", "8", "--delta", "0.05", "--eps", "0.2", "--trials", "10",
             "--seed", "3", "--format", "csv"],
        ]
        for argv in cases:
            _, first, _ = run_cli(capsys, argv)
            _, second, _ = run_cli(capsys, argv)
            assert first == second, argv


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "argv,golden",
        [
            (["density", "table1", "--format", "csv"], "table1.csv"),
            (
                ["density", "order-explore", "--n", "10", "--q", "2", "--s", "3",
                 "--ell", "15", "--format", "csv"],
                "order_explore_n10_q2_s3_ell15.csv",
            ),
            (
                ["density", "order-explore", "--n", "10", "--q", "2", "--s", "6",
                 "--ell", "30", "--format", "csv"],
                "order_explore_n10_q2_s6_ell30.csv",
            ),
            (
                ["oracle", "enumerate", "--p", "2", "--s", "3", "--n", "2", "--format", "csv"],
                "oracle_census_p2_s3_n2.csv",
            ),
        ],
    )
    def test_cli_output_matches_golden(self, capsys, argv, golden):
        _, out, _ = run_cli(capsys, argv)
        assert out == (GOLDEN / golden).read_text()

    def test_table2_matches_golden(self):
        import csv as csv_mod
        import io

        from chainring.density import table2_rows
        from chainring.render import render_ratio

        buffer = io.StringIO()
        writer = csv_mod.writer(buffer, lineterminator="\n")
        writer.writerow(["q", "s", "K", "n", "probability"])
        for q, s, k, n, v in table2_rows():
            writer.writerow([q, s, k, n, render_ratio(v, 6)])
        assert buffer.getvalue() == (GOLDEN / "table2.csv").read_text()

    def test_sample_matrix_matches_golden(self):
        doc = json.loads((GOLDEN / "sample_matrix_seed42.json").read_text())
        ring = simulate.ConcreteRing(p=doc["p"], s=doc["s"])
        mat = simulate.sample_matrix(doc["m"], doc["n"], ring, seed=doc["seed"], stream=doc["stream"])
        assert [list(row) for row in mat.entries] == doc["entries"]


class TestEnvironmentOverride:
    def test_truncation_policy_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CHAINRING_TARGET_TAIL", "1e-6")
        monkeypatch.setenv("CHAINRING_MAX_INDEX", "64")
        _, out, _ = run_cli(capsys, ["density", "limit", "--q", "2", "--s", "2", "--format", "json"])
        doc = json.loads(out)
        assert doc["truncation_policy"]["target_tail"] == 1e-6
        assert doc["truncation_policy"]["max_index"] == 64
        # looser tail, larger certified error, value still correct
        assert doc["result"]["abs_error"] > 1e-9
        assert abs(doc["result"]["value"] - 0.59546) < 1e-4


class TestModuleEntryPoint:
    def test_python_m_version(self):
        env = dict(os.environ)
        src = str(Path(chainring.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "chainring.cli", "--version"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0
        assert done.stdout == "chainring 0.1.0\n"


class TestCsvRejection:
    def test_csv_without_table_shape(self, capsys):
        status, _, err = run_cli(
            capsys, ["count", "free", "--n", "2", "--q", "2", "--s", "2", "--K", "1", "--format", "csv"]
        )
        assert status == 2
        assert "CSV" in err
