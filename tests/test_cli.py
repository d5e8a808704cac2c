import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import chainring
from chainring import cli, density, simulate
from chainring.errors import BudgetExceededError, NonconvergentError, ParameterError, VerificationError
from chainring.modcount import ChainRingSpec, count_free, free_fraction_by_rank, matrix_count_by_type, total_by_rank

from helpers import chain_dp_limit_density, decimal_length, leading_digits, sublattice_count

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

    @pytest.mark.parametrize("argv", ["density s2-closed --q 6", "density limit --q 6 --s 2"])
    def test_residue_field_size_not_a_prime_power_exit_2(self, capsys, argv):
        # s2-closed printed a density for q = 6, which is no residue field size
        status, out, err = run_cli(capsys, argv.split())
        assert (status, out, err) == (2, "", "error: residue field size must be a prime power, got 6\n")

    def test_budget_exit_3(self, capsys):
        status, _, err = run_cli(capsys, ["oracle", "verify", "--p", "2", "--s", "2", "--n", "5"])
        assert status == 3
        assert "budget" in err

    def test_census_budgets_exit_3(self, capsys):
        status, out, err = run_cli(capsys, ["oracle", "verify", "--p", "3", "--s", "3", "--n", "3"])
        assert (status, out, err) == (3, "", "error: 27^9 generator matrices exceed budget 16777216\n")
        # passes the matrix budget; its 2^21 elements of R^1 exceed the span budget
        start = time.perf_counter()
        status, out, err = run_cli(capsys, ["oracle", "verify", "--p", "2", "--s", "21", "--n", "1"])
        assert time.perf_counter() - start < 1
        assert (status, out, err) == (3, "", "error: 2097152^1 elements of R^1 exceed budget 1048576\n")
        status, out, _ = run_cli(capsys, ["oracle", "verify", "--p", "2", "--s", "16", "--n", "1"])
        assert status == 0
        assert out.splitlines()[-2:] == ["total 17", "PASS"]

    def test_census_exact_past_float32_products(self, capsys):
        status, out, _ = run_cli(capsys, ["oracle", "verify", "--p", "2", "--s", "13", "--n", "1"])
        assert status == 0
        assert out.splitlines()[-2:] == ["total 14", "PASS"]

    def test_verification_fail_exit_1(self, capsys, monkeypatch):
        real = simulate.verify_census

        def broken(ring, n):
            census, rows, _ = real(ring, n)
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

    @pytest.mark.parametrize(
        "name,value", [("CHAINRING_MAX_INDEX", "1"), ("CHAINRING_MAX_INDEX", "2"), ("CHAINRING_TARGET_TAIL", "10")]
    )
    def test_uncertified_closed_form_exits_2(self, capsys, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        status, out, err = run_cli(capsys, ["density", "s2-closed", "--q", "2"])
        assert (status, out) == (2, "")
        # the reciprocal is of a sum of two infinite products, and the message names it
        prefix = "error: products (-sqrt(x); x)_inf + (sqrt(x); x)_inf not certified within max_index="
        assert err.startswith(prefix) and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,named",
        [
            ("density limit --q 3 --s 30", "max_index=512"),
            ("density limit --q 2 --s 34", "max_index=512"),
            ("density bounds --q 3 --s 30", "3^-870 underflows"),
            ("density bounds --q 2 --s 34", "2^-1122 underflows"),
            # the tail bound's prefactor, then 2^(s-2), overflow a float
            ("density limit --q 2 --s 600", "max_index=512"),
            ("density limit --q 3 --s 1100", "max_index=512"),
        ],
    )
    def test_uncertifiable_density_exits_2_at_once(self, capsys, monkeypatch, argv, named):
        monkeypatch.delenv("CHAINRING_MAX_INDEX", raising=False)
        start = time.perf_counter()
        status, out, err = run_cli(capsys, argv.split())
        assert time.perf_counter() - start < 1.0
        assert (status, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err

    @pytest.mark.parametrize(
        "name,value",
        [
            ("CHAINRING_MAX_INDEX", "0"),
            ("CHAINRING_MAX_INDEX", "abc"),
            ("CHAINRING_TARGET_TAIL", "-1"),
            ("CHAINRING_TARGET_TAIL", "x"),
        ],
    )
    def test_bad_truncation_environment_exits_2(self, capsys, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        for argv in ("density limit --q 2 --s 3", "count free --n 2 --q 2 --s 2 --K 1 --format json"):
            status, out, err = run_cli(capsys, argv.split())
            assert (status, out) == (2, "")
            assert err.startswith(f"error: {name}={value!r} ") and err.count("\n") == 1

    def test_unbounded_prime_power_check_exits_3(self, capsys):
        # q = p = 2^89 - 1, a prime too large to certify; 2^61 - 1 is certified
        for argv in (
            "count free --n 1 --q 618970019642690137449562111 --s 1 --K 1",
            "oracle enumerate --p 618970019642690137449562111 --s 1 --n 1",
        ):
            start = time.perf_counter()
            status, out, err = run_cli(capsys, argv.split())
            assert time.perf_counter() - start < 1
            assert (status, out) == (3, "")
            assert err.startswith("error: ") and err.count("\n") == 1 and "prime factor" in err
        start = time.perf_counter()
        status, out, err = run_cli(capsys, "count free --n 1 --q 2305843009213693951 --s 1 --K 1".split())
        assert time.perf_counter() - start < 1
        assert (status, out, err) == (0, "1\n", "")

    def test_multi_sum_over_budget_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(density, "WALK_BUDGET", 1000)
        for subject in ("limit", "bounds"):
            status, out, err = run_cli(capsys, ["density", subject, "--q", "2", "--s", "6"])
            assert (status, out) == (3, "")
            assert err.startswith("error: multi-sum walk") and err.count("\n") == 1
            assert "budget of 1000 steps" in err

    @pytest.mark.parametrize(
        "argv",
        [
            "count free --n 4000 --q 2 --s 3 --K 2000",
            "count free --n 1000 --q 2 --s 1000 --K 500",
            "count type --n 4000 --q 2 --s 2 --type 2000,0",
            "count shape --n 4000 --q 2 --s 2 --shape 2000,2000",
            "count matrix --m 10000000 --n 2 --q 3 --s 2 --type 1,1",
            "prob unimodular --k 1000 --n 2000 --q 2",
            "prob unimodular --k 800 --n 1600 --q 2",
            "code entropy --metric lee --p 2 --s 2 --n 100000 --delta 0.2",
            "density order-explore --n 100 --q 2 --s 5 --ell 250",
        ],
    )
    def test_exact_count_over_budget_exits_3(self, capsys, argv):
        start = time.perf_counter()
        status, out, err = run_cli(capsys, argv.split())
        assert time.perf_counter() - start < 1
        assert (status, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "budget" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("count free --n -1 --q 2 --s 2 --K 0", "n must be nonnegative, got -1"),
            ("count type --n -1 --q 2 --s 2 --type 0,0", "n must be nonnegative, got -1"),
            ("count shape --n -1 --q 2 --s 2 --shape 0,0", "n must be nonnegative, got -1"),
            ("count length --n -2 --q 2 --s 2 --ell 0", "n must be nonnegative, got -2"),
            ("count rank --n -1 --q 2 --s 2 --K 0", "n must be nonnegative, got -1"),
            ("count matrix --m -1 --n 2 --q 2 --s 2 --type 0,0", "m must be nonnegative, got -1"),
            ("count matrix --m 2 --n -1 --q 2 --s 2 --type 0,0", "n must be nonnegative, got -1"),
            ("prob unimodular --n -1 --q 2 --k 0", "n must be nonnegative, got -1"),
            ("prob unimodular --n 3 --q 2 --k -1", "k must be nonnegative, got -1"),
        ],
    )
    def test_negative_sizes_named(self, capsys, argv, message):
        status, out, err = run_cli(capsys, argv.split())
        assert (status, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("ell", [-1, 7])
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_order_explore_rejects_length_out_of_range(self, capsys, ell, fmt):
        argv = f"density order-explore --format {fmt} --n 3 --q 2 --s 2 --ell {ell}".split()
        status, out, err = run_cli(capsys, argv)
        assert (status, out, err) == (2, "", f"error: length must lie in [0, 6], got {ell}\n")

    def test_order_explore_rejects_negative_n(self, capsys):
        status, out, err = run_cli(capsys, "density order-explore --n -3 --q 2 --s 2 --ell 1".split())
        assert (status, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "n must be nonnegative" in err

    def test_density_limit_reaches_depth_eight(self, capsys):
        status, out, _ = run_cli(capsys, ["density", "limit", "--q", "2", "--s", "8", "--format", "json"])
        assert status == 0
        oracle, error = chain_dp_limit_density(2, 8)
        assert abs(json.loads(out)["result"]["value"] - oracle) <= error

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

    @pytest.mark.parametrize(
        "threads, delta, eps, message",
        [
            ("0", "0.05", "0.15", "jobs must be >= 1, got 0"),
            ("-3", "0.05", "0.15", "jobs must be >= 1, got -3"),
            ("1", "nan", "0.15", "delta must be finite, got nan"),
            ("1", "0.05", "inf", "epsilon must be finite, got inf"),
        ],
    )
    def test_gv_experiment_rejects_bad_threads_and_nonfinite(self, capsys, threads, delta, eps, message):
        argv = (
            f"code gv-experiment --metric lee --p 2 --s 2 --n 8 --delta {delta} --eps {eps} "
            f"--trials 4 --seed 1 --threads {threads}"
        )
        status, out, err = run_cli(capsys, argv.split())
        assert (status, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv,s",
        [
            ("count rank --n 3 --q 2 --s 990 --K 1", 990),
            ("prob free-rank --n 3 --q 2 --s 1100 --K 1", 1100),
            ("density rank-trend --q 2 --s 1100 --rprime 1/2 --n-list 10,20", 1100),
            ("density order-explore --n 3 --q 2 --s 1100 --ell 2", 1100),
        ],
    )
    def test_walk_past_recursion_limit_exits_3(self, capsys, argv, s):
        # the rank tail and the type walk nest one call per position; a length
        # sum does not (TestCountAndProb.test_deep_count_length_is_a_lattice_count)
        status, out, err = run_cli(capsys, argv.split())
        assert (status, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and f"s={s} " in err

    def test_oracle_verify_passes(self, capsys):
        status, out, _ = run_cli(capsys, ["oracle", "verify", "--p", "2", "--s", "2", "--n", "2"])
        assert status == 0
        assert out.rstrip().endswith("PASS")


class TestConstantTimeRefusals:
    # each budget is decided from the inputs' sizes, before anything it bounds
    # is built or walked; these took from 1.7 s to over a minute, or died in a
    # traceback
    @pytest.mark.parametrize(
        "argv",
        [
            "code entropy --metric lee --p 2 --s 2 --n 100000000 --delta 0.2",
            "oracle enumerate --p 2 --s 2 --n 30000",
            "oracle enumerate --p 2 --s 2 --n 100000",
            "count rank --n 3 --q 2 --s 100000000 --K 1",
            "prob free-length --n 3 --q 2 --s 100000000 --ell 100000000",
            "code ball --metric hamming --p 2 --s 40 --n 1 --w 1",
            "code entropy --metric hamming --p 2 --s 20000 --n 1 --delta 0.1",
            "oracle enumerate --p 2 --s 20000 --n 1",
            # the digits and the trials were never charged: --precision
            # 100000000 did not finish in 10 minutes, a billion trials would
            # run for days
            "prob free-rank --n 5 --q 2 --s 2 --K 2 --precision 100000000",
            "prob free-rank --n 5 --q 2 --s 2 --K 2 --precision 100000000 --format json",
            "code gv-experiment --metric lee --p 2 --s 2 --n 12 --delta 0.05 --eps 0.15 --trials 1000000000 --seed 1",
        ],
    )
    def test_refused_at_once_in_little_memory(self, capsys, argv):
        start = time.thread_time()
        status, out, err = run_cli(capsys, argv.split())
        elapsed = time.thread_time() - start
        tracemalloc.start()
        try:
            cli.run(argv.split())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().err == err
        assert (status, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert elapsed < 0.1
        assert peak < 1 << 20


class TestFloatRangeBase:
    # a base past the float range died in an OverflowError traceback
    @pytest.mark.parametrize(
        "argv",
        [
            f"density limit --q {2 ** 1100} --s 2",
            f"density bounds --q {2 ** 1100} --s 2",
            f"density s2-closed --q {2 ** 1100}",
            f"density limit --q {2 ** 1070} --s 3",
        ],
    )
    def test_refused_at_once(self, capsys, argv):
        start = time.thread_time()
        status, out, err = run_cli(capsys, argv.split())
        assert time.thread_time() - start < 0.1
        assert (status, out) == (2, "")
        assert err.startswith("error: q has ") and err.count("\n") == 1


class TestExtremeIntOptions:
    # an int option past the float range, or a derived int past str's digit
    # limit, died in an OverflowError or ValueError traceback
    INT_FLAGS = {flag for flag, spec in cli.OPTIONS.values() if spec.get("type") is int} - {"--threads"}

    @pytest.mark.parametrize(
        "size", [10**400, 10**20, 2**63, 10**2200, 2**1024, 3 * 2**1023],
        ids=["10^400", "10^20", "2^63", "10^2200", "2^1024", "3*2^1023"],
    )
    def test_every_pinned_line_exits_cleanly(self, capsys, monkeypatch, size):
        monkeypatch.delenv("CHAINRING_MAX_INDEX", raising=False)
        monkeypatch.delenv("CHAINRING_TARGET_TAIL", raising=False)
        lines = [["count", "length", "--n", str(10**20), "--q", "2", "--s", "2", "--ell", str(10**20)]]
        for command, pinned in SURFACE["json"].items():
            argv = [*command.split(), *pinned["argv"], "--precision", "6"]
            lines += [
                [*argv[: i + 1], str(size), *argv[i + 2 :]] for i, flag in enumerate(argv) if flag in self.INT_FLAGS
            ]
        failed, slow = [], []
        for argv in lines:
            start = time.thread_time()
            status, out, err = _outcome(capsys, cli.run, argv)
            clean = status == 0 or (out == "" and err.count("\n") == 1 and err.startswith("error:") and "inf" not in err)
            if status not in (0, 2, 3) or not clean:
                failed.append((argv, status, err[-200:]))
            # a line that a budget newly admits must still answer at once
            if time.thread_time() - start > 2:
                slow.append(" ".join(argv))
        assert len(lines) > 80 and failed == [] and slow == []

    def test_exponents_past_2_64_named_by_bit_length(self, capsys):
        big = 10**2200
        bits = (big * big).bit_length()
        assert _outcome(capsys, cli.run, ["oracle", "enumerate", "--p", "2", "--s", "1", "--n", str(big)]) == (
            3, "", f"error: 2^(a {bits}-bit number) generator matrices exceed budget 16777216\n"
        )
        assert (big * big - big).bit_length() == bits
        status, out, err = _outcome(capsys, cli.run, ["density", "bounds", "--q", "2", "--s", str(big)])
        assert (status, out) == (2, "")
        assert err.startswith(f"error: the upper bound's base q^-(s^2-s) = 2^-(a {bits}-bit number) underflows")

    def test_counts_past_the_float_range_refused(self, capsys):
        n = str(10**400)
        status, out, err = run_cli(capsys, ["count", "free", "--n", n, "--q", "2", "--s", "2", "--K", "2"])
        assert (status, out) == (3, "")
        assert err == "error: exact count needs more than 2^1024 bit operations, over the budget of 1.4e+11\n"


class TestExtremeFloatAndStringOptions:
    # the float and string options at values past the float range, malformed,
    # or huge: every line exits 0-3 with no traceback and answers at once
    FLAGS = {"--type", "--shape", "--n-list", "--w", "--d", "--rprime", "--delta", "--eps"}
    VALUES = {
        "1e308": "1e308", "1e309": "1e309", "inf": "inf", "-inf": "-inf", "nan": "nan", "-0.0": "-0.0",
        "1e-320": "1e-320", "-1": "-1", "0": "0", "5000-digits": "7" * 5000, "1/0": "1/0", "0/0": "0/0",
        "1/5000-nines": "1/" + "9" * 5000, "comma": ",", "1,,2": "1,,2", "empty": "",
        "2001-entries": ",".join(["1"] * 2001), "0x10": "0x10",
    }

    @pytest.mark.parametrize("value", VALUES.values(), ids=VALUES.keys())
    def test_every_pinned_line_exits_cleanly(self, capsys, monkeypatch, value):
        monkeypatch.delenv("CHAINRING_MAX_INDEX", raising=False)
        monkeypatch.delenv("CHAINRING_TARGET_TAIL", raising=False)
        lines = []
        for command, pinned in SURFACE["json"].items():
            argv = [*command.split(), *pinned["argv"]]
            lines += [(flag, [*argv[: i + 1], value, *argv[i + 2 :]]) for i, flag in enumerate(argv) if flag in self.FLAGS]
        failed, slow = [], []
        for flag, argv in lines:
            start = time.thread_time()
            status, out, err = _outcome(capsys, cli.run, argv)
            # chainring's own refusal is one error: line; argparse's, for a value
            # its type rejects or one that starts with "-" and reads as an option,
            # ends its usage text with one line naming the flag
            own = status in (2, 3) and err.count("\n") == 1 and err.startswith("error:")
            usage = status == 2 and err.startswith("usage: ") and f": error: argument {flag}: " in err.splitlines()[-1]
            if not (status == 0 or out == "" and (own or usage)) or "Traceback" in err:
                failed.append((argv[:2], flag, status, err[-200:]))
            if time.thread_time() - start > 2:
                slow.append((argv[:2], flag))
        assert len(lines) == 10 and failed == [] and slow == []


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

    # past s = ell the length-ell submodules of R^n are the index-q^ell
    # sublattices of O^n, counted without chains
    def test_deep_count_length_is_a_lattice_count(self, capsys):
        status, out, _ = run_cli(capsys, "count length --n 3 --q 2 --s 990 --ell 5 --format json".split())
        assert status == 0 and json.loads(out)["result"]["count"] == str(sublattice_count(3, 5, 2)) == "2667"

    # inputs that each kernel's own charge admits, where the chain-walk price
    # refused them: a thin binomial at s = 1, one binomial deep down
    @pytest.mark.parametrize(
        "argv", ["count length --n 10000 --q 2 --s 1 --ell 9999", "count rank --n 10000 --q 2 --s 1 --K 9999"]
    )
    def test_thin_depth_one_totals_admitted(self, capsys, argv):
        assert run_cli(capsys, argv.split()) == (0, f"{2**10000 - 1}\n", "")
        assert run_cli(capsys, "count free --n 10000 --q 2 --s 1 --K 9999".split()) == (0, f"{2**10000 - 1}\n", "")

    @pytest.mark.parametrize(
        "argv", ["prob free-length --n 10000 --q 2 --s 1 --ell 9999", "prob free-rank --n 10000 --q 2 --s 1 --K 9999"]
    )
    def test_thin_depth_one_fractions_admitted(self, capsys, argv):
        assert run_cli(capsys, argv.split()) == (0, "1/1 = 1.000000\n", "")

    def test_deep_count_length_past_the_walk_price(self, capsys):
        # the index-2^5 sublattices of Z_2^3, and [7, 2]_2 = 127 * 63 / 3
        assert run_cli(capsys, "count length --n 3 --q 2 --s 1300 --ell 5".split()) == (0, "2667\n", "")
        assert sublattice_count(3, 5, 2) == 127 * 63 // 3 == 2667

    def test_deep_prob_free_length_is_a_lattice_ratio(self, capsys):
        status, out, _ = run_cli(capsys, "prob free-length --n 3 --q 2 --s 1100 --ell 1100 --format json".split())
        result = json.loads(out)["result"]
        expected = Fraction(count_free(3, ChainRingSpec(q=2, s=1100), 1), sublattice_count(3, 1100, 2))
        assert status == 0 and Fraction(int(result["numerator"]), int(result["denominator"])) == expected
        assert result["decimal"] == "0.656250"

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

    def test_millions_of_digits_print_fast(self, capsys):
        # 1,431,365 digits; the count itself takes under a second
        argv = ["count", "matrix", "--m", "1000000", "--n", "2", "--q", "3", "--s", "2", "--type", "1,1"]
        start = time.perf_counter()
        status, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 5.0
        assert (status, err) == (0, "")
        expected = matrix_count_by_type(1000000, 2, ChainRingSpec(q=3, s=2), (1, 1))
        assert len(out) - 1 == decimal_length(expected) == 1431365
        assert out[:10] == leading_digits(expected, 10) and int(out[-19:]) == expected % 10 ** 18

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

    def test_a_million_digits_still_admitted(self, capsys):
        argv = "prob free-rank --n 5 --q 2 --s 2 --K 2 --precision 1000000".split()
        status, out, err = run_cli(capsys, argv)
        assert (status, err) == (0, "")
        expected = free_fraction_by_rank(5, ChainRingSpec(q=2, s=2), 2)
        fraction, decimal_text = out.rstrip("\n").split(" = ")
        assert fraction == f"{expected.numerator}/{expected.denominator}"
        assert len(decimal_text.split(".")[1]) == 10 ** 6

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


class TestParserReuse:
    def test_calls_in_one_process_do_not_share_state(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        count = ["count", "free", "--n", "5", "--q", "2", "--s", "2", "--K", "2", "--format", "json"]
        first = run_cli(capsys, count)
        with pytest.raises(SystemExit) as bad:
            cli.run(["count", "free", "--n", "x"])
        assert bad.value.code == 2
        capsys.readouterr()
        status, out, _ = run_cli(capsys, [
            "code", "gv-experiment", "--metric", "lee", "--p", "2", "--s", "2", "--n", "8",
            "--delta", "0.05", "--eps", "0.2", "--trials", "4", "--seed", "1", "--threads", "2",
            "--format", "json",
        ])
        assert json.loads(out)["params"]["threads"] == 2
        status, out, _ = run_cli(capsys, [
            "code", "entropy", "--metric", "lee", "--p", "2", "--s", "2", "--n", "8",
            "--delta", "0.2", "--format", "json",
        ])
        assert status == 0
        assert "threads" not in json.loads(out)["params"]
        assert run_cli(capsys, count) == first
        assert first[0] == 0 and json.loads(first[1])["result"]["count"] == "9920"
        with pytest.raises(SystemExit) as version:
            cli.run(["--version"])
        assert version.value.code == 0
        assert capsys.readouterr().out == f"chainring {chainring.__version__}\n"
        assert cli.build_parser() is cli.build_parser()


# every subcommand, listed by hand so that a subcommand the parser loses fails here
SUBCOMMANDS = [
    ("count", "free"), ("count", "type"), ("count", "shape"), ("count", "length"),
    ("count", "rank"), ("count", "matrix"),
    ("prob", "free-length"), ("prob", "free-rank"), ("prob", "unimodular"),
    ("density", "limit"), ("density", "bounds"), ("density", "s2-closed"),
    ("density", "table1"), ("density", "rank-trend"), ("density", "order-explore"),
    ("oracle", "enumerate"), ("oracle", "verify"),
    ("code", "ball"), ("code", "gv"), ("code", "entropy"), ("code", "gv-experiment"),
]
PARSERS = [(), ("count",), ("prob",), ("density",), ("oracle",), ("code",), *SUBCOMMANDS]
SURFACE = json.loads((GOLDEN / "cli_surface.json").read_text(encoding="utf-8"))


class TestSurfacePinned:
    """Help texts and one JSON call per subcommand, recorded before the command table."""

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help layout recorded with Python 3.11 argparse")
    @pytest.mark.parametrize("path", PARSERS, ids=" ".join)
    def test_help_text(self, capsys, monkeypatch, path):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as done:
            cli.run([*path, "--help"])
        captured = capsys.readouterr()
        assert (done.value.code, captured.err) == (0, "")
        digest = hashlib.sha256(captured.out.encode()).hexdigest()
        assert digest == SURFACE["help_sha256"][" ".join(path)]

    @pytest.mark.parametrize("group,subject", SUBCOMMANDS)
    def test_json_output(self, capsys, monkeypatch, group, subject):
        # the params echo carries every default value
        monkeypatch.delenv("CHAINRING_MAX_INDEX", raising=False)
        monkeypatch.delenv("CHAINRING_TARGET_TAIL", raising=False)
        pinned = SURFACE["json"][f"{group} {subject}"]
        argv = [group, subject, *pinned["argv"], "--format", "json"]
        assert run_cli(capsys, argv) == (0, pinned["stdout"], "")


def _tree_run(argv):
    """``cli.run`` with every command line parsed by the whole tree."""
    args = cli.build_parser().parse_args(argv)
    try:
        status, output = args.func(args)
    except (ParameterError, NonconvergentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(output)
    return status


def _outcome(capsys, call, argv):
    try:
        status = call(list(argv))
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


BAD_GROUP = (
    "chainring: error: argument group: invalid choice: 'bogus' "
    "(choose from 'count', 'prob', 'density', 'oracle', 'code')"
)

# what follows the command words, built from a valid call's options
DISPATCH_CASES = {
    "text": lambda opts: opts,
    "json": lambda opts: [*opts, "--format", "json"],
    "unknown option": lambda opts: [*opts, "--bogus", "1"],
    "trailing positional": lambda opts: [*opts, "extra"],
    "bad value": lambda opts: [*opts, "--precision", "x"],
    "missing required": lambda opts: opts[2:],
    "help": lambda opts: [*opts, "-h"],
    "double dash": lambda opts: [*opts, "--", "extra"],
    "abbreviation": lambda opts: [*opts, "--for", "json"],
    "equals form": lambda opts: [*opts, "--format=json"],
    "version after": lambda opts: [*opts, "--version"],
    "ambiguous at the top": lambda opts: [*opts, "--=x"],
    "flag twice": lambda opts: [*opts, "--format", "csv", "--precision", "3", "--format", "json", "--precision", "9"],
    "negative value": lambda opts: [*opts, "--n", "-3"],
    "flag without value": lambda opts: [*opts, "--precision"],
    "flag as value": lambda opts: [*opts[:-1], "--precision", "--format", "json"],
    "unknown choice": lambda opts: [*opts, "--format", "yaml"],
    "empty value": lambda opts: [*opts[:-1], ""],
    "store-true flag": lambda opts: [*opts, "--closed"],
}


class TestSubjectDispatch:
    """``run`` reads a plain command line from the command table, with the tree's bytes."""

    @pytest.mark.parametrize("case", DISPATCH_CASES)
    @pytest.mark.parametrize("group,subject", SUBCOMMANDS)
    def test_same_outcome_as_the_tree(self, capsys, monkeypatch, group, subject, case):
        monkeypatch.setenv("COLUMNS", "80")
        argv = [group, subject, *DISPATCH_CASES[case](SURFACE["json"][f"{group} {subject}"]["argv"])]
        assert _outcome(capsys, cli.run, argv) == _outcome(capsys, _tree_run, argv)

    def test_commands_skip_the_top_and_group_parsers(self, capsys, monkeypatch):
        real = argparse.ArgumentParser.parse_known_args
        parsed_by = []

        def spy(parser, *args, **kwargs):
            parsed_by.append(parser.prog)
            return real(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        cli.build_parser.cache_clear()
        for group, subject in SUBCOMMANDS:
            for fmt in ([], ["--format", "json"]):
                argv = [group, subject, *SURFACE["json"][f"{group} {subject}"]["argv"], *fmt]
                assert _outcome(capsys, cli.run, argv)[0] == 0
        assert parsed_by == []
        assert cli.build_parser.cache_info().misses == 0
        for argv, parsers, line in (
            (["bogus", "rank"], ["chainring"], BAD_GROUP),
            (["count", "bogus"], ["chainring", "chainring count"],
             "chainring count: error: argument subject: invalid choice: 'bogus' "
             "(choose from 'free', 'type', 'shape', 'length', 'rank', 'matrix')"),
        ):
            parsed_by.clear()
            status, out, err = _outcome(capsys, cli.run, argv)
            assert (status, out, err.splitlines()[-1], parsed_by) == (2, "", line, parsers)

    @pytest.mark.parametrize("group,subject", SUBCOMMANDS)
    def test_reader_fills_the_tree_namespace(self, group, subject):
        for fmt in ([], ["--format", "json"]):
            argv = [group, subject, *SURFACE["json"][f"{group} {subject}"]["argv"], *fmt]
            assert vars(cli._read_plain(argv)) == vars(cli.build_parser().parse_args(argv))

    def test_reader_knows_every_option_keyword(self):
        for name, (flag, spec) in cli.OPTIONS.items():
            assert set(spec) <= {"type", "default", "required", "choices", "action"}, name
            assert spec.get("action", "store_true") == "store_true", name
            # the top-level parser would take an abbreviation of its own flags as that flag
            assert not any(own.startswith(flag) for own in ("--help", "--version")), name


JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10 ** 400), max_value=10 ** 400)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])
    | st.text()
    | st.sampled_from(['"quoted"', "back\\slash", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600", "\ud800"])
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


class TestJsonWriter:
    @given(JSON_VALUES)
    def test_same_text_as_json_dumps(self, value):
        assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}, [b"bytes"], {"key": object()}])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._json_text(value)


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

    def test_table1_follows_the_environment_of_each_call(self, capsys, monkeypatch):
        monkeypatch.delenv("CHAINRING_MAX_INDEX", raising=False)
        monkeypatch.delenv("CHAINRING_TARGET_TAIL", raising=False)
        argv = ["density", "table1", "--format", "json"]
        run_cli(capsys, argv)  # the table at the default tail first
        monkeypatch.setenv("CHAINRING_TARGET_TAIL", "1e-3")
        _, in_process, _ = run_cli(capsys, argv)
        env = dict(os.environ)
        src = str(Path(chainring.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        fresh = subprocess.run(
            [sys.executable, "-m", "chainring.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert fresh.returncode == 0
        assert json.loads(in_process)["truncation_policy"]["target_tail"] == 1e-3
        assert in_process == fresh.stdout


class TestModuleEntryPoint:
    def test_python_m_version(self):
        env = dict(os.environ)
        src = str(Path(chainring.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for module in ("chainring.cli", "chainring"):
            done = subprocess.run(
                [sys.executable, "-m", module, "--version"],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert done.returncode == 0, module
            assert done.stdout == "chainring 0.1.0\n", module

    def test_python_m_reads_its_command_line(self, capsys):
        env = dict(os.environ)
        src = str(Path(chainring.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["prob", "free-rank", "--n", "6", "--q", "3", "--s", "2", "--K", "3", "--format", "json"]
        done = subprocess.run(
            [sys.executable, "-m", "chainring.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert (done.returncode, done.stdout, done.stderr) == run_cli(capsys, argv)
        done = subprocess.run(
            [sys.executable, "-m", "chainring.cli", "bogus", "rank"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert [line for line in done.stderr.splitlines() if "error:" in line] == [BAD_GROUP]


class TestCsvRejection:
    def test_csv_without_table_shape(self, capsys):
        status, _, err = run_cli(
            capsys, ["count", "free", "--n", "2", "--q", "2", "--s", "2", "--K", "1", "--format", "csv"]
        )
        assert status == 2
        assert "CSV" in err
