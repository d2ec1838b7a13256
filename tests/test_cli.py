"""CLI behaviour: formats, exit codes, determinism, golden outputs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from shefferpoly.cli import main
from shefferpoly.suites import SUITES

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "shefferpoly.cli", *args],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_list_counts_fourteen(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 14


def test_list_json_schema(capsys):
    assert main(["list", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["pairs"]) == 14
    entry = data["pairs"][0]
    assert set(entry) == {"name", "family", "params", "normalization",
                          "associated", "claimed"}


def test_list_single_pair(capsys):
    assert main(["list", "--pair", "hahn"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and "Hahn" in out


def test_expand_identity_members(capsys):
    assert main(["expand", "--pair", "identity", "--kind", "S",
                 "--r", "2", "--n", "0..2"]) == 0
    out = capsys.readouterr().out
    assert "n=0: 1" in out
    assert "n=1: y" in out
    assert "n=2: y^2 + 2*x + 2*z" in out


def test_expand_sheffer_kind(capsys):
    assert main(["expand", "--pair", "lower-factorial", "--kind", "sheffer",
                 "--n", "2"]) == 0
    assert "x^2 - x" in capsys.readouterr().out


def test_expand_latex(capsys):
    assert main(["expand", "--pair", "bernoulli2", "--kind", "S", "--r", "2",
                 "--n", "1", "--format", "latex"]) == 0
    out = capsys.readouterr().out
    assert "s_{1} &= y + \\frac{1}{2} \\\\" in out


def test_expand_param_override(capsys):
    assert main(["expand", "--pair", "generalized-hermite", "--kind", "sheffer",
                 "--n", "1", "--param", "nu=1/2"]) == 0
    assert "1/2*x" in capsys.readouterr().out


def test_expand_json_rationals_are_strings(capsys):
    assert main(["expand", "--pair", "bernoulli2", "--kind", "sheffer",
                 "--n", "0..2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    polys = [m["poly"] for m in data["members"]]
    assert polys[1] == "x + 1/2"
    assert all("." not in p for p in polys)  # never decimals


def test_exit_code_usage_error():
    code, _, err = run_cli("expand", "--pair", "not-a-pair", "--n", "1")
    assert code == 2 and "unknown pair" in err


def test_exit_code_bad_param():
    code, _, err = run_cli("expand", "--pair", "identity", "--n", "1",
                           "--param", "nu=0.5x")
    assert code == 2


def test_exit_code_capacity():
    code, _, err = run_cli("expand", "--pair", "identity", "--n", "20",
                           "--order", "12")
    assert code == 3


def test_exit_code_inexact_root_of_huge_power():
    # 2^(20001/2) is irrational; the exact root test must say so, not overflow
    code, out, err = run_cli("expand", "--pair", "peters", "--param", "mu=20001/2",
                             "--n", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_exit_code_non_integer_k():
    code, _, err = run_cli("expand", "--pair", "generalized-hermite", "--param",
                           "k=5/2", "--n", "2")
    assert code == 2 and "integer k" in err


def test_verify_passing_suite_exit_zero():
    code, out, _ = run_cli("verify", "--suite", "crofton")
    assert code == 0
    assert "24/24 checks passed" in out


def test_verify_unknown_suite():
    code, _, err = run_cli("verify", "--suite", "bogus")
    assert code == 2


@pytest.mark.parametrize("suite", ["integral", "reductions", "operational",
                                   "biorthogonality"])
def test_verify_negative_max_n_is_usage_error(capsys, suite):
    # with max_n < 0 these suites would run no per-n check and still pass
    assert main(["verify", "--suite", suite, "--max-n", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--max-n must be >= 0" in captured.err


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_max_n_zero_is_accepted(capsys, suite):
    # max_n = 0 is the smallest valid bound for every suite
    assert len(SUITES) == 9
    assert main(["verify", "--suite", suite, "--max-n", "0"]) == 0
    assert capsys.readouterr().err == ""


def test_package_runs_as_module():
    proc = subprocess.run([sys.executable, "-m", "shefferpoly", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stderr == ""
    assert len(proc.stdout.strip().splitlines()) == 14
    proc = subprocess.run([sys.executable, "-m", "shefferpoly", "verify",
                           "--suite", "bogus"], capture_output=True, text=True)
    assert proc.returncode == 2


def test_verify_json_report(capsys):
    assert main(["verify", "--suite", "inverse", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] is True
    assert all(set(c) == {"suite", "name", "pass", "witness"}
               for c in data["checks"])


def test_verify_csv_report(capsys):
    assert main(["verify", "--suite", "crofton", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "suite,check,passed,witness"
    assert len(lines) == 25


def test_verify_monomiality_small(capsys):
    assert main(["verify", "--suite", "monomiality", "--max-n", "2",
                 "--pair", "hahn"]) == 0
    out = capsys.readouterr().out
    assert "hahn" in out and "bessel" not in out


def test_verify_pair_all_is_accepted(capsys):
    assert main(["verify", "--suite", "crofton", "--pair", "all"]) == 0


def test_verify_pair_filter_miss_is_usage_error(capsys):
    assert main(["verify", "--suite", "crofton", "--pair", "hahn"]) == 2


def test_output_is_byte_identical_across_runs():
    a = run_cli("expand", "--pair", "hahn", "--kind", "S", "--r", "3",
                "--n", "0..5", "--format", "json")
    b = run_cli("expand", "--pair", "hahn", "--kind", "S", "--r", "3",
                "--n", "0..5", "--format", "json")
    assert a == b
    c = run_cli("list", "--format", "json")
    d = run_cli("list", "--format", "json")
    assert c == d


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "members.csv"
    assert main(["expand", "--pair", "identity", "--n", "0..2",
                 "--format", "csv", "--out", str(target)]) == 0
    assert target.read_text().startswith("n,polynomial")


@pytest.mark.parametrize("golden,args", [
    ("expand_identity_s2.txt",
     ["expand", "--pair", "identity", "--kind", "S", "--r", "2", "--n", "0..3"]),
    ("expand_lower_factorial_sheffer.csv",
     ["expand", "--pair", "lower-factorial", "--kind", "sheffer",
      "--n", "0..4", "--format", "csv"]),
    ("list.csv", ["list", "--format", "csv"]),
])
def test_golden_outputs(capsys, golden, args):
    assert main(args) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("kind", ["S", "R", "sheffer"])
def test_expand_huge_order_computes_only_the_requested_members(kind, capsys):
    # member n does not depend on the truncation order once it is >= n, so
    # an order far beyond the requested n costs nothing extra
    args = ["expand", "--pair", "identity", "--kind", kind, "--n", "0..2"]
    assert main(args + ["--order", "100000"]) == 0
    huge = capsys.readouterr().out.splitlines()
    assert main(args + ["--order", "12"]) == 0
    small = capsys.readouterr().out.splitlines()
    assert huge[0].endswith("order 100000") and small[0].endswith("order 12")
    assert huge[1:] == small[1:] and len(huge) == 4
