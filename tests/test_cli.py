"""CLI behaviour: formats, exit codes, determinism, golden outputs."""

import csv
import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


_KNOWN_PAIRS = ("actuarial, bernoulli2, bessel, exponential, generalized-hermite, hahn, "
                "identity, laguerre, lower-factorial, mittag-leffler, peters, pidduck, "
                "poisson-charlier, related, shively")


@pytest.mark.parametrize("argv,line", [
    (["list", "--pair", "nosuch"], f"unknown pair 'nosuch'; known pairs: {_KNOWN_PAIRS}"),
    (["verify", "--suite", "nosuch"],
     "unknown suite 'nosuch'; known: biorthogonality, crofton, heat, integral, inverse, "
     "monomiality, operational, oracle, reductions, all"),
    (["expand", "--pair", "laguerre", "--param", "beta=1", "--n", "1"],
     "pair 'laguerre' has no parameter 'beta'"),
], ids=["list-pair", "verify-suite", "expand-param"])
def test_unknown_name_error_line_is_not_quoted(argv, line, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {line}\n"


def test_repeated_param_is_one_usage_error_line(capsys):
    assert main(["expand", "--pair", "laguerre", "--param", "alpha=1", "--param", "alpha=2",
                 "--n", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --param alpha is given more than once\n"


def test_exit_code_capacity():
    code, _, err = run_cli("expand", "--pair", "identity", "--n", "20",
                           "--order", "12")
    assert code == 3


def test_a_huge_n_range_past_the_order_is_refused_before_it_is_listed(capsys):
    # a list of 10^18 values of n would not fit in memory
    hi = 10 ** 18
    assert main(["expand", "--pair", "identity", "--n", f"0..{hi}", "--order", "5"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --order 5 is below the largest requested n {hi}\n"


def test_expand_without_order_reads_the_default_order(capsys):
    # the default is 12, as for verify, so a large n ends at once instead
    # of expanding every member through it
    assert main(["expand", "--pair", "identity", "--n", "0..100000"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --order 12 is below the largest requested n 100000\n"
    assert main(["expand", "--pair", "identity", "--n", "12"]) == 0
    assert capsys.readouterr().out.splitlines()[0].endswith("order 12")


@pytest.mark.parametrize("suite", ["all", "inverse"])
def test_verify_order_zero_is_a_capacity_error(suite):
    # order 0 cannot invert f, like order 1 cannot hold member 2
    code, out, err = run_cli("verify", "--suite", suite, "--order", "0")
    assert code == 3 and out == ""
    assert err == "error: resolving a pair needs order >= 1, not 0\n"


def test_exit_code_inexact_root_of_huge_power():
    # 2^(20001/2) is irrational; the exact root test must say so, not overflow
    code, out, err = run_cli("expand", "--pair", "peters", "--param", "mu=20001/2",
                             "--n", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("fmt", ["text", "json", "csv", "latex"])
def test_member_too_long_to_print_is_a_capacity_error(fmt, capsys):
    # member 0 of peters at mu=100000 is 1/2^100000 (30,103 digits)
    code = main(["expand", "--pair", "peters", "--param", "mu=100000",
                 "--n", "0..1", "--order", "2", "--format", fmt])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err == (f"error: member n=0 of peters has a coefficient of more than "
                   f"{sys.get_int_max_str_digits()} digits, too long to print\n")


@pytest.mark.parametrize("value", ["1" * 5000, "1/" + "3" * 5000, "1." + "0" * 5000],
                         ids=["integer", "denominator", "decimal"])
def test_param_past_the_digit_limit_is_one_short_error_line(value, capsys):
    code = main(["expand", "--pair", "peters", "--param", f"mu={value}", "--n", "0"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == (f"error: --param mu has more than {sys.get_int_max_str_digits()} "
                   "digits, too many to read\n")
    assert len(err.encode()) < 200


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
    # max_n = 0 is the smallest valid bound for every suite that reads one;
    # the two of fixed size refuse any --max-n rather than ignore it
    assert len(SUITES) == 9
    if suite in ("crofton", "inverse"):
        for max_n in ("0", "99999999"):
            assert main(["verify", "--suite", suite, "--max-n", max_n]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == (
                f"error: --max-n does not apply to suite {suite!r}, which has a fixed size\n")
        return
    assert main(["verify", "--suite", suite, "--max-n", "0"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    *[["verify", "--suite", suite] for suite in sorted(SUITES)],
    ["verify", "--suite", "all"],
    *[["expand", "--pair", "laguerre", "--kind", kind, "--n", "0"]
      for kind in ("S", "R", "sheffer")],
], ids=lambda argv: "-".join(argv[::2]))
def test_negative_order_is_one_usage_error_line(capsys, argv):
    # suites that never read the order used to pass and report it
    assert main(argv + ["--order", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --order must be >= 0\n"


def test_monomiality_scale_run_matches_its_recorded_digest():
    # the path where a settled verdict skips the most operator work
    code, out, err = run_cli("verify", "--suite", "monomiality", "--max-n", "12",
                             "--order", "16", "--format", "json")
    assert code == 0 and err == ""
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == (GOLDEN / "monomiality_n12_o16.sha256").read_text().strip()


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


@pytest.mark.parametrize("pair,code", [("ermite", 2), ("identity", 0)])
def test_verify_pair_must_name_a_pair(capsys, pair, code):
    assert main(["verify", "--suite", "reductions", "--pair", pair,
                 "--max-n", "0"]) == code
    out, err = capsys.readouterr()
    if code:
        assert "unknown pair 'ermite'" in err and "known pairs: " in err and not out
    else:
        assert "identity/ex1" in out and "bernoulli2" not in out


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


@pytest.mark.parametrize("args", [
    ["list"],
    ["expand", "--pair", "identity", "--n", "0..2"],
    ["verify", "--suite", "crofton"],
])
@pytest.mark.parametrize("where", ["missing dir", "a directory"])
def test_unwritable_out_is_a_usage_error(tmp_path, args, where, capsys):
    target = str(tmp_path / "missing" / "out.txt" if where == "missing dir" else tmp_path)
    assert main(args + ["--out", target]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write --out {target}: ")


def test_unwritable_out_fails_before_any_suite_runs(tmp_path, monkeypatch, capsys):
    runs = 0

    def counting(suite):
        def run(*args, **kwargs):
            nonlocal runs
            runs += 1
            return suite(*args, **kwargs)
        return run

    for name, suite in list(SUITES.items()):
        monkeypatch.setitem(SUITES, name, counting(suite))
    target = str(tmp_path / "missing" / "out.txt")
    assert main(["verify", "--suite", "all", "--out", target]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (f"error: cannot write --out {target}: "
                                 "No such file or directory\n")
    assert runs == 0


@pytest.mark.parametrize("args,code", [
    (["verify", "--suite", "crofton", "--pair", "hahn"], 2),  # refused after the work
    (["expand", "--pair", "identity", "--n", "0..5", "--order", "3"], 3),
])
def test_failed_command_leaves_out_untouched(tmp_path, args, code, capsys):
    kept, new = tmp_path / "kept.txt", tmp_path / "new.txt"
    kept.write_text("earlier output\n")
    assert main(args + ["--out", str(kept)]) == code
    assert main(args + ["--out", str(new)]) == code
    assert kept.read_text() == "earlier output\n" and not new.exists()


def test_list_csv_rows_parse_into_seven_fields(capsys):
    assert main(["list", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 15 and all(len(row) == 7 for row in rows)
    assert rows[1][1] == "generalized Hermite H_{n,k,nu}"


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


# -- robustness: any expand request ends in output or one clean error ---------------

_PARAMS = {"generalized-hermite": ("nu", "k"), "laguerre": ("alpha",),
           "actuarial": ("beta",), "poisson-charlier": ("a",),
           "peters": ("lambda", "mu"), "shively": ("a",)}
_huge = 10 ** 30
_rationals = st.one_of(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.sampled_from([F(0), F(-1), F(_huge), F(-_huge), F(1, _huge), F(_huge + 1, 2)]),
)


@st.composite
def _expand_argv(draw):
    pair = draw(st.sampled_from(sorted(_PARAMS) + ["hahn", "identity"]))
    argv = ["expand", "--pair", pair,
            "--kind", draw(st.sampled_from(["S", "R", "sheffer"])),
            "--r", str(draw(st.integers(0, 4))),
            "--order", str(draw(st.integers(0, 8)))]
    for name in draw(st.lists(st.sampled_from(_PARAMS.get(pair, ("a",))), unique=True)):
        argv += ["--param", f"{name}={draw(_rationals)}"]
    lo = draw(st.integers(0, 3))
    hi = draw(st.integers(lo, lo + 3))
    argv += ["--n", str(lo) if lo == hi else f"{lo}..{hi}"]
    return argv


@settings(max_examples=300, deadline=None)
@given(_expand_argv())
def test_expand_ends_in_output_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert out.getvalue() and not err.getvalue(), argv
    else:
        assert code in (2, 3) and not out.getvalue(), argv
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), argv
