"""CLI contract: exit codes, deterministic output, config merging."""

import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kthprice import AuctionConfig, BidFunction
from kthprice.cli import (
    DEFAULT_SEED,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    build_parser,
    main,
)
from kthprice.quadrature import QuadratureError

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "benchmarks" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# bid-table

def test_bid_table_frozen_triangle_row(capsys):
    code, out, _ = run(capsys, "bid-table", "--n", "5", "--k", "4",
                       "--dist", "triangle")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "x,bid,slope,slope_decimal,lower_bound,upper_bound"
    assert len(lines) == 11
    last = lines[-1].split(",")
    assert last[0] == "1"
    assert last[1] == "1.45833333333"   # 35/24 at 12 significant digits
    assert last[2] == "35/24"
    assert last[4] == "1.33333333333" and last[5] == "1.58333333333"


def test_bid_table_cells_reproducible_at_printed_precision(capsys):
    code, out, _ = run(capsys, "bid-table", "--n", "6", "--k", "4",
                       "--dist", "uniform", "--grid-size", "5")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    for cells in rows:
        x = float(cells[0])
        assert cells[1] == format(5 / 3 * x, ".12g")  # slope (n-1)/(n-k+1)
        assert cells[2] == "5/3"
        assert cells[4] == cells[5] == ""  # bounds are triangle-only


def test_bid_table_json_document(capsys):
    code, out, _ = run(capsys, "bid-table", "--n", "5", "--k", "3",
                       "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["n"] == 5 and doc["k"] == 3
    assert doc["slope"] == "4/3"
    assert doc["dist"] == {"a": 0.0, "b": 1.0, "omega": 1.0}
    assert len(doc["rows"]) == 10
    assert doc["rows"][-1] == {"x": 1.0, "bid": 1.33333333333}


def test_bid_table_rejects_bad_shape(capsys):
    code, _, err = run(capsys, "bid-table", "--n", "3", "--k", "4")
    assert code == EXIT_CONFIG and "error:" in err
    code, _, err = run(capsys, "bid-table", "--dist", "linear")
    assert code == EXIT_CONFIG and "--a" in err


@pytest.mark.parametrize("argv, named", [
    (["bid-table", "--dist", "uniform", "--a", "3.0"], "--a"),
    (["verify", "--suite", "re", "--dist", "triangle", "--a", "1.0"], "--a"),
    (["simulate", "revenue", "--x", "0.5"], "--x"),
    (["verify", "--suite", "oracle", "--grid-size", "5"], "--grid-size"),
    (["verify", "--suite", "oracle", "--n", "5", "--k", "4", "--bid",
      "truthful"], "--bid"),
    (["verify", "--suite", "ladder", "--n", "5", "--k", "4", "--tol", "0.5"],
     "--tol"),
    (["verify", "--suite", "best-response", "--n", "5", "--k", "4", "--tol",
      "0.5"], "--tol"),
    (["bounds", "--nmax", "4", "--n", "9", "--k", "5"], "--nmax"),
    (["bounds", "--nmax", "4", "--k", "3"], "--k"),
])
def test_options_the_mode_would_ignore_exit_2(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG and out == ""
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("argv, named", [
    (["verify", "--suite", "re", "--n", "5", "--k", "3", "--bid", "truthful",
      "--tol", "inf"], "tol must be finite, got inf"),
    (["verify", "--suite", "re", "--tol", "nan"], "tol must be finite, got nan"),
    (["verify", "--omega", "inf"], "omega must be finite, got inf"),
    (["bid-table", "--dist", "linear", "--a=-inf"],
     "a must be finite, got -inf"),
    (["simulate", "payment", "--x", "inf"], "x must be finite, got inf"),
    (["simulate", "revenue", "--n", "3", "--k", "2", "--samples", "1"],
     "samples must be >= 2, got 1"),
])
def test_non_finite_floats_and_one_sample_exit_2(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG and out == ""
    assert err == f"error: {named}\n"


def test_bid_table_output_file_byte_identical(tmp_path, capsys):
    argv = ["bid-table", "--n", "7", "--k", "5", "--dist", "triangle",
            "--format", "json"]
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    assert main(argv + ["--output", str(p1)]) == EXIT_OK
    assert main(argv + ["--output", str(p2)]) == EXIT_OK
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# verify

def test_verify_equilibrium_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--n", "5",
                       "--k", "3", "--dist", "triangle")
    assert code == EXIT_OK
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert {d["check"] for d in docs} == {
        "revenue-equivalence", "best-response", "psi-ladder-oracle", "phi-ladder"}
    assert all(d["pass"] for d in docs)


def test_verify_truthful_fails_then_expect_fail_inverts(capsys):
    base = ["verify", "--suite", "re", "--n", "5", "--k", "3",
            "--bid", "truthful"]
    code, out, _ = run(capsys, *base)
    assert code == EXIT_CHECK_FAILED
    assert json.loads(out)["pass"] is False
    code, _, _ = run(capsys, *base, "--expect-fail")
    assert code == EXIT_OK


def test_verify_ladder_fails_a_wrong_slope(capsys, monkeypatch):
    import kthprice.equilibrium as eq
    exact = eq._exact_slope
    monkeypatch.setattr(eq, "_exact_slope",
                        lambda dist, n, k: exact(dist, n, k) + 1)
    base = ["verify", "--suite", "ladder", "--n", "6", "--k", "4",
            "--dist", "triangle"]
    code, out, _ = run(capsys, *base)
    assert code == EXIT_CHECK_FAILED
    doc = json.loads(out)
    assert doc["check"] == "phi-ladder" and doc["max_error"] == 1.0
    assert doc["pass"] is False
    code, _, _ = run(capsys, *base, "--expect-fail")
    assert code == EXIT_OK


def test_verify_ladder_needs_polynomial_distribution(capsys):
    code, _, err = run(capsys, "verify", "--suite", "ladder", "--n", "5",
                       "--k", "3", "--dist", "linear", "--a", "1.0")
    assert code == EXIT_CONFIG and "ladder" in err


def test_verify_oracle_suite_empty_for_k2(capsys):
    code, _, err = run(capsys, "verify", "--suite", "oracle", "--n", "5",
                       "--k", "2")
    assert code == EXIT_CONFIG and "no applicable check" in err


def test_verify_best_response_integrates_each_payment_once(capsys,
                                                           monkeypatch):
    import kthprice.verification as ver
    quadrature = ver.expected_payment_quadrature
    uppers = []

    def counted(bid, dist, n, k, z):
        uppers.append(np.array(z))
        return quadrature(bid, dist, n, k, z)

    monkeypatch.setattr(ver, "expected_payment_quadrature", counted)
    code, out, _ = run(capsys, "verify", "--suite", "best-response", "--n",
                       "6", "--k", "4", "--dist", "triangle")
    assert code == EXIT_OK
    assert json.loads(out)["grid"] == [0.2, 0.5, 0.8]
    # one call for every grid point z > 0 of the default 101, shared by
    # the three values
    assert len(uppers) == 1
    assert uppers[0].tolist() == np.linspace(0.0, 1.0, 101)[1:].tolist()
    assert len(set(uppers[0].tolist())) == 101 - 1


@pytest.mark.parametrize("suite", ["best-response", "all"])
def test_verify_best_response_needs_three_points(capsys, suite):
    # at 2 points the tolerance omega/(g-1) = omega passes any bid
    code, out, err = run(capsys, "verify", "--suite", suite,
                         "--grid-size", "2")
    assert code == EXIT_CONFIG and out == ""
    assert "best-response needs --grid-size >= 3" in err
    # the revenue-equivalence suite alone still takes 2 points
    code, _, _ = run(capsys, "verify", "--suite", "re", "--grid-size", "2")
    assert code == EXIT_OK


def test_verify_best_response_on_three_points_can_fail(capsys, monkeypatch):
    import kthprice.cli as cli
    code, out, _ = run(capsys, "verify", "--suite", "best-response",
                       "--grid-size", "3")
    assert code == EXIT_OK and json.loads(out)["tolerance"] == 0.5
    # a zero bid costs nothing, so every payoff peaks at z = omega:
    # |z* - 0.2| = 0.8 > omega/2
    monkeypatch.setattr(cli, "_pick_bid", lambda args, dist: BidFunction(
        AuctionConfig(args.n, args.k), dist, Fraction(0)))
    code, out, _ = run(capsys, "verify", "--suite", "best-response",
                       "--grid-size", "3")
    assert code == EXIT_CHECK_FAILED
    assert json.loads(out)["errors"] == [0.8, 0.5, 0.2]


def test_verify_best_response_nonconvergence_exits_3(capsys, monkeypatch):
    import kthprice.quadrature as quadrature
    # only the 16- and 32-node rules, which never agree to 1e-300
    monkeypatch.setattr(quadrature, "TOL", 1e-300)
    monkeypatch.setattr(quadrature, "MAX_NODES", 32)
    code, out, err = run(capsys, "verify", "--suite", "best-response",
                         "--dist", "linear", "--a", "0.73", "--n", "6",
                         "--k", "4")
    assert code == EXIT_NUMERICAL and out == ""
    assert "did not converge within 32 nodes" in err


# ---------------------------------------------------------------------------
# identities

def test_identities_quick_run_all_ok(capsys):
    code, out, _ = run(capsys, "identities", "--lmax", "10",
                       "--integral-lmax", "4", "--random-trials", "25",
                       "--nmax", "8")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert all(line.startswith("ok ") for line in lines)
    names = [line.split()[1] for line in lines]
    assert names == ["catalan-recurrence", "catalan-integral", "jensen",
                     "hagen-rothe", "shifted-jensen", "theta-recurrences",
                     "omega-positive", "omega-bounds"]


def test_identities_rejects_bad_limits(capsys):
    code, _, err = run(capsys, "identities", "--nmax", "2")
    assert code == EXIT_CONFIG and "nmax" in err
    # the random trials are judged by ==, with no tolerance to set
    code, _, err = run(capsys, "identities", "--tol", "1e-9")
    assert code == EXIT_CONFIG and "unrecognized arguments: --tol" in err


def test_identities_reports_first_witness(monkeypatch, capsys):
    import kthprice.combinatorics as comb
    check = comb._omega_check
    # a numerator of 0 at (20, 10) falls below the lower bound there
    monkeypatch.setattr(comb, "_omega_check",
                        lambda n, k, num=None: check(
                            n, k, 0 if (n, k) == (20, 10) else num))
    code, out, _ = run(capsys, "identities", "--lmax", "2",
                       "--integral-lmax", "0", "--random-trials", "1")
    assert code == EXIT_CHECK_FAILED
    lines = out.strip().splitlines()
    assert lines[-1] == "FAIL omega-bounds witness n=20 k=10"
    assert all(line.startswith("ok ") for line in lines[:-1])


def test_identities_reports_first_pair_of_a_corrupt_theta_entry(monkeypatch,
                                                                capsys):
    import kthprice.combinatorics as comb
    row = comb._theta_row

    def corrupt(n, k):
        out = row(n, k)
        if (n, k) == (9, 6):
            out[2] += 1
        return out

    monkeypatch.setattr(comb, "_theta_row", corrupt)
    code, out, _ = run(capsys, "identities", "--lmax", "2",
                       "--integral-lmax", "0", "--random-trials", "1",
                       "--nmax", "12")
    assert code == EXIT_CHECK_FAILED
    lines = out.strip().splitlines()
    # the row of (9, 6) is read first as the k + 1 row of the pair (9, 5)
    assert lines[5] == "FAIL theta-recurrences witness n=9 k=5"
    assert all(line.startswith("ok ") for line in lines[:5])


def _count_omega_calls(monkeypatch):
    """Count the calls of omega, omega_bounds, the integer bounds check and
    the theta row from here on; returns the live counts by name."""
    import kthprice.combinatorics as comb
    calls = {"omega": 0, "omega_bounds": 0, "_omega_check": 0,
             "_theta_row": 0}

    def counted(name):
        fn = getattr(comb, name)

        def wrapper(n, k, *num):
            calls[name] += 1
            return fn(n, k, *num)
        return wrapper

    for name in calls:
        monkeypatch.setattr(comb, name, counted(name))
    return calls


def test_identities_computes_each_pair_once(capsys, monkeypatch):
    calls = _count_omega_calls(monkeypatch)
    code, out, _ = run(capsys, "identities", "--lmax", "2",
                       "--integral-lmax", "0", "--random-trials", "1",
                       "--nmax", "30")
    assert code == EXIT_OK and out.endswith("ok omega-bounds (nmax=30)\n")
    pairs = 28 * 29 // 2  # 3 <= k <= n <= 30
    # one integer check per pair, None off the wedge
    assert calls["_omega_check"] == pairs == 406
    # Omega comes from the theta row of its pair, not from omega(), and
    # the bounds from the check, not from omega_bounds()
    assert calls["omega"] == calls["omega_bounds"] == 0
    # the rows k = 3..n+1 once per n; the check reads none of its own
    assert calls["_theta_row"] == pairs + 28 == 434


# ---------------------------------------------------------------------------
# simulate

def test_simulate_payment_document(capsys):
    code, out, _ = run(capsys, "simulate", "payment", "--n", "4", "--k", "3",
                       "--x", "0.5")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["mode"] == "payment" and doc["seed"] == DEFAULT_SEED
    assert doc["within_3se"] is True
    assert doc["benchmark"] == pytest.approx(3 * 0.5 ** 4 / 4, rel=1e-11)
    assert doc["samples"] == 100_000


def test_simulate_payment_requires_x(capsys):
    code, _, err = run(capsys, "simulate", "payment", "--n", "4", "--k", "3")
    assert code == EXIT_CONFIG and "--x" in err
    code, _, err = run(capsys, "simulate", "payment", "--n", "4", "--k", "3",
                       "--x", "1.5")
    assert code == EXIT_CONFIG and "x must lie in" in err and "x=1.5" in err


def test_simulate_payment_without_a_win_exits_3(capsys, tmp_path):
    # F(0.05)**7 = 2.5e-3**7 on the triangle: no win in 100 trials, and
    # 0 +- 0 is not printed as a result, nor the library's warning shown
    argv = ("simulate", "payment", "--n", "8", "--k", "3", "--x", "0.05",
            "--dist", "triangle", "--samples", "100")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err.startswith("error: no winning trial at n=8, k=3, x=0.05 "
                              "in 100 samples") and err.count("\n") == 1
        target = tmp_path / "payment.json"
        assert run(capsys, *argv, "--output", str(target))[0] == EXIT_NUMERICAL
        assert not target.exists()


def test_simulate_revenue_repeat_runs_identical(capsys):
    argv = ("simulate", "revenue", "--n", "5", "--k", "4", "--dist",
            "triangle", "--samples", "70000", "--seed", "9")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    assert json.loads(out1)["mode"] == "revenue"


# ---------------------------------------------------------------------------
# bounds

def test_bounds_single_pair(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "10", "--k", "3")
    assert code == EXIT_OK
    assert out.strip() == "ok n=10 k=3 omega=1/2 lower=1/2 upper=7/8"


def test_bounds_sweep_and_validation(capsys):
    code, out, _ = run(capsys, "bounds", "--nmax", "12")
    assert code == EXIT_OK
    assert all(line.startswith("ok ") for line in out.strip().splitlines())
    code, _, err = run(capsys, "bounds", "--n", "6", "--k", "5")
    assert code == EXIT_CONFIG and "n + 4 > 2k" in err
    code, _, err = run(capsys, "bounds")
    assert code == EXIT_CONFIG


def test_bounds_computes_each_pair_once(capsys, monkeypatch):
    calls = _count_omega_calls(monkeypatch)
    code, out, _ = run(capsys, "bounds", "--nmax", "20")
    assert code == EXIT_OK
    # one check per pair 3 <= k <= n <= 20; a theta row only on the wedge
    assert calls["_omega_check"] == 171
    assert len(out.splitlines()) == calls["_theta_row"] == 90
    # the printed values come from the check's integers, not from Fractions
    assert calls["omega"] == calls["omega_bounds"] == 0


# ---------------------------------------------------------------------------
# config files and error mapping

def test_config_file_merging_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 6, "k": 3, "grid-size": 4,
                               "format": "json"}))
    code, out, _ = run(capsys, "bid-table", "--config", str(cfg), "--k", "4")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["n"] == 6 and doc["k"] == 4      # flag beat the file
    assert len(doc["rows"]) == 4                 # file beat the default


@pytest.mark.parametrize("argv, field, value", [
    (["bid-table"], "n", 6.7),
    (["bid-table"], "n", True),
    (["verify", "--suite", "re", "--n", "5", "--k", "3"], "expect_fail",
     "false"),
    (["simulate", "revenue"], "dist", "gauss"),
    (["verify"], "grid-size", 1),
    (["verify", "--suite", "re"], "tol", float("inf")),
])
def test_config_file_values_checked_like_flags(tmp_path, capsys, argv, field,
                                               value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({field: value}))
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == EXIT_CONFIG and out == ""
    assert f"error: {field.replace('_', '-')} must be" in err
    assert repr(value) in err


def test_unwritable_output_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "bid-table", "--output", str(path))
    assert code == EXIT_CONFIG and out == "" and err.startswith("error: ")


def test_config_file_rejects_unknown_fields(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    for command, field in (("bid-table", "np"), ("identities", "tol"),
                           ("bid-table", "fmt")):  # --format's is "format"
        cfg.write_text(json.dumps({field: "json"}))
        code, _, err = run(capsys, command, "--config", str(cfg))
        assert code == EXIT_CONFIG and f"unknown config field {field!r}" in err
    cfg.write_text(json.dumps([1, 2]))
    code, _, err = run(capsys, "bid-table", "--config", str(cfg))
    assert code == EXIT_CONFIG and "JSON object" in err
    code, _, err = run(capsys, "bid-table", "--config", str(tmp_path / "no.json"))
    assert code == EXIT_CONFIG


def test_quadrature_failure_maps_to_exit_3(monkeypatch, capsys):
    import kthprice.cli as cli
    def boom(*args, **kwargs):
        raise QuadratureError("did not converge", 0.0, 1.0)
    monkeypatch.setattr(cli, "revenue_equivalence_check", boom)
    code, _, err = run(capsys, "verify", "--suite", "re", "--n", "4", "--k", "3")
    assert code == EXIT_NUMERICAL and "converge" in err


@pytest.mark.parametrize("argv", [
    # 2.0 ** (2l + 2) passes the float range in catalan_integral
    ["identities", "--integral-lmax", "511"],
    # (n-1) binom(n-2, k-2) passes the float range for n >= 1022
    ["verify", "--suite", "re", "--n", "1100", "--k", "550"],
    ["verify", "--suite", "best-response", "--n", "1100", "--k", "550"],
    # the series bid at omega passes the float range for a = -1.9
    *(argv + ["--n", "150", "--k", "150", "--dist", "linear", "--a", "-1.9"]
      for argv in (["bid-table"], ["verify"],
                   ["simulate", "payment", "--x", "0.5"])),
], ids=["identities", "verify-re", "verify-best-response", "series-bid-table",
        "series-verify", "series-simulate"])
def test_float_overflow_maps_to_exit_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_NUMERICAL and out == ""
    assert err.startswith("error: float overflow: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, code, message", [
    # 2/omega**2 overflows: a is refused by name
    (["--dist", "triangle", "--omega", "1e-170"], EXIT_CONFIG,
     "error: a must be finite, got inf\n"),
    # the uniform needs no omega**2: b = 1e-200 is a valid density
    (["--omega", "1e200"], EXIT_OK, ""),
    # 2/omega**2 underflows to 0
    (["--dist", "triangle", "--omega", "1e170"], EXIT_CONFIG,
     "error: a must be positive when b = 0\n"),
    (["--dist", "linear", "--a", "0.5", "--omega", "1e200"], EXIT_CONFIG,
     "error: b must be finite, got -inf\n"),
], ids=["triangle-1e-170", "uniform-1e200", "triangle-1e170",
        "linear-1e200"])
def test_extreme_omega_exit_codes(capsys, argv, code, message):
    got, out, err = run(capsys, "bid-table", *argv)
    assert (got, err) == (code, message)
    assert (out == "") == (code != EXIT_OK)
    if code == EXIT_OK:  # the bid at omega is 4/3 omega, as at omega = 1
        assert out.splitlines()[-1].startswith("1e+200,1.33333333333e+200,")


@pytest.mark.parametrize("argv, message", [
    (["bid-table", "--n", "abc"], "invalid int value: 'abc'"),
    (["bid-table", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
    ([], "the following arguments are required: command"),
])
def test_parse_errors_return_exit_2(capsys, argv, message):
    # argparse's own message still reaches stderr, but main returns 2
    # rather than raising SystemExit
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG and out == ""
    assert err.startswith("usage: kthprice") and message in err


def test_help_returns_exit_0(capsys):
    code, out, err = run(capsys, "--help")
    assert code == EXIT_OK and out.startswith("usage: kthprice") and err == ""
    code, out, _ = run(capsys, "bid-table", "--help")
    assert code == EXIT_OK and "--n" in out


# ---------------------------------------------------------------------------
# README command lines, byte for byte

README_LINES = [
    ("bid-table-triangle", "bid-table --n 5 --k 4 --dist triangle"),
    ("bid-table-json", "bid-table --n 6 --k 3 --format json"),
    ("verify-all", "verify --suite all --n 6 --k 4 --dist triangle"),
    ("verify-truthful",
     "verify --suite re --n 5 --k 3 --bid truthful --expect-fail"),
    ("identities", "identities --nmax 30"),
    ("simulate-payment", "simulate payment --n 4 --k 3 --x 0.8 --dist "
                         "triangle --samples 1000000"),
    ("simulate-revenue",
     "simulate revenue --n 3 --k 2 --samples 1000000 --seed 1"),
    ("bounds", "bounds --nmax 20"),
]


@pytest.mark.parametrize("name, line", README_LINES)
def test_readme_line_matches_golden_bytes(capsys, name, line):
    code, out, _ = run(capsys, *line.split())
    assert code == EXIT_OK
    assert out.encode() == (GOLDEN / f"{name}.out").read_bytes()


# ---------------------------------------------------------------------------
# one parser per process

def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_repeated_calls_in_one_process_carry_no_state(tmp_path, capsys):
    # An exit-2 call, a --config call and --help between two runs of every
    # README line must leave the shared parser as it found it.
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 6, "grid-size": 4, "format": "json"}))
    between = [(["bid-table", "--a", "1.0"], EXIT_CONFIG),
               (["bid-table", "--config", str(cfg)], EXIT_OK),
               (["--help"], EXIT_OK)]

    def readme_run():
        return [run(capsys, *line.split())[:2] for _, line in README_LINES]

    first = readme_run()
    for argv, want in between:
        assert run(capsys, *argv)[0] == want, argv
    assert readme_run() == first
    assert [code for code, _ in first] == [EXIT_OK] * len(README_LINES)


# ---------------------------------------------------------------------------
# the entry point, one process per call

def run_module(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "kthprice", *argv],
                          capture_output=True, cwd=ROOT, env=env, timeout=120)


def test_python_m_kthprice_prints_golden_bounds():
    proc = run_module("bounds", "--nmax", "20")
    assert proc.returncode == EXIT_OK, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / "bounds.out").read_bytes()


def test_python_m_kthprice_exits_2_on_config_error():
    proc = run_module("bounds")
    assert proc.returncode == EXIT_CONFIG
    assert proc.stdout == b"" and b"error:" in proc.stderr
