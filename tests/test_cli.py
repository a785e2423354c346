"""CLI contract: exit codes, deterministic output, config merging."""

import json
from pathlib import Path

import pytest

from kthprice.cli import (
    DEFAULT_SEED,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
)
from kthprice.quadrature import QuadratureError


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


def test_verify_ladder_needs_polynomial_distribution(capsys):
    code, _, err = run(capsys, "verify", "--suite", "ladder", "--n", "5",
                       "--k", "3", "--dist", "linear", "--a", "1.0")
    assert code == EXIT_CONFIG and "ladder" in err


def test_verify_oracle_suite_empty_for_k2(capsys):
    code, _, err = run(capsys, "verify", "--suite", "oracle", "--n", "5",
                       "--k", "2")
    assert code == EXIT_CONFIG and "no applicable check" in err


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


def test_identities_reports_first_witness(monkeypatch, capsys):
    import kthprice.combinatorics as comb
    holds = comb.omega_bounds_hold
    monkeypatch.setattr(comb, "omega_bounds_hold",
                        lambda n, k: (n, k) != (20, 10) and holds(n, k))
    code, out, _ = run(capsys, "identities", "--lmax", "2",
                       "--integral-lmax", "0", "--random-trials", "1")
    assert code == EXIT_CHECK_FAILED
    lines = out.strip().splitlines()
    assert lines[-1] == "FAIL omega-bounds witness n=20 k=10"
    assert all(line.startswith("ok ") for line in lines[:-1])


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
    import kthprice.combinatorics as comb
    calls = {"omega": 0, "omega_bounds": 0}

    def counted(name):
        fn = getattr(comb, name)

        def wrapper(n, k):
            calls[name] += 1
            return fn(n, k)
        return wrapper

    for name in calls:
        monkeypatch.setattr(comb, name, counted(name))
    code, out, _ = run(capsys, "bounds", "--nmax", "20")
    assert code == EXIT_OK
    assert len(out.splitlines()) == calls["omega"] == 90
    assert calls["omega_bounds"] == 171  # every pair 3 <= k <= n <= 20


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
    for field in ("np", "fmt"):  # the field for --format is "format"
        cfg.write_text(json.dumps({field: "json"}))
        code, _, err = run(capsys, "bid-table", "--config", str(cfg))
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

@pytest.mark.parametrize("name, line", [
    ("bid-table-triangle", "bid-table --n 5 --k 4 --dist triangle"),
    ("bid-table-json", "bid-table --n 6 --k 3 --format json"),
    ("verify-all", "verify --suite all --n 6 --k 4 --dist triangle"),
    ("verify-truthful",
     "verify --suite re --n 5 --k 3 --bid truthful --expect-fail"),
    ("identities", "identities --nmax 30"),
    ("bounds", "bounds --nmax 20"),
])
def test_readme_line_matches_golden_bytes(capsys, name, line):
    golden = Path(__file__).resolve().parents[1] / "benchmarks" / "golden"
    code, out, _ = run(capsys, *line.split())
    assert code == EXIT_OK
    assert out.encode() == (golden / f"{name}.out").read_bytes()
