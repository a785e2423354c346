"""The benchmark's correctness gate can fail: each check counts a wrong output.

    python3 -m pytest benchmarks/test_gate.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import kthprice.equilibrium as eq  # noqa: E402
import kthprice.verification as kv  # noqa: E402
from kthprice import AuctionConfig, BidFunction  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

DISTS = wl.distributions(1)
UNIFORM, TRIANGLE = DISTS["uniform"], DISTS["triangle"]


def passed(op) -> bool:
    return run.run_op(op, 0)["ok"]


def test_truthful_bid_labelled_equilibrium_fails():
    cfg = AuctionConfig(5, 3)
    good = wl.re_op("uniform", UNIFORM, 5, 3, "equilibrium",
                    BidFunction.equilibrium(cfg, UNIFORM), True)
    bad = wl.re_op("uniform", UNIFORM, 5, 3, "equilibrium",
                   BidFunction.second_price(cfg, UNIFORM), True)
    assert passed(good) and not passed(bad)


def test_control_that_passes_fails():
    cfg = AuctionConfig(5, 3)
    control = wl.re_op("uniform", UNIFORM, 5, 3, "truthful",
                       BidFunction.second_price(cfg, UNIFORM), False)
    mislabelled = wl.re_op("uniform", UNIFORM, 5, 3, "truthful",
                           BidFunction.equilibrium(cfg, UNIFORM), False)
    assert passed(control) and not passed(mislabelled)


def test_golden_with_one_byte_flipped_fails():
    name, _, line = wl.README_COMMANDS[1]
    golden = wl.golden_path(name).read_bytes()
    flipped = bytearray(golden)
    flipped[len(flipped) // 2] ^= 0x01
    assert passed(wl.cli_op(name, line.split(), golden))
    assert not passed(wl.cli_op(name, line.split(), bytes(flipped)))


def test_nonzero_exit_fails():
    # the truthful control without --expect-fail exits 1 with the same stdout
    name, _, line = wl.README_COMMANDS[3]
    argv = [a for a in line.split() if a != "--expect-fail"]
    assert not passed(wl.cli_op(name, argv, wl.golden_path(name).read_bytes()))


def test_payment_against_shifted_reference_fails():
    ref = kv.expected_payment_benchmark(UNIFORM, 4, 0.8)
    assert passed(wl.payment_op("uniform", UNIFORM, 4, 3, 0.8, 7, ref))
    assert not passed(wl.payment_op("uniform", UNIFORM, 4, 3, 0.8, 7, ref * 1.05))


def test_zero_win_payment_fails_and_is_rare():
    ref = kv.expected_payment_benchmark(TRIANGLE, 6, 0.2)
    op = wl.payment_op("triangle", TRIANGLE, 6, 4, 0.2, 7, ref)
    row = run.run_op(op, 0)
    assert ref > 0.0 and row["se"] == 0.0
    assert not row["ok"] and row["rare"]


def test_rare_win_payments_form_the_probe_not_the_timed_loop():
    ops, warm, probe = wl.build("mc-matrix", 1)
    assert probe and all(op.rare for op in probe)
    assert not any(op.rare for op in ops)
    assert all(any(w is op for op in ops) for w in warm)
    assert "pay/triangle/n6/k4/x0.2" in {op.key for op in probe}
    assert "pay/triangle/n6/k4/x0.8" in {op.key for op in ops}


def test_messy_slope_uses_every_mantissa_bit_in_a_narrow_range():
    slopes = {wl.messy_slope(seed) for seed in range(1, 11)}
    assert len(slopes) == 10
    for a in slopes:
        assert 0.73 <= a < 0.7301
        assert a.as_integer_ratio()[1] == 2 ** 53


def test_each_op_is_timed_by_the_median_of_its_runs():
    rows = [{"latency_s": t, "pass": p, "key": key}
            for p, times in enumerate(((3.0, 1.0, 9.0), (2.0, 5.0, 8.0),
                                       (4.0, 0.5, 7.0)))
            for key, t in zip("aab", times)]
    assert run.op_latencies(rows, 3, "latency_s") == [
        (2.5, rows[6]), (2.5, rows[7]), (8.0, rows[8])]


def test_speed_factor_scales_by_the_kernel_samples_around_an_interval():
    track = speed.Speed("mc-matrix")
    track.times, track.kernel_s = [1.0, 2.0, 3.0], [1e-3, 2e-3, 4e-3]
    ref = speed.REFERENCE_S["numpy"]
    assert track.factor(1.5, 1.7) == pytest.approx(ref / 1.5e-3)
    assert track.factor(1.5, 2.5) == pytest.approx(ref / 2.5e-3)
    assert track.factor(0.5, 0.6) == pytest.approx(ref / 1e-3)
    assert track.factor(3.5, 4.0) == pytest.approx(ref / 4e-3)


def test_revenue_far_from_reference_or_peer_fails():
    ref = wl.expected_second_highest(UNIFORM, 4)
    assert passed(wl.revenue_op("uniform", UNIFORM, 4, 3, 7, ref, {}))
    assert not passed(wl.revenue_op("uniform", UNIFORM, 4, 3, 7, ref * 1.05, {}))
    far = kv.MonteCarloResult(ref * 1.05, 1e-4, 1, 0)
    assert not passed(wl.revenue_op("uniform", UNIFORM, 4, 3, 7, ref, {2: far}))


def test_false_ladder_verdicts_fail(monkeypatch):
    assert passed(wl.oracle_op("triangle", TRIANGLE, 6, 4))
    assert passed(wl.phi_op("triangle", TRIANGLE, 6, 4))
    closed_form = eq.psi_closed_form
    monkeypatch.setattr(eq, "psi_closed_form",
                        lambda dist, n, k: closed_form(dist, n, k - 1))
    monkeypatch.setattr(eq, "phi_ladder_check", lambda dist, n, k: False)
    assert not passed(wl.oracle_op("triangle", TRIANGLE, 6, 4))
    assert not passed(wl.phi_op("triangle", TRIANGLE, 6, 4))


def test_best_response_away_from_value_fails(monkeypatch):
    assert passed(wl.best_response_op("uniform", UNIFORM, 4, 3, 0.5))
    monkeypatch.setattr(eq.BidFunction, "equilibrium", classmethod(
        lambda cls, cfg, dist: cls.second_price(cfg, dist)))
    assert not passed(wl.best_response_op("uniform", UNIFORM, 4, 3, 0.5))


def test_raising_op_fails():
    row = run.run_op(wl.oracle_op("uniform", UNIFORM, 5, 2), 0)
    assert not row["ok"] and "ValueError" in row["error"]


def test_trace_self_times_add_up_and_wrappers_come_off():
    rec = tracing.Recorder()
    original = eq.psi_ladder_oracle
    restore = tracing.install(rec)
    try:
        assert eq.psi_ladder_oracle is not original
        root = rec.span("op", wl.oracle_op("linear-a1", DISTS["linear-a1"], 7, 5).run)
        assert root()[0]
    finally:
        restore()
    assert eq.psi_ladder_oracle is original
    table = rec.table()
    totals = rec.layer_totals()
    root_s = table[0, 2] - table[0, 1]
    assert sum(s for _, s in totals.values()) == pytest.approx(root_s, rel=1e-9)
    assert totals["equilibrium.ladder"][0] == 2
    assert totals["polynomials.gcd"][0] == totals["polynomials.ratfunc_new"][0] > 0


def test_without_the_package_the_command_fails_without_a_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", "mc-matrix", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
