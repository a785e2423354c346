"""Acceptance gate: ten criteria, one pass/fail line each.

Each test prints "[criterion NN] PASS|FAIL name (detail)" and then
asserts, so the printed line and the pytest verdict always agree.
Tolerances and runtime budgets are pinned here on purpose; loosening
them is a contract change, not a tweak.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from kthprice import (
    AuctionConfig,
    BidFunction,
    best_response_profile,
    catalan,
    catalan_integral,
    expected_payment_benchmark,
    expected_revenue,
    identity_sweep,
    make_linear,
    make_triangle,
    make_uniform,
    monte_carlo_expected_payment,
    phi_ladder_check,
    psi_closed_form,
    psi_ladder_oracle,
    revenue_equivalence_check,
)
from kthprice.cli import main

SEED = 20250815
UNIFORM = make_uniform(1.0)
TRIANGLE = make_triangle(1.0)


def report(num: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} {name}{suffix}")
    assert passed, f"criterion {num} {name}: {detail}"


def test_criterion_01_catalan_core():
    start = time.perf_counter()
    seq = [Fraction(1)]
    for l in range(1, 61):
        seq.append(seq[-1] * Fraction(2 * (2 * l - 1), l + 1))
    exact_ok = all(catalan(l) == seq[l] for l in range(61))
    worst = max(abs(catalan_integral(l) - catalan(l)) / catalan(l)
                for l in range(13))
    elapsed = time.perf_counter() - start
    report(1, "catalan exact + integral", exact_ok and worst <= 1e-6
           and elapsed < 1.0,
           f"max_rel_err={worst:.3g}, elapsed={elapsed:.2f}s < 1s")


def sweep(trials=1, nmax=3):
    """identity_sweep by name; the parts a criterion does not judge run at minimal size."""
    return {r.name: r for r in identity_sweep(lmax=1, integral_lmax=0,
                                              trials=trials, seed=SEED,
                                              nmax=nmax)}


def test_criterion_02_randomized_identities():
    start = time.perf_counter()
    results = sweep(trials=500)
    names = ("jensen", "hagen-rothe", "shifted-jensen")
    ok = all(results[name].passed and results[name].cases == 500
             for name in names)
    elapsed = time.perf_counter() - start
    report(2, "500 randomized trials per identity", ok and elapsed < 1.0,
           f"exact, cases={[results[n].cases for n in names]}, "
           f"elapsed={elapsed:.2f}s < 1s")


def test_criterion_03_theta_omega_exact():
    start = time.perf_counter()
    results = sweep(nmax=30)
    # all 406 pairs 3 <= k <= n <= 30; omega-bounds checks the 210 on the
    # wedge n + 4 > 2k, with the k = 3 equality Omega(n, 3) = 1/2
    counts = {"theta-recurrences": 406, "omega-positive": 406,
              "omega-bounds": 210}
    ok = all(results[name].passed and results[name].cases == count
             for name, count in counts.items())
    elapsed = time.perf_counter() - start
    report(3, "theta recurrences, omega positivity and exact bounds",
           ok and elapsed < 1.0, f"n <= 30, elapsed={elapsed:.2f}s < 1s")


def test_criterion_04_psi_oracle_equivalence():
    start = time.perf_counter()
    ok = all(
        psi_ladder_oracle(dist, n, k) == psi_closed_form(dist, n, k)
        for dist in (UNIFORM, TRIANGLE, make_linear(1.0, 1.0))
        for n in range(3, 9) for k in range(3, n + 1)
    )
    elapsed = time.perf_counter() - start
    report(4, "symbolic ladder == closed form, 3 dists, n <= 8",
           ok and elapsed < 10.0, f"elapsed={elapsed:.2f}s < 10s")


def test_criterion_05_phi_ladder():
    start = time.perf_counter()
    ok = all(phi_ladder_check(make(omega), n, k)
             for make in (make_uniform, make_triangle) for omega in (1.0, 2.5)
             for n in range(3, 21) for k in range(3, n + 1))
    elapsed = time.perf_counter() - start
    report(5, "payment == benchmark exactly, uniform + triangle, "
              "omega 1 and 2.5, n <= 20",
           ok and elapsed < 10.0, f"elapsed={elapsed:.2f}s < 10s")


def test_criterion_06_uniform_closed_form():
    worst = 0.0
    for n in range(3, 11):
        for k in range(3, n + 1):
            bid = BidFunction.series(AuctionConfig(n, k), UNIFORM)
            slope = 1.0 + (k - 2) / (n - k + 1)
            for i in range(1, 21):
                x = i / 20.0
                worst = max(worst, abs(bid(x) - slope * x))
    report(6, "series at a=0 == uniform closed form", worst <= 1e-12,
           f"worst_abs_err={worst:.3g} <= 1e-12, 20-point grid, n <= 10")


def test_criterion_07_revenue_equivalence():
    start = time.perf_counter()
    ok = True
    control_fails = True
    for dist in (UNIFORM, TRIANGLE):
        for n in range(3, 9):
            for k in range(3, n + 1):
                cfg = AuctionConfig(n, k)
                bids = [BidFunction.equilibrium(cfg, dist),
                        BidFunction.series(cfg, dist)]
                if k == 3:
                    bids.append(BidFunction.third_price(cfg, dist))
                for bid in bids:
                    ok = ok and revenue_equivalence_check(
                        bid, dist, n, k, tol=1e-8).passed
                control_fails = control_fails and not revenue_equivalence_check(
                    BidFunction.second_price(cfg, dist), dist, n, k,
                    tol=1e-8).passed
    elapsed = time.perf_counter() - start
    report(7, "revenue equivalence, all bid kinds + negative control",
           ok and control_fails and elapsed < 30.0,
           f"tol=1e-8, truthful fails for k>=3, elapsed={elapsed:.2f}s < 30s")


def test_criterion_08_monte_carlo():
    start = time.perf_counter()
    worst_z = 0.0
    ok = True
    # payment matrix on the uniform distribution; at x = 0.2*omega the
    # triangle win probability is ~1e-7, so a 1e6-sample run sees zero
    # wins and the standard error degenerates to 0
    for n in range(3, 7):
        for k in range(2, n + 1):
            bid = BidFunction.equilibrium(AuctionConfig(n, k), UNIFORM)
            for x in (0.2, 0.5, 0.8):
                mc = monte_carlo_expected_payment(
                    bid, UNIFORM, n, k, x, 10 ** 6, SEED)
                bench = expected_payment_benchmark(UNIFORM, n, x)
                z = abs(mc.estimate - bench) / mc.standard_error
                worst_z = max(worst_z, z)
                ok = ok and z <= 4.0
    worst_pair = 0.0
    for dist in (UNIFORM, TRIANGLE):
        revs = [expected_revenue(
                    BidFunction.equilibrium(AuctionConfig(5, k), dist),
                    dist, 5, k, 10 ** 6, SEED)
                for k in range(2, 6)]
        for i in range(len(revs)):
            for j in range(i + 1, len(revs)):
                gap = abs(revs[i].estimate - revs[j].estimate)
                se = math.hypot(revs[i].standard_error,
                                revs[j].standard_error)
                worst_pair = max(worst_pair, gap / (3.0 * se))
                ok = ok and gap <= 3.0 * se
    elapsed = time.perf_counter() - start
    report(8, "Monte Carlo payments within 4 SE + cross-k revenue within 3 SE",
           ok and elapsed < 30.0,
           f"worst_z={worst_z:.2f} <= 4, worst_pair_ratio={worst_pair:.2f} <= 1, "
           f"elapsed={elapsed:.1f}s < 30s")


def test_criterion_09_best_response():
    grid = np.linspace(0.0, 1.0, 101)
    spacing = 1.0 / 100.0
    worst = 0.0
    for dist in (UNIFORM, TRIANGLE):
        for n in range(3, 7):
            for k in range(2, n + 1):
                bid = BidFunction.equilibrium(AuctionConfig(n, k), dist)
                for x in (0.2, 0.5, 0.8):
                    z_star, _ = best_response_profile(bid, dist, n, k, x, grid)
                    worst = max(worst, abs(z_star - x))
    report(9, "payoff argmax within one grid spacing of own value",
           worst <= spacing,
           f"worst |z*-x|={worst:.3g} <= {spacing}, 101-point grid, n <= 6")


def test_criterion_10_determinism(capsys, tmp_path):
    commands = [
        ["simulate", "payment", "--n", "4", "--k", "3", "--dist", "triangle",
         "--x", "0.8", "--samples", "200000"],
        ["simulate", "revenue", "--n", "5", "--k", "4", "--samples", "150000",
         "--seed", "7"],
        ["verify", "--suite", "all", "--n", "6", "--k", "4",
         "--dist", "triangle"],
        ["verify", "--suite", "re", "--n", "5", "--k", "3",
         "--dist", "linear", "--a", "1.0"],
    ]
    ok = True
    for argv in commands:
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        ok = ok and code1 == code2 == 0
        ok = ok and out1.encode() == out2.encode() and out1
        # sanity: the output is machine-parseable JSON lines
        for line in out1.strip().splitlines():
            json.loads(line)
    report(10, "simulate/verify byte-identical across same-seed runs", bool(ok),
           f"{len(commands)} commands run twice")
