"""The benchmark's four workloads, as lists of checked ops.

An op is one public `kthprice` call plus a check of its output against
a reference that does not come from the code path under test. Ops look
library names up on their module at call time, so the traced run sees
every call through the wrappers in tracing.py.

Workloads, and why each exists:

mc-matrix     Monte Carlo payments and revenues. RNG draws, inverse_cdf,
              max/partition and large-array bid evaluation do the work;
              no Fraction arithmetic runs in the timed loop. Payment
              points with too few expected wins for the estimator are
              not timed: they form the rare-win probe, run once a run.
exact-ladder  psi_ladder_oracle == psi_closed_form and phi_ladder_check.
              Polynomial/Fraction arithmetic does the work, numpy none;
              coefficient bit size (dyadic a = 1.0 against a
              full-mantissa a) drives the cost.
quad-verify   revenue_equivalence_check and best_response_profile.
              Quadrature node doubling over thousands of 16-4096 point
              bid/cdf/pdf calls, plus the exact payment benchmark.
cli-readme    The README command lines through kthprice.cli.main, with
              stdout compared byte for byte against golden copies.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import kthprice.cli as cli
import kthprice.distributions as kd
import kthprice.equilibrium as eq
import kthprice.verification as kv

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Monte Carlo sample count per op: one shard of kthprice.verification.
MC_SAMPLES = 1 << 16
# Below this many expected winning trials a payment estimate and its SE
# are not trustworthy: the estimator simulates the rare win event
# directly and often sees no win at all, reporting 0 +- 0 (ROADMAP items
# 2 and 3). Such points are the rare-win probe, outside the timed loop.
MIN_EXPECTED_WINS = 100
# A Monte Carlo check fails beyond this many standard errors. A run makes
# about 400 such checks (payments, revenues and cross-k pairs); over the
# 20 seeds of two sets of runs, a 4 SE limit would fail a correct
# estimator in about one set in three, 5 SE in about one in 300.
SIGMA_LIMIT = 5.0

# The eight command lines of the README, with how often each runs per
# pass: the five fast ones and identities run three times, so that the
# p90 of a pass's 20 ops falls on identities, the slowest, and the p50
# on bounds, rather than between two different commands.
README_COMMANDS = (
    ("bid-table-triangle", 3, "bid-table --n 5 --k 4 --dist triangle"),
    ("bid-table-json", 3, "bid-table --n 6 --k 3 --format json"),
    ("verify-all", 3, "verify --suite all --n 6 --k 4 --dist triangle"),
    ("verify-truthful", 3,
     "verify --suite re --n 5 --k 3 --bid truthful --expect-fail"),
    ("identities", 3, "identities --nmax 30"),
    ("simulate-payment", 1, "simulate payment --n 4 --k 3 --x 0.8 "
                            "--dist triangle --samples 1000000"),
    ("simulate-revenue", 1,
     "simulate revenue --n 3 --k 2 --samples 1000000 --seed 1"),
    ("bounds", 3, "bounds --nmax 20"),
)


@dataclass
class Op:
    """One checked call. run() returns (passed, details)."""

    key: str
    kind: str
    group: str | None  # (dist, n) whose lru_cache entries the op fills
    run: Callable[[], tuple[bool, dict]]
    rare: bool = False
    details: dict = field(default_factory=dict)


def derive_seed(seed: int, key: str) -> int:
    digest = hashlib.sha256(f"{seed}/{key}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def messy_slope(seed: int) -> float:
    """Seed-drawn slope a in [0.73, 0.7301) whose float uses all 53 mantissa bits.

    The narrow range keeps the work the same for every seed (quadrature
    doublings, rare-win points, coefficient bit size), so that runs with
    different seeds measure the same program on different bits.
    """
    mant, exp = math.frexp(0.73 + 1e-4 * random.Random(seed).random())
    return math.ldexp(int(mant * 2 ** 53) | 1, exp - 53)


def distributions(seed: int) -> dict:
    return {
        "uniform": kd.make_uniform(1.0),
        "triangle": kd.make_triangle(1.0),
        "linear-a1": kd.make_linear(1.0, 1.0),
        "linear-seed": kd.make_linear(messy_slope(seed), 1.0),
    }


# ---------------------------------------------------------------------------
# exact references computed by the benchmark itself

def _pmul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def expected_second_highest(dist, n: int) -> float:
    """E[2nd highest of n values] = int y n(n-1) F^(n-2) (1-F) f dy, exactly.

    Revenue equivalence makes this the expected revenue of every k-th
    price auction at equilibrium.
    """
    a, b = Fraction(dist.a), Fraction(dist.b)
    big_f, f = [Fraction(0), b, a / 2], [b, a]
    poly = _pmul([Fraction(0), Fraction(1)], f)
    for _ in range(n - 2):
        poly = _pmul(poly, big_f)
    poly = _pmul(poly, [1 - c if i == 0 else -c for i, c in enumerate(big_f)])
    w = Fraction(dist.omega)
    total = sum(c * w ** (i + 1) / (i + 1) for i, c in enumerate(poly))
    return float(n * (n - 1) * total)


def win_probability(dist, n: int, x: float) -> float:
    """F(x)^(n-1): the chance that n-1 opponents all have lower values."""
    return (x * (dist.a * x / 2.0 + dist.b)) ** (n - 1)


# ---------------------------------------------------------------------------
# ops; each checks its output as benchmarks/README.md lists

def payment_op(name, dist, n, k, x, seed, reference) -> Op:
    """Fails if SE = 0 while the reference is positive, or |est - ref| is
    beyond SIGMA_LIMIT SE."""
    bid = eq.BidFunction.equilibrium(kd.AuctionConfig(n, k), dist)
    details = {"reference": reference}

    def run():
        r = kv.monte_carlo_expected_payment(bid, dist, n, k, x, MC_SAMPLES, seed)
        gap = abs(r.estimate - reference)
        sigma = gap / r.standard_error if r.standard_error else math.inf
        details.update(estimate=r.estimate, se=r.standard_error, sigma=sigma)
        if r.standard_error == 0.0:
            return reference <= 0.0, details
        return sigma <= SIGMA_LIMIT, details

    rare = MC_SAMPLES * win_probability(dist, n, x) < MIN_EXPECTED_WINS
    return Op(f"pay/{name}/n{n}/k{k}/x{x}", "payment", f"{name}/n{n}", run,
              rare=rare, details=details)


def revenue_op(name, dist, n, k, seed, reference, peers: dict) -> Op:
    """Fails if the estimate is beyond SIGMA_LIMIT SE from E[2nd highest
    value], or beyond SIGMA_LIMIT combined SE from the estimate for another
    k at the same (dist, n)."""
    bid = eq.BidFunction.equilibrium(kd.AuctionConfig(n, k), dist)
    details = {"reference": reference}

    def run():
        r = kv.expected_revenue(bid, dist, n, k, MC_SAMPLES, seed)
        sigma = abs(r.estimate - reference) / r.standard_error
        ok = sigma <= SIGMA_LIMIT
        for other_k, other in peers.items():
            pair = abs(r.estimate - other.estimate) / math.hypot(
                r.standard_error, other.standard_error)
            if other_k != k and pair > SIGMA_LIMIT:
                ok, sigma = False, max(sigma, pair)
        peers[k] = r
        details.update(estimate=r.estimate, se=r.standard_error, sigma=sigma)
        return ok, details

    return Op(f"rev/{name}/n{n}/k{k}", "revenue", f"{name}/n{n}", run,
              details=details)


def oracle_op(name, dist, n, k) -> Op:
    def run():
        return eq.psi_ladder_oracle(dist, n, k) == eq.psi_closed_form(dist, n, k), {}

    return Op(f"oracle/{name}/n{n}/k{k}", "oracle", f"{name}/n{n}", run)


def phi_op(name, dist, n, k) -> Op:
    def run():
        return eq.phi_ladder_check(dist, n, k) is True, {}

    return Op(f"phi/{name}/n{n}/k{k}", "phi", f"{name}/n{n}", run)


def re_op(name, dist, n, k, bid_kind: str, bid, expect_pass: bool) -> Op:
    """Revenue-equivalence verdict must be expect_pass (False for the control)."""
    details = {}

    def run():
        rep = kv.revenue_equivalence_check(bid, dist, n, k, grid_size=20)
        details.update(max_error=rep.max_error,
                       blind=sum(e <= rep.tolerance for e in rep.errors))
        return rep.passed == expect_pass and len(rep.errors) == 20, details

    kind = "re" if expect_pass else "control"
    return Op(f"{kind}/{name}/n{n}/k{k}/{bid_kind}", kind, f"{name}/n{n}", run,
              details=details)


def best_response_op(name, dist, n, k, x) -> Op:
    """argmax of the payoff over a 101-point grid is within one spacing of x."""
    bid = eq.BidFunction.equilibrium(kd.AuctionConfig(n, k), dist)
    grid = np.linspace(0.0, dist.omega, 101)
    spacing = dist.omega / 100

    def run():
        z_star, _ = kv.best_response_profile(bid, dist, n, k, x, grid)
        return abs(z_star - x) <= spacing * (1 + 1e-9), {"z_star": z_star}

    return Op(f"br/{name}/n{n}/k{k}/x{x}", "best-response", f"{name}/n{n}", run)


def cli_op(name, argv, golden: bytes) -> Op:
    """Exit code 0 and stdout identical, byte for byte, to the golden copy."""
    details = {}
    group = None
    if "--n" in argv:
        dist = argv[argv.index("--dist") + 1] if "--dist" in argv else "uniform"
        group = f"{dist}/n{argv[argv.index('--n') + 1]}"

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        out = buf.getvalue().encode()
        details.update(exit=code, stdout_bytes=len(out))
        return code == 0 and out == golden, details

    return Op(f"cli/{name}", "cli", group, run, details=details)


# ---------------------------------------------------------------------------
# workloads

def _mc_matrix(seed, dists):
    ops = []
    for name in ("uniform", "triangle", "linear-seed"):
        dist = dists[name]
        for n in range(3, 9):
            peers = {}
            revenue = expected_second_highest(dist, n)
            for k in range(2, n + 1):
                for x in (0.2, 0.5, 0.8):
                    key = f"pay/{name}/n{n}/k{k}/x{x}"
                    ops.append(payment_op(
                        name, dist, n, k, x, derive_seed(seed, key),
                        kv.expected_payment_benchmark(dist, n, x)))
                # one stream per (dist, n) for every k, as in the acceptance
                # test, so the cross-k comparison is between coupled estimates
                ops.append(revenue_op(name, dist, n, k,
                                      derive_seed(seed, f"rev/{name}/n{n}"),
                                      revenue, peers))
    return ops


def _exact_ladder(seed, dists):
    sweeps = (("uniform", 14), ("triangle", 14), ("linear-a1", 12),
              ("linear-seed", 10))
    ops = [oracle_op(name, dists[name], n, k)
           for name, n_max in sweeps
           for n in range(3, n_max + 1) for k in range(3, n + 1)]
    # ROADMAP reference points (k = n-1 at a = 1.0), with k = 3 beside them
    ops += [oracle_op("linear-a1", dists["linear-a1"], n, k)
            for n in (16, 20) for k in (3, n - 1)]
    ops += [phi_op(name, dists[name], n, k)
            for name in ("uniform", "triangle")
            for n in range(3, 9) for k in range(3, n + 1)]
    return ops


QUAD_POINTS = ((5, 3), (6, 4), (8, 5), (10, 3), (12, 8), (20, 10), (30, 3),
               (30, 20), (45, 30), (60, 50))
BEST_RESPONSE_POINTS = ((4, 3), (6, 4), (8, 5))


def _quad_verify(seed, dists):
    ops = []
    for name in ("uniform", "triangle", "linear-seed"):
        dist = dists[name]
        for n, k in QUAD_POINTS:
            cfg = kd.AuctionConfig(n, k)
            bids = [("equilibrium", eq.BidFunction.equilibrium(cfg, dist)),
                    ("series", eq.BidFunction.series(cfg, dist))]
            if k == 3:
                bids.append(("third-price", eq.BidFunction.third_price(cfg, dist)))
            ops += [re_op(name, dist, n, k, kind, bid, True) for kind, bid in bids]
            ops.append(re_op(name, dist, n, k, "truthful",
                             eq.BidFunction.second_price(cfg, dist), False))
        ops += [best_response_op(name, dist, n, k, x)
                for n, k in BEST_RESPONSE_POINTS for x in (0.2, 0.5, 0.8)]
    return ops


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.out"


def _cli_readme(seed, dists):
    ops = []
    for name, repeat, line in README_COMMANDS:
        golden = golden_path(name).read_bytes()
        ops += [cli_op(name, line.split(), golden) for _ in range(repeat)]
    return ops


_WORKLOAD_OPS = {
    "mc-matrix": _mc_matrix,
    "exact-ladder": _exact_ladder,
    "quad-verify": _quad_verify,
    "cli-readme": _cli_readme,
}


def build(workload: str, seed: int) -> tuple[list[Op], list[Op], list[Op]]:
    """The timed ops of one pass in a seed-determined order, the warm-up
    ops and the rare-win probe.

    The warm-up holds the first-built (cheapest) timed op of each distinct
    (dist, n); set-up runs it once, untimed, so that the lru_caches are
    full before timing starts. The probe holds the rare-win payments.
    """
    built = _WORKLOAD_OPS[workload](seed, distributions(seed))
    ops = [op for op in built if not op.rare]
    probe = [op for op in built if op.rare]
    warm = {}
    for op in ops:
        if op.group is not None:
            warm.setdefault(op.group, op)
    random.Random(seed).shuffle(ops)
    return ops, list(warm.values()), probe
