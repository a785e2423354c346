"""Command-line interface.

Subcommands: bid-table, verify, identities, simulate, bounds. Output is
deterministic: seeds default to a fixed constant and are echoed, floats
are printed at 12 significant digits, exact rationals as "p/q", and two
runs with the same arguments produce identical bytes.

Each option is declared once, in its subcommand's option table, which
gives the flags, the --config file fields (same names, same types) and
the defaults: default < config file < flag, all checked alike.

Exit codes: 0 all checks passed, 1 a check failed, 2 invalid
configuration, 3 numerical failure: non-convergence, float overflow or a
payment simulation that no trial won.

main(argv) returns the exit code rather than exiting, so it can be called
repeatedly in one process; the argument parser is built on the first
call and reused after it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import combinatorics
from .distributions import (AuctionConfig, LinearDensityDistribution,
                            make_linear, make_triangle, make_uniform)
from .equilibrium import (BidFunction, phi_ladder_check, psi_closed_form,
                          psi_ladder_oracle)
from .quadrature import QuadratureError
from .verification import (VerificationReport, best_response_profile,
                           expected_payment_benchmark,
                           monte_carlo_expected_payment, expected_revenue,
                           revenue_equivalence_check)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

DEFAULT_SEED = 20250815


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


@dataclass(frozen=True)
class Option:
    """The flag --name and config field name. low bounds int values from
    below inclusively, float values exclusively (all are positivity); a
    float value must be finite; a bool option is a flag without a value
    that sets True."""

    name: str
    type: type
    default: object = None
    choices: tuple[str, ...] = ()
    low: float | None = None
    help: str | None = None

    def check(self, value):
        """value as self.type, or ConfigError naming the option."""
        if self.type is float and type(value) is int:
            value = float(value)
        if type(value) is not self.type:  # bool is not accepted as an int
            raise ConfigError(f"{self.name} must be {self.type.__name__}, "
                              f"got {value!r}")
        if self.type is float and not math.isfinite(value):
            raise ConfigError(f"{self.name} must be finite, got {value!r}")
        if self.choices and value not in self.choices:
            raise ConfigError(f"{self.name} must be one of "
                              f"{', '.join(self.choices)}, got {value!r}")
        exclusive = self.type is float
        if self.low is not None and (
                not value > self.low if exclusive else value < self.low):
            raise ConfigError(f"{self.name} must be {'>' if exclusive else '>='} "
                              f"{self.low}, got {value!r}")
        return value


def _dist_options(n: int, k: int) -> tuple[Option, ...]:
    return (
        Option("n", int, n, low=2, help="number of bidders"),
        Option("k", int, k, low=2, help="the winner pays the k-th highest bid"),
        Option("dist", str, "uniform", ("uniform", "triangle", "linear")),
        Option("a", float, help="density slope (dist=linear)"),
        Option("omega", float, 1.0, help="values lie in [0, omega]"),
    )


BID_CHOICE = Option("bid", str, "equilibrium",
                    ("equilibrium", "truthful", "series"), help="bid profile")
OUTPUT = Option("output", str, help="write to this file instead of stdout")


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _round12(value):
    """value with every float in it rounded to 12 significant digits."""
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, dict):
        return {key: _round12(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(item) for item in value]
    return value


def _frac_str(p: int, q: int) -> str:
    g = math.gcd(p, q)  # q > 0: p/q in lowest terms
    return f"{p // g}/{q // g}"


def _write(lines, output: str | None = None, end: str = "\n") -> None:
    """Write each item as one line: a str as it is, a dict as JSON whose
    floats are rounded to 12 significant digits."""
    text = "".join((line if isinstance(line, str)
                    else json.dumps(_round12(line))) + end for line in lines)
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {output}: {exc}") from exc


def _resolve(args: argparse.Namespace, options: tuple[Option, ...]) -> None:
    """Set each option on args: default < --config file < flag, checked."""
    fields = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                fields = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: "
                              f"{exc}") from exc
        if not isinstance(fields, dict):
            raise ConfigError("config file must hold a JSON object")
        fields = {key.replace("_", "-"): value for key, value in fields.items()}
        unknown = sorted(set(fields) - {opt.name for opt in options})
        if unknown:
            raise ConfigError(f"unknown config field {unknown[0]!r}")
    for opt in options:
        dest = opt.name.replace("-", "_")
        value = getattr(args, dest)
        if value is None:
            value = fields.get(opt.name, opt.default)
        setattr(args, dest, None if value is None else opt.check(value))


def _build_dist(args: argparse.Namespace) -> LinearDensityDistribution:
    if args.dist != "linear" and args.a is not None:
        raise ConfigError(f"--a applies to dist 'linear' only, "
                          f"not {args.dist!r}")
    if args.dist == "uniform":
        return make_uniform(args.omega)
    if args.dist == "triangle":
        return make_triangle(args.omega)
    if args.a is None:
        raise ConfigError("dist 'linear' requires --a")
    return make_linear(args.a, args.omega)


def _pick_bid(args: argparse.Namespace,
              dist: LinearDensityDistribution) -> BidFunction:
    config = AuctionConfig(args.n, args.k)
    if args.bid == "truthful" or (args.bid == "series" and config.k == 2):
        return BidFunction.second_price(config, dist)
    if args.bid == "series":
        return BidFunction.series(config, dist)
    return BidFunction.equilibrium(config, dist)


# ---------------------------------------------------------------------------
# bid-table

BID_TABLE_OPTIONS = _dist_options(n=5, k=3) + (
    Option("grid-size", int, 10, low=2, help="rows at omega*i/grid-size"),
    Option("format", str, "csv", ("csv", "json"), help="output format"),
    OUTPUT,
)


def cmd_bid_table(args: argparse.Namespace) -> int:
    dist = _build_dist(args)
    n, k = args.n, args.k
    bid = BidFunction.equilibrium(AuctionConfig(n, k), dist)

    # The exact slope sandwich, 1 + omega_bounds / binom(n-2, k-2), holds
    # for the triangle density on the wedge (and is trivial for k = 2).
    bounds = None
    if dist.b == 0.0 and k >= 3:
        omega_bounds = combinatorics.omega_bounds(n, k)
        if omega_bounds is not None:
            bounds = [float(1 + b / math.comb(n - 2, k - 2))
                      for b in omega_bounds]

    rows = []
    for i in range(1, args.grid_size + 1):
        x = dist.omega * i / args.grid_size
        row = {"x": x, "bid": float(bid(x))}
        if bounds:
            row["lower_bound"], row["upper_bound"] = bounds[0] * x, bounds[1] * x
        rows.append(row)

    slope = bid.slope
    exact = ((_frac_str(*slope.as_integer_ratio()), float(slope))
             if slope is not None else (None, None))
    if args.format == "json":
        _write([{"n": n, "k": k, "dist": asdict(dist), "slope": exact[0],
                 "slope_decimal": exact[1], "rows": rows}], args.output)
        return EXIT_OK
    lines = ["x,bid,slope,slope_decimal,lower_bound,upper_bound"]
    for row in rows:
        cells = (row["x"], row["bid"], *exact, row.get("lower_bound"),
                 row.get("upper_bound"))
        lines.append(",".join("" if c is None else c if isinstance(c, str)
                              else _fmt(c) for c in cells))
    _write(lines, args.output, end="\r\n")  # CSV records end in CRLF
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

VERIFY_OPTIONS = (
    Option("suite", str, "all",
           ("re", "best-response", "oracle", "ladder", "all")),
    *_dist_options(n=5, k=3),
    replace(BID_CHOICE, default=None,
            help="bid profile for re and best-response (default equilibrium)"),
    Option("grid-size", int, low=2,
           help="grid points (default 20 for re, 101 for best-response, "
                "which needs at least 3)"),
    Option("tol", float, low=0.0,
           help="revenue-equivalence tolerance (default 1e-8)"),
    Option("expect-fail", bool, False,
           help="negative control: exit 0 iff checks fail"),
    OUTPUT,
)


# The suites that read each option left unset by default; any other
# suite rejects it, since it would be ignored.
VERIFY_SUITE_OPTIONS = {"bid": ("re", "best-response", "all"),
                        "grid-size": ("re", "best-response", "all"),
                        "tol": ("re", "all")}


def cmd_verify(args: argparse.Namespace) -> int:
    suite, n, k = args.suite, args.n, args.k
    for name, suites in VERIFY_SUITE_OPTIONS.items():
        value = getattr(args, name.replace("-", "_"))
        if suite not in suites and value is not None:
            raise ConfigError(f"suite {suite!r} takes no --{name}")
    g = args.grid_size or 101
    if suite in ("best-response", "all") and g < 3:
        # the tolerance omega/(g-1) = omega would pass any bid
        raise ConfigError("best-response needs --grid-size >= 3")
    dist = _build_dist(args)
    bid = _pick_bid(args, dist)  # bid None is the equilibrium bid

    reports = []
    if suite in ("re", "all"):
        reports.append(revenue_equivalence_check(
            bid, dist, n, k, grid_size=args.grid_size or 20,
            tol=1e-8 if args.tol is None else args.tol))
    if suite in ("best-response", "all"):
        z_grid = np.linspace(0.0, dist.omega, g)
        xs = np.array([0.2, 0.5, 0.8]) * dist.omega
        z_star, _ = best_response_profile(bid, dist, n, k, xs, z_grid)
        errs = np.abs(z_star - xs)
        reports.append(VerificationReport.from_errors(
            "best-response", n, k, dist, xs, errs, dist.omega / (g - 1)))
    if suite in ("oracle", "all") and k >= 3:
        ok = psi_ladder_oracle(dist, n, k) == psi_closed_form(dist, n, k)
        reports.append(VerificationReport.from_errors(
            "psi-ladder-oracle", n, k, dist, [], [0.0 if ok else 1.0], 0.0))
    if suite in ("ladder", "all"):
        applicable = k >= 3 and (dist.a == 0.0 or dist.b == 0.0)
        if suite == "ladder" and not applicable:
            raise ConfigError("ladder suite needs k >= 3 and a uniform or "
                              "triangle distribution")
        if applicable:
            ok = phi_ladder_check(dist, n, k)
            reports.append(VerificationReport.from_errors(
                "phi-ladder", n, k, dist, [], [0.0 if ok else 1.0], 0.0))
    if not reports:
        raise ConfigError(f"suite {suite!r} has no applicable check for "
                          f"k={k} on this distribution")

    _write([report.to_dict() for report in reports], args.output)
    if args.expect_fail:
        return EXIT_CHECK_FAILED if any(r.passed for r in reports) else EXIT_OK
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# identities

IDENTITIES_OPTIONS = (
    Option("lmax", int, 60, low=1, help="Catalan recurrence up to this l"),
    Option("integral-lmax", int, 12, low=0, help="Catalan integral up to this l"),
    Option("random-trials", int, 500, low=1, help="trials per random identity"),
    Option("seed", int, DEFAULT_SEED, low=0, help="seed of the random trials"),
    Option("nmax", int, 30, low=3, help="theta/omega sweeps up to this n"),
)


def cmd_identities(args: argparse.Namespace) -> int:
    results = combinatorics.identity_sweep(
        args.lmax, args.integral_lmax, args.random_trials, args.seed,
        args.nmax)
    _write(f"{'ok' if r.passed else 'FAIL'} {r.name} {r.detail}"
           for r in results)
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# simulate

SIMULATE_OPTIONS = _dist_options(n=3, k=2) + (
    Option("x", float, help="bidder value (mode=payment)"),
    Option("samples", int, 100_000, low=2, help="Monte Carlo samples"),
    Option("seed", int, DEFAULT_SEED, low=0, help="Monte Carlo seed"),
    BID_CHOICE,
    OUTPUT,
)


def cmd_simulate(args: argparse.Namespace) -> int:
    n, k, x = args.n, args.k, args.x
    dist = _build_dist(args)
    bid = _pick_bid(args, dist)
    doc = {"mode": args.mode, "n": n, "k": k, "dist": asdict(dist)}
    if args.mode == "payment":
        if x is None:
            raise ConfigError("simulate payment requires --x")
        with warnings.catch_warnings():  # no win is an error line below
            warnings.filterwarnings("ignore", "monte_carlo_expected_payment: "
                                    "no winning trial", RuntimeWarning)
            result = monte_carlo_expected_payment(bid, dist, n, k, x,
                                                  args.samples, args.seed)
        if result.wins == 0:
            print(f"error: no winning trial at n={n}, k={k}, x={x} in "
                  f"{args.samples} samples: a win is rarer than 1/samples "
                  f"and 0 +- 0 is no estimate", file=sys.stderr)
            return EXIT_NUMERICAL
        benchmark = expected_payment_benchmark(dist, n, x)
        error = abs(result.estimate - benchmark)
        doc.update(x=x, estimate=result.estimate,
                   standard_error=result.standard_error, benchmark=benchmark,
                   abs_error=error,
                   within_3se=bool(error <= 3.0 * result.standard_error))
    else:
        if x is not None:
            raise ConfigError("simulate revenue takes no --x")
        result = expected_revenue(bid, dist, n, k, args.samples, args.seed)
        doc.update(estimate=result.estimate,
                   standard_error=result.standard_error)
    doc.update(samples=result.samples, seed=result.seed)
    _write([doc], args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds

BOUNDS_OPTIONS = (
    Option("n", int, help="number of bidders (with --k)"),
    Option("k", int, help="price index (with --n)"),
    Option("nmax", int, low=3, help="sweep all 3 <= k <= n <= nmax"),
)


def cmd_bounds(args: argparse.Namespace) -> int:
    n, k, nmax = args.n, args.k, args.nmax
    if nmax is not None and (n is not None or k is not None):
        raise ConfigError("bounds takes either --nmax or --n and --k, not both")
    pairs = [(n, k)]
    if nmax is not None:
        pairs = [(nn, kk) for nn in range(3, nmax + 1)
                 for kk in range(3, nn + 1)]
    elif n is None or k is None:
        raise ConfigError("bounds requires either --nmax or both --n and --k")
    elif not 3 <= k <= n:  # worded as omega_bounds words it
        raise ConfigError(f"omega_bounds: need 3 <= k <= n, got n={n}, k={k}")

    rows = []  # (n, k, Omega's numerator, anchor, verdict) per wedge pair
    for nn, kk in pairs:
        if (checked := combinatorics._omega_check(nn, kk)) is None:
            if nmax is not None:
                continue
            raise ConfigError(f"bounds are only claimed for n + 4 > 2k, "
                              f"got n={nn}, k={kk}")
        rows.append((nn, kk, *checked))
    _write(f"{'ok' if ok else 'FAIL'} n={nn} k={kk} "
           f"omega={_frac_str(num, 1 << (2 * kk - 5))} "
           f"lower={_frac_str(anchor, 2)} upper={_frac_str(7 * anchor, 8)}"
           for nn, kk, num, anchor, ok in rows)
    return EXIT_OK if all(row[-1] for row in rows) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser / dispatch

COMMANDS = {
    "bid-table": ("tabulate the equilibrium bid", cmd_bid_table,
                  BID_TABLE_OPTIONS),
    "verify": ("run verification suites", cmd_verify, VERIFY_OPTIONS),
    "identities": ("exact and randomized identity checks", cmd_identities,
                   IDENTITIES_OPTIONS),
    "simulate": ("Monte Carlo payment or revenue", cmd_simulate,
                 SIMULATE_OPTIONS),
    "bounds": ("exact slope bounds for the triangle bid", cmd_bounds,
               BOUNDS_OPTIONS),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call. parse_args
    returns a fresh Namespace each time, so the parser keeps no state
    between calls of main."""
    parser = argparse.ArgumentParser(
        prog="kthprice",
        description="Equilibrium bids for k-th price auctions: tables, "
                    "verification suites, identity checks and simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file of option values; flags win")
        if name == "simulate":
            p.add_argument("mode", choices=["payment", "revenue"])
        for opt in options:
            kind = ({"action": "store_true", "default": None}
                    if opt.type is bool
                    else {"type": opt.type, "choices": opt.choices or None})
            p.add_argument("--" + opt.name, help=opt.help, **kind)
        p.set_defaults(handler=handler, options=options)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has already written the help text (exit 0) or the usage
        # line and its message to stderr (exit 2); return, do not raise
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        _resolve(args, args.options)
        return args.handler(args)
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OverflowError as exc:
        print(f"error: float overflow: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # ConfigError, and library precondition violations, which are
        # configuration errors too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
