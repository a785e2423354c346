#!/usr/bin/env python3
"""Run one workload of the kthprice benchmark and print its metrics.

    python3 benchmarks/run.py --workload mc-matrix --seed 1 --seconds 15 --trace 0

Run it from anywhere; it measures the package under src/ of the checkout
that holds this file, and exits 2 without a result if there is none.

One client runs the workload's ops in a closed loop: the next op starts
when the previous one has returned and been checked. Ops run in whole
passes over the workload's op list until the time is used; at least
three passes and 100 ops run. numpy and BLAS thread pools are pinned
to one thread.

Times are stated at a fixed reference speed (speed.py): a fixed kernel
is timed every quarter second of the loop and around every set-up, and
each time is scaled by the kernel's reference time over its time then.
The launcher and its workers are pinned to one core, the kernel's.
Each op's latency is the median over its runs; ops_per_s is the op
count of a pass over the sum of those latencies, op_p50_ms and op_p90_ms
are quantiles of them. The summary also prints the wall-time figures.

--trace 0 prints the end-to-end metrics. setup_s is the median of five
set-ups, each timed from the start of a fresh process until its inputs
are built and one warm-up op per (dist, n) has run; then one more such
process runs the timed loop.

After the loop, the rare-win probe (mc-matrix only) runs each payment
point with too few expected wins for the estimator once, untimed and
outside attempted/failed; its failures are printed, and reported as
verification.mc.rare_win_failed by the traced run.

--trace 1 runs the untraced loop, then one more pass with every public
kthprice callable wrapped (tracing.py), and prints the per-layer metrics
of that pass; trace.overhead_s is its wall time minus the typical
untraced pass (the sum of the per-op median wall times).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Per-op rows (and, traced, the spans) are
written under benchmarks/out/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("mc-matrix", "exact-ladder", "quad-verify", "cli-readme")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5
MIN_PASSES = 3
MIN_OPS = 100
WORKER_LIMIT_S = 170.0
READY = "benchmark: set-up done"

# ROADMAP reference points, printed per run and kept in the per-op rows.
REFERENCE_KEYS = (
    "oracle/linear-a1/n12/k11", "oracle/linear-a1/n16/k15",
    "oracle/linear-a1/n20/k19", "pay/uniform/n6/k4/x0.8",
    "pay/triangle/n6/k4/x0.8", "pay/triangle/n6/k4/x0.2",
)

PER_LAYER = (
    ("distributions.inverse_cdf.calls", "count"),
    ("distributions.inverse_cdf.values", "count"),
    ("distributions.inverse_cdf.self_s", "s"),
    ("equilibrium.bid.calls", "count"),
    ("equilibrium.bid.points", "count"),
    ("equilibrium.bid.self_s", "s"),
    ("verification.mc.calls", "count"),
    ("verification.mc.self_s", "s"),
    ("verification.mc.s_to_1pct_p50", "s"),
    ("verification.mc.rare_win_failed", "count"),
    ("equilibrium.ladder.calls", "count"),
    ("equilibrium.ladder.self_s", "s"),
    ("polynomials.poly_ops.calls", "count"),
    ("polynomials.poly_ops.self_s", "s"),
    ("polynomials.ratfunc_new.calls", "count"),
    ("polynomials.gcd.calls", "count"),
    ("polynomials.gcd.self_s", "s"),
    ("polynomials.equality.self_s", "s"),
    ("quadrature.integrate.calls", "count"),
    ("quadrature.integrate.self_s", "s"),
    ("quadrature.nodes", "count"),
    ("quadrature.doublings", "count"),
    ("quadrature.nonconverged", "count"),
    ("distributions.cdf_pdf.calls", "count"),
    ("distributions.cdf_pdf.self_s", "s"),
    ("verification.benchmark.calls", "count"),
    ("verification.benchmark.self_s", "s"),
    ("verification.control_blind_points", "count"),
    ("combinatorics.calls", "count"),
    ("combinatorics.self_s", "s"),
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.stdout_bytes", "count"),
    ("op.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # internal: the launcher starts itself again as a worker process
    p.add_argument("--phase", choices=("launch", "setup", "run"),
                   default="launch", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


# ---------------------------------------------------------------------------
# launcher: no numpy, no kthprice; starts the worker processes and times them

def context(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "kthprice").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "commit": git_commit(),
            "src_sha256": digest.hexdigest()[:16]}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def start_worker(args, phase: str, speed):
    """Run a worker; return (seconds until it was ready at the reference
    speed, the same in wall time, its later stdout)."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--phase", phase]
    speed.sample(repeat=3)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(WORKER_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        out = proc.stdout.read()
        proc.wait()
        # after the exit: a worker that is still running shares the core
        speed.sample(repeat=3)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != READY or proc.returncode != 0:
        raise RuntimeError(f"{phase} worker failed (exit {proc.returncode})")
    wall = ready - start
    return wall * speed.factor(start, ready), wall, out


def launch(args) -> int:
    # turn SIGTERM into SystemExit so that start_worker stops its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "kthprice" / "__init__.py").is_file():
        print(f"error: no kthprice package under {SRC}", file=sys.stderr)
        return 2
    ctx = context(args)
    # one core for the launcher and its workers, so that the kernel that
    # speed.py times runs on the core that runs the set-ups and the ops
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import speed as speed_mod

    speed = speed_mod.Speed(args.workload)
    setups, walls = [], []
    try:
        for _ in range(SETUP_SAMPLES if args.trace == 0 else 0):
            setup_s, wall, _ = start_worker(args, "setup", speed)
            setups.append(setup_s)
            walls.append(wall)
        out = start_worker(args, "run", speed)[2]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    ctx.update(result.pop("context"))
    summary = result.pop("summary")
    print("context " + json.dumps(ctx))
    if args.trace == 0:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
        summary.insert(0, ("setup_s", statistics.median(setups), "s",
                           "median of " + ", ".join(f"{s:.4f}" for s in setups)
                           + "; wall " + ", ".join(f"{s:.4f}" for s in walls)))
    for name, value, unit, note in summary:
        print(f"  {name:<36} {value:>14.6g} {unit:<6} {note}")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# worker

def run_loop(ops, seconds: float, speed):
    """Whole passes until the time is used, at least MIN_PASSES passes and
    MIN_OPS ops have run; the kernels are sampled between ops."""
    from speed import SAMPLE_EVERY_S

    rows, pass_times = [], []
    speed.sample(repeat=3)
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        for op in ops:
            if time.perf_counter() - speed.last >= SAMPLE_EVERY_S:
                speed.sample(repeat=3)
            rows.append(run_op(op, len(pass_times)))
        pass_times.append(time.perf_counter() - p0)
        elapsed = time.perf_counter() - start
        if (elapsed + statistics.fmean(pass_times) / 2 >= seconds
                and len(pass_times) >= MIN_PASSES and len(rows) >= MIN_OPS):
            break
    speed.sample(repeat=3)
    for r in rows:
        end = r["start_s"] + r["latency_s"]
        r["latency_ref_s"] = r["latency_s"] * speed.factor(r["start_s"], end)
    return rows, pass_times


def run_op(op, pass_no: int, run=None) -> dict:
    t0 = time.perf_counter()
    try:
        ok, details = (run or op.run)()
        error = ""
    except Exception as exc:  # a raising op is a failed op; keep going
        ok, details, error = False, {}, repr(exc)
    latency = time.perf_counter() - t0
    return {"pass": pass_no, "key": op.key, "kind": op.kind, "start_s": t0,
            "latency_s": latency, "ok": bool(ok), "rare": op.rare,
            "error": error, **details}


def op_latencies(rows, n_ops: int, field: str) -> list[tuple[float, dict]]:
    """(median of field over every run of the op, last row) for each op of
    a pass. Ops with the same key (a README command that runs three times
    a pass) are the same op."""
    runs = {}
    for r in rows:
        runs.setdefault(r["key"], []).append(r[field])
    medians = {key: statistics.median(v) for key, v in runs.items()}
    return [(medians[r["key"]], r) for r in rows[-n_ops:]]


def s_to_1pct(latencies) -> list[float]:
    """Projected seconds to a 1 % relative SE, per passed payment op."""
    return [lat * (r["se"] / (0.01 * r["reference"])) ** 2
            for lat, r in latencies if r["kind"] == "payment" and r["ok"]]


def latency_metrics(latencies) -> tuple[float, float, float]:
    """ops_per_s, op_p50_ms and op_p90_ms of per-op latencies."""
    lat_ms = [lat * 1e3 for lat, _ in latencies]
    return (len(lat_ms) * 1e3 / sum(lat_ms), statistics.median(lat_ms),
            statistics.quantiles(lat_ms, n=10, method="inclusive")[8])


def end_to_end(rows, pass_times, latencies, wall_latencies, workload):
    ops_per_s, p50, p90 = latency_metrics(latencies)
    wall = latency_metrics(wall_latencies)
    failed = [r for r in rows if not r["ok"]]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    n = len(rows)
    over = f"over the medians of {len(latencies)} ops in {len(pass_times)} passes"
    summary = [
        ("ops_per_s", *metrics["ops_per_s"],
         f"{n} ops in {len(pass_times)} passes, {sum(pass_times):.2f} s wall; "
         f"wall {wall[0]:.4g}"),
        ("op_p50_ms", *metrics["op_p50_ms"], f"{over}; wall {wall[1]:.4g}"),
        ("op_p90_ms", *metrics["op_p90_ms"], f"{over}; wall {wall[2]:.4g}"),
        ("failed_frac", len(failed) / n, "1", f"{len(failed)} of {n} failed"),
        ("peak_rss_mb", *metrics["peak_rss_mb"], "ru_maxrss of the worker"),
    ]
    if workload == "mc-matrix":
        values = s_to_1pct(latencies)
        summary.append(("mc_s_to_1pct_p50", statistics.median(values), "s",
                        f"median over {len(values)} passed payment ops"))
    return metrics, summary


def probe_summary(probe_rows):
    from workloads import MIN_EXPECTED_WINS

    failed = [r for r in probe_rows if not r["ok"]]
    zero = sum(r.get("se") == 0.0 for r in failed)
    return ("rare_win_failed", len(failed), "count",
            f"of {len(probe_rows)} rare-win payments run once, untimed "
            f"(< {MIN_EXPECTED_WINS} expected wins); {zero} returned 0 +- 0")


def reference_rows(rows):
    out = []
    for key in REFERENCE_KEYS:
        mine = [r for r in rows if r["key"] == key]
        if not mine:
            continue
        note = f"ok={all(r['ok'] for r in mine)}"
        if "se" in mine[0]:
            note += f" estimate={mine[0]['estimate']:.6g} se={mine[0]['se']:.3g}"
        out.append((f"ref {key}",
                    statistics.median(r["latency_s"] for r in mine) * 1e3,
                    "ms", note))
    return out


def traced_pass(ops, untraced_pass_s: float):
    import tracing

    rec = tracing.Recorder()
    restore = tracing.install(rec)
    op_span = rec.span("op", lambda op: op.run())
    try:
        start = time.perf_counter()
        rows = []
        for op_id, op in enumerate(ops):
            rec.op = op_id
            rows.append(run_op(op, 0, run=lambda: op_span(op)))
        wall = time.perf_counter() - start
    finally:
        restore()
    totals = rec.layer_totals()
    counts = rec.counts

    def layer(name):
        return totals.get(name, (0, 0.0))

    values = {}
    for name, unit in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = layer(base)[0]
        elif kind == "self_s":
            values[name] = layer(base)[1]
        else:
            values[name] = counts.get(name, 0)
    values["verification.control_blind_points"] = sum(
        r.get("blind", 0) for r in rows if r["kind"] == "control")
    values["cli.stdout_bytes"] = sum(r.get("stdout_bytes", 0) for r in rows)
    values["trace.overhead_s"] = wall - untraced_pass_s
    return rows, values, rec


def write_rows(path: Path, rows) -> None:
    fields = ["pass", "traced", "key", "kind", "latency_s", "latency_ref_s",
              "ok", "rare",
              "estimate", "se", "reference", "sigma", "error"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def work(args) -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np
    import kthprice

    if not Path(kthprice.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported kthprice from {kthprice.__file__}", file=sys.stderr)
        return 2
    import workloads

    ops, warm, probe = workloads.build(args.workload, args.seed)
    for op in warm:
        op.run()
    print(READY, flush=True)
    if args.phase == "setup":
        return 0

    import speed as speed_mod

    rows, pass_times = run_loop(ops, args.seconds, speed_mod.Speed(args.workload))
    latencies = op_latencies(rows, len(ops), "latency_ref_s")
    wall_latencies = op_latencies(rows, len(ops), "latency_s")
    probe_rows = [run_op(op, -1) for op in probe]
    metrics, summary = end_to_end(rows, pass_times, latencies, wall_latencies,
                                  args.workload)
    if probe:
        summary.append(probe_summary(probe_rows))
    summary += reference_rows(rows + probe_rows)
    all_rows = [dict(r, traced=0) for r in rows + probe_rows]
    if args.trace:
        traced_rows, values, rec = traced_pass(
            ops, sum(lat for lat, _ in wall_latencies))
        all_rows += [dict(r, traced=1) for r in traced_rows]
        mc = s_to_1pct(latencies)
        values["verification.mc.s_to_1pct_p50"] = statistics.median(mc) if mc else 0.0
        values["verification.mc.rare_win_failed"] = sum(
            not r["ok"] for r in probe_rows)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
        summary = [(name, values[name], unit, "per traced pass")
                   for name, unit in PER_LAYER]
        rows = rows + traced_rows
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_rows(stem.with_suffix(".ops.csv"), all_rows)
    if args.trace:
        rec.save(stem.with_suffix(".spans.npz"))

    failed = [r for r in rows if not r["ok"]]
    result = {
        "correct": not failed,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "summary": summary,
        "context": {"numpy": np.__version__, "passes": len(pass_times)},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.phase == "launch":
        return launch(args)
    return work(args)


if __name__ == "__main__":
    sys.exit(main())
