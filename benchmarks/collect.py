#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 benchmarks/collect.py --seeds 1-10 [--workloads mc-matrix,...]
                                  [--trace] [--write benchmarks/BASELINE.json]

Runs benchmarks/run.py once per (workload, seed), one run at a time, with
BENCHMARK.json's run_seconds. For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles(n=4)) and the spread, the
inter-quartile distance as a share of the median, next to the metric's
bound; with --trace it does the same for the per-layer metrics. With
--write it merges into that JSON file the summary, the per-run values,
the ROADMAP reference rows (median latency over the runs) and the
context of the first run (machine, versions, commit).
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
from run import OUT_DIR, REFERENCE_KEYS  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace) -> tuple[dict, dict]:
    """(result line, context line) of one run."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    lines = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           check=True, timeout=600).stdout.strip().splitlines()
    context = json.loads(lines[0].removeprefix("context "))
    return json.loads(lines[-1]), context


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def reference_rows(workload, seeds, trace):
    latencies, notes = {}, {}
    for seed in seeds:
        path = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.ops.csv"
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                if row["key"] in REFERENCE_KEYS and row["traced"] == "0":
                    latencies.setdefault(row["key"], []).append(
                        float(row["latency_s"]) * 1e3)
                    note = {"ok": row["ok"] == "True"}
                    if row["se"]:
                        note.update(estimate=float(row["estimate"]),
                                    se=float(row["se"]))
                    notes.setdefault(row["key"], {}).setdefault(seed, note)
    return {key: {"latency_ms_median": statistics.median(vals),
                  "latency_ms_runs": len(vals), "per_seed": notes[key]}
            for key, vals in latencies.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p.add_argument("--seeds", default="1-10", type=seed_list)
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--trace", action="store_true")
    p.add_argument("--write", type=Path)
    args = p.parse_args(argv)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    report = json.loads(args.write.read_text()) if args.write and args.write.exists() else {}
    section = "per_layer" if args.trace else "end_to_end"
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result, context = run_once(workload, seed, spec["run_seconds"],
                                       args.trace)
            report.setdefault("context", context)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(workload, json.dumps(runs[-1]), flush=True)
        summary = {}
        for m in metrics:
            values = [r[m["name"]] for r in runs]
            if len(values) >= 2 and statistics.median(values):
                summary[m["name"]] = dict(quartiles(values), bound=m.get("bound"))
                s = summary[m["name"]]
                print(f"  {m['name']:<36} median {s['median']:.6g} "
                      f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}"
                      + (f" bound {s['bound']}" if s["bound"] else ""), flush=True)
        report.setdefault(workload, {})[section] = {
            "summary": summary, "runs": runs,
            "reference_rows": reference_rows(workload, args.seeds, args.trace)}
    if args.write:
        args.write.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
