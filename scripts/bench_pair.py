#!/usr/bin/env python3
"""Benchmark a parent checkout against this one and write the medians.

Usage: bench_pair.py PARENT_DIR --out BENCH_<n>.json --seed N [--runs R]

For each workload of ``BENCHMARK.json``, runs ``bench/run.py --trace 0``
for the benchmark's ``run_seconds`` R times (default 10, at least 3) in
PARENT_DIR and R times in this checkout, alternating which side of a
pair goes first.  Both checkouts' ``src/`` are byte-compiled before the
first run, so neither side's start-up pays for stale bytecode.  Writes
one JSON file with each side's ``src/`` line count and, per workload,
each side's median and quartiles of every end-to-end metric, the share
of operations that failed and whether every verdict checked.  Each metric is then read as ``better`` (the
change wins at least 9 pairs in 10 and the medians differ by more than
the parent's quartile distance), ``unresolved`` (the parent's quartile
distance exceeds the metric's bound and not every change run beats
every parent run), ``worse`` (the change median is worse than the
parent's by more than the bound) or ``within bound``.  Exits 2 if
PARENT_DIR holds no sessprog sources or no benchmark, or R is below 3.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def src_lines(root: pathlib.Path) -> int:
    return sum(len(f.read_text().splitlines()) for f in sorted((root / "src").rglob("*.py")))


def bench_once(root: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(xs: list) -> list:
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return [q1, q3]


def summarize(results: list, metrics: list) -> dict:
    values = {m: [r["metrics"][m]["value"] for r in results] for m in metrics}
    return {
        "runs": len(results),
        "correct": all(r["correct"] for r in results),
        "failed_share": sum(r["failed"] for r in results) / max(1, sum(r["attempted"] for r in results)),
        "median": {m: statistics.median(v) for m, v in values.items()},
        "quartiles": {m: quartiles(v) for m, v in values.items()},
    }


def compare(parent: list, change: list, metric: dict) -> dict:
    """Read one metric of one workload over the pairs ``zip(parent, change)``."""
    sign = 1 if metric["better"] == "higher" else -1
    gain = [sign * (c - p) for p, c in zip(parent, change)]  # > 0: the change is better
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    if sum(g > 0 for g in gain) >= 0.9 * len(gain) and sign * (c_med - p_med) > q3 - q1:
        verdict = "better"
    elif (q3 - q1) > metric["bound"] * p_med and not all(
            sign * (c - p) > 0 for c in change for p in parent):
        verdict = "unresolved"
    elif -sign * (c_med - p_med) > metric["bound"] * p_med:
        verdict = "worse"
    else:
        verdict = "within bound"
    return {"ratio": round(c_med / p_med, 4) if p_med else None,
            "pairs_won": sum(g > 0 for g in gain), "verdict": verdict}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=pathlib.Path)
    ap.add_argument("--out", required=True, type=pathlib.Path)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)

    parent = args.parent.resolve()
    if not (parent / "src" / "sessprog" / "__init__.py").is_file() or not (parent / "bench" / "run.py").is_file():
        print(f"{args.parent}: no sessprog sources or no bench/run.py", file=sys.stderr)
        return 2
    if args.runs < 3:
        print("--runs: at least 3 runs per side", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = [m["name"] for m in spec["end_to_end"]]
    sides = {"parent": parent, "change": ROOT}
    raw: dict = {side: {} for side in sides}
    for root in sides.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")], check=True)
    for w in (w["name"] for w in spec["workloads"]):
        for run in range(args.runs):
            order = list(sides) if run % 2 == 0 else list(sides)[::-1]
            for side in order:
                result = bench_once(sides[side], w, args.seed, seconds)
                raw[side].setdefault(w, []).append(result)
                print(f"{w} run {run + 1} {side}: " + json.dumps(
                    {m: round(result["metrics"][m]["value"], 4) for m in metrics}), flush=True)
    report = {
        "command": ["python3", "bench/run.py", "--workload", "<workload>", "--seed", str(args.seed),
                    "--seconds", str(seconds), "--trace", "0"],
        "runs_per_side": args.runs,
        "machine": {"python": platform.python_version(), "cpus": len(os.sched_getaffinity(0))},
        "sides": {
            side: {
                "src_lines": src_lines(sides[side]),
                "workloads": {w: summarize(results, metrics) for w, results in raw[side].items()},
            }
            for side in sides
        },
        "change_over_parent": {
            w: {m["name"]: compare([r["metrics"][m["name"]]["value"] for r in raw["parent"][w]],
                                   [r["metrics"][m["name"]]["value"] for r in raw["change"][w]], m)
                for m in spec["end_to_end"]}
            for w in raw["change"]
        },
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
