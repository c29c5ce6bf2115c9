#!/usr/bin/env python3
"""Benchmark of the sessprog verifier.

Usage, from the root of a checkout:

    python3 bench/run.py --workload measure-finite --seed 1 --seconds 20 --trace 0

Generates the workload's corpus from the seed in one fresh interpreter
(``bench/corpus.py``), then measures it in another (``bench/child.py``),
one after the other, with no threads.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics, the end-to-end ones with ``--trace 0`` and the per-layer ones
with ``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

import calibrate

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("measure-finite", "progress-oracle", "static-wide")
# both children together must end within this; the one running then is killed
DEADLINE_S = 170
_START = time.monotonic()


def _run(cmd: list[str]) -> str:
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=DEADLINE_S - (time.monotonic() - _START),
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{' '.join(cmd)} killed after {DEADLINE_S} s in all") from None
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return proc.stdout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sessprog" / "__init__.py").is_file():
        print(f"no sessprog sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    corpus = OUT / f"{args.workload}-{args.seed}.ssp"
    gen = [sys.executable, str(BENCH / "corpus.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(corpus)]
    t0 = time.monotonic()
    digest = json.loads(_run(gen).splitlines()[-1])
    print(f"corpus {corpus.relative_to(ROOT)} sha256 {digest['sha256']} "
          f"programs {digest['programs']} bytes {digest['bytes']} "
          f"generated in {time.monotonic() - t0:.1f} s")
    print("regenerate: python3 bench/corpus.py --workload {} --seed {} --out {}".format(
        args.workload, args.seed, corpus.relative_to(ROOT)))

    child = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
             "--corpus", str(corpus), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]
    if args.trace:
        child += ["--trace-out", str(OUT / f"trace-{args.workload}-{args.seed}.jsonl")]
    # the machine's speed just before the start-up that setup_s times
    slice_s = statistics.median(calibrate.slice_s() for _ in range(5))
    child += ["--slice-s", repr(slice_s), "--spawned-at", repr(time.monotonic())]
    lines = _run(child).splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
