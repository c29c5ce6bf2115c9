"""One workload in a fresh interpreter: read the corpus, time whole passes
over it, check the verdicts, print one JSON result line.

Started by ``run.py``; ``--spawned-at`` is the parent's monotonic clock
just before it started this process, so ``setup_s`` covers interpreter
start-up, the import of ``sessprog`` and reading the corpus text;
``--slice-s`` is how long a calibration slice took in the parent just
before, which scales it.
"""

import sys
import time

_SPAWNED_AT = float(sys.argv[sys.argv.index("--spawned-at") + 1])

import pathlib  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "bench"))

import sessprog  # noqa: E402,F401
import sessprog.cli  # noqa: E402,F401


_TEXT = pathlib.Path(sys.argv[sys.argv.index("--corpus") + 1]).read_text()
SETUP_S = time.monotonic() - _SPAWNED_AT

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
# the tail is the per-program time with exactly this many programs above it
TAIL_BEYOND = 10
# a calibration slice runs before the first program of a pass and after
# every stretch of programs that took at least this long
SEGMENT_S = 0.1


def split_corpus(text: str) -> list[tuple[dict, str]]:
    programs = []
    for chunk in text.split("\n# program ")[1:]:
        header, _, _body = chunk.partition("\n")
        meta = json.loads(header.split(" ", 1)[1])
        programs.append((meta, "# program " + chunk))
    return programs


def one_pass(run, programs, trace):
    """Verdicts of one pass, each program's raw time, and its time scaled
    by the calibration slices on either side of its stretch."""
    raw, scaled, results = [], [], []
    failed = 0
    cal = calibrate.slice_s()
    seg_start, seg_t0 = 0, perf_counter()
    for i, (meta, text) in enumerate(programs):
        if trace:
            trace.begin_program()
        t0 = perf_counter()
        try:
            res = run(meta, text)
        except Exception as e:  # a failed operation is counted, not fatal
            res = e
            failed += 1
        t1 = perf_counter()
        raw.append(t1 - t0)
        results.append(res)
        if t1 - seg_t0 >= SEGMENT_S or i == len(programs) - 1:
            cal_after = calibrate.slice_s()
            factor = calibrate.REFERENCE_S / ((cal + cal_after) / 2)
            scaled += [t * factor for t in raw[seg_start:]]
            cal, seg_start, seg_t0 = cal_after, i + 1, perf_counter()
    return raw, scaled, results, failed


def run_passes(workload, programs, seconds, trace):
    run = workloads.RUN[workload]
    passes = []  # (raw pass s, scaled pass s)
    per_program = [[] for _ in programs]
    first = last = None
    failed = 0
    layer_passes, snap = [], trace.snapshot() if trace else None
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        raw, scaled, results, n_failed = one_pass(run, programs, trace)
        failed += n_failed
        passes.append((sum(raw), sum(scaled)))
        for times, t in zip(per_program, scaled):
            times.append(t)
        if trace:
            after = trace.snapshot()
            layer_passes.append(tracer.per_pass_metrics(snap, after, sum(scaled) / sum(raw)))
            snap = after
        first = first or results
        last = results
    return passes, per_program, first, last, failed, layer_passes


def check_results(workload, programs, first, last) -> list[str]:
    errors = []
    for i, ((meta, _text), a, b) in enumerate(zip(programs, first, last)):
        if isinstance(b, Exception):
            continue
        if workloads.summary(workload, a) != workloads.summary(workload, b):
            errors.append(f"program {i}: verdict differs between passes")
        errors += [f"program {i}: {e}" for e in checks.CHECK[workload](meta, b)]
    if workload == "progress-oracle":
        errors += checks.check_corpus_cli(ROOT)
    return errors


def deep_mirror_mismatches(workload, programs, last) -> int | None:
    if workload != "measure-finite":
        return None
    return sum(
        checks.deep_mirror_mismatch(meta, res)
        for (meta, _text), res in zip(programs, last)
        if not isinstance(res, Exception)
    )


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.RUN))
    ap.add_argument("--corpus", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--slice-s", type=float, required=True)
    args = ap.parse_args()

    if not pathlib.Path(sessprog.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"sessprog imported from {sessprog.__file__}, not from this checkout", file=sys.stderr)
        return 2
    programs = split_corpus(_TEXT)
    trace = None
    if args.trace:
        trace = tracer.Tracer(keep_spans=50_000)
        trace.install()

    passes, per_program, first, last, failed, layer_passes = run_passes(
        args.workload, programs, args.seconds, trace
    )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t_checks = perf_counter()
    errors = check_results(args.workload, programs, first, last)
    checks_s = perf_counter() - t_checks
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    n = len(programs)
    prog_ms = sorted(statistics.median(ts) * 1000 for ts in per_program)
    median_pass = statistics.median(scaled for _raw, scaled in passes)
    info = {
        "programs": n,
        "passes": len(passes),
        "raw_pass_s": [round(raw, 4) for raw, _scaled in passes],
        "scaled_pass_s": [round(scaled, 4) for _raw, scaled in passes],
        "tail_percentile": round(100 * (n - TAIL_BEYOND) / n, 2),
        "deep_mirror_mismatches": deep_mirror_mismatches(args.workload, programs, last),
        "raw_setup_s": round(SETUP_S, 4),
        "checks_s": round(checks_s, 2),
    }
    if trace:
        metrics = {
            name: {"value": statistics.median(p[name] for p in layer_passes), "unit": unit}
            for name, unit in tracer.METRICS.items()
        }
        if args.trace_out:
            trace.write_spans(args.trace_out)
    else:
        metrics = {
            "setup_s": {"value": SETUP_S * calibrate.REFERENCE_S / args.slice_s, "unit": "s"},
            "programs_per_s": {"value": n / median_pass, "unit": "1/s"},
            "verdict_ms_p50": {"value": statistics.median(prog_ms), "unit": "ms"},
            "verdict_ms_tail": {"value": prog_ms[n - 1 - TAIL_BEYOND], "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": not errors,
        "attempted": n * len(passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
