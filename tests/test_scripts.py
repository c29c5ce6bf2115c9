"""Smoke test of the scripts under ``scripts/``: each runs to exit 0 in
a fresh interpreter, the example report gives the verdict table of the
shipped corpus, and the CLI outputs cover every subcommand and the exit
codes of a verdict and of an error.  The benchmark pair is not run here;
it only has to refuse a parent directory without sessprog sources and
fewer than three runs per side, to byte-compile both checkouts before
its first (stubbed) run, and its reading of a metric is checked on
constructed series."""

import argparse
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from sessprog.cli import build_parser

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _run(*args):
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True, timeout=120)


def test_corpus_stats_runs():
    r = _run(SCRIPTS / "corpus_stats.py", 50, 1)
    assert r.returncode == 0, r.stderr
    out = r.stdout.splitlines()
    assert out[0] == "random finite corpus (50 processes, seed 1)"
    assert out[3] == "well-typed user corpus (10 processes)"


def test_examples_report_gives_the_corpus_verdicts():
    r = _run(SCRIPTS / "examples_report.py")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [
        "file           check@0   static            dynamic",
        "forwarder.ssp  accept    verified-static   holds-dynamic-at-bound",
        "mutual.ssp     reject    unknown           violated-dynamic",
        "orphan.ssp     reject    unknown           violated-dynamic",
        "self.ssp       reject    unknown           violated-dynamic",
    ]


def test_cli_outputs_cover_every_subcommand_and_exit_code():
    r = _run(SCRIPTS / "cli_outputs.py")
    assert r.returncode == 0, r.stderr
    records = [json.loads(line) for line in r.stdout.splitlines()]
    (commands,) = (a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(commands) <= {rec["argv"][0] for rec in records}
    assert {0, 1, 2} <= {rec["exit"] for rec in records} <= {0, 1, 2, 3}  # no internal fault
    assert all(rec["stdout"] or rec["stderr"] for rec in records)


def test_cli_outputs_need_a_checkout(tmp_path):
    r = _run(SCRIPTS / "cli_outputs.py", tmp_path)
    assert r.returncode == 2 and "no sessprog sources" in r.stderr and r.stdout == ""


def test_bench_pair_needs_a_parent_checkout(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("")
    out = tmp_path / "pair.json"
    r = _run(SCRIPTS / "bench_pair.py", tmp_path, "--out", out, "--seed", 1)
    assert r.returncode == 2 and "no sessprog sources" in r.stderr
    assert not out.exists()


def test_bench_pair_needs_three_runs_per_side(tmp_path):
    out = tmp_path / "pair.json"
    r = _run(SCRIPTS / "bench_pair.py", SCRIPTS.parent, "--out", out, "--seed", 1, "--runs", 2)
    assert r.returncode == 2 and "at least 3 runs" in r.stderr
    assert not out.exists()


def _bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", SCRIPTS / "bench_pair.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pair_compiles_both_checkouts_before_the_first_run(tmp_path, monkeypatch):
    # a checkout whose bytecode is missing or older than its sources would
    # compile it in every benchmark child and read a higher setup_s
    bench_pair = _bench_pair()
    spec = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    roots = [tmp_path / "parent", tmp_path / "change"]
    for root in roots:
        (root / "src" / "sessprog").mkdir(parents=True)
        (root / "src" / "sessprog" / "__init__.py").write_text("")
        (root / "src" / "sessprog" / "mod.py").write_text("X = 1\n")
        (root / "bench").mkdir()
        (root / "bench" / "run.py").write_text("")
    (roots[1] / "BENCHMARK.json").write_text(json.dumps(spec))
    sources = [f for root in roots for f in sorted((root / "src").rglob("*.py"))]
    runs = []

    def bench_once(root, workload, seed, seconds):
        assert all(pathlib.Path(importlib.util.cache_from_source(str(f))).is_file() for f in sources)
        runs.append(root)
        metrics = {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}
        return {"metrics": metrics, "correct": True, "failed": 0, "attempted": 1}

    monkeypatch.setattr(bench_pair, "ROOT", roots[1])
    monkeypatch.setattr(bench_pair, "bench_once", bench_once)
    out = tmp_path / "pair.json"
    assert bench_pair.main([str(roots[0]), "--out", str(out), "--seed", "1", "--runs", "3"]) == 0
    assert sorted(set(runs)) == sorted(roots) and len(runs) == 2 * 3 * len(spec["workloads"])
    assert json.loads(out.read_text())["runs_per_side"] == 3


RATE = {"name": "programs_per_s", "better": "higher", "bound": 0.15}
TIME = {"name": "verdict_ms_p50", "better": "lower", "bound": 0.2}
RATES = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]  # quartiles 99 and 101
TIMES = [x / 10 for x in RATES]  # quartiles 9.9 and 10.1
WIDE = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]  # quartiles 67.5 and 132.5


def _but(xs, first, delta):
    """``xs`` with ``delta`` added to every value from position ``first`` on."""
    return xs[:first] + [x + delta for x in xs[first:]]


@pytest.mark.parametrize("metric, parent, change, verdict, won", [
    (RATE, RATES, _but(RATES, 0, 10), "better", 10),
    (RATE, RATES, _but(RATES, 1, 10), "better", 9),  # the tie is not won
    (RATE, _but(RATES, 1, 10), RATES, "within bound", 0),  # one tie, nine losses
    (RATE, RATES, _but(RATES, 2, 10), "within bound", 8),  # two ties: 8 of 10 is too few
    (RATE, RATES, _but(RATES, 0, 1), "within bound", 10),  # not beyond the quartile distance
    (RATE, RATES, _but(RATES, 0, -20), "worse", 0),
    (RATE, WIDE, _but(WIDE, 0, -1), "unresolved", 0),  # the parent spreads wider than the bound
    (TIME, TIMES, _but(TIMES, 0, -3), "better", 10),
    (TIME, _but(TIMES, 1, -3), TIMES, "worse", 0),  # one tie, nine losses
    (TIME, TIMES, _but(TIMES, 0, -0.1), "within bound", 10),
    (TIME, TIMES, _but(TIMES, 0, 3), "worse", 0),
    (TIME, [x / 10 for x in WIDE], [x / 10 - 0.1 for x in WIDE], "unresolved", 10),
])
def test_bench_pair_reads_a_metric(metric, parent, change, verdict, won):
    result = _bench_pair().compare(parent, change, metric)
    assert (result["verdict"], result["pairs_won"]) == (verdict, won)

