"""Smoke test of the scripts under ``scripts/``: each runs to exit 0 in
a fresh interpreter, and the example report gives the verdict table of
the shipped corpus.  The benchmark pair is not run here; it only has to
refuse a parent directory without sessprog sources and fewer than three
runs per side."""

import pathlib
import subprocess
import sys

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
