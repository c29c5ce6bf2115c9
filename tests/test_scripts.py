"""Smoke test of the scripts under ``scripts/``: each runs to exit 0 in
a fresh interpreter, and the example report gives the verdict table of
the shipped corpus."""

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
