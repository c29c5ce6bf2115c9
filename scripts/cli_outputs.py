#!/usr/bin/env python3
"""Print what ``sessprog`` prints on a fixed list of invocations, so that
the CLI output of two checkouts can be compared with ``diff``.

Usage: cli_outputs.py [ROOT]

ROOT is a checkout (default: the one holding this script); its
``src/`` is the only ``sessprog`` seen.  The invocations are every
subcommand that reads a FILE on every ``corpus/*.ssp`` and on a few
malformed, open, finite or oversized inputs, a missing file among them, each with
and without ``--json``; ``dual`` on fixed type pairs, with and without
``--json``; and a few usage errors.  They run in one child interpreter
with ``PYTHONPATH=ROOT/src``, one after the other through
``sessprog.cli.main``, in a scratch directory that holds the inputs, so
no path of this machine reaches the output.  Prints one JSON line per
invocation: its argv, exit code, stdout and stderr.  Exits 2 if ROOT
holds no sessprog sources.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent.parent

EXTRA_INPUTS = {
    "unclosed.ssp": "new a.(a+!1.0 | a-?(x).0",
    "badchar.ssp": "a+!1.0 @ 0",
    "alias.ssp": "type A = ![0,1] int . end\nnew a : A ~ B . 0",
    "trailing.ssp": "0 0",
    "open.ssp": "a+!1.0 | b-?(x).0",
    "finite.ssp": "rec[2]X.new a.(a+!1.X | a-?(x).0)",
    "longnum.ssp": f"new a : ![0,1] int . end . (a+!{'9' * 5000}.0 | a-?(x).0)",  # too long to print
    "bigmeasure.ssp": "new a.a+?(x).rec[15000] X.(X | X)",  # E has 4,516 digits
}

DUAL_PAIRS = [
    ("rec[inf]t. ?[al,be] int . t", "![be,al] int . rec[inf]t. ![be,al] int . t"),
    ("rec[inf]t. ![0,1] end . t", "rec[inf]s. ?[1,0] end . s"),
    ("?[a,b] (![1,2] int . end) . end", "![b,a] (![1,2] int . end) . # a comment\n end"),
    ("![0,1] int . end", "![0,1] int . end"),
    ("![1,2] (?[1,2] t . end) . end", "?[2,1] (?[1,2] t . end) . end"),
    ("rec[1] t. t", "rec[1] t. t"),
    ("![0,1 int . end", "end"),
    ("![0,1] int . end end", "?[1,0] int . end"),
    (f"![{'9' * 5000},1] int . end", f"?[1,{'9' * 5000}] int . end"),
]

FILE_COMMANDS = [  # each subcommand that reads a FILE, with its arguments after FILE
    ["check"], ["check", "--judgment-index", "0"], ["run"], ["run", "--seed", "3", "--max-steps", "4"],
    ["explore"], ["explore", "--approx", "1"], ["progress"], ["oracle"],
    ["oracle", "--max-states", "1"], ["measure"], ["approx", "1"],
]

USAGE_ERRORS = [
    ["check"], ["progress", "corpus/forwarder.ssp", "--judgment-index", "0"], ["approx", "x.ssp", "-1"],
]

JSON_FLAGS = ([], ["--json"])


def invocations(files: list) -> list:
    runs = [[cmd[0], f, *cmd[1:], *j] for cmd in FILE_COMMANDS for f in files for j in JSON_FLAGS]
    runs += [["dual", t, s, *j] for t, s in DUAL_PAIRS for j in JSON_FLAGS]
    return runs + USAGE_ERRORS


def run_all(argvs: list) -> None:
    """Run each argv through ``sessprog.cli.main`` and print its record."""
    from sessprog import cli

    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:  # a usage error, from argparse
                code = e.code
        print(json.dumps({"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--child"]:
        run_all(json.loads(sys.stdin.read()))
        return 0
    root = pathlib.Path(args[0] if args else HERE).resolve()
    if not (root / "src" / "sessprog" / "cli.py").is_file():
        print(f"error: no sessprog sources under {root}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        (work / "corpus").mkdir()
        files = []
        for f in sorted((HERE / "corpus").glob("*.ssp")):
            (work / "corpus" / f.name).write_text(f.read_text())
            files.append(f"corpus/{f.name}")
        for name, text in EXTRA_INPUTS.items():
            (work / name).write_text(text)
            files.append(name)
        files.append("missing.ssp")
        child = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()), "--child"],
            input=json.dumps(invocations(files)), capture_output=True, text=True, cwd=work,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
    sys.stdout.write(child.stdout)
    sys.stderr.write(child.stderr)
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
