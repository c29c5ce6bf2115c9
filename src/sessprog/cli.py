"""Command-line front end.

Subcommands: check, run, explore, progress, oracle, measure, approx,
dual.  Exit codes: 0 accept/verified/holds, 1 reject/violated, 2 parse
or usage error (an unreadable FILE, an ill-formed type, an open program,
a finite index where a user process is needed or an infinite one where
``measure`` needs a finite one included), 3 internal limit hit (state
bound or pair budget), 4 internal fault (any other exception, with its
traceback on stderr), so that a crash never reads as a reject.  A
``RecursionError`` exits 3, as a safety net: no walk of the library
recurses, but dataclass ``==``, ``hash`` and ``repr`` on deep nodes
still do.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import traceback

from .measure import InfiniteIndex, measures
from .progress import oracle_dynamic, verify_static
from .semantics import (
    NotUserProcess,
    Truncated,
    approximant,
    canonicalize,
    is_normal_form,
    is_user_process,
    reachable,
    state_to_process,
    step,
)
from .sestypes import DepthExceeded, dual_full, dual_strict_path, well_formed
from .syntax import (
    INF,
    ParseError,
    Process,
    Rec,
    parse_program,
    parse_type,
    pretty_proc,
    subterms,
)
from .typecheck import NotClosed, check_closed

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_PARSE = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4


def _natural(s: str) -> int:
    n = int(s)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{s} is not a natural number")
    return n


def _positive(s: str) -> int:
    n = int(s)
    if n <= 0:
        raise argparse.ArgumentTypeError(f"{s} is not a positive integer")
    return n


def _index_arg(s: str):
    return INF if s == "inf" else _natural(s)


def _print(text: str) -> None:
    """Print to stdout.  A reader that has gone (``| head -1``) is not a
    fault: later output goes to the null device, so that the final flush
    cannot fail again and the exit code stays the command's."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(args, payload: dict, text: str) -> None:
    _print(json.dumps(payload, sort_keys=True, indent=2) if args.json else text)


def _load(path: str) -> Process:
    with open(path) as f:
        return parse_program(f.read()).process


def _cmd_check(args) -> int:
    p = _load(args.file)
    v = check_closed(p, args.judgment_index)
    evidence = v.evidence
    if v.ok:
        values = ", ".join(f"{k}={n}" for k, n in sorted(evidence["assignment"].items()))
        text = "accept\nassignment: " + (values or "(empty)")
    else:
        text = "reject\n" + "\n".join(str(d) for d in v.diagnostics)
    _emit(args, {"status": "accept" if v.ok else "reject", **evidence}, text)
    return EXIT_OK if v.ok else EXIT_REJECT


def _cmd_run(args) -> int:
    p = _load(args.file)
    rng = random.Random(args.seed)
    s = canonicalize(p)
    lines = []
    for _ in range(args.max_steps):
        succs = step(s)
        if not succs:
            break
        label, s = rng.choice(succs)
        lines.append(label.describe())
        if not args.json:
            _print(f"{label.describe():30s} {pretty_proc(state_to_process(s))}")
    stuck = is_normal_form(s)
    _emit(
        args,
        {"trace": lines, "final": pretty_proc(state_to_process(s)), "normalForm": stuck},
        f"{'normal form' if stuck else 'step bound reached'} after {len(lines)} steps",
    )
    return EXIT_OK


def _cmd_explore(args) -> int:
    p = _load(args.file)
    if is_user_process(p):
        p = approximant(p, args.approx)
    r = reachable(canonicalize(p), max_states=args.max_states)
    # every kept state has been stepped, so a normal form is one no edge leaves
    nfs = len(r.states) - len({st.key for st, _label, _succ in r.edges})
    payload = {
        "states": len(r.states),
        "edges": len(r.edges),
        "normalForms": nfs,
        "truncated": r.truncated,
    }
    _emit(
        args,
        payload,
        f"states: {len(r.states)}  edges: {len(r.edges)}  "
        f"normal forms: {nfs}  truncated: {r.truncated}",
    )
    return EXIT_LIMIT if r.truncated else EXIT_OK


def _cmd_progress(args) -> int:
    v = verify_static(_load(args.file))
    _emit(args, v.to_json(), f"{v.status}\n{json.dumps(v.evidence, sort_keys=True)}")
    return EXIT_OK if v.status == "verified-static" else EXIT_REJECT


def _cmd_oracle(args) -> int:
    v = oracle_dynamic(_load(args.file), iota=args.approx, max_states=args.max_states)
    _emit(args, v.to_json(), f"{v.status}\n{json.dumps(v.evidence, sort_keys=True)}")
    return EXIT_OK if v.status == "holds-dynamic-at-bound" else EXIT_REJECT


def _cmd_measure(args) -> int:
    p = _load(args.file)
    e, _v, own = measures(p)  # an infinite index raises InfiniteIndex, a usage error
    table = [
        {"var": r.var, "index": str(r.index), "v": own[id(r)]}
        for r in subterms(p)
        if isinstance(r, Rec)
    ]
    text = [f"E = {e}"] + [f"V_{row['var']}(body) = {row['v']}" for row in table]
    _emit(args, {"e": e, "recs": table}, "\n".join(text))
    return EXIT_OK


def _cmd_approx(args) -> int:
    p = _load(args.file)
    q = approximant(p, args.index)
    _emit(args, {"process": pretty_proc(q)}, pretty_proc(q))
    return EXIT_OK


def _cmd_dual(args) -> int:
    t = parse_type(args.type1)
    s = parse_type(args.type2)
    for ok, violation in (well_formed(t), well_formed(s)):
        if not ok:
            print(f"error: ill-formed type: {violation}", file=sys.stderr)
            return EXIT_PARSE
    strict, path = dual_strict_path(t, s)
    full = dual_full(t, s)
    _emit(
        args,
        {"dualStrict": strict, "dualFull": full, "mismatchPath": list(path)},
        f"dual_strict: {strict}" + ("" if strict else f" (mismatch at {list(path)})")
        + f"\ndual_full: {full}",
    )
    return EXIT_OK if full else EXIT_REJECT


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sessprog", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        """The subparser of a command that reads a FILE."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        sp.add_argument("file")
        sp.add_argument("--json", action="store_true")
        return sp

    sp = command("check", _cmd_check, "type-check a closed program")
    sp.add_argument("--judgment-index", type=_index_arg, default=INF)

    sp = command("run", _cmd_run, "one seeded pseudo-random trace")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--max-steps", type=_natural, default=1000)

    sp = command("explore", _cmd_explore, "reachable-set statistics")
    sp.add_argument("--approx", type=_natural, default=2)
    sp.add_argument("--max-states", type=_positive, default=100_000)

    command("progress", _cmd_progress, "static progress verification")

    sp = command("oracle", _cmd_oracle, "dynamic progress oracle on a finite approximant")
    sp.add_argument("--approx", type=_natural, default=2)
    sp.add_argument("--max-states", type=_positive, default=100_000)

    command("measure", _cmd_measure, "termination measure E and V table")

    sp = command("approx", _cmd_approx, "print the finite approximant")
    sp.add_argument("index", type=_natural)

    sp = sub.add_parser("dual", help="duality verdicts for two types")
    sp.set_defaults(run=_cmd_dual)
    sp.add_argument("type1")
    sp.add_argument("type2")
    sp.add_argument("--json", action="store_true")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, UnicodeDecodeError, NotClosed, NotUserProcess, InfiniteIndex) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (Truncated, DepthExceeded) as e:
        print(f"limit: {e}", file=sys.stderr)
        return EXIT_LIMIT
    except RecursionError:
        print("limit: term nested too deeply for the recursion limit", file=sys.stderr)
        return EXIT_LIMIT
    except Exception:  # a fault of the program, never a verdict
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
