"""Correctness checks of the benchmark, run after the timed passes.

None of them compares against stored output.  Each recomputes a fact
from the definitions (the measures E and V, the arithmetic of priority
constraints, what a counterexample trace must reach) or from a symmetry
of the problem (mirrored parallel composition, cells checked one at a
time), or reads the expected verdicts from the repository's README.
Every function returns a list of error strings; empty means the check
passed.
"""

from __future__ import annotations

import contextlib
import io
import math
import pathlib
import re
from collections import Counter
from dataclasses import replace

from sessprog import cli, semantics, typecheck
from sessprog.syntax import (
    INF,
    Endpoint,
    Idle,
    Input,
    New,
    Output,
    Par,
    ProcVar,
    Rec,
)

# -- the measures E and V from their defining equations -----------------------


def v_count(p, x: str) -> int:
    if isinstance(p, Idle):
        return 0
    if isinstance(p, ProcVar):
        return 1 if p.ident == x else 0
    if isinstance(p, (Input, Output, New)):
        return v_count(p.body, x)
    if isinstance(p, Par):
        return v_count(p.left, x) + v_count(p.right, x)
    if isinstance(p, Rec):
        if p.var == x:
            return 0
        base = v_count(p.body, p.var)
        return v_count(p.body, x) * sum(base**k for k in range(p.index))
    raise TypeError(p)


def e_measure(p) -> int:
    if isinstance(p, (Idle, ProcVar)):
        return 0
    if isinstance(p, (Input, Output)):
        return 1 + e_measure(p.body)
    if isinstance(p, New):
        return e_measure(p.body)
    if isinstance(p, Par):
        return e_measure(p.left) + e_measure(p.right)
    if isinstance(p, Rec):
        base = v_count(p.body, p.var)
        return (1 + e_measure(p.body)) * sum(base**k for k in range(p.index))
    raise TypeError(p)


DROP = {"rec": 1, "comm": 2}


def edge_drop_errors(edges, e_of) -> list[str]:
    """E falls by exactly 1 on an unfolding and 2 on a communication."""
    errors = []
    for st, label, succ in edges:
        drop = e_of(st) - e_of(succ)
        if drop != DROP[label.kind]:
            errors.append(f"E drops by {drop} on {label.describe()}")
    return errors


def mirror(p, deep: bool = True):
    """Swap the sides of every ``|`` (``deep``) or only reverse the
    top-level parallel components."""
    if isinstance(p, Par):
        return Par(mirror(p.right, deep), mirror(p.left, deep))
    if not deep:
        return p
    if isinstance(p, (Idle, ProcVar)):
        return p
    if isinstance(p, (Input, Output, New, Rec)):
        return replace(p, body=mirror(p.body, deep))
    raise TypeError(p)


def mirror_errors(r, r_top) -> list[str]:
    if set(r.states) != set(r_top.states):
        return ["reversing the top-level | changes the set of state keys"]
    return []


def mirror_counts_differ(r, r_deep) -> bool:
    """A program and its mirror under every ``|`` should reach as many
    states and edges.  They do not always: canonical keys number the
    restricted channels in an order that depends on their names, so
    states that differ only in the names that unfolding gave fresh
    channels can get different keys.  The run reports how many programs
    show this instead of failing on it."""
    return (len(r.states), len(r.edges)) != (len(r_deep.states), len(r_deep.edges))


def deep_mirror_mismatch(meta: dict, res: dict) -> bool:
    p, bound = res["process"], meta["max_states"]
    r = semantics.reachable(semantics.canonicalize(p), max_states=bound)
    if r.truncated:
        return False
    r_deep = semantics.reachable(semantics.canonicalize(mirror(p)), max_states=bound)
    return mirror_counts_differ(r, r_deep)


def check_measure_finite(meta: dict, res: dict) -> list[str]:
    p, bound = res["process"], meta["max_states"]
    e = e_measure(p)
    errors = []
    if res["e"] != e:
        errors.append(f"emeasure {res['e']} != E {e} from the equations")
    r = semantics.reachable(semantics.canonicalize(p), max_states=bound)
    cache: dict = {}

    def e_of(st):
        if st.key not in cache:
            cache[st.key] = e_measure(semantics.state_to_process(st))
        return cache[st.key]

    drops = edge_drop_errors(r.edges, e_of)
    errors += drops[:3]
    if res["decrease_ok"] != (not drops) or res["truncated"] != r.truncated:
        errors.append("check_decrease disagrees with the edge-by-edge recount")
    if not r.truncated:
        if res["longest"] is None or res["longest"] > e:
            errors.append(f"longest path {res['longest']} exceeds E {e}")
        r_top = semantics.reachable(semantics.canonicalize(mirror(p, deep=False)), max_states=bound)
        errors += mirror_errors(r, r_top)
    return errors


# -- progress: soundness and counterexample replay ---------------------------


def _exposes(state, prefix: str) -> bool:
    kind, name = prefix[-1], prefix[:-1]
    cls = Output if kind == "!" else Input
    return any(
        isinstance(t, cls)
        and isinstance(t.subject, Endpoint)
        and t.subject.channel + t.subject.polarity == name
        for t in state.threads
    )


def replay_errors(p, iota, evidence: dict) -> list[str]:
    """Follow the trace's labels through ``step`` from the approximant and
    demand a state that exposes the reported prefix."""
    frontier = {}
    s0 = semantics.canonicalize(semantics.approximant(p, iota))
    frontier[s0.key] = s0
    for desc in evidence["trace"]:
        frontier = {
            succ.key: succ
            for st in frontier.values()
            for label, succ in semantics.step(st)
            if label.describe() == desc
        }
        if not frontier:
            return [f"trace step {desc!r} has no matching reduction"]
    if not any(_exposes(st, evidence["prefix"]) for st in frontier.values()):
        return [f"trace does not reach a state exposing {evidence['prefix']}"]
    return []


def check_progress_oracle(meta: dict, res: dict) -> list[str]:
    errors = []
    for iota, v in res["dynamic"]:
        if v.status == "violated-dynamic":
            if res["static"].status == "verified-static":
                errors.append(f"verified-static yet violated-dynamic at index {iota}")
            errors += replay_errors(res["process"], iota, v.evidence)
        elif v.status != "holds-dynamic-at-bound":
            errors.append(f"unexpected oracle status {v.status}")
    return errors


# Exit codes per README: 0 accept / verified / holds, 1 reject / violated.
_EXIT = (("accept", 0), ("verified", 0), ("holds", 0), ("reject", 1), ("violated", 1))
# corpus/self.ssp is not among the README examples; its header comment
# states the witness, the constraint be < be.
_SELF = ("check corpus/self.ssp", ["reject", "...[be < be]"])


def readme_examples(readme: str) -> list[tuple[str, list[str]]]:
    """``$ sessprog ...`` lines of the README with the output lines that
    follow them up to a blank line or the end of the block."""
    out, lines = [], readme.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("$ sessprog "):
            expected = []
            for nxt in lines[i + 1:]:
                if not nxt.strip() or nxt.startswith("```"):
                    break
                expected.append(nxt)
            out.append((line[len("$ sessprog "):], expected))
    return out


def _line_matches(expected: str, actual: str) -> bool:
    # "..." in the README stands for text left out
    head, dots, tail = expected.partition("...")
    if not dots:
        return expected == actual
    return actual.startswith(head) and actual.endswith(tail)


def cli_errors(command: str, expected: list[str], code: int, stdout: str) -> list[str]:
    want = next((c for word, c in _EXIT if expected[0].startswith(word)), None)
    errors = []
    if code != want:
        errors.append(f"sessprog {command}: exit {code}, README says {want}")
    actual = stdout.splitlines()
    if len(actual) < len(expected) or not all(
        _line_matches(e, a) for e, a in zip(expected, actual)
    ):
        errors.append(f"sessprog {command}: printed {actual[:len(expected)]}, README says {expected}")
    return errors


def check_corpus_cli(root: pathlib.Path) -> list[str]:
    examples = readme_examples((root / "README.md").read_text()) + [_SELF]
    files = {re.search(r"corpus/\S+", cmd).group(0) for cmd, _e in examples}
    errors = [] if len(files) == 4 else [f"README examples cover {sorted(files)}, not four files"]
    for command, expected in examples:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(command.split())
        errors += cli_errors(command, expected, code, buf.getvalue())
    return errors


# -- static-wide: constraint arithmetic and cell independence ----------------


def unsatisfied(constraints, values: dict) -> list[str]:
    """Constraints that the assignment breaks, under x < inf for every x
    and plain integer order otherwise."""
    bad = []
    for c in constraints:
        if c.rhs == INF:
            continue
        lhs = values.get(c.lhs) if isinstance(c.lhs, str) else c.lhs
        rhs = values.get(c.rhs) if isinstance(c.rhs, str) else c.rhs
        if lhs is None or rhs is None or lhs == math.inf or not lhs < rhs:
            bad.append(f"{c} under {c.lhs}={lhs}, {c.rhs}={rhs}")
    return bad


def cycle_errors(witness, names) -> list[str]:
    """A cycle witness is a chain c1 .. ck with each rhs the next lhs and
    the last rhs the first lhs, over the deadlocked cell's priorities."""
    w = list(witness)
    if not w:
        return ["empty cycle witness"]
    if any(a.rhs != b.lhs for a, b in zip(w, w[1:] + w[:1])):
        return ["cycle witness does not close: " + ", ".join(map(str, w))]
    if {c.lhs for c in w} != set(names):
        return [f"cycle over {sorted({str(c.lhs) for c in w})}, deadlock cell has {names}"]
    return []


def top_cells(p) -> list:
    cells, stack = [], [p]
    while stack:
        q = stack.pop()
        if isinstance(q, Par):
            stack += [q.right, q.left]
        else:
            cells.append(q)
    return cells


def _multiset(constraints) -> Counter:
    return Counter((c.lhs, c.rhs, c.origin) for c in constraints)


def cells_errors(whole, cell_verdicts) -> list[str]:
    errors = []
    union = sum((_multiset(v.constraints) for v in cell_verdicts), Counter())
    if _multiset(whole.constraints) != union:
        errors.append("program constraints differ from the union of its cells' constraints")
    if whole.assignment is not None:
        for v in cell_verdicts:
            own = v.assignment.values if v.assignment else {}
            if any(whole.assignment.values.get(k) != n for k, n in own.items()):
                errors.append("least assignment differs from a cell's own on that cell")
                break
    return errors


def check_static_wide(meta: dict, res: dict) -> list[str]:
    chk, static, deadlock = res["check"], res["static"], meta["deadlock"]
    errors = []
    if deadlock is None:
        if not chk.ok or static.status != "verified-static":
            errors.append(f"deadlock-free cells rejected: {chk.ok}, {static.status}")
    elif chk.ok or static.status == "verified-static":
        errors.append("program with a deadlocked cell accepted")
    if chk.assignment is not None:
        errors += unsatisfied(chk.constraints, chk.assignment.values)[:3]
    if isinstance(chk.solution, typecheck.CycleWitness):
        errors += cycle_errors(chk.solution.constraints, deadlock or [])
    cells = top_cells(res["process"])
    if len(cells) != meta["cells"]:
        errors.append(f"{len(cells)} top-level cells, corpus says {meta['cells']}")
    errors += cells_errors(chk, [typecheck.check_closed(c, INF) for c in cells])
    return errors


CHECK = {
    "measure-finite": check_measure_finite,
    "progress-oracle": check_progress_oracle,
    "static-wide": check_static_wide,
}
