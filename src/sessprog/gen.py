"""Seeded random generators: arbitrary closed finite processes for the
measure properties, a corpus of well-typed closed processes built from
cells written in the concrete syntax, for subject reduction and the
soundness cross-check, and substitution pairs for the measure
substitution law.

All generators take a ``random.Random``; fresh names come from the
module-level counter ``_uid``, so a corpus is reproducible from its seed
in a fresh interpreter (or with ``_uid`` reset).
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import replace

from .syntax import (
    INF,
    Base,
    End,
    Endpoint,
    Idle,
    Input,
    New,
    Output,
    Par,
    Process,
    ProcVar,
    Rec,
    SessionType,
    TIn,
    TOut,
    TRec,
    TypeVar,
    Var,
    parse_process,
    pri_str,
    rewrite,
)

_uid = itertools.count()


def _fresh(base: str) -> str:
    return f"{base}{next(_uid)}"


def gen_finite(rng: random.Random, depth: int = 6, max_index: int = 4) -> Process:
    """A closed process with finite recursion indices; subjects and
    payloads are drawn from the endpoints and variables in scope, so the
    result may or may not reduce, and is usually ill typed."""

    def go(d, endpoints, vars_, procvars):
        choices = ["idle", "par", "new", "rec"]
        if endpoints:
            choices += ["input", "output", "output"]
        if procvars:
            choices.append("pvar")
        if d <= 0:
            choices = ["idle"] + (["pvar"] if procvars else [])
        k = rng.choice(choices)
        if k == "idle":
            return Idle()
        if k == "pvar":
            return ProcVar(rng.choice(procvars))
        if k == "par":
            return Par(
                go(d - 1, endpoints, vars_, procvars),
                go(d - 1, endpoints, vars_, procvars),
            )
        if k == "new":
            a = _fresh("a")
            eps = endpoints + [Endpoint(a, "+"), Endpoint(a, "-")]
            return New(a, None, None, go(d - 1, eps, vars_, procvars))
        if k == "rec":
            x = _fresh("X")
            return Rec(
                rng.randint(0, max_index), x, go(d - 1, endpoints, vars_, procvars + [x])
            )
        if k == "input":
            x = _fresh("x")
            return Input(
                rng.choice(endpoints), x, go(d - 1, endpoints, vars_ + [Var(x)], procvars)
            )
        payload = rng.choice(vars_ + endpoints + [rng.randint(0, 9)])
        return Output(
            rng.choice(endpoints), payload, go(d - 1, endpoints, vars_, procvars)
        )

    return go(depth, [], [], [])


def gen_type(rng: random.Random, depth: int = 4) -> SessionType:
    """A closed well-formed session type with symbolic priorities."""

    def go(d, tvars):
        opts = ["end", "in", "out"]
        if tvars:
            opts.append("var")
        if d > 1:
            opts.append("rec")
        k = rng.choice(opts) if d > 0 else ("var" if tvars and rng.random() < 0.5 else "end")
        if k == "end":
            return End()
        if k == "var":
            return TypeVar(rng.choice(tvars))
        if k == "rec":
            t = _fresh("t")
            # keep the body contractive by forcing a prefix at its head
            head = rng.choice([TIn, TOut])
            return TRec(
                rng.choice([0, 1, 2, INF]),
                t,
                head(_fresh("p"), _fresh("p"), go(max(d - 2, 0), []), go(d - 1, tvars + [t])),
            )
        payload = rng.choice([Base(), End(), go(max(d - 2, 0), [])])
        cls = TIn if k == "in" else TOut
        return cls(_fresh("p"), _fresh("p"), payload, go(d - 1, tvars))

    return go(depth, [])


# ---------------------------------------------------------------------------
# Well-typed cells.  Each cell is a closed process that checks on its own
# with fresh symbolic priorities; disjoint cells compose in parallel
# because their constraint sets share no variables.  A cell is written in
# the concrete syntax, as its fields in draw order and its text; ``{i}``
# is the recursion index.

_CELLS = (
    ("a p1 p2 n x", "new {a} : ![{p1},{p2}] int . end . ({a}+!{n}.0 | {a}-?({x}).0)"),
    ("a p1 p2 p3 p4 x n y", "new {a} : ![{p1},{p2}] int . ?[{p3},{p4}] int . end ."
     " ({a}+!{n}.{a}+?({y}).0 | {a}-?({x}).{a}-!{x}.0)"),
    ("a t p1 p2 X Y n x", "new {a} : rec[{i}] {t}. ![{p1},{p2}] int . {t} ."
     " (rec[{i}] {X}.{a}+!{n}.{X} | rec[{i}] {Y}.{a}-?({x}).{Y})"),
    ("a b c t1 p1 p2 t2 p3 p4 X Y Z x y", "new {a} : rec[{i}] {t1}. ![{p1},{p2}] end . {t1} ."
     " new {b} : rec[{i}] {t2}. ![{p3},{p4}] end . {t2} . (rec[{i}] {X}.{a}-?({x}).{b}+!{x}.{X}"
     " | rec[{i}] {Y}.new {c}.{a}+!{c}+.{Y} | rec[{i}] {Z}.{b}-?({y}).{Z})"),
    ("a b p1 p2 p3 p4 x n y", "new {a} : ![{p3},{p4}] (![{p1},{p2}] int . end) . end ."
     " new {b} : ![{p1},{p2}] int . end . ({a}+!{b}+.0 | {a}-?({x}).{x}!{n}.0 | {b}-?({y}).0)"),
)


def _cell(rng: random.Random, cell: tuple, index) -> Process:
    """Parse ``cell`` at recursion index ``index``, drawing its fields in
    the listed order: ``n`` is a payload from ``rng``, any other field a
    fresh name on its first letter (``p1`` -> ``p7``).  The nodes carry
    ``pos`` into the cell's own text; ``pos`` is informational and
    excluded from ``==`` and ``hash``."""
    order, text = cell
    fields = {f: rng.randint(0, 9) if f == "n" else _fresh(f[0]) for f in order.split()}
    return parse_process(text.format(i=pri_str(index), **fields))


def gen_well_typed(rng: random.Random, max_index: int = 3, cells: int | None = None) -> Process:
    """A closed finite process that type-checks: a parallel composition
    of independent well-typed cells."""
    n = cells if cells is not None else rng.randint(1, 3)
    parts = [_cell(rng, rng.choice(_CELLS), rng.randint(0, max_index)) for _ in range(n)]
    return functools.reduce(Par, parts)


def gen_well_typed_user(rng: random.Random, cells: int | None = None) -> Process:
    """A closed user process (all indices infinite) that passes the
    static progress verifier."""
    n = cells if cells is not None else rng.randint(1, 3)
    return functools.reduce(Par, [_cell(rng, rng.choice(_CELLS), INF) for _ in range(n)])


def gen_user(rng: random.Random, depth: int = 6) -> Process:
    """An arbitrary closed user process, usually ill typed; all recursion
    indices are infinite."""
    p = gen_finite(rng, depth=depth)

    def to_user(q, env):
        return (replace(q, index=INF) if isinstance(q, Rec) else q), env

    return rewrite(to_user, p)


def gen_subst_pair(rng: random.Random):
    """(p, x, q): p is finite with the process variable x possibly free,
    q is closed; the substitution p[q/x] is always defined because q has
    no free names to capture."""
    x = _fresh("X")

    def go(d, endpoints, vars_):
        opts = ["idle", "pvar", "pvar", "par", "new", "rec"]
        if endpoints:
            opts += ["input", "output"]
        if d <= 0:
            opts = ["idle", "pvar"]
        k = rng.choice(opts)
        if k == "idle":
            return Idle()
        if k == "pvar":
            return ProcVar(x)
        if k == "par":
            return Par(go(d - 1, endpoints, vars_), go(d - 1, endpoints, vars_))
        if k == "new":
            a = _fresh("a")
            return New(a, None, None, go(d - 1, endpoints + [Endpoint(a, "+"), Endpoint(a, "-")], vars_))
        if k == "rec":
            return Rec(rng.randint(0, 3), _fresh("Y"), go(d - 1, endpoints, vars_))
        if k == "input":
            v = _fresh("x")
            return Input(rng.choice(endpoints), v, go(d - 1, endpoints, vars_ + [Var(v)]))
        payload = rng.choice(vars_ + endpoints + [rng.randint(0, 9)])
        return Output(rng.choice(endpoints), payload, go(d - 1, endpoints, vars_))

    p = go(4, [], [])
    q = gen_finite(rng, depth=3)
    return p, x, q
