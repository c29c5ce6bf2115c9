"""Seeded random generators: arbitrary closed finite processes for the
measure properties, a combinator-built corpus of well-typed closed
processes for subject reduction and the soundness cross-check, and
substitution pairs for the measure substitution law.

All generators take a ``random.Random`` so corpora are reproducible.
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
# Well-typed combinator cells.  Each cell is a closed process that checks
# on its own with fresh symbolic priorities; disjoint cells compose in
# parallel because their constraint sets share no variables.


def _cell_send(rng, index) -> Process:
    a = _fresh("a")
    t = TOut(_fresh("p"), _fresh("p"), Base(), End())
    return New(
        a,
        t,
        None,
        Par(
            Output(Endpoint(a, "+"), rng.randint(0, 9), Idle()),
            Input(Endpoint(a, "-"), _fresh("x"), Idle()),
        ),
    )


def _cell_two_step(rng, index) -> Process:
    a = _fresh("a")
    t = TOut(_fresh("p"), _fresh("p"), Base(), TIn(_fresh("p"), _fresh("p"), Base(), End()))
    x = _fresh("x")
    return New(
        a,
        t,
        None,
        Par(
            Output(Endpoint(a, "+"), rng.randint(0, 9), Input(Endpoint(a, "+"), _fresh("y"), Idle())),
            Input(Endpoint(a, "-"), x, Output(Endpoint(a, "-"), Var(x), Idle())),
        ),
    )


def _cell_loop(rng, index) -> Process:
    a = _fresh("a")
    tv = _fresh("t")
    t = TRec(index, tv, TOut(_fresh("p"), _fresh("p"), Base(), TypeVar(tv)))
    x, y = _fresh("X"), _fresh("Y")
    return New(
        a,
        t,
        None,
        Par(
            Rec(index, x, Output(Endpoint(a, "+"), rng.randint(0, 9), ProcVar(x))),
            Rec(index, y, Input(Endpoint(a, "-"), _fresh("x"), ProcVar(y))),
        ),
    )


def _cell_forwarder(rng, index) -> Process:
    a, b, c = _fresh("a"), _fresh("b"), _fresh("c")
    ta = TRec(index, _fresh("t"), None)
    tav = TOut(_fresh("p"), _fresh("p"), End(), TypeVar(ta.var))
    ta = TRec(index, ta.var, tav)
    tb = TRec(index, _fresh("t"), None)
    tbv = TOut(_fresh("p"), _fresh("p"), End(), TypeVar(tb.var))
    tb = TRec(index, tb.var, tbv)
    x, y, z, v = _fresh("X"), _fresh("Y"), _fresh("Z"), _fresh("x")
    fwd = Rec(index, x, Input(Endpoint(a, "-"), v, Output(Endpoint(b, "+"), Var(v), ProcVar(x))))
    prod = Rec(index, y, New(c, None, None, Output(Endpoint(a, "+"), Endpoint(c, "+"), ProcVar(y))))
    cons = Rec(index, z, Input(Endpoint(b, "-"), _fresh("y"), ProcVar(z)))
    return New(a, ta, None, New(b, tb, None, Par(fwd, Par(prod, cons))))


def _cell_delegate(rng, index) -> Process:
    a, b = _fresh("a"), _fresh("b")
    s = TOut(_fresh("p"), _fresh("p"), Base(), End())
    t = TOut(_fresh("p"), _fresh("p"), s, End())
    x = _fresh("x")
    return New(
        a,
        t,
        None,
        New(
            b,
            s,
            None,
            Par(
                Output(Endpoint(a, "+"), Endpoint(b, "+"), Idle()),
                Par(
                    Input(Endpoint(a, "-"), x, Output(Var(x), rng.randint(0, 9), Idle())),
                    Input(Endpoint(b, "-"), _fresh("y"), Idle()),
                ),
            ),
        ),
    )


_CELLS = [_cell_send, _cell_two_step, _cell_loop, _cell_forwarder, _cell_delegate]


def gen_well_typed(rng: random.Random, max_index: int = 3, cells: int | None = None) -> Process:
    """A closed finite process that type-checks: a parallel composition
    of independent well-typed cells."""
    n = cells if cells is not None else rng.randint(1, 3)
    parts = [rng.choice(_CELLS)(rng, rng.randint(0, max_index)) for _ in range(n)]
    return functools.reduce(Par, parts)


def gen_well_typed_user(rng: random.Random, cells: int | None = None) -> Process:
    """A closed user process (all indices infinite) that passes the
    static progress verifier."""
    n = cells if cells is not None else rng.randint(1, 3)
    return functools.reduce(Par, [rng.choice(_CELLS)(rng, INF) for _ in range(n)])


def gen_user(rng: random.Random, depth: int = 6) -> Process:
    """An arbitrary closed user process, usually ill typed; all recursion
    indices are infinite."""
    p = gen_finite(rng, depth=depth)

    def to_user(q, env):
        return (replace(q, index=INF) if isinstance(q, Rec) else q), env

    return rewrite(to_user, p)


def gen_subst_pair(rng: random.Random, depth: int = 4):
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

    p = go(depth, [], [])
    q = gen_finite(rng, depth=3)
    return p, x, q
