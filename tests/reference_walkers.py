"""The walkers of ``sessprog.syntax`` and ``sessprog.semantics`` as they
were before the traversal kernel, each with its own constructor
dispatch: the four-walk canonical key (``_thread_ser``,
``_channels_in_order``, ``_make_state``), ``canonicalize`` without
freshening, ``_flatten``, ``freshen``, ``approximant``, ``approx_leq``,
``_rename_clashing_news`` and ``_rename_news``, and the two
substitutions.  Also the two recursive measure formulas of ``sessprog.measure`` as they were before
E and V came from one walk: ``emeasure`` calls ``vcount`` under every
``rec``, so a chain of n nested ``rec`` walks the term about 2^n times.
And the two recursive duality checkers of ``sessprog.sestypes`` as they
were before they shared one structural rule: ``dual_full`` is a
backtracking search that forgets the pairs it has failed on, and it
counts every pair it re-enters against ``DUAL_PAIR_BUDGET``.

Last, the recursive folds, printers and type operations as they were
before the iterative folds of the kernel: ``free_names``,
``free_proc_vars``, ``all_idents``, ``free_type_vars``,
``subst_type_var``, ``pretty_proc``, ``pretty_type``, ``obligation``,
``capability``, ``syntactic_dual``, ``type_key``, ``well_formed`` and
the one-walk ``_serialize``, with ``_entry`` regrouping its pieces and
adding ``all_idents`` into the entry that ``sessprog.semantics`` gives.
Every reference here uses these and no library walker, so the two
sides stay independent.

And the recursive parser and type checker as they were before they ran
on explicit stacks: ``RecursiveParser`` is the parser with one method
per grammar rule, and ``check`` hands the judgment to the recursive
``_check``, which has separate input and output rules.  The parser
carries its own tokenizer and token helpers as they were before a
symbol's kind was its lexeme, so the tokenizer is compared too.  The
checker uses the library's type operations, so only its checking logic
is compared.  It splits the environment at each ``|`` as the library
did before one fold gave the free names of every ``|``: ``split_env``
walks both sides with the recursive ``free_names`` and
``free_proc_vars``.

And the progress oracle as it was before it answered every residual
question from its one exploration: ``oracle_dynamic`` explores the
approximant and then runs, for each exposed prefix, a fresh search
(``_residual_matches``) over every thread of the residual, which stops
at its first match.

And ``well_formed_by_payload``, the preorder well-formedness check as it
was before one fold gave what is free in every payload, and
``comms_by_scan``, the communications of a state as ``step`` found them
before one reader gave the exposed prefixes: every sender against every
other thread.

And the well-typed cells of ``sessprog.gen`` as they were before they
were written in the concrete syntax: ``CELLS`` holds one hand-built
constructor per cell, in the order of ``gen._CELLS``, each drawing its
names from ``gen._fresh`` in the same order.

Test-only reference: ``tests/test_differential.py`` demands that the
kernel versions give byte-identical keys, terms, texts and verdicts,
and equal measures, and identical duality verdicts and mismatch paths
wherever the reference finishes.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import replace

import sessprog.progress as prog
import sessprog.semantics as sem
import sessprog.typecheck as tc
from sessprog.gen import _fresh
from sessprog.measure import InfiniteIndex, _geom_sum
from sessprog.semantics import CanonState, NotUserProcess
from sessprog.sestypes import (
    DUAL_PAIR_BUDGET,
    CannotUnfold,
    DepthExceeded,
    NoAction,
    UnboundTypeVar,
    Violation,
)
from sessprog.syntax import (
    INF,
    Base,
    End,
    Endpoint,
    Idle,
    Input,
    New,
    Output,
    Par,
    ParseError,
    Process,
    ProcVar,
    Program,
    Rec,
    SessionType,
    TIn,
    TOut,
    TRec,
    TypeVar,
    Var,
    _ident_of,
    co,
    name_str,
    pri_str,
)
from sessprog.typecheck import Constraint, _discardable, _fail, _Fail, _ob


def subst_name(p: Process, target: str, repl) -> Process | None:
    """Capture-avoiding substitution of a name (or base literal) for the
    free occurrences of the variable ``target``.

    Returns None (Undefined) when ``repl`` is an endpoint that would be
    captured by a ``new`` binder; callers are expected to alpha-rename
    first.  Undefined is a value, not a fault.
    """

    def sub_val(v):
        if isinstance(v, Var) and v.ident == target:
            return repl
        return v

    if isinstance(p, (Idle, ProcVar)):
        return p
    if isinstance(p, Input):
        if p.binder == target:
            return p
        body = subst_name(p.body, target, repl)
        if body is None:
            return None
        return replace(p, subject=sub_val(p.subject), body=body)
    if isinstance(p, Output):
        body = subst_name(p.body, target, repl)
        if body is None:
            return None
        return replace(p, subject=sub_val(p.subject), payload=sub_val(p.payload), body=body)
    if isinstance(p, Par):
        left = subst_name(p.left, target, repl)
        right = subst_name(p.right, target, repl)
        if left is None or right is None:
            return None
        return replace(p, left=left, right=right)
    if isinstance(p, New):
        if Var(target) not in free_names(p.body):
            return p
        if isinstance(repl, Endpoint) and repl.channel == p.channel:
            return None  # (new c (c+!x.0))[c-/x] is undefined
        body = subst_name(p.body, target, repl)
        if body is None:
            return None
        return replace(p, body=body)
    if isinstance(p, Rec):
        body = subst_name(p.body, target, repl)
        if body is None:
            return None
        return replace(p, body=body)
    raise TypeError(p)


def subst_proc(p: Process, target: str, q: Process) -> Process | None:
    """Capture-avoiding substitution of process ``q`` for the free
    occurrences of process variable ``target`` in ``p``.

    None (Undefined) when a free endpoint, free variable or free process
    variable of ``q`` would be captured by a binder in ``p``.
    """
    if isinstance(p, Idle):
        return p
    if isinstance(p, ProcVar):
        return q if p.ident == target else p
    if isinstance(p, (Input, Output)):
        if target not in free_proc_vars(p.body):
            return p
        if isinstance(p, Input) and Var(p.binder) in free_names(q):
            return None
        body = subst_proc(p.body, target, q)
        if body is None:
            return None
        return replace(p, body=body)
    if isinstance(p, Par):
        left = subst_proc(p.left, target, q)
        right = subst_proc(p.right, target, q)
        if left is None or right is None:
            return None
        return replace(p, left=left, right=right)
    if isinstance(p, New):
        if target not in free_proc_vars(p.body):
            return p
        if any(isinstance(n, Endpoint) and n.channel == p.channel for n in free_names(q)):
            return None  # (new a X)[a+!b+.0/X] is undefined
        body = subst_proc(p.body, target, q)
        if body is None:
            return None
        return replace(p, body=body)
    if isinstance(p, Rec):
        if p.var == target or target not in free_proc_vars(p.body):
            return p
        if p.var in free_proc_vars(q):
            return None
        body = subst_proc(p.body, target, q)
        if body is None:
            return None
        return replace(p, body=body)
    raise TypeError(p)


def freshen(p: Process, reserved=()) -> Process:
    """Rename binders so every binder in the result is unique and distinct
    from every free name.  Binders whose names are not reused keep them,
    so already-fresh terms come back unchanged."""
    seen = set(reserved)
    for n in free_names(p):
        _ident_of(n, seen)
    seen |= free_proc_vars(p)

    def pick(base):
        if base not in seen:
            seen.add(base)
            return base
        k = 0
        while True:
            k += 1
            cand = f"{base}_{k}"
            if cand not in seen:
                seen.add(cand)
                return cand

    def sub_val(v, venv, cenv):
        if isinstance(v, Var):
            return Var(venv.get(v.ident, v.ident))
        if isinstance(v, Endpoint):
            return Endpoint(cenv.get(v.channel, v.channel), v.polarity)
        return v

    def go(q, venv, cenv, penv):
        if isinstance(q, Idle):
            return q
        if isinstance(q, ProcVar):
            return replace(q, ident=penv.get(q.ident, q.ident))
        if isinstance(q, Input):
            x = pick(q.binder)
            return replace(
                q,
                subject=sub_val(q.subject, venv, cenv),
                binder=x,
                body=go(q.body, {**venv, q.binder: x}, cenv, penv),
            )
        if isinstance(q, Output):
            return replace(
                q,
                subject=sub_val(q.subject, venv, cenv),
                payload=sub_val(q.payload, venv, cenv),
                body=go(q.body, venv, cenv, penv),
            )
        if isinstance(q, Par):
            return replace(q, left=go(q.left, venv, cenv, penv), right=go(q.right, venv, cenv, penv))
        if isinstance(q, New):
            a = pick(q.channel)
            return replace(q, channel=a, body=go(q.body, venv, {**cenv, q.channel: a}, penv))
        if isinstance(q, Rec):
            x = pick(q.var)
            return replace(q, var=x, body=go(q.body, venv, cenv, {**penv, q.var: x}))
        raise TypeError(q)

    return go(p, {}, {}, {})


def _thread_ser(p: Process, chan_map=None, env=None, counter=None) -> str:
    """Serialization of a sequential term with binders numbered in
    traversal order and channels mapped through ``chan_map``."""
    chan_map = chan_map or {}
    env = env if env is not None else {}
    counter = counter if counter is not None else [0]

    def name(v):
        if isinstance(v, Var):
            return env.get(("v", v.ident), f"'{v.ident}")
        if isinstance(v, Endpoint):
            return env.get(("c", v.channel), chan_map.get(v.channel, f"'{v.channel}")) + v.polarity
        return str(v)

    def bind(kind, ident):
        tok = f"%{counter[0]}"
        counter[0] += 1
        return {**env, (kind, ident): tok}, tok

    if isinstance(p, Idle):
        return "0"
    if isinstance(p, ProcVar):
        return env.get(("p", p.ident), f"'{p.ident}")
    if isinstance(p, Input):
        env2, tok = bind("v", p.binder)
        return f"{name(p.subject)}?({tok}).{_thread_ser(p.body, chan_map, env2, counter)}"
    if isinstance(p, Output):
        return f"{name(p.subject)}!{name(p.payload)}.{_thread_ser(p.body, chan_map, env, counter)}"
    if isinstance(p, Par):
        return f"({_thread_ser(p.left, chan_map, env, counter)}|{_thread_ser(p.right, chan_map, env, counter)})"
    if isinstance(p, New):
        env2, tok = bind("c", p.channel)
        ann = ""
        if p.pos_type is not None:
            ann = ":" + type_key(p.pos_type)
            if p.neg_type is not None:
                ann += "~" + type_key(p.neg_type)
        return f"new {tok}{ann}.{_thread_ser(p.body, chan_map, env2, counter)}"
    if isinstance(p, Rec):
        env2, tok = bind("p", p.var)
        return f"rec[{p.index}]{tok}.{_thread_ser(p.body, chan_map, env2, counter)}"
    raise TypeError(p)


def _channels_in_order(p: Process, restricted: set, acc: list):
    """Restricted channels in AST preorder of their free endpoint
    occurrences."""
    if isinstance(p, (Idle, ProcVar)):
        return
    if isinstance(p, (Input, Output)):
        for v in ([p.subject, p.payload] if isinstance(p, Output) else [p.subject]):
            if isinstance(v, Endpoint) and v.channel in restricted and v.channel not in acc:
                acc.append(v.channel)
        _channels_in_order(p.body, restricted, acc)
        return
    if isinstance(p, Par):
        _channels_in_order(p.left, restricted, acc)
        _channels_in_order(p.right, restricted, acc)
        return
    if isinstance(p, (New, Rec)):
        _channels_in_order(p.body, restricted - {p.channel} if isinstance(p, New) else restricted, acc)
        return
    raise TypeError(p)


def _make_state(chan_anns: dict, threads: list) -> CanonState:
    threads = [t for t, _e in threads if not isinstance(t, Idle)]
    used = set()
    for t in threads:
        for n in free_names(t):
            if isinstance(n, Endpoint):
                used.add(n.channel)
    chans = {c: chan_anns[c] for c in chan_anns if c in used}
    # order threads by their channel-agnostic serialization, then derive a
    # canonical channel numbering from first occurrences in that order
    threads.sort(key=lambda t: _thread_ser(t))
    occ: list = []
    for t in threads:
        _channels_in_order(t, set(chans), occ)
    chan_map = {c: f"#{i}" for i, c in enumerate(occ)}
    keys = sorted(_thread_ser(t, chan_map) for t in threads)
    key = f"nu[{len(chans)}] " + " || ".join(keys)
    return CanonState(
        key=key,
        threads=tuple(threads),
        anns={c: chans[c] for c in occ},
        sers=tuple(map(_entry, threads)),  # step takes its used names from these
    )


def canonicalize(p: Process, outer_anns: dict | None = None) -> CanonState:
    """Flatten parallel composition, drop idle components, hoist all
    unguarded restrictions and drop those whose endpoints are unused.
    Idempotent and invariant under the structural congruence laws."""
    chan_anns = dict(outer_anns or {})
    threads: list = []

    def walk(q):
        if isinstance(q, Par):
            walk(q.left)
            walk(q.right)
        elif isinstance(q, New):
            chan_anns[q.channel] = (q.pos_type, q.neg_type)
            walk(q.body)
        elif isinstance(q, Idle):
            pass
        else:
            threads.append(q)

    walk(p)
    return _make_state(chan_anns, [(t, None) for t in threads])


def is_user_process(p: Process) -> bool:
    if isinstance(p, (Idle, ProcVar)):
        return True
    if isinstance(p, (Input, Output, New)):
        return is_user_process(p.body)
    if isinstance(p, Par):
        return is_user_process(p.left) and is_user_process(p.right)
    if isinstance(p, Rec):
        return p.index == INF and is_user_process(p.body)
    raise TypeError(p)


def approximant(p: Process, iota) -> Process:
    """Replace every infinite recursion index (in processes and in type
    annotations) with ``iota``; requires a user process."""
    if not is_user_process(p):
        raise NotUserProcess("finite recursion index in a user process")
    return _approx(p, iota)


def _approx(p: Process, iota) -> Process:
    if isinstance(p, (Idle, ProcVar)):
        return p
    if isinstance(p, (Input, Output)):
        return replace(p, body=_approx(p.body, iota))
    if isinstance(p, Par):
        return replace(p, left=_approx(p.left, iota), right=_approx(p.right, iota))
    if isinstance(p, New):
        return replace(
            p,
            pos_type=None if p.pos_type is None else approximant_type(p.pos_type, iota),
            neg_type=None if p.neg_type is None else approximant_type(p.neg_type, iota),
            body=_approx(p.body, iota),
        )
    if isinstance(p, Rec):
        idx = iota if p.index == INF else p.index
        return replace(p, index=idx, body=_approx(p.body, iota))
    raise TypeError(p)


def approximant_type(t: SessionType, iota) -> SessionType:
    if isinstance(t, (End, Base, TypeVar)):
        return t
    if isinstance(t, (TIn, TOut)):
        return replace(
            t, payload=approximant_type(t.payload, iota), cont=approximant_type(t.cont, iota)
        )
    if isinstance(t, TRec):
        idx = iota if t.index == INF else t.index
        return replace(t, index=idx, body=approximant_type(t.body, iota))
    raise TypeError(t)


def approx_leq(p: Process, q: Process) -> bool:
    """The approximation preorder: structural identity except recursion
    indices, pointwise smaller on the left."""
    if type(p) is not type(q):
        return False
    if isinstance(p, Idle):
        return True
    if isinstance(p, ProcVar):
        return p.ident == q.ident
    if isinstance(p, Input):
        return p.subject == q.subject and p.binder == q.binder and approx_leq(p.body, q.body)
    if isinstance(p, Output):
        return (
            p.subject == q.subject and p.payload == q.payload and approx_leq(p.body, q.body)
        )
    if isinstance(p, Par):
        return approx_leq(p.left, q.left) and approx_leq(p.right, q.right)
    if isinstance(p, New):
        return (
            p.channel == q.channel
            and _ann_leq(p.pos_type, q.pos_type)
            and _ann_leq(p.neg_type, q.neg_type)
            and approx_leq(p.body, q.body)
        )
    if isinstance(p, Rec):
        return p.index <= q.index and p.var == q.var and approx_leq(p.body, q.body)
    raise TypeError(p)


def _ann_leq(t, s) -> bool:
    if t is None or s is None:
        return t is s
    return approx_leq_type(t, s)


def approx_leq_type(t: SessionType, s: SessionType) -> bool:
    if type(t) is not type(s):
        return False
    if isinstance(t, (End, Base, TypeVar)):
        return t == s
    if isinstance(t, (TIn, TOut)):
        return (
            t.obl == s.obl
            and t.cap == s.cap
            and approx_leq_type(t.payload, s.payload)
            and approx_leq_type(t.cont, s.cont)
        )
    if isinstance(t, TRec):
        return t.index <= s.index and t.var == s.var and approx_leq_type(t.body, s.body)
    raise TypeError(t)


def _rename_with(p: Process, pick) -> Process:
    """``p`` with each ``new`` binder, in preorder, renamed to ``pick`` of
    its channel name."""

    def go(q, cenv):
        if isinstance(q, (Idle, ProcVar)):
            return q
        if isinstance(q, Input):
            return replace(q, subject=ren(q.subject, cenv), body=go(q.body, cenv))
        if isinstance(q, Output):
            return replace(
                q, subject=ren(q.subject, cenv), payload=ren(q.payload, cenv), body=go(q.body, cenv)
            )
        if isinstance(q, Par):
            return replace(q, left=go(q.left, cenv), right=go(q.right, cenv))
        if isinstance(q, Rec):
            return replace(q, body=go(q.body, cenv))
        if isinstance(q, New):
            name = pick(q.channel)
            if name != q.channel:
                return replace(q, channel=name, body=go(q.body, {**cenv, q.channel: name}))
            return replace(q, body=go(q.body, cenv))
        raise TypeError(q)

    def ren(v, cenv):
        if isinstance(v, Endpoint) and v.channel in cenv:
            return Endpoint(cenv[v.channel], v.polarity)
        return v

    return go(p, {})


def _rename_clashing_news(p: Process, seen: set) -> Process:
    """Rename ``new`` binders whose channel name is already taken; needed
    because unfolding duplicates restriction binders and hoisting requires
    globally unique channels.  Other binders are left alone."""

    def pick(name):
        if name in seen:
            k = 0
            while True:
                k += 1
                cand = f"{name}_{k}"
                if cand not in seen:
                    name = cand
                    break
        seen.add(name)
        return name

    return _rename_with(p, pick)


def _rename_news(p: Process, names) -> Process:
    """``p`` with its ``new`` binders, in preorder, renamed to ``names``."""
    names = iter(names)
    return _rename_with(p, lambda _channel: next(names))


def _flatten(p: Process) -> tuple:
    """The hoisted channels of ``p`` with their annotations, and its
    threads, each with its ``sers`` entry."""
    chan_anns: dict = {}
    flat: list = []

    def walk(q):
        if isinstance(q, Par):
            walk(q.left)
            walk(q.right)
        elif isinstance(q, New):
            chan_anns[q.channel] = (q.pos_type, q.neg_type)
            walk(q.body)
        elif isinstance(q, Idle):
            pass
        else:
            flat.append(q)

    walk(p)
    return chan_anns, [(t, _entry(t)) for t in flat]


def vcount(p: Process, x: str) -> int:
    if isinstance(p, Idle):
        return 0
    if isinstance(p, ProcVar):
        return 1 if p.ident == x else 0
    if isinstance(p, (Input, Output, New)):
        return vcount(p.body, x)
    if isinstance(p, Par):
        return vcount(p.left, x) + vcount(p.right, x)
    if isinstance(p, Rec):
        if p.index == INF:
            raise InfiniteIndex(f"rec[inf] {p.var}")
        if p.var == x:
            return 0
        return vcount(p.body, x) * _geom_sum(vcount(p.body, p.var), p.index)
    raise TypeError(p)


def emeasure(p: Process) -> int:
    if isinstance(p, (Idle, ProcVar)):
        return 0
    if isinstance(p, (Input, Output)):
        return 1 + emeasure(p.body)
    if isinstance(p, New):
        return emeasure(p.body)
    if isinstance(p, Par):
        return emeasure(p.left) + emeasure(p.right)
    if isinstance(p, Rec):
        if p.index == INF:
            raise InfiniteIndex(f"rec[inf] {p.var}")
        return (1 + emeasure(p.body)) * _geom_sum(vcount(p.body, p.var), p.index)
    raise TypeError(p)


def dual_strict_path(t: SessionType, s: SessionType):
    def go(u, v, depth, uenv, venv, path):
        if isinstance(u, End) and isinstance(v, End):
            return True, ()
        if isinstance(u, TypeVar) and isinstance(v, TypeVar):
            if uenv.get(u.ident, u.ident) == venv.get(v.ident, v.ident):
                return True, ()
            return False, path
        if (isinstance(u, TIn) and isinstance(v, TOut)) or (
            isinstance(u, TOut) and isinstance(v, TIn)
        ):
            if u.obl != v.cap or u.cap != v.obl or not type_eq(u.payload, v.payload):
                return False, path
            return go(u.cont, v.cont, depth, uenv, venv, path + (len(path),))
        if isinstance(u, TRec) and isinstance(v, TRec) and u.index == v.index:
            mark = f"@{depth}"
            return go(
                u.body, v.body, depth + 1,
                {**uenv, u.var: mark}, {**venv, v.var: mark}, path,
            )
        return False, path

    return go(t, s, 0, {}, {}, ())


def dual_full(t: SessionType, s: SessionType) -> bool:
    seen = 0

    def aligned(u, v, depth, uenv, venv):
        return (type_key(u, uenv, depth), type_key(v, venv, depth))

    def try_pair(u, v, depth, uenv, venv, path, proven):
        nonlocal seen
        key = aligned(u, v, depth, uenv, venv)
        if key in proven or key in path:
            return True
        seen += 1
        if seen > DUAL_PAIR_BUDGET:
            raise DepthExceeded(f"more than {DUAL_PAIR_BUDGET} type pairs examined")
        path = path | {key}

        def ok():
            proven.add(key)
            return True

        if isinstance(u, End) and isinstance(v, End):
            return ok()
        if isinstance(u, TypeVar) and isinstance(v, TypeVar):
            if uenv.get(u.ident, u.ident) == venv.get(v.ident, v.ident):
                return ok()
        if (isinstance(u, TIn) and isinstance(v, TOut)) or (
            isinstance(u, TOut) and isinstance(v, TIn)
        ):
            if (
                u.obl == v.cap
                and u.cap == v.obl
                and type_eq(u.payload, v.payload)
                and try_pair(u.cont, v.cont, depth, uenv, venv, path, proven)
            ):
                return ok()
        if isinstance(u, TRec) and isinstance(v, TRec) and u.index == v.index:
            mark = f"@{depth}"
            if try_pair(
                u.body, v.body, depth + 1,
                {**uenv, u.var: mark}, {**venv, v.var: mark}, path, proven,
            ):
                return ok()
        if isinstance(u, TRec) and u.index > 0:
            if try_pair(unfold(u), v, depth, uenv, venv, path, proven):
                return ok()
        if isinstance(v, TRec) and v.index > 0:
            if try_pair(u, unfold(v), depth, uenv, venv, path, proven):
                return ok()
        return False

    return try_pair(t, s, 0, {}, {}, frozenset(), set())


def free_names(p: Process) -> frozenset:
    if isinstance(p, (Idle, ProcVar)):
        return frozenset()
    if isinstance(p, Input):
        sub = frozenset() if isinstance(p.subject, int) else frozenset([p.subject])
        return sub | (free_names(p.body) - {Var(p.binder)})
    if isinstance(p, Output):
        s = set()
        if not isinstance(p.subject, int):
            s.add(p.subject)
        if not isinstance(p.payload, int):
            s.add(p.payload)
        return frozenset(s) | free_names(p.body)
    if isinstance(p, Par):
        return free_names(p.left) | free_names(p.right)
    if isinstance(p, New):
        bound = {Endpoint(p.channel, "+"), Endpoint(p.channel, "-")}
        return free_names(p.body) - bound
    if isinstance(p, Rec):
        return free_names(p.body)
    raise TypeError(p)


def free_proc_vars(p: Process) -> frozenset:
    if isinstance(p, Idle):
        return frozenset()
    if isinstance(p, ProcVar):
        return frozenset([p.ident])
    if isinstance(p, (Input, Output, New)):
        return free_proc_vars(p.body)
    if isinstance(p, Par):
        return free_proc_vars(p.left) | free_proc_vars(p.right)
    if isinstance(p, Rec):
        return free_proc_vars(p.body) - {p.var}
    raise TypeError(p)


def _all_idents(p: Process, acc: set):
    if isinstance(p, Idle):
        return
    if isinstance(p, ProcVar):
        acc.add(p.ident)
        return
    if isinstance(p, Input):
        _ident_of(p.subject, acc)
        acc.add(p.binder)
        _all_idents(p.body, acc)
        return
    if isinstance(p, Output):
        _ident_of(p.subject, acc)
        _ident_of(p.payload, acc)
        _all_idents(p.body, acc)
        return
    if isinstance(p, Par):
        _all_idents(p.left, acc)
        _all_idents(p.right, acc)
        return
    if isinstance(p, New):
        acc.add(p.channel)
        _all_idents(p.body, acc)
        return
    if isinstance(p, Rec):
        acc.add(p.var)
        _all_idents(p.body, acc)
        return
    raise TypeError(p)


def all_idents(p: Process) -> set:
    acc: set = set()
    _all_idents(p, acc)
    return acc


def free_type_vars(t: SessionType) -> frozenset:
    if isinstance(t, TypeVar):
        return frozenset([t.ident])
    if isinstance(t, (TIn, TOut)):
        return free_type_vars(t.payload) | free_type_vars(t.cont)
    if isinstance(t, TRec):
        return free_type_vars(t.body) - {t.var}
    return frozenset()


def subst_type_var(t: SessionType, target: str, s: SessionType) -> SessionType:
    if isinstance(t, TypeVar):
        return s if t.ident == target else t
    if isinstance(t, TRec):
        if t.var == target:
            return t
        if t.var in free_type_vars(s) and target in free_type_vars(t.body):
            fresh = t.var
            taken = free_type_vars(s) | free_type_vars(t.body)
            k = 0
            while fresh in taken:
                k += 1
                fresh = f"{t.var}{k}"
            body = subst_type_var(t.body, t.var, TypeVar(fresh))
            return TRec(t.index, fresh, subst_type_var(body, target, s))
        body = subst_type_var(t.body, target, s)
        return t if body is t.body else TRec(t.index, t.var, body)
    if isinstance(t, (TIn, TOut)):
        payload = subst_type_var(t.payload, target, s)
        cont = subst_type_var(t.cont, target, s)
        if payload is t.payload and cont is t.cont:
            return t
        return type(t)(t.obl, t.cap, payload, cont)
    return t


def unfold(t: SessionType) -> SessionType:
    if not isinstance(t, TRec):
        raise CannotUnfold(f"not a recursive type: {pretty_type(t)}")
    if t.index == 0:
        raise CannotUnfold("index is zero")
    return subst_type_var(t.body, t.var, TRec(t.index - 1, t.var, t.body))


def pretty_proc(p: Process) -> str:
    if isinstance(p, Idle):
        return "0"
    if isinstance(p, ProcVar):
        return p.ident
    if isinstance(p, Input):
        return f"{name_str(p.subject)}?({p.binder}).{_body(p.body)}"
    if isinstance(p, Output):
        return f"{name_str(p.subject)}!{name_str(p.payload)}.{_body(p.body)}"
    if isinstance(p, Par):
        left = pretty_proc(p.left)
        if isinstance(p.left, Par):
            left = f"({left})"
        return f"{left} | {pretty_proc(p.right)}"
    if isinstance(p, New):
        ann = ""
        if p.pos_type is not None:
            ann = f" : {pretty_type(p.pos_type)}"
            if p.neg_type is not None:
                ann += f" ~ {pretty_type(p.neg_type)}"
        return f"new {p.channel}{ann}.{_body(p.body)}"
    if isinstance(p, Rec):
        return f"rec[{pri_str(p.index)}] {p.var}.{_body(p.body)}"
    raise TypeError(p)


def _body(p: Process) -> str:
    s = pretty_proc(p)
    if isinstance(p, Par):
        return f"({s})"
    return s


def pretty_type(t: SessionType) -> str:
    if isinstance(t, End):
        return "end"
    if isinstance(t, Base):
        return "int"
    if isinstance(t, TypeVar):
        return t.ident
    if isinstance(t, (TIn, TOut)):
        op = "?" if isinstance(t, TIn) else "!"
        pay = pretty_type(t.payload)
        if isinstance(t.payload, (TIn, TOut, TRec)):
            pay = f"({pay})"
        return f"{op}[{pri_str(t.obl)},{pri_str(t.cap)}] {pay} . {pretty_type(t.cont)}"
    if isinstance(t, TRec):
        return f"rec[{pri_str(t.index)}] {t.var}. {pretty_type(t.body)}"
    raise TypeError(t)


def well_formed(t: SessionType, allow_free=()) -> tuple[bool, Violation | None]:
    def go(u, bound):
        if isinstance(u, (End, Base)):
            return None
        if isinstance(u, TypeVar):
            if u.ident not in bound and u.ident not in allow_free:
                return Violation("unbound type variable", u)
            return None
        if isinstance(u, (TIn, TOut)):
            if free_type_vars(u.payload):
                return Violation("payload type is not closed", u.payload)
            return go(u.payload, frozenset()) or go(u.cont, bound)
        if isinstance(u, TRec):
            chain = {u.var}
            body = u.body
            while isinstance(body, TRec):
                chain.add(body.var)
                body = body.body
            if isinstance(body, TypeVar) and body.ident in chain:
                return Violation("type is not contractive", u)
            return go(u.body, bound | {u.var})
        raise TypeError(u)

    v = go(t, frozenset())
    return (v is None, v)


def well_formed_by_payload(t: SessionType) -> tuple[bool, Violation | None]:
    """The preorder ``well_formed`` as it was before one fold gave what is
    free in every payload: each prefix asks ``free_type_vars`` of its
    payload, so payloads nested n deep cost O(n^2)."""
    bound: dict = {}  # type variable -> how many enclosing recs bind it
    todo: list = [t]  # subterms to check, and (strings) variables going out of scope
    while todo:
        u = todo.pop()
        if type(u) is str:
            bound[u] -= 1
        elif isinstance(u, TypeVar):
            if not bound.get(u.ident):
                return False, Violation("unbound type variable", u)
        elif isinstance(u, (TIn, TOut)):
            if free_type_vars(u.payload):
                return False, Violation("payload type is not closed", u.payload)
            todo += (u.cont, u.payload)
        elif isinstance(u, TRec):
            head, chain = u, []
            while isinstance(u, TRec):
                chain.append(u.var)
                u = u.body
            if isinstance(u, TypeVar) and u.ident in chain:
                return False, Violation("type is not contractive", head)
            for x in chain:
                bound[x] = bound.get(x, 0) + 1
            todo += (*chain, u)
        elif not isinstance(u, (End, Base)):
            raise TypeError(u)
    return True, None


def comms_by_scan(threads) -> list:
    """``(i, j)`` for thread i sending to thread j on its peer endpoint,
    senders ascending, then receivers: each sender against every thread."""
    out = []
    for i, t in enumerate(threads):
        if not isinstance(t, Output) or not isinstance(t.subject, Endpoint):
            continue
        a = t.subject
        for j, u in enumerate(threads):
            if j == i or not isinstance(u, Input) or not isinstance(u.subject, Endpoint):
                continue
            if u.subject.channel == a.channel and u.subject.polarity == co(a.polarity):
                out.append((i, j))
    return out


def obligation(sigma: dict, t: SessionType):
    if isinstance(t, (End, Base)):
        return INF
    if isinstance(t, TypeVar):
        if t.ident not in sigma:
            raise UnboundTypeVar(t.ident)
        return sigma[t.ident]
    if isinstance(t, (TIn, TOut)):
        return t.obl
    if isinstance(t, TRec):
        return obligation(sigma, t.body)
    raise TypeError(t)


def capability(t: SessionType):
    if isinstance(t, (TIn, TOut)):
        return t.cap
    if isinstance(t, TRec):
        return capability(t.body)
    raise NoAction(pretty_type(t))


def syntactic_dual(t: SessionType) -> SessionType:
    if isinstance(t, (End, Base, TypeVar)):
        return t
    if isinstance(t, TIn):
        return TOut(t.cap, t.obl, t.payload, syntactic_dual(t.cont))
    if isinstance(t, TOut):
        return TIn(t.cap, t.obl, t.payload, syntactic_dual(t.cont))
    if isinstance(t, TRec):
        return TRec(t.index, t.var, syntactic_dual(t.body))
    raise TypeError(t)


def type_key(t: SessionType, env=None, depth=0) -> str:
    if env is None:
        env = {}
    if isinstance(t, End):
        return "end"
    if isinstance(t, Base):
        return "int"
    if isinstance(t, TypeVar):
        return env.get(t.ident, f"'{t.ident}")
    if isinstance(t, (TIn, TOut)):
        op = "?" if isinstance(t, TIn) else "!"
        return (
            f"{op}[{t.obl},{t.cap}]"
            f"({type_key(t.payload, {}, 0)}).{type_key(t.cont, env, depth)}"
        )
    if isinstance(t, TRec):
        return (
            f"rec[{t.index}]@{depth}."
            f"{type_key(t.body, {**env, t.var: f'@{depth}'}, depth + 1)}"
        )
    raise TypeError(t)


def type_eq(t: SessionType, s: SessionType) -> bool:
    return type_key(t) == type_key(s)


def _serialize(p: Process) -> list:
    """The one-walk serialization of ``sessprog.semantics``: pieces, with
    each endpoint a slot ``(channel, polarity, text, free)``."""
    out: list = []
    counter = itertools.count()

    def name(v, env):
        if isinstance(v, Endpoint):
            tok = env.get(("c", v.channel))
            text = (f"'{v.channel}" if tok is None else tok) + v.polarity
            out.append((v.channel, v.polarity, text, tok is None))
        elif isinstance(v, Var):
            out.append(env.get(("v", v.ident), f"'{v.ident}"))
        else:
            out.append(str(v))

    def go(q, env):
        if isinstance(q, Idle):
            out.append("0")
        elif isinstance(q, ProcVar):
            out.append(env.get(("p", q.ident), f"'{q.ident}"))
        elif isinstance(q, Par):
            out.append("(")
            go(q.left, env)
            out.append("|")
            go(q.right, env)
            out.append(")")
        elif isinstance(q, Output):
            name(q.subject, env)
            out.append("!")
            name(q.payload, env)
            out.append(".")
            go(q.body, env)
        else:  # a binder
            tok = f"%{next(counter)}"
            if isinstance(q, Input):
                name(q.subject, env)
                bound, text = ("v", q.binder), f"?({tok})."
            elif isinstance(q, New):
                ann = "" if q.pos_type is None else ":" + type_key(q.pos_type)
                if ann and q.neg_type is not None:
                    ann += "~" + type_key(q.neg_type)
                bound, text = ("c", q.channel), f"new {tok}{ann}."
            else:
                bound, text = ("p", q.var), f"rec[{q.index}]{tok}."
            out.append(text)
            go(q.body, {**env, bound: tok})

    go(p, {})
    return out


def _entry(p: Process) -> tuple:
    """The ``sers`` entry that ``sessprog.semantics._serialize`` gives,
    built from ``_serialize``'s pieces and ``all_idents``: the joined
    text, the runs of text (a bound slot's text among them) joined
    between the free slots, each as ``(channel, polarity)``, the channels
    of those slots in order of first occurrence, and the identifiers as a
    set."""
    parts, run = [], []
    for x in _serialize(p):
        if type(x) is str or not x[3]:
            run.append(x if type(x) is str else x[2])
        else:
            parts += ("".join(run), x[:2])
            run = []
    parts.append("".join(run))
    free = [x[0] for x in parts[1::2]]
    text = "".join([x if type(x) is str else f"'{x[0]}{x[1]}" for x in parts])
    return text, tuple(parts), tuple(dict.fromkeys(free)), all_idents(p)


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<num>\d+)
  | (?P<id>[A-Za-z][A-Za-z0-9_]*)
  | (?P<sym>[?!.|()\[\],:~+\-=])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_KEYWORDS = frozenset({"new", "rec", "inf", "end", "int", "type"})


def _tokenize(text: str):
    tokens = []
    line, start = 1, 0  # the current line and the offset where it starts
    for m in _TOKEN_RE.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {lexeme!r}", line, m.start() - start + 1)
        if kind == "ws" and "\n" in lexeme:
            line += lexeme.count("\n")
            start = m.start() + lexeme.rfind("\n") + 1
        elif kind not in ("ws", "comment"):
            if kind == "id" and lexeme in _KEYWORDS:
                kind = lexeme
            tokens.append((kind, lexeme, line, m.start() - start + 1))
    tokens.append(("eof", "", line, len(text) - start + 1))
    return tokens


def _pos(tok):
    return (tok[2], tok[3])


class RecursiveParser:
    """The parser of ``sessprog.syntax`` as it was before it ran on
    explicit stacks: one method per grammar rule, each calling the
    others, so nesting depth is bounded by the recursion limit.  Its
    tokens are as they were before a symbol's kind was its lexeme: every
    symbol has kind ``"sym"``, and ``accept``/``expect`` also test the
    lexeme."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.aliases = {}

    # -- token helpers

    def peek(self):
        return self.tokens[self.i]  # ``next`` never moves past eof

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def accept(self, kind, value=None):
        tok = self.peek()
        if tok[0] == kind and (value is None or tok[1] == value):
            return self.next()
        return None

    def expect(self, kind, value=None, what=None):
        tok = self.accept(kind, value)
        if tok is None:
            got = self.peek()
            want = what or value or kind
            raise ParseError(
                f"expected {want!r}, found {got[1] or 'end of input'!r}",
                got[2], got[3], expected=(want,),
            )
        return tok

    def error(self, message, expected=()):
        tok = self.peek()
        raise ParseError(message, tok[2], tok[3], expected=expected)

    # -- programs

    def parse_program(self) -> Program:
        while self.peek()[0] == "type":
            self.next()
            name_tok = self.expect("id", what="alias name")
            name = name_tok[1]
            if not name[0].isupper():
                raise ParseError("type alias names start uppercase", name_tok[2], name_tok[3])
            if name in self.aliases:
                raise ParseError(f"duplicate type alias {name!r}", name_tok[2], name_tok[3])
            self.expect("sym", "=")
            self.aliases[name] = self.parse_type()
        proc = self.parse_proc()
        self.expect("eof", what="end of input")
        return Program(proc, self.aliases)

    def _name(self):
        tok = self.expect("id", what="name")
        if not tok[1][0].islower():
            raise ParseError("names are lowercase identifiers", tok[2], tok[3])
        sign = self.peek()
        if sign[0] == "sym" and sign[1] in "+-":
            self.next()
            return Endpoint(tok[1], sign[1])
        return Var(tok[1])

    def _value(self):
        tok = self.peek()
        if tok[0] == "num":
            self.next()
            return int(tok[1])
        return self._name()

    def _index(self):
        self.expect("sym", "[")
        tok = self.peek()
        if tok[0] == "inf":
            self.next()
            idx = INF
        else:
            idx = int(self.expect("num", what="index")[1])
        self.expect("sym", "]")
        return idx

    def _lower_id(self, what):
        tok = self.expect("id", what=what)
        if not tok[1][0].islower():
            raise ParseError(f"{what} identifiers start lowercase", tok[2], tok[3])
        return tok[1]

    def _upper_id(self, what):
        tok = self.expect("id", what=what)
        if not tok[1][0].isupper():
            raise ParseError(f"{what} identifiers start uppercase", tok[2], tok[3])
        return tok[1]

    def _priority(self):
        tok = self.peek()
        if tok[0] == "num":
            self.next()
            return int(tok[1])
        return self._lower_id("priority variable")

    # -- the recursive rules

    def parse_proc(self) -> Process:
        left = self.parse_prefix()
        if self.accept("sym", "|"):
            return Par(left, self.parse_proc(), pos=_pos(self.peek()))
        return left

    def _cont(self) -> Process:
        self.expect("sym", ".")
        return self.parse_prefix()

    def parse_prefix(self) -> Process:
        tok = self.peek()
        pos = _pos(tok)
        if self.accept("num", "0"):
            return Idle(pos=pos)
        if tok[0] == "sym" and tok[1] == "(":
            self.next()
            p = self.parse_proc()
            self.expect("sym", ")")
            return p
        if tok[0] == "new":
            self.next()
            chan = self._lower_id("channel")
            pos_type = neg_type = None
            if self.accept("sym", ":"):
                pos_type = self.parse_type()
                if self.accept("sym", "~"):
                    neg_type = self.parse_type()
            return New(chan, pos_type, neg_type, self._cont(), pos=pos)
        if tok[0] == "rec":
            self.next()
            idx = self._index()
            var = self._upper_id("process variable")
            return Rec(idx, var, self._cont(), pos=pos)
        if tok[0] == "id":
            if tok[1][0].isupper():
                self.next()
                return ProcVar(tok[1], pos=pos)
            subject = self._name()
            if self.accept("sym", "?"):
                self.expect("sym", "(")
                binder = self._lower_id("variable")
                self.expect("sym", ")")
                return Input(subject, binder, self._cont(), pos=pos)
            if self.accept("sym", "!"):
                payload = self._value()
                return Output(subject, payload, self._cont(), pos=pos)
            self.error("expected '?' or '!' after subject", expected=("?", "!"))
        if tok[0] == "num":
            self.error("only '0' denotes the idle process", expected=("0",))
        self.error("expected a process", expected=("process",))

    def parse_type(self) -> SessionType:
        tok = self.peek()
        if tok[0] == "end":
            self.next()
            return End()
        if tok[0] == "int":
            self.next()
            return Base()
        if tok[0] == "sym" and tok[1] == "(":
            self.next()
            t = self.parse_type()
            self.expect("sym", ")")
            return t
        if tok[0] == "sym" and tok[1] in "?!":
            self.next()
            self.expect("sym", "[")
            obl = self._priority()
            self.expect("sym", ",")
            cap = self._priority()
            self.expect("sym", "]")
            payload = self.parse_type()
            self.expect("sym", ".")
            cont = self.parse_type()
            cls = TIn if tok[1] == "?" else TOut
            return cls(obl, cap, payload, cont)
        if tok[0] == "rec":
            self.next()
            idx = self._index()
            var = self._lower_id("type variable")
            self.expect("sym", ".")
            return TRec(idx, var, self.parse_type())
        if tok[0] == "id":
            self.next()
            if tok[1][0].isupper():
                if tok[1] not in self.aliases:
                    raise ParseError(f"unknown type alias {tok[1]!r}", tok[2], tok[3])
                return self.aliases[tok[1]]
            return TypeVar(tok[1])
        self.error("expected a type", expected=("type",))


def _used_names(p: Process, gamma: dict) -> frozenset:
    """Free names of p, counting a free process variable as using the
    domain of its declared environment."""
    names = set(free_names(p))
    for x in free_proc_vars(p):
        if x in gamma:
            names |= set(gamma[x])
    return frozenset(names)


def split_env(delta: dict, left: Process, right: Process, gamma: dict):
    """``typecheck.split_env`` as it was when it walked both sides of the
    ``|`` itself."""
    if not delta:
        return {}, {}
    lnames = _used_names(left, gamma)
    rnames = _used_names(right, gamma)
    dl, dr = {}, {}
    for u, t in delta.items():
        if u in lnames and u in rnames:
            _fail("LinearityViolation", f"{name_str(u)} is used by both parallel components")
        if u in rnames:
            dr[u] = t
        else:
            if u not in lnames and not _discardable(t):
                _fail(
                    "UnusedLinearName",
                    f"{name_str(u)} : {tc.pretty_type(t)} is used by neither parallel component",
                )
            dl[u] = t
    return dl, dr


def check(sigma: dict, gamma: dict, delta: dict, p: Process, iota) -> tc.ClosedVerdict:
    """``typecheck.check`` as it was before its worklist: it hands the
    judgment to the recursive ``_check``."""
    constraints: list = []
    try:
        _check(sigma, gamma, dict(delta), p, iota, constraints)
    except _Fail as f:
        return tc.ClosedVerdict(False, constraints, [f.diag], None)
    return tc.ClosedVerdict(True, constraints, [], None)


def _check(sigma, gamma, delta, p, iota, out):
    """The typing rules by recursion, with separate input and output
    rules."""
    if isinstance(p, Idle):
        for u, t in delta.items():
            if not _discardable(t):
                _fail(
                    "UnusedLinearName",
                    f"{name_str(u)} : {tc.pretty_type(t)} left over at the idle process",
                    p.pos,
                )
        return

    if isinstance(p, ProcVar):
        expected = gamma.get(p.ident)
        if expected is None:
            _fail("RecShapeMismatch", f"unbound process variable {p.ident}", p.pos)
        for u, t in delta.items():
            if u not in expected:
                if not _discardable(t):
                    _fail(
                        "UnusedLinearName",
                        f"{name_str(u)} : {tc.pretty_type(t)} left over at {p.ident}",
                        p.pos,
                    )
                continue
            if not (isinstance(t, TypeVar) and t.ident == expected[u].ident):
                _fail(
                    "RecShapeMismatch",
                    f"{name_str(u)} has type {tc.pretty_type(t)} at {p.ident}, "
                    f"expected {tc.pretty_type(expected[u])}",
                    p.pos,
                )
        missing = [u for u in expected if u not in delta]
        if missing:
            _fail(
                "RecShapeMismatch",
                f"{p.ident} expects {', '.join(name_str(u) for u in missing)} in scope",
                p.pos,
            )
        return

    if isinstance(p, Input):
        u = p.subject
        t = delta.get(u)
        if t is None:
            _fail("SubjectTypeMismatch", f"no binding for {name_str(u)}", p.pos)
        if not isinstance(t, TIn):
            _fail(
                "SubjectTypeMismatch",
                f"{name_str(u)} : {tc.pretty_type(t)} cannot receive",
                p.pos,
            )
        beta = t.cap
        for v, tv in delta.items():
            if v != u:
                out.append(
                    Constraint(beta, _ob(sigma, tv, p.pos), f"t-input {name_str(u)}", p.pos)
                )
        rest = dict(delta)
        rest[u] = t.cont
        rest[Var(p.binder)] = t.payload
        _check(sigma, gamma, rest, p.body, iota, out)
        return

    if isinstance(p, Output):
        u = p.subject
        t = delta.get(u)
        if t is None:
            _fail("SubjectTypeMismatch", f"no binding for {name_str(u)}", p.pos)
        if not isinstance(t, TOut):
            _fail(
                "SubjectTypeMismatch",
                f"{name_str(u)} : {tc.pretty_type(t)} cannot send",
                p.pos,
            )
        beta = t.cap
        rest = dict(delta)
        if isinstance(p.payload, int):
            if not isinstance(t.payload, Base):
                _fail(
                    "SubjectTypeMismatch",
                    f"{name_str(u)} sends a literal but carries {tc.pretty_type(t.payload)}",
                    p.pos,
                )
        else:
            tv = rest.pop(p.payload, None)
            if tv is None:
                _fail(
                    "SubjectTypeMismatch",
                    f"payload {name_str(p.payload)} is not in scope",
                    p.pos,
                )
            if not tc.type_eq(tv, t.payload):
                _fail(
                    "SubjectTypeMismatch",
                    f"payload {name_str(p.payload)} : {tc.pretty_type(tv)} does not match "
                    f"carried type {tc.pretty_type(t.payload)}",
                    p.pos,
                )
        out.append(
            Constraint(
                beta, _ob(sigma, t.payload, p.pos), f"t-output payload of {name_str(u)}", p.pos
            )
        )
        for v, tv in rest.items():
            if v != u:
                out.append(
                    Constraint(beta, _ob(sigma, tv, p.pos), f"t-output {name_str(u)}", p.pos)
                )
        rest[u] = t.cont
        _check(sigma, gamma, rest, p.body, iota, out)
        return

    if isinstance(p, Par):
        dl, dr = split_env(delta, p.left, p.right, gamma)
        _check(sigma, gamma, dl, p.left, iota, out)
        _check(sigma, gamma, dr, p.right, iota, out)
        return

    if isinstance(p, New):
        pos_t = p.pos_type if p.pos_type is not None else End()
        neg_t = p.neg_type if p.neg_type is not None else tc.syntactic_dual(pos_t)
        for t in (pos_t, neg_t):
            ok, viol = tc.well_formed(t)
            if not ok:
                _fail("SubjectTypeMismatch", f"annotation on {p.channel}: {viol}", p.pos)
        if iota == 0:
            ok, path = tc.dual_strict_path(pos_t, neg_t)
            if not ok:
                _fail(
                    "DualityFailure",
                    f"types of {p.channel}+ and {p.channel}- are not strictly dual "
                    f"(mismatch at prefix path {list(path)})",
                    p.pos,
                )
        else:
            if not tc.dual_full(pos_t, neg_t):
                _fail(
                    "DualityFailure",
                    f"types of {p.channel}+ and {p.channel}- are not dual",
                    p.pos,
                )
        inner = dict(delta)
        inner[Endpoint(p.channel, "+")] = pos_t
        inner[Endpoint(p.channel, "-")] = neg_t
        _check(sigma, gamma, inner, p.body, iota, out)
        return

    if isinstance(p, Rec):
        if not p.index <= iota:
            _fail(
                "RecShapeMismatch",
                f"recursion index {p.index} exceeds the judgment index {iota}",
                p.pos,
            )
        opened: dict = {}
        expected: dict = {}
        sigma2 = dict(sigma)
        for u, t in delta.items():
            if _discardable(t):
                continue
            if not isinstance(t, TRec):
                _fail(
                    "RecShapeMismatch",
                    f"{name_str(u)} : {tc.pretty_type(t)} is not recursive at rec[{p.index}]{p.var}",
                    p.pos,
                )
            if t.index != p.index:
                _fail(
                    "RecShapeMismatch",
                    f"{name_str(u)} has recursion index {t.index}, process has {p.index}",
                    p.pos,
                )
            tv = f"{t.var}%{len(sigma2)}"
            body = tc.subst_type_var(t.body, t.var, TypeVar(tv))
            sigma2[tv] = _ob(sigma, t.body, p.pos)
            opened[u] = body
            expected[u] = TypeVar(tv)
        gamma2 = dict(gamma)
        gamma2[p.var] = expected
        _check(sigma2, gamma2, opened, p.body, iota, out)
        return

    raise TypeError(p)


def _residual_matches(s: CanonState, drop: int, want_kind: str, peer: Endpoint, budget: int):
    """Whether some state reachable from the residual offers ``want_kind``
    on ``peer``, and whether the search was cut.  A BFS in the order of
    ``reachable`` that stops at the first match; past ``budget`` states it
    admits no new ones but still examines those it holds, so its answers
    are those of ``reachable`` followed by a scan of every state."""
    threads = [te for i, te in enumerate(zip(s.threads, s.sers)) if i != drop]
    start = sem._make_state(s.anns, threads)
    cls = Output if want_kind == "!" else Input
    seen, queue, truncated = {start.key}, [start], False
    for st in queue:
        if any(isinstance(t, cls) and t.subject == peer for t in st.threads):
            return True, truncated
        for _label, succ in sem.step(st):
            if succ.key not in seen:
                if len(seen) >= budget:
                    truncated = True
                    continue
                seen.add(succ.key)
                queue.append(succ)
    return False, truncated


def oracle_dynamic(p: Process, iota: int = 2, max_states: int = 100_000):
    tc.require_closed(p)
    q = sem.approximant(p, iota) if sem.is_user_process(p) else p
    r = sem.reachable(sem.canonicalize(q), max_states=max_states)
    if r.truncated:
        raise prog.Truncated(f"more than {max_states} reachable states")
    explored = len(r.states)
    for st in r.states.values():
        for i, t in enumerate(st.threads):
            if not isinstance(t, (Input, Output)) or not isinstance(t.subject, Endpoint):
                continue
            kind = "!" if isinstance(t, Output) else "?"
            peer = Endpoint(t.subject.channel, co(t.subject.polarity))
            ok, trunc = _residual_matches(st, i, "?" if kind == "!" else "!", peer, max_states)
            if trunc and not ok:
                raise prog.Truncated(f"more than {max_states} residual states")
            if not ok:
                return prog.ProgressVerdict(
                    status="violated-dynamic",
                    evidence={
                        "trace": [lab.describe() for lab in sem.trace_to(r, st.key)],
                        "state": pretty_proc(sem.state_to_process(st)),
                        "prefix": f"{name_str(t.subject)}{kind}",
                    },
                    states_explored=explored,
                )
    return prog.ProgressVerdict(
        status="holds-dynamic-at-bound",
        evidence={"approxIndex": iota},
        states_explored=explored,
    )


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


CELLS = [_cell_send, _cell_two_step, _cell_loop, _cell_forwarder, _cell_delegate]
