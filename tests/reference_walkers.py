"""The walkers of ``sessprog.syntax`` and ``sessprog.semantics`` as they
were before the traversal kernel, each with its own constructor
dispatch: the four-walk canonical key (``_thread_ser``,
``_channels_in_order``, ``_make_state``), ``canonicalize`` without
freshening, ``freshen``, ``approximant``, ``approx_leq``,
``_rename_clashing_news`` and the two substitutions.  Also the two
recursive measure formulas of ``sessprog.measure`` as they were before
E and V came from one walk: ``emeasure`` calls ``vcount`` under every
``rec``, so a chain of n nested ``rec`` walks the term about 2^n times.
And the two recursive duality checkers of ``sessprog.sestypes`` as they
were before they shared one structural rule: ``dual_full`` is a
backtracking search that forgets the pairs it has failed on, and it
counts every pair it re-enters against ``DUAL_PAIR_BUDGET``.

Test-only reference: ``tests/test_differential.py`` demands that the
kernel versions give byte-identical keys, terms and verdicts, and
equal measures, and identical duality verdicts and mismatch paths
wherever the reference finishes.
"""

from __future__ import annotations

from dataclasses import replace

from sessprog.measure import InfiniteIndex, _geom_sum
from sessprog.semantics import CanonState, NotUserProcess
from sessprog.sestypes import DUAL_PAIR_BUDGET, DepthExceeded, type_eq, type_key, unfold
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
    Process,
    ProcVar,
    Rec,
    SessionType,
    TIn,
    TOut,
    TRec,
    TypeVar,
    Var,
    _ident_of,
    free_names,
    free_proc_vars,
)


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
            return chan_map.get(v.channel, env.get(("c", v.channel), f"'{v.channel}")) + v.polarity
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
    """Restricted channels in AST preorder of their endpoint occurrences."""
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
        _channels_in_order(p.body, restricted, acc)
        return
    raise TypeError(p)


def _make_state(chan_anns: dict, threads: list) -> CanonState:
    threads = [t for t in threads if not isinstance(t, Idle)]
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
        channels=tuple(sorted(chans)),
        threads=tuple(threads),
        anns=tuple((c, *chans[c]) for c in sorted(chans)),
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
    return _make_state(chan_anns, threads)


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


def _rename_clashing_news(p: Process, seen: set) -> Process:
    """Rename ``new`` binders whose channel name is already taken; needed
    because unfolding duplicates restriction binders and hoisting requires
    globally unique channels.  Other binders are left alone."""

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
            name = q.channel
            if name in seen:
                k = 0
                while True:
                    k += 1
                    cand = f"{q.channel}_{k}"
                    if cand not in seen:
                        name = cand
                        break
                seen.add(name)
                return replace(q, channel=name, body=go(q.body, {**cenv, q.channel: name}))
            seen.add(name)
            return replace(q, body=go(q.body, cenv))
        raise TypeError(q)

    def ren(v, cenv):
        if isinstance(v, Endpoint) and v.channel in cenv:
            return Endpoint(cenv[v.channel], v.polarity)
        return v

    return go(p, {})


def _merge(anns: dict, threads: list) -> CanonState:
    chan_anns = dict(anns)
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

    for t in threads:
        walk(t)
    return _make_state(chan_anns, flat)


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
