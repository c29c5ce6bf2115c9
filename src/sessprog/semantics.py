"""Reduction semantics: structural-congruence canonicalization, one-step
reduction, exhaustive exploration, finite approximants and the
approximation preorder.

A canonical state is a flat multiset of sequential threads under one
block of hoisted restrictions.  Two states are equal iff their sorted
serializations (with bound names de-Bruijn-renumbered and restricted
channels renumbered by first occurrence) coincide, which decides
structural congruence on the hoisted fragment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .sestypes import type_key
from .syntax import (
    INF,
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
    TRec,
    Var,
    all_idents,
    children,
    co,
    freshen,
    map_values,
    name_str,
    pretty_proc,
    rebind,
    rename_value,
    rewrite,
    subst_name,
    subst_proc,
    subterms,
    with_children,
)


class NotUserProcess(Exception):
    pass


@dataclass(frozen=True)
class RedexLabel:
    kind: str  # "comm" | "rec"
    positions: tuple  # thread indices involved (two for comm, one for rec)
    channel: str | None = None
    payload: object = None

    def describe(self) -> str:
        if self.kind == "comm":
            return f"comm {self.channel} ! {name_str(self.payload)}"
        return f"rec @{self.positions[0]}"


@dataclass(frozen=True)
class CanonState:
    key: str
    channels: tuple = field(compare=False)
    threads: tuple = field(compare=False)
    # channel -> (pos_type|None, neg_type|None); informational, kept for
    # rebuilding processes and for the typing harness
    anns: tuple = field(compare=False, default=())

    def ann_map(self) -> dict:
        return {c: (t, s) for c, t, s in self.anns}

    def __repr__(self):
        return f"CanonState({pretty_proc(state_to_process(self))!r})"


def _serialize(p: Process) -> list:
    """The serialization of a sequential term as a list of pieces, with
    binders numbered in preorder.  Each endpoint is a slot ``(channel,
    polarity, text, free)`` whose text is its binder's token or
    ``'channel``; ``_make_state`` gives restricted channels numbers."""
    out: list = []
    binders = 0
    todo: list = [(p, {})]  # text pieces and (subterm, scope), last first

    def name(v, env):
        if isinstance(v, Endpoint):
            tok = env.get(("c", v.channel))
            text = (f"'{v.channel}" if tok is None else tok) + v.polarity
            out.append((v.channel, v.polarity, text, tok is None))
        elif isinstance(v, Var):
            out.append(env.get(("v", v.ident), f"'{v.ident}"))
        else:
            out.append(str(v))

    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        q, env = item
        if isinstance(q, Idle):
            out.append("0")
        elif isinstance(q, ProcVar):
            out.append(env.get(("p", q.ident), f"'{q.ident}"))
        elif isinstance(q, Par):
            out.append("(")
            todo += (")", (q.right, env), "|", (q.left, env))
        elif isinstance(q, Output):
            name(q.subject, env)
            out.append("!")
            name(q.payload, env)
            out.append(".")
            todo.append((q.body, env))
        else:  # a binder
            tok = f"%{binders}"
            binders += 1
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
            todo.append((q.body, {**env, bound: tok}))
    return out


def _make_state(chan_anns: dict, threads: list) -> CanonState:
    sers = [(t, _serialize(t)) for t in threads if not isinstance(t, Idle)]
    used = {x[0] for _t, pieces in sers for x in pieces if type(x) is tuple and x[3]}
    chans = {c: chan_anns[c] for c in chan_anns if c in used}
    # order threads by their channel-agnostic serialization, then number
    # the restricted channels by first occurrence in that order
    sers.sort(key=lambda tp: "".join([x if type(x) is str else x[2] for x in tp[1]]))
    chan_map: dict = {}
    for _t, pieces in sers:
        for x in pieces:
            if type(x) is tuple and x[0] in chans and x[0] not in chan_map:
                chan_map[x[0]] = f"#{len(chan_map)}"
    keys = sorted(
        "".join([
            x if type(x) is str else chan_map[x[0]] + x[1] if x[0] in chan_map else x[2]
            for x in pieces
        ])
        for _t, pieces in sers
    )
    return CanonState(
        key=f"nu[{len(chans)}] " + " || ".join(keys),
        channels=tuple(sorted(chans)),
        threads=tuple(t for t, _pieces in sers),
        anns=tuple((c, *chans[c]) for c in sorted(chans)),
    )


def _merge(anns: dict, procs: list) -> CanonState:
    """Flatten parallel composition, drop idle components and hoist the
    unguarded restrictions of ``procs`` next to the channels in ``anns``."""
    chan_anns = dict(anns)
    threads: list = []
    stack = procs[::-1]
    while stack:
        q = stack.pop()
        if isinstance(q, Par):
            stack += (q.right, q.left)
        elif isinstance(q, New):
            chan_anns[q.channel] = (q.pos_type, q.neg_type)
            stack.append(q.body)
        elif not isinstance(q, Idle):
            threads.append(q)
    return _make_state(chan_anns, threads)


def canonicalize(p: Process) -> CanonState:
    """Freshen binders, flatten parallel composition, drop idle
    components, hoist all unguarded restrictions and drop those whose
    endpoints are unused.  Idempotent and invariant under the structural
    congruence laws.  Freshening first keeps a restriction from being
    merged with a same-named one or capturing a received endpoint."""
    return _merge({}, [freshen(p)])


def state_to_process(s: CanonState) -> Process:
    body: Process = Idle()
    if s.threads:
        body = s.threads[-1]
        for t in reversed(s.threads[:-1]):
            body = Par(t, body)
    anns = s.ann_map()
    for c in reversed(s.channels):
        pos_t, neg_t = anns[c]
        body = New(c, pos_t, neg_t, body)
    return body


def is_user_process(p: Process) -> bool:
    return all(q.index == INF for q in subterms(p) if isinstance(q, Rec))


def approximant(p: Process, iota) -> Process:
    """Replace every infinite recursion index (in processes and in type
    annotations) with ``iota``; requires a user process."""
    if not is_user_process(p):
        raise NotUserProcess("finite recursion index in a user process")

    def go(q, env):
        if isinstance(q, Rec):
            q = replace(q, index=iota)
        elif isinstance(q, New):
            pos_t, neg_t = approximant_type(q.pos_type, iota), approximant_type(q.neg_type, iota)
            q = replace(q, pos_type=pos_t, neg_type=neg_t)
        return q, env

    return rewrite(go, p)


def _approximant_at(u, iota):
    if isinstance(u, TRec) and u.index == INF:
        u = TRec(iota, u.var, u.body)
    return u, iota


def approximant_type(t: SessionType | None, iota) -> SessionType | None:
    """``t`` with every infinite recursion index replaced by ``iota``; a
    missing annotation (None) has no subterms and stays None."""
    return rewrite(_approximant_at, t, iota)


def approx_leq(p, q) -> bool:
    """The approximation preorder on processes and on types: structural
    identity except recursion indices, pointwise smaller on the left.  A
    missing annotation (None) is related to None only."""
    todo = [(p, q)]
    while todo:
        p, q = todo.pop()
        if type(p) is not type(q):
            return False
        if isinstance(p, (Rec, TRec)):
            if not (p.index <= q.index and p.var == q.var):
                return False
        elif isinstance(p, New):
            if p.channel != q.channel:
                return False
            todo += ((p.pos_type, q.pos_type), (p.neg_type, q.neg_type))
        elif with_children(p, children(q)) != q:  # every other field equal
            return False
        todo += zip(children(p), children(q))
    return True


def _rename_clashing_news(p: Process, seen: set) -> Process:
    """Rename ``new`` binders whose channel name is already taken; needed
    because unfolding duplicates restriction binders and hoisting requires
    globally unique channels.  Other binders are left alone."""
    seen = dict.fromkeys(seen, 0)

    def go(q, cenv):  # cenv: the channels renamed so far
        if cenv:
            q = map_values(rename_value, q, {}, cenv)
        if isinstance(q, New):
            q, cenv = rebind(q, "channel", cenv, seen)
        return q, cenv

    return rewrite(go, p, {})


def step(s: CanonState) -> list[tuple[RedexLabel, CanonState]]:
    """All one-step reductions of a canonical state: communications
    between complementary prefixes on peer endpoints, and unfoldings of
    recursions with nonzero index (decremented unless infinite)."""
    out = []
    used = set(s.channels)
    for t in s.threads:
        used |= all_idents(t)
    anns = s.ann_map()

    for i, t in enumerate(s.threads):
        if isinstance(t, Rec) and t.index > 0:
            folded = Rec(t.index - 1, t.var, t.body)
            body = subst_proc(t.body, t.var, folded)
            if body is None:  # freshening guarantees this cannot happen
                raise RuntimeError("capture during recursion unfolding")
            body = _rename_clashing_news(body, set(used))
            threads = list(s.threads)
            threads[i] = body
            label = RedexLabel("rec", (i,))
            out.append((label, _merge(anns, threads)))

    for i, t in enumerate(s.threads):
        if not isinstance(t, Output) or not isinstance(t.subject, Endpoint):
            continue
        a = t.subject
        for j, u in enumerate(s.threads):
            if j == i or not isinstance(u, Input) or not isinstance(u.subject, Endpoint):
                continue
            if u.subject.channel != a.channel or u.subject.polarity != co(a.polarity):
                continue
            recv = subst_name(u.body, u.binder, t.payload)
            if recv is None:  # unique channel binders make this unreachable
                raise RuntimeError("capture during communication")
            threads = list(s.threads)
            threads[i] = t.body
            threads[j] = recv
            label = RedexLabel("comm", (i, j), channel=a.channel, payload=t.payload)
            out.append((label, _merge(anns, threads)))

    out.sort(key=lambda lr: (lr[0].kind, lr[0].positions))
    return out


def is_normal_form(s: CanonState) -> bool:
    return not step(s)


@dataclass
class Reachable:
    states: dict  # key -> CanonState
    truncated: bool
    edges: list  # (state, label, successor)
    parents: dict  # key -> (parent_key, label) for trace reconstruction


def reachable(s: CanonState, max_states: int = 100_000) -> Reachable:
    """Deterministic BFS over ``step``, deduplicating by canonical
    equality."""
    if max_states <= 0:
        raise ValueError("max_states must be positive")
    states = {s.key: s}
    parents: dict = {s.key: None}
    frontier = [s]
    edges = []
    truncated = False
    while frontier:
        nxt = []
        for st in frontier:
            for label, succ in step(st):
                edges.append((st, label, succ))
                if succ.key not in states:
                    if len(states) >= max_states:
                        truncated = True
                        continue
                    states[succ.key] = succ
                    parents[succ.key] = (st.key, label)
                    nxt.append(succ)
        frontier = nxt
    return Reachable(states=states, truncated=truncated, edges=edges, parents=parents)


def trace_to(r: Reachable, key: str) -> list:
    """Labels along the BFS tree path from the initial state to ``key``."""
    labels = []
    while r.parents[key] is not None:
        parent, label = r.parents[key]
        labels.append(label)
        key = parent
    labels.reverse()
    return labels
