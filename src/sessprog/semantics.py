"""Reduction semantics: structural-congruence canonicalization, one-step
reduction, exhaustive exploration, finite approximants and the
approximation preorder.

A canonical state is a flat multiset of sequential threads under one
block of hoisted restrictions.  Two states are equal iff their sorted
serializations (with bound names de-Bruijn-renumbered and restricted
channels renumbered by first occurrence) coincide.  Equal keys imply
structural congruence, but not the converse: the sort still sees the
names of hoisted channels, so congruent states can get different keys
(``rec[3] X.(new a.(a+!a-.new b.X | X) | X)`` reaches 14 states and its
``|``-mirror 26).

A state carries, next to each thread, the entry one walk of the thread
yields: sort text, text runs and endpoint slots, free channels and
every identifier.  Threads are handed on by identity to successors, so
one exploration memoizes, by thread identity, what a thread turns into
(``_reduct``): a sender's continuation, a receiver's per payload, an
unfolding per choice of fresh names for its ``new`` binders.  A
successor is its parent's ``(thread, entry)`` pairs with those pieces
spliced in, and its key is the one a from-scratch build gives.

One reader gives the prefixes a state exposes (``exposed``) to ``step``,
the redex test ``is_normal_form`` and the progress oracle; the first
edge into a state is its BFS tree edge, which ``trace_to`` follows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain

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
    children,
    fresh_name,
    freshen,
    map_values,
    name_str,
    pretty_proc,
    rename_value,
    rewrite,
    subst_name,
    subst_proc,
    subterms,
    with_children,
)


class NotUserProcess(Exception):
    pass


class Truncated(Exception):
    """The state bound was hit before the answer was decided."""


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
    threads: tuple = field(compare=False)
    # channel -> (pos_type|None, neg_type|None) in the order of the channel
    # numbers of ``key``, for rebuilding processes, the typing harness and
    # translating the oracle's prefixes between states with equal keys
    anns: dict = field(compare=False)
    # per thread, in the order of ``threads``: its ``_serialize`` entry,
    # handed on by ``step`` so that a successor serializes only the
    # threads its reduction made
    sers: tuple = field(compare=False)

    def __repr__(self):
        return f"CanonState({pretty_proc(state_to_process(self))!r})"


def _serialize(p: Process) -> tuple:
    """The ``sers`` entry of a sequential term, from one walk: ``(text,
    parts, free, idents)``.  ``parts`` alternates runs of text with
    endpoint slots ``(channel, polarity, text, free)``, with binders
    numbered in preorder and each slot's text its binder's token or
    ``'channel``; ``text`` is ``parts`` joined, the channel-agnostic sort
    text; ``free`` holds the channels of the free slots in order of first
    occurrence and ``idents`` every name the term mentions or binds."""
    parts: list = []
    run: list = []  # the text since the last slot
    idents: dict = {}
    binders = 0
    todo: list = [(p, {})]  # text pieces and (subterm, scope), last first

    def name(v, env):
        if isinstance(v, Endpoint):
            idents[v.channel] = None
            tok = env.get(("c", v.channel))
            text = (f"'{v.channel}" if tok is None else tok) + v.polarity
            parts.extend(("".join(run), (v.channel, v.polarity, text, tok is None)))
            run.clear()
        elif isinstance(v, Var):
            idents[v.ident] = None
            run.append(env.get(("v", v.ident), f"'{v.ident}"))
        else:
            run.append(str(v))

    while todo:
        item = todo.pop()
        if type(item) is str:
            run.append(item)
            continue
        q, env = item
        if isinstance(q, Idle):
            run.append("0")
        elif isinstance(q, ProcVar):
            idents[q.ident] = None
            run.append(env.get(("p", q.ident), f"'{q.ident}"))
        elif isinstance(q, Par):
            run.append("(")
            todo += (")", (q.right, env), "|", (q.left, env))
        elif isinstance(q, Output):
            name(q.subject, env)
            run.append("!")
            name(q.payload, env)
            run.append(".")
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
            idents[bound[1]] = None
            run.append(text)
            todo.append((q.body, {**env, bound: tok}))
    parts.append("".join(run))
    return (
        "".join([x if type(x) is str else x[2] for x in parts]),
        tuple(parts),
        tuple(dict.fromkeys([x[0] for x in parts[1::2] if x[3]])),
        tuple(idents),
    )


def _make_state(chan_anns: dict, threads: list) -> CanonState:
    """The canonical state of the non-idle ``threads``, ``(process, sers
    entry)`` pairs, under ``chan_anns``."""
    # order threads by their channel-agnostic serialization, then number
    # the restricted channels by first free occurrence in that order
    sers = sorted(threads, key=lambda te: te[1][0])
    used = set().union(*[entry[2] for _t, entry in sers])
    chans = {c: chan_anns[c] for c in chan_anns if c in used}
    chan_map: dict = {}
    for _t, (_text, _parts, free, _idents) in sers:
        for c in free:
            if c in chans and c not in chan_map:
                chan_map[c] = f"#{len(chan_map)}"
    keys = sorted(
        text if chan_map.keys().isdisjoint(free) else "".join([
            x if type(x) is str else chan_map[x[0]] + x[1] if x[3] and x[0] in chan_map else x[2]
            for x in parts
        ])
        for _t, (text, parts, free, _idents) in sers
    )
    return CanonState(
        key=f"nu[{len(chans)}] " + " || ".join(keys),
        threads=tuple(t for t, _entry in sers),
        anns={c: chans[c] for c in chan_map},
        sers=tuple(entry for _t, entry in sers),
    )


def _flatten(p: Process) -> tuple:
    """Flatten the parallel composition of ``p``, drop its idle components
    and hoist its unguarded restrictions: the hoisted channels, each with
    its ``(pos_type, neg_type)``, and the threads left to right, each
    with its ``_serialize`` entry."""
    hoisted: dict = {}
    flat: list = []
    stack = [p]
    while stack:
        q = stack.pop()
        if isinstance(q, Par):
            stack += (q.right, q.left)
        elif isinstance(q, New):
            hoisted[q.channel] = (q.pos_type, q.neg_type)
            stack.append(q.body)
        elif not isinstance(q, Idle):
            flat.append((q, _serialize(q)))
    return hoisted, flat


def canonicalize(p: Process) -> CanonState:
    """Freshen binders, flatten parallel composition, drop idle
    components, hoist all unguarded restrictions and drop those whose
    endpoints are unused.  Idempotent and invariant under the structural
    congruence laws.  Freshening first keeps a restriction from being
    merged with a same-named one or capturing a received endpoint."""
    return _make_state(*_flatten(freshen(p)))


def state_to_process(s: CanonState) -> Process:
    body: Process = Idle()
    if s.threads:
        body = s.threads[-1]
        for t in reversed(s.threads[:-1]):
            body = Par(t, body)
    for c in sorted(s.anns, reverse=True):
        body = New(c, *s.anns[c], body)
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


def _rename_news(p: Process, names: tuple) -> Process:
    """``p`` with its ``new`` binders, in preorder, renamed to ``names``:
    an unfolding duplicates restriction binders, and hoisting requires
    globally unique channels.  Other binders are left alone."""
    names = iter(names)

    def go(q, cenv):  # cenv: the channels renamed so far
        if cenv:
            q = map_values(rename_value, q, {}, cenv)
        if isinstance(q, New):
            c = next(names)
            if c != q.channel:
                q, cenv = replace(q, channel=c), {**cenv, q.channel: c}
        return q, cenv

    return rewrite(go, p, {})


def _reduct(memo: dict, t: Process, way) -> tuple:
    """What ``t`` turns into, ``_flatten``ed, made once per ``memo`` (kept
    by ``t``'s identity, ``t`` pinned): a sender's continuation (``way``
    None), a receiver's with the payload ``way``, or a recursion's
    unfolding with its ``new`` binders renamed to ``way`` in preorder; for
    a recursion, ``way`` None (asked first) gives the unrenamed unfolding
    and its ``new`` binders' names."""
    ways = memo.setdefault(id(t), (t, {}))[1]
    if way not in ways:
        if isinstance(t, Output):
            ways[way] = _flatten(t.body)
        elif isinstance(t, Input):
            q = subst_name(t.body, t.binder, way)
            if q is None:  # unique channel binders make this unreachable
                raise RuntimeError("capture during communication")
            ways[way] = _flatten(q)
        elif way is None:
            q = subst_proc(t.body, t.var, Rec(t.index - 1, t.var, t.body))
            if q is None:  # freshening guarantees this cannot happen
                raise RuntimeError("capture during recursion unfolding")
            ways[None] = q, [r.channel for r in subterms(q) if isinstance(r, New)]
        else:
            ways[way] = _flatten(_rename_news(ways[None][0], way))
    return ways[way]


def _successor(s: CanonState, pairs: list, reduced: list) -> CanonState:
    """``s``, with pairs ``pairs``, where each ``(position, (hoisted,
    flat))`` of ``reduced``, in position order, replaces a thread."""
    chan_anns, threads, last = s.anns, [], 0
    for i, (hoisted, flat) in reduced:
        if hoisted:
            chan_anns = {**chan_anns, **hoisted}
        threads += pairs[last:i]
        threads += flat
        last = i + 1
    threads += pairs[last:]
    return _make_state(chan_anns, threads)


def exposed(threads) -> list:
    """The top-level endpoint prefixes of a thread sequence, in order, as
    ``(position, kind, endpoint)`` with kind ``"!"`` or ``"?"``."""
    return [(i, "!" if type(t) is Output else "?", t.subject) for i, t in enumerate(threads)
            if (type(t) is Output or type(t) is Input) and type(t.subject) is Endpoint]


def step(s: CanonState, memo: dict | None = None) -> list[tuple[RedexLabel, CanonState]]:
    """All one-step reductions of a canonical state, in ``(kind,
    positions)`` order: communications between complementary prefixes on
    peer endpoints, then unfoldings of recursions with nonzero index
    (decremented unless infinite); reducts come from ``memo``."""
    memo = {} if memo is None else memo
    out, pairs = [], list(zip(s.threads, s.sers))
    prefixes = exposed(s.threads)
    for i, kind, ep in prefixes:  # each output with the inputs on its peer endpoint
        if kind != "!":
            continue
        t = s.threads[i]
        for j, kind2, peer in prefixes:
            if kind2 == "?" and peer.channel == ep.channel and peer.polarity != ep.polarity:
                reduced = sorted([(i, _reduct(memo, t, None)), (j, _reduct(memo, s.threads[j], t.payload))])
                label = RedexLabel("comm", (i, j), channel=ep.channel, payload=t.payload)
                out.append((label, _successor(s, pairs, reduced)))
    used = None  # every identifier of the state, built at the first unfolding
    for i, t in enumerate(s.threads):
        if type(t) is Rec and t.index > 0:
            if used is None:
                used = dict.fromkeys(chain(s.anns, *[entry[3] for entry in s.sers]), 0)
            taken = used.copy()
            names = tuple(fresh_name(c, taken) for c in _reduct(memo, t, None)[1])
            out.append((RedexLabel("rec", (i,)), _successor(s, pairs, [(i, _reduct(memo, t, names))])))
    return out


def is_normal_form(s: CanonState) -> bool:
    """``step``'s redex test, which builds no successor: no recursion with
    nonzero index, and no output whose peer endpoint offers an input."""
    prefixes = exposed(s.threads)
    inputs = {ep for _, kind, ep in prefixes if kind == "?"}
    return not any(type(t) is Rec and t.index > 0 for t in s.threads) and not any(
        kind == "!" and ep.peer in inputs for _, kind, ep in prefixes)


@dataclass
class Reachable:
    states: dict  # key -> CanonState
    truncated: bool
    edges: list  # (state, label, successor); the first edge into a key is its BFS tree edge


def reachable(s: CanonState, max_states: int = 100_000) -> Reachable:
    """Deterministic BFS over ``step``, deduplicating by canonical
    equality.  One memo of reducts serves the whole exploration."""
    if max_states <= 0:
        raise ValueError("max_states must be positive")
    states, queue, edges, truncated, memo = {s.key: s}, [s], [], False, {}
    for st in queue:  # the states in the order they are kept: breadth first
        for label, succ in step(st, memo):
            edges.append((st, label, succ))
            if succ.key not in states:
                if len(states) >= max_states:
                    truncated = True
                else:
                    states[succ.key] = succ
                    queue.append(succ)
    return Reachable(states=states, truncated=truncated, edges=edges)


def trace_to(r: Reachable, key: str) -> list:
    """Labels along the BFS tree path from the initial state to ``key``."""
    first = {succ.key: (st.key, label) for st, label, succ in reversed(r.edges)}  # the first edge wins
    start, labels = next(iter(r.states)), []
    while key != start:
        key, label = first[key]
        labels.append(label)
    return labels[::-1]
