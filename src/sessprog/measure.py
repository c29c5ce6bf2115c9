"""Termination measure for processes with finite recursion indices.

``vcount(p, x)`` bounds how many copies of the process variable ``x``
full unfolding of ``p`` can produce; ``emeasure(p)`` bounds the number
of remaining reduction steps.  Both are exact enough that ``emeasure``
decreases by exactly 1 on a recursion unfolding and by exactly 2 on a
communication, so every finite-index process terminates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .semantics import CanonState, RedexLabel, Truncated, canonicalize, reachable
from .syntax import INF, Input, Output, Par, Process, ProcVar, Rec, fold, max_digits, subterms


class InfiniteIndex(Exception):
    """The measure is only defined for finite recursion indices."""


class TooLarge(Exception):
    """E or a V would have more digits than an int may have as text."""

    def __str__(self):
        return f"E or a V has more than {max_digits()} digits"


def _geom_sum(v: int, n: int) -> int:
    # sum_{k=0}^{n-1} v^k with the empty sum 0 and 0^0 = 1
    return n if v == 1 else (v**n - 1) // (v - 1)


def measures(p: Process) -> tuple[int, dict, dict]:
    """E of ``p``, V of each free process variable of ``p`` (absent
    means 0) and, for each ``rec`` of ``p`` by ``id``, V of its variable
    in its body, in one bottom-up fold.  Prefixes count 1 and parallel
    composition adds; a recursion of index n pays for n unfoldings of a
    body that may itself multiply, so it scales the E and the V of its
    body by the geometric sum of its own V.  TooLarge, told from sizes
    before a power is built, where a value would be too long to print."""
    own: dict = {}
    bits = max_digits() * math.log2(10)  # a value of at most this many bits prints

    def at(q, body=(0, None), right=None):  # (E, V or None: no variables)
        t = type(q)
        if t is Input or t is Output:
            return body[0] + 1, body[1]
        if t is Par:
            (e, w), (e2, v) = body, right
            return e + e2, {**v, **{x: n + v.get(x, 0) for x, n in w.items()}} if v and w else v or w
        if t is ProcVar:
            return 0, {q.ident: 1}
        if t is Rec:
            if q.index == INF:  # name the outermost one
                q = next(r for r in subterms(p) if isinstance(r, Rec) and r.index == INF)
                raise InfiniteIndex(f"measure undefined, infinite index at rec[inf] {q.var}")
            e, v = body[0], body[1] or {}
            own[id(q)] = w = v.get(q.var, 0)
            # w is printed, and the geometric sum holds w ** (index - 1)
            if w.bit_length() > bits or (q.index - 1) * (w.bit_length() - 1) > bits:
                raise TooLarge
            g = _geom_sum(w, q.index)
            e = (1 + e) * g
            if e.bit_length() > bits:  # this bounds every V too: V <= (E + 1) * occurrences
                raise TooLarge
            return e, {x: n * g for x, n in v.items() if x != q.var}
        return body  # idle, new

    e, v = fold(at, p)
    if e.bit_length() > bits:
        raise TooLarge
    return e, v or {}, own


def vcount(p: Process, x: str) -> int:
    """Multiplicity bound of the free process variable ``x`` in the full
    unfolding of ``p``."""
    return measures(p)[1].get(x, 0)


def emeasure(p: Process) -> int:
    """Upper bound on the number of reduction steps of ``p``."""
    return measures(p)[0]


def state_measure(s: CanonState, e=emeasure) -> int:
    """E of a state: the sum of ``e`` over its threads."""
    return sum(map(e, s.threads))


def expected_drop(label: RedexLabel) -> int:
    return 2 if label.kind == "comm" else 1


@dataclass(frozen=True)
class DecreaseFailure:
    state: CanonState
    label: RedexLabel
    before: int
    after: int


def check_decrease(p: Process, max_states: int = 100_000):
    """Walk the whole reachable graph and verify the exact measure drop on
    every edge.  Returns (ok, failures, truncated)."""
    s0 = canonicalize(p)
    r = reachable(s0, max_states=max_states)
    failures = []
    by_thread: dict = {}  # id -> E; ``r`` keeps every thread alive

    def e_of(t):
        if id(t) not in by_thread:
            by_thread[id(t)] = emeasure(t)
        return by_thread[id(t)]

    cache: dict = {}  # key -> E; a state reached again comes with new threads

    def m(st):
        if st.key not in cache:
            cache[st.key] = state_measure(st, e_of)
        return cache[st.key]

    for st, label, succ in r.edges:
        before, after = m(st), m(succ)
        if before - after != expected_drop(label):
            failures.append(DecreaseFailure(st, label, before, after))
    return (not failures, failures, r.truncated)


def longest_path(p: Process, max_states: int = 100_000) -> int:
    """Length of the longest reduction sequence; finite because the graph
    of a finite-index process is acyclic (the measure strictly drops).
    A process with an infinite index raises ``InfiniteIndex`` first."""
    measures(p)  # an infinite index can make the graph cyclic
    s0 = canonicalize(p)
    r = reachable(s0, max_states=max_states)
    if r.truncated:
        raise Truncated(f"more than {max_states} reachable states")
    succs: dict = {k: [] for k in r.states}
    for st, _label, succ in r.edges:
        succs[st.key].append(succ.key)
    depth: dict = {}
    stack = [s0.key]
    while stack:  # a state is done once all its successors are
        k = stack[-1]
        todo = [k2 for k2 in succs[k] if k2 not in depth]
        if todo:
            stack += todo
        else:
            depth[k] = 1 + max((depth[k2] for k2 in succs[k]), default=-1)
            stack.pop()
    return depth[s0.key]
