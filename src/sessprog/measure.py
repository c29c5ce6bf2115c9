"""Termination measure for processes with finite recursion indices.

``vcount(p, x)`` bounds how many copies of the process variable ``x``
full unfolding of ``p`` can produce; ``emeasure(p)`` bounds the number
of remaining reduction steps.  Both are exact enough that ``emeasure``
decreases by exactly 1 on a recursion unfolding and by exactly 2 on a
communication, so every finite-index process terminates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .semantics import CanonState, RedexLabel, canonicalize, reachable, state_to_process
from .syntax import (
    INF,
    Idle,
    Input,
    New,
    Output,
    Par,
    Process,
    ProcVar,
    Rec,
)


class InfiniteIndex(Exception):
    """The measure is only defined for finite recursion indices."""


def _geom_sum(v: int, n: int) -> int:
    # sum_{k=0}^{n-1} v^k with the empty sum 0 and 0^0 = 1
    if n == 0:
        return 0
    if v == 1:
        return n
    return (v**n - 1) // (v - 1)


def vcount(p: Process, x: str) -> int:
    """Multiplicity bound of the free process variable ``x`` in the full
    unfolding of ``p``."""
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
    """Upper bound on reduction steps: prefixes count 1, parallel adds,
    and a recursion of index n pays for n unfoldings of a body that may
    itself multiply."""
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


def state_measure(s: CanonState) -> int:
    return emeasure(state_to_process(s))


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
    cache: dict = {}

    def m(st):
        if st.key not in cache:
            cache[st.key] = state_measure(st)
        return cache[st.key]

    for st, label, succ in r.edges:
        before, after = m(st), m(succ)
        if before - after != expected_drop(label):
            failures.append(DecreaseFailure(st, label, before, after))
    return (not failures, failures, r.truncated)


def longest_path(p: Process, max_states: int = 100_000) -> int:
    """Length of the longest reduction sequence; finite because the graph
    of a finite-index process is acyclic (the measure strictly drops)."""
    s0 = canonicalize(p)
    r = reachable(s0, max_states=max_states)
    if r.truncated:
        raise RuntimeError("state bound hit; longest path not determined")
    succs: dict = {k: [] for k in r.states}
    for st, _label, succ in r.edges:
        succs[st.key].append(succ.key)
    memo: dict = {}

    def depth(k):
        if k not in memo:
            memo[k] = 1 + max((depth(k2) for k2 in succs[k]), default=-1)
        return memo[k]

    return depth(s0.key)
