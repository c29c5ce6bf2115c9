"""Shared test utilities: corpus paths, a wall-clock deadline and the
subject-reduction re-typing harness.

The subject-reduction property is stated on open processes: a typed
process that reduces stays typed under some environment reachable by
context reduction.  For closed processes we strip the hoisted
restrictions, type the thread composition under the environment built
from the restriction annotations, and after each step search a small
context-reduction neighborhood of the parent state's environment for
one that re-types the successor.
"""

from __future__ import annotations

import pathlib
import signal
from collections import deque
from contextlib import contextmanager

from sessprog.semantics import CanonState, canonicalize, reachable
from sessprog.sestypes import syntactic_dual, type_key
from sessprog.syntax import INF, End, Endpoint, Idle, Par, Process
from sessprog.typecheck import check_open, context_reduce

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def corpus_process(name: str) -> Process:
    from sessprog.syntax import parse_program

    return parse_program((CORPUS / name).read_text()).process


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the body after ``seconds`` of wall time."""

    def expire(_signum, _frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def ann_delta(state: CanonState) -> dict:
    """Name environment induced by the hoisted restriction annotations."""
    d = {}
    for c, (tp, tn) in state.anns.items():
        tp = tp if tp is not None else End()
        tn = tn if tn is not None else syntactic_dual(tp)
        d[Endpoint(c, "+")] = tp
        d[Endpoint(c, "-")] = tn
    return d


def threads_proc(state: CanonState) -> Process:
    ts = list(state.threads)
    if not ts:
        return Idle()
    p = ts[-1]
    for t in reversed(ts[:-1]):
        p = Par(t, p)
    return p


def _key(d: dict) -> tuple:
    return tuple(sorted((str(k), type_key(v)) for k, v in d.items()))


def find_delta(start: dict, state: CanonState, iota, limit: int):
    """Breadth-first search over context_reduce from ``start`` for an
    environment typing the state's thread composition."""
    live = set(state.anns)
    base = {u: t for u, t in start.items() if u.channel in live}
    for u, t in ann_delta(state).items():
        base.setdefault(u, t)
    seen = {_key(base)}
    queue = deque([(base, 0)])
    while queue:
        d, depth = queue.popleft()
        if check_open(d, threads_proc(state), iota).ok:
            return d
        if depth >= limit:
            continue
        for d2 in context_reduce(d):
            k = _key(d2)
            if k not in seen:
                seen.add(k)
                queue.append((d2, depth + 1))
    return None


def subject_reduction_holds(p: Process, iota=INF, max_states: int = 20_000):
    """Every reachable state re-types under an environment obtained from
    its parent's by a few context reductions.  Returns (ok, reason)."""
    s0 = canonicalize(p)
    d0 = find_delta(ann_delta(s0), s0, iota, len(s0.anns) + 3)
    if d0 is None:
        return False, "initial state does not type"
    r = reachable(s0, max_states)
    delta_for = {s0.key: d0}
    for key, st in r.states.items():
        if key == s0.key:
            continue
        parent_key, label = r.parents[key]
        prev = delta_for[parent_key]
        d = find_delta(prev, st, iota, 2 * len(prev) + 3)
        if d is None:
            return False, f"no environment re-types after {label.describe()}"
        delta_for[key] = d
    return True, None
