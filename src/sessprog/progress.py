"""Progress verification: the static route through the type system on
the 0-approximant, the dynamic oracle that checks the reachability
based progress property on finite approximants, and the normal-form
shape check.

The progress property: whenever some reachable state exposes a
top-level prefix on an endpoint, the residual of that state (the other
threads) can reach a state exposing a complementary prefix on the peer
endpoint, without re-binding the channel.  Canonical states keep
channel names globally unique, so the no-re-binding side condition is
a plain name identity.

The residual search explores only the peer's component: the threads
linked to the peer's channel through shared free channels, endpoints
in payload position included.  A thread gains a channel only by
receiving it over a channel it already shares with the sender, and
unfolding a recursion adds only fresh restricted channels, so threads
in different components never interact.  The residual's reachable set
is the product of its components' reachable sets, and a prefix on the
peer can only ever be exposed by the peer's component.  The top-level
search still explores the whole process, so state counts and traces
are those of the whole process.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .semantics import (
    CanonState,
    _make_state,
    approximant,
    canonicalize,
    is_user_process,
    reachable,
    state_to_process,
    trace_to,
)
from .syntax import Endpoint, Input, Output, Process, Rec, co, free_names, name_str, pretty_proc
from .typecheck import check_closed


class NotClosed(Exception):
    pass


class Truncated(Exception):
    """The state bound was hit before the verdict was decided."""


@dataclass
class ProgressVerdict:
    status: str  # verified-static | violated-dynamic | holds-dynamic-at-bound | unknown
    evidence: dict = field(default_factory=dict)
    states_explored: int | None = None
    truncated: bool = False

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "evidence": self.evidence,
            "statesExplored": self.states_explored,
            "truncated": self.truncated,
        }


def _require_closed(p: Process) -> None:
    if free_names(p):
        raise NotClosed(", ".join(sorted(name_str(n) for n in free_names(p))))


def verify_static(p: Process) -> ProgressVerdict:
    """Sound but incomplete: type-check the 0-approximant at judgment
    index 0 (strict duality at restrictions).  Acceptance proves
    progress; rejection proves nothing."""
    _require_closed(p)
    q = approximant(p, 0)
    verdict = check_closed(q, 0)
    if verdict.ok:
        assignment = verdict.assignment
        return ProgressVerdict(
            status="verified-static",
            evidence={
                "assignment": {} if assignment is None else dict(assignment.values),
                "constraints": [str(c) for c in verdict.constraints],
            },
        )
    return ProgressVerdict(
        status="unknown",
        evidence={"diagnostics": [d.to_json() for d in verdict.diagnostics]},
    )


def _exposed(threads):
    """Top-level endpoint prefixes of a thread sequence: (thread index,
    kind, endpoint)."""
    for i, t in enumerate(threads):
        if isinstance(t, Output) and isinstance(t.subject, Endpoint):
            yield i, "!", t.subject
        elif isinstance(t, Input) and isinstance(t.subject, Endpoint):
            yield i, "?", t.subject


def _offers(threads, want_kind: str, peer: Endpoint) -> bool:
    return any(kind == want_kind and ep == peer for _i, kind, ep in _exposed(threads))


def _residual_matches(s: CanonState, drop: int, want_kind: str, peer: Endpoint, budget: int):
    """Can the residual reach a state exposing a ``want_kind`` prefix on
    ``peer``?  Only the threads linked to ``peer``'s channel through
    shared free channels are explored: the others can never interact
    with them (see the module docstring).  Channel names are globally
    unique, so no restriction in the residual can re-bind the channel."""
    rest = [t for i, t in enumerate(s.threads) if i != drop]
    chans = [{ep.channel for ep in free_names(t)} for t in rest]
    linked, reached, todo = set(), {peer.channel}, [peer.channel]
    while todo:
        c = todo.pop()
        for i, cs in enumerate(chans):
            if i not in linked and c in cs:
                linked.add(i)
                todo += cs - reached
                reached |= cs
    component = [t for i, t in enumerate(rest) if i in linked]
    if not component:
        return False, False
    if _offers(component, want_kind, peer):
        return True, False
    r = reachable(_make_state(s.ann_map(), component), max_states=budget)
    for st in r.states.values():
        if _offers(st.threads, want_kind, peer):
            return True, r.truncated
    return False, r.truncated


def oracle_dynamic(p: Process, iota: int = 2, max_states: int = 100_000) -> ProgressVerdict:
    """Decide the progress property exhaustively on the finite
    approximant at index ``iota`` (the process itself if its indices are
    already finite)."""
    _require_closed(p)
    q = approximant(p, iota) if is_user_process(p) else p
    s0 = canonicalize(q)
    r = reachable(s0, max_states=max_states)
    if r.truncated:
        raise Truncated(f"more than {max_states} reachable states")
    explored = len(r.states)
    for st in r.states.values():  # insertion order = BFS order
        for i, kind, ep in _exposed(st.threads):
            want = "?" if kind == "!" else "!"
            peer = Endpoint(ep.channel, co(ep.polarity))
            ok, trunc = _residual_matches(st, i, want, peer, max_states)
            if trunc and not ok:
                raise Truncated(f"more than {max_states} residual states")
            if not ok:
                return ProgressVerdict(
                    status="violated-dynamic",
                    evidence={
                        "trace": [lab.describe() for lab in trace_to(r, st.key)],
                        "state": pretty_proc(state_to_process(st)),
                        "prefix": f"{name_str(ep)}{kind}",
                    },
                    states_explored=explored,
                )
    return ProgressVerdict(
        status="holds-dynamic-at-bound",
        evidence={"approxIndex": iota},
        states_explored=explored,
    )


def normal_form_shape(s: CanonState) -> bool:
    """Shape of well-typed normal forms: nothing but threads guarded by
    exhausted recursions."""
    return all(isinstance(t, Rec) and t.index == 0 for t in s.threads)
