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

Every residual question is answered from the one exploration of the
whole process.  Let thread i of state s expose a prefix on endpoint e.
A residual path lifts to a whole-process path on which thread i stays
idle.  Conversely, thread i can move only by communicating on e, with a
partner that already offers the complementary prefix on the peer; so a
whole-process path that moves thread i first passes a state, reached
without moving it, that offers that prefix.  Hence the residual can
reach the complementary prefix exactly when s or a state reachable from
s offers it, and one backward fixpoint over the explored graph answers
every question.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .semantics import (
    CanonState,
    Truncated,
    approximant,
    canonicalize,
    exposed,
    is_user_process,
    reachable,
    state_to_process,
    trace_to,
)
from .syntax import INF, Endpoint, Process, Rec, name_str, pretty_proc
from .typecheck import check_closed, require_closed


@dataclass
class ProgressVerdict:
    status: str  # verified-static | violated-dynamic | holds-dynamic-at-bound | unknown
    evidence: dict = field(default_factory=dict)
    states_explored: int | None = None

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "evidence": self.evidence,
            "statesExplored": self.states_explored,
        }


def verify_static(p: Process) -> ProgressVerdict:
    """Sound but incomplete: type-check the 0-approximant at judgment
    index 0 (strict duality at restrictions).  Acceptance proves
    progress; rejection proves nothing."""
    verdict = check_closed(approximant(p, 0), 0)
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


def _numbering(s: CanonState) -> dict:
    """Each hoisted channel of ``s`` -> its number in the canonical key."""
    return {c: n for n, c in enumerate(s.anns)}


def _reachable_exposures(r) -> dict:
    """Key -> the prefixes exposed by that state or by one reachable from
    it, as (kind, channel number, polarity) in the key's numbering.  Equal
    keys may name their channels differently, so each edge translates
    through its successor object, which names channels as the edge's
    source does.  The graph may be cyclic: a state is queued again only
    when its set grows."""
    exposures, preds = {}, {}
    for key, st in r.states.items():
        number = _numbering(st)
        exposures[key] = {(kind, number[ep.channel], ep.polarity) for _, kind, ep in exposed(st.threads)}
    for st, _label, succ in r.edges:
        number = _numbering(st)
        across = {n: number[c] for n, c in enumerate(succ.anns) if c in number}
        preds.setdefault(succ.key, []).append((st.key, across))
    todo = list(exposures)
    while todo:
        key = todo.pop()
        for pred, across in preds.get(key, ()):
            grown = {(kind, across[n], pol) for kind, n, pol in exposures[key] if n in across}
            if not grown <= exposures[pred]:
                exposures[pred] |= grown
                todo.append(pred)
    return exposures


def _residual_matches(exposures: dict, s: CanonState, want_kind: str, peer: Endpoint) -> bool:
    """Can the residual of ``s`` reach a state exposing a ``want_kind``
    prefix on ``peer``?  Exactly when ``s`` or a state reachable from it
    does (see the module docstring)."""
    return (want_kind, _numbering(s)[peer.channel], peer.polarity) in exposures[s.key]


def oracle_dynamic(p: Process, iota: int = 2, max_states: int = 100_000) -> ProgressVerdict:
    """Decide the progress property exhaustively on the finite
    approximant at index ``iota`` (the process itself if its indices are
    already finite)."""
    require_closed(p)
    q = approximant(p, iota) if is_user_process(p) else p
    s0 = canonicalize(q)
    r = reachable(s0, max_states=max_states)
    if r.truncated:
        raise Truncated(f"more than {max_states} reachable states")
    explored = len(r.states)
    exposures = _reachable_exposures(r)
    for st in r.states.values():  # insertion order = BFS order
        for _, kind, ep in exposed(st.threads):
            if not _residual_matches(exposures, st, "?" if kind == "!" else "!", ep.peer):
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
        evidence={"approxIndex": "inf" if iota == INF else iota},  # JSON has no infinity
        states_explored=explored,
    )


def normal_form_shape(s: CanonState) -> bool:
    """Shape of well-typed normal forms: nothing but threads guarded by
    exhausted recursions."""
    return all(isinstance(t, Rec) and t.index == 0 for t in s.threads)
