"""The typing judgment for processes with priority-annotated session
types: syntax-directed checking, deterministic environment splitting,
priority-constraint generation, and a strict-inequality solver over
the naturals extended with infinity.

Priorities may be symbolic (lowercase identifiers in annotations); the
checker collects every ordering obligation as a constraint and the
solver decides satisfiability, returning either a minimal assignment
or a witness chain of contradictory constraints.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sestypes import (
    UnboundTypeVar,
    dual_full,
    dual_rule,
    dual_strict_path,
    obligation,
    subst_type_var,
    syntactic_dual,
    type_eq,
    unfold,
    well_formed,
)
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
    children,
    free_children,
    free_names,
    freshen,
    name_str,
    pretty_type,
    pri_str,
)


@dataclass(frozen=True)
class Constraint:
    lhs: object  # Priority: int | str | INF
    rhs: object
    origin: str  # rule name and subject
    pos: tuple | None = None

    def __str__(self):
        return f"{pri_str(self.lhs)} < {pri_str(self.rhs)}"


@dataclass(frozen=True)
class Diagnostic:
    rule: str
    message: str
    pos: tuple | None = None
    constraints: tuple = ()
    witness: tuple = ()

    def to_json(self) -> dict:
        d = {
            "rule": self.rule,
            "position": list(self.pos) if self.pos else None,
            "message": self.message,
            "constraints": [str(c) for c in self.constraints],
        }
        if self.witness:
            d["witness"] = [str(c) for c in self.witness]
        return d

    def __str__(self):
        loc = f"{self.pos[0]}:{self.pos[1]}: " if self.pos else ""
        extra = ""
        if self.witness:
            extra = " [" + ", ".join(str(c) for c in self.witness) + "]"
        return f"{loc}{self.rule}: {self.message}{extra}"


@dataclass(frozen=True)
class Assignment:
    values: dict

    def resolve(self, p):
        if isinstance(p, str):
            return self.values.get(p, 0)
        return p

    def satisfies(self, constraints) -> bool:
        return all(self.resolve(c.lhs) < self.resolve(c.rhs) for c in constraints)


@dataclass(frozen=True)
class CycleWitness:
    constraints: tuple


SolveResult = Assignment | CycleWitness


def solve(constraints) -> SolveResult:
    """Decide a set of strict inequalities over naturals with infinity.
    Constraints with rhs infinity always hold and are dropped; an
    infinite lhs against a finite rhs fails outright.  The rest form a
    difference-constraint system (x < y is x <= y-1) solved by longest
    path layering; failure is a positive cycle or a violated constant
    bound, reported as the witnessing chain."""
    uniq: dict = {}
    for c in constraints:
        uniq.setdefault((c.lhs, c.rhs), c)

    lowers = []  # (src var | None, amount, dst var, constraint)
    uppers = []  # (var, bound, constraint)
    val: dict = {}  # every variable, in order of first appearance
    for (l, r), c in uniq.items():
        if r == INF:
            continue
        if l == INF:
            return CycleWitness((c,))
        if isinstance(l, int) and isinstance(r, int):
            if not l < r:
                return CycleWitness((c,))
            continue
        val.update((v, 0) for v in (l, r) if isinstance(v, str))
        if isinstance(r, str):
            if isinstance(l, str):
                lowers.append((l, 1, r, c))
            else:
                lowers.append((None, l + 1, r, c))
        else:
            uppers.append((l, r - 1, c))

    pred: dict = dict.fromkeys(val)

    n = len(val)
    for it in range(n + 1):
        changed = None
        for s, a, d, c in lowers:
            base = val[s] if s is not None else 0
            if base + a > val[d]:
                val[d] = base + a
                pred[d] = (s, c)
                changed = d
        if changed is None:
            break
    else:
        # still relaxing after n passes: a positive cycle exists
        cur = changed
        for _ in range(n):
            cur = pred[cur][0]
        cycle, node = [], cur
        while True:
            s, c = pred[node]
            cycle.append(c)
            node = s
            if node == cur:
                break
        cycle.reverse()
        return CycleWitness(tuple(cycle))

    for v, bound, c in uppers:
        if val[v] > bound:
            chain, node = [c], v
            while node is not None and pred[node] is not None:
                s, c2 = pred[node]
                chain.append(c2)
                node = s
            chain.reverse()
            return CycleWitness(tuple(chain))

    return Assignment(val)


@dataclass
class ClosedVerdict:
    ok: bool
    constraints: list
    diagnostics: list
    solution: SolveResult | None

    @property
    def assignment(self):
        return self.solution if isinstance(self.solution, Assignment) else None

    @property
    def evidence(self) -> dict:
        """What the verdict rests on, as JSON: an acceptance's priority
        assignment and constraints, or a rejection's diagnostics."""
        if not self.ok:
            return {"diagnostics": [d.to_json() for d in self.diagnostics]}
        values = {} if self.assignment is None else dict(self.assignment.values)
        return {"assignment": values, "constraints": [str(c) for c in self.constraints]}


class _Fail(Exception):
    def __init__(self, diag: Diagnostic):
        self.diag = diag


def _fail(rule, message, pos=None):
    raise _Fail(Diagnostic(rule=rule, message=message, pos=pos))


def _discardable(t: SessionType) -> bool:
    # t-end; base values are exempt from linearity as well
    return isinstance(t, (End, Base))


def split_env(delta: dict, left_free, right_free, gamma: dict):
    """Distribute each binding to the side where the name occurs, given
    what is free in each side (``free_names``); a free process variable
    uses the domain of its declared environment.  A name used by both
    sides breaks linearity, a name used by neither goes left and must be
    discardable there."""
    lnames, rnames = (
        free.union(*(gamma[x] for x in free if x in gamma)) for free in (left_free, right_free)
    )
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
                    f"{name_str(u)} : {pretty_type(t)} is used by neither parallel component",
                )
            dl[u] = t
    return dl, dr


def _ob(sigma, t, pos):
    try:
        return obligation(sigma, t)
    except UnboundTypeVar as e:
        _fail("SubjectTypeMismatch", f"obligation undefined: {e}", pos)


def check(sigma: dict, gamma: dict, delta: dict, p: Process, iota, sides=None) -> ClosedVerdict:
    """Check the judgment with type-variable environment sigma, process
    environment gamma (process variable to expected name environment of
    type variables), and name environment delta, at judgment index iota.
    Returns the emitted constraints, with no solution: satisfiability is
    decided separately by solve.  The judgments still to check wait on a
    stack: each rule pushes its premises, the right side of a ``|``
    before its left.  What is free in the two sides of every ``|``, which
    ``split_env`` reads, is ``sides``, else ``free_children(p, (Par,))[1]``."""
    sides = free_children(p, (Par,))[1] if sides is None else sides
    out: list = []
    todo = [(sigma, gamma, dict(delta), p)]
    try:
        while todo:
            sigma, gamma, delta, p = todo.pop()
            if isinstance(p, (Idle, ProcVar)):  # a leaf: the idle process expects nothing
                where, expected = "the idle process", {}
                if isinstance(p, ProcVar):
                    where, expected = p.ident, gamma.get(p.ident)
                    if expected is None:
                        _fail("RecShapeMismatch", f"unbound process variable {where}", p.pos)
                for u, t in delta.items():
                    if u not in expected:
                        if not _discardable(t):
                            _fail(
                                "UnusedLinearName",
                                f"{name_str(u)} : {pretty_type(t)} left over at {where}",
                                p.pos,
                            )
                        continue
                    if not (isinstance(t, TypeVar) and t.ident == expected[u].ident):
                        _fail(
                            "RecShapeMismatch",
                            f"{name_str(u)} has type {pretty_type(t)} at {where}, "
                            f"expected {pretty_type(expected[u])}",
                            p.pos,
                        )
                missing = [u for u in expected if u not in delta]
                if missing:
                    _fail(
                        "RecShapeMismatch",
                        f"{where} expects {', '.join(name_str(u) for u in missing)} in scope",
                        p.pos,
                    )

            elif isinstance(p, (Input, Output)):  # t-input and t-output
                u, receive = p.subject, isinstance(p, Input)
                rule, subj, t = ("t-input" if receive else "t-output"), name_str(u), delta.get(u)
                if t is None:
                    _fail("SubjectTypeMismatch", f"no binding for {subj}", p.pos)
                if not isinstance(t, TIn if receive else TOut):
                    verb = "receive" if receive else "send"
                    _fail("SubjectTypeMismatch", f"{subj} : {pretty_type(t)} cannot {verb}", p.pos)
                rest = dict(delta)
                if not receive:  # a literal of the base sort, or a name sent away
                    if isinstance(p.payload, int):
                        if not isinstance(t.payload, Base):
                            _fail(
                                "SubjectTypeMismatch",
                                f"{subj} sends a literal but carries {pretty_type(t.payload)}",
                                p.pos,
                            )
                    else:
                        what, tv = f"payload {name_str(p.payload)}", rest.pop(p.payload, None)
                        if tv is None:
                            _fail("SubjectTypeMismatch", f"{what} is not in scope", p.pos)
                        if not type_eq(tv, t.payload):
                            _fail(
                                "SubjectTypeMismatch",
                                f"{what} : {pretty_type(tv)} does not match "
                                f"carried type {pretty_type(t.payload)}",
                                p.pos,
                            )
                    ob = _ob(sigma, t.payload, p.pos)
                    out.append(Constraint(t.cap, ob, f"{rule} payload of {subj}", p.pos))
                for v, tv in rest.items():
                    if v != u:
                        ob = _ob(sigma, tv, p.pos)
                        out.append(Constraint(t.cap, ob, f"{rule} {subj}", p.pos))
                rest[u] = t.cont
                if receive:
                    rest[Var(p.binder)] = t.payload
                todo.append((sigma, gamma, rest, p.body))

            elif isinstance(p, Par):
                dl, dr = split_env(delta, *sides[id(p)], gamma)
                todo += ((sigma, gamma, dr, p.right), (sigma, gamma, dl, p.left))

            elif isinstance(p, New):
                pos_t = p.pos_type if p.pos_type is not None else End()
                neg_t = p.neg_type if p.neg_type is not None else syntactic_dual(pos_t)
                end = pos_t
                while isinstance(end, (TIn, TOut, TRec)):  # to where the spine of pos_t ends
                    end = children(end)[-1]
                # the syntactic dual: well formed as pos_t is, strictly dual unless it ends in int
                by_dual = p.neg_type is None and not isinstance(end, Base)
                for t in (pos_t,) if by_dual else (pos_t, neg_t):
                    ok, viol = well_formed(t)
                    if not ok:
                        _fail("SubjectTypeMismatch", f"annotation on {p.channel}: {viol}", p.pos)
                if iota == 0 and not by_dual:
                    ok, path = dual_strict_path(pos_t, neg_t)
                    if not ok:
                        _fail(
                            "DualityFailure",
                            f"types of {p.channel}+ and {p.channel}- are not strictly dual "
                            f"(mismatch at prefix path {list(path)})",
                            p.pos,
                        )
                elif not (by_dual or dual_full(pos_t, neg_t)):
                    c = p.channel
                    _fail("DualityFailure", f"types of {c}+ and {c}- are not dual", p.pos)
                inner = dict(delta)
                inner[Endpoint(p.channel, "+")] = pos_t
                inner[Endpoint(p.channel, "-")] = neg_t
                todo.append((sigma, gamma, inner, p.body))

            elif isinstance(p, Rec):
                if not p.index <= iota:
                    _fail(
                        "RecShapeMismatch",
                        f"recursion index {p.index} exceeds the judgment index {iota}",
                        p.pos,
                    )
                opened: dict = {}
                expected = {}
                sigma2 = dict(sigma)
                for u, t in delta.items():
                    if _discardable(t):
                        continue
                    if not isinstance(t, TRec):
                        _fail(
                            "RecShapeMismatch",
                            f"{name_str(u)} : {pretty_type(t)} is not recursive"
                            f" at rec[{p.index}]{p.var}",
                            p.pos,
                        )
                    if t.index != p.index:
                        _fail(
                            "RecShapeMismatch",
                            f"{name_str(u)} has recursion index {t.index}, process has {p.index}",
                            p.pos,
                        )
                    # sigma2 grows with every binding along a path, so its size
                    # names the variable apart from the others in scope; '%'
                    # keeps it apart from the user's type variables
                    tv = f"{t.var}%{len(sigma2)}"
                    body = subst_type_var(t.body, t.var, TypeVar(tv))
                    sigma2[tv] = _ob(sigma, t.body, p.pos)
                    opened[u] = body
                    expected[u] = TypeVar(tv)
                gamma2 = dict(gamma)
                gamma2[p.var] = expected
                todo.append((sigma2, gamma2, opened, p.body))

            else:
                raise TypeError(p)
    except _Fail as f:
        return ClosedVerdict(False, out, [f.diag], None)
    return ClosedVerdict(True, out, [], None)


def balanced(delta: dict) -> bool:
    """Both endpoints of a channel present in the environment must carry
    dual types."""
    for u, t in delta.items():
        if isinstance(u, Endpoint) and u.polarity == "+":
            s = delta.get(u.peer)
            if s is not None and not dual_full(t, s):
                return False
    return True


def context_reduce(delta: dict) -> list:
    """One-step reductions of a name environment: unfold one recursive
    binding, or annihilate the top actions of one dual pair of peer
    endpoints."""
    out = []
    for u, t in delta.items():
        if isinstance(t, TRec) and t.index > 0:
            d2 = dict(delta)
            d2[u] = unfold(t)
            out.append(d2)
    for u, t in delta.items():
        if not (isinstance(u, Endpoint) and u.polarity == "+" and isinstance(t, (TIn, TOut))):
            continue
        s = delta.get(u.peer)
        if s is not None and dual_rule(t, s, 0, {}, {}) is not None:
            d2 = dict(delta)
            d2[u] = t.cont
            d2[u.peer] = s.cont
            out.append(d2)
    return out


def check_open(delta: dict, p: Process, iota, folded=None) -> ClosedVerdict:
    """Check a process against an explicit name environment (empty type
    variable and process environments) and solve the constraints.
    ``folded`` is ``free_children(p, (Par,))``, when the caller has it:
    freshening and the check read it, and fold again only a renamed ``p``."""
    free, sides = folded or free_children(p, (Par,))
    reserved = {u.ident if isinstance(u, Var) else u.channel for u in delta}
    q = freshen(p, reserved, free)
    res = check({}, {}, delta, q, iota, sides if q is p else None)
    if not res.ok:
        return res
    sol = solve(res.constraints)
    if isinstance(sol, CycleWitness):
        diag = Diagnostic(
            rule="UnsatisfiableConstraints",
            message="priority constraints are unsatisfiable",
            witness=sol.constraints,
            constraints=tuple(res.constraints),
        )
        return ClosedVerdict(False, res.constraints, [diag], sol)
    return ClosedVerdict(True, res.constraints, [], sol)


class NotClosed(Exception):
    """A program that must be closed has free names."""


def require_closed(p: Process, free=None) -> None:
    """``NotClosed`` if ``p`` (free names ``free``, if folded already) is open."""
    fv = [n for n in (free_names(p) if free is None else free) if not isinstance(n, str)]
    if fv:
        names = ", ".join(sorted(name_str(n) for n in fv))
        raise NotClosed(f"free names in a closed program: {names}")


def check_closed(p: Process, iota) -> ClosedVerdict:
    """Check a closed process; an open one raises ``NotClosed``.  One fold
    over ``p`` serves the closedness test, freshening and the check."""
    folded = free_children(p, (Par,))
    require_closed(p, folded[0])
    return check_open({}, p, iota, folded)
