"""Session-type operations: well-formedness, unfolding, obligation and
capability, syntactic dualization, the structural duality rule and the
two checkers built on it (strict duality and full duality closed under
unfolding)."""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    INF,
    Base,
    End,
    SessionType,
    TIn,
    TOut,
    TRec,
    TypeVar,
    free_children,
    pretty_type,
    subst_type_var,
)


class UnboundTypeVar(Exception):
    pass


class CannotUnfold(Exception):
    pass


class NoAction(Exception):
    pass


class DepthExceeded(Exception):
    """The duality pair budget was hit; an internal error, not a verdict."""


@dataclass(frozen=True)
class Violation:
    reason: str
    subterm: SessionType

    def __str__(self):
        return f"{self.reason}: {pretty_type(self.subterm)}"


def well_formed(t: SessionType) -> tuple[bool, Violation | None]:
    """Check contractivity (no rec t1..rec tn.t1 chains), stratification
    (payload types closed) and that free type variables are declared."""
    prefixes: dict = {}  # id of each prefix: what is free in (payload, continuation), folded at need
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
            # a closed payload binds every variable in it, whatever is in scope
            if type(u.payload) is not End and type(u.payload) is not Base:  # those two need no fold
                prefixes = prefixes or free_children(t, (TIn, TOut))[1]
                if prefixes[id(u)][0]:
                    return False, Violation("payload type is not closed", u.payload)
            todo += (u.cont, u.payload)
        elif isinstance(u, TRec):  # the head of a maximal chain of recs, walked once
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


def unfold(t: SessionType) -> SessionType:
    """One unfolding of a recursive type; the index is decremented (INF
    stays INF).  Raises CannotUnfold on rec[0] and non-recursive types."""
    if not isinstance(t, TRec):
        raise CannotUnfold(f"not a recursive type: {pretty_type(t)}")
    if t.index == 0:
        raise CannotUnfold("index is zero")
    return subst_type_var(t.body, t.var, TRec(t.index - 1, t.var, t.body))


def obligation(sigma: dict, t: SessionType):
    """Urgency with which a value of type ``t`` must be used: INF for end
    and base types, the environment entry for a type variable, the first
    annotation of a prefix, and the body's obligation for a recursion."""
    while isinstance(t, TRec):  # ends because session types are contractive
        t = t.body
    if isinstance(t, (End, Base)):
        return INF
    if isinstance(t, TypeVar):
        if t.ident not in sigma:
            raise UnboundTypeVar(t.ident)
        return sigma[t.ident]
    if isinstance(t, (TIn, TOut)):
        return t.obl
    raise TypeError(t)


def capability(t: SessionType):
    """Capability of the topmost action; NoAction on end/type variables."""
    while isinstance(t, TRec):
        t = t.body
    if isinstance(t, (TIn, TOut)):
        return t.cap
    raise NoAction(pretty_type(t))


def syntactic_dual(t: SessionType) -> SessionType:
    """Swap inputs with outputs and each priority pair; the result is
    strictly dual to ``t`` unless ``t``'s spine ends in ``int``."""
    spine = []
    while isinstance(t, (TIn, TOut, TRec)):
        spine.append(t)
        t = t.body if isinstance(t, TRec) else t.cont
    for u in reversed(spine):
        if isinstance(u, TRec):
            t = TRec(u.index, u.var, t)
        else:
            t = (TOut if isinstance(u, TIn) else TIn)(u.cap, u.obl, u.payload, t)
    return t


def type_key(t: SessionType, env=None, depth=0) -> str:
    """Serialization with rec binders de-Bruijn-leveled; equal keys mean
    alpha-equal types."""
    out: list = []
    conts: list = []  # continuations still to serialize, innermost last
    env = env or {}
    while True:
        c = type(t)
        if c is TIn or c is TOut:
            out.append(f"{'?' if c is TIn else '!'}[{t.obl},{t.cap}](")
            conts.append((t.cont, env, depth))
            t, env, depth = t.payload, {}, 0
        elif c is TRec:
            out.append(f"rec[{t.index}]@{depth}.")
            env = {**env, t.var: f"@{depth}"}
            t, depth = t.body, depth + 1
        else:
            if c is TypeVar:
                out.append(env.get(t.ident, f"'{t.ident}"))
            elif c is End or c is Base:
                out.append("end" if c is End else "int")
            else:
                raise TypeError(t)
            if not conts:
                return "".join(out)
            out.append(").")
            t, env, depth = conts.pop()


def type_eq(t: SessionType, s: SessionType) -> bool:
    """Structural equality up to renaming of bound type variables."""
    return type_key(t) == type_key(s)


def dual_rule(u: SessionType, v: SessionType, depth: int, uenv: dict, venv: dict):
    """The structural duality rule on one pair, whose rec binders map to
    depth markers in ``uenv`` and ``venv``.  Returns True when the pair
    holds outright (end against end, variables bound at the same depth),
    its single premise ``(u', v', depth', uenv', venv')`` for dual
    prefixes with swapped priority pairs and equal payloads or for
    recursions with equal indices, and None when the pair fails.
    Priorities compare syntactically."""
    if isinstance(u, End) and isinstance(v, End):
        return True
    if isinstance(u, TypeVar) and isinstance(v, TypeVar):
        return uenv.get(u.ident, u.ident) == venv.get(v.ident, v.ident) or None
    if (isinstance(u, TIn) and isinstance(v, TOut)) or (
        isinstance(u, TOut) and isinstance(v, TIn)
    ):
        if u.obl != v.cap or u.cap != v.obl or not type_eq(u.payload, v.payload):
            return None
        return u.cont, v.cont, depth, uenv, venv
    if isinstance(u, TRec) and isinstance(v, TRec) and u.index == v.index:
        mark = f"@{depth}"
        return u.body, v.body, depth + 1, {**uenv, u.var: mark}, {**venv, v.var: mark}
    return None


def dual_strict(t: SessionType, s: SessionType) -> bool:
    """Structural duality without the unfolding rule."""
    return dual_strict_path(t, s)[0]


def dual_strict_path(t: SessionType, s: SessionType):
    """Like dual_strict but also reports the path of prefix positions at
    which the first mismatch occurs (empty tuple on success)."""
    pair, prefixes = (t, s, 0, {}, {}), 0
    while True:
        premise = dual_rule(*pair)
        if premise is True:
            return True, ()
        if premise is None:
            return False, tuple(range(prefixes))
        prefixes += isinstance(pair[0], (TIn, TOut))
        pair = premise


DUAL_PAIR_BUDGET = 10_000


def _pair_key(pair) -> tuple:
    u, v, depth, uenv, venv = pair
    return (type_key(u, uenv, depth), type_key(v, venv, depth))


def _premises(pair):
    """Lazily, the premise of ``pair`` under the structural rule, then
    under unfolding the left side, then the right side."""
    premise = dual_rule(*pair)
    if premise is not None:
        yield premise
    u, v, depth, uenv, venv = pair
    if isinstance(u, TRec) and u.index > 0:
        yield unfold(u), v, depth, uenv, venv
    if isinstance(v, TRec) and v.index > 0:
        yield u, unfold(v), depth, uenv, venv


def dual_full(t: SessionType, s: SessionType) -> bool:
    """Duality with the unfolding rule.  Every rule has one premise, so a
    depth-first search looks for a path of pairs that ends in one holding
    outright or returns to a pair on the current path (coinduction).  A
    pair whose premises all failed is never entered again; DepthExceeded
    past DUAL_PAIR_BUDGET distinct pairs."""
    root = (t, s, 0, {}, {})
    stack = [(_pair_key(root), _premises(root))]
    on_path, failed = {stack[0][0]}, set()
    while stack:
        key, premises = stack[-1]
        premise = next(premises, None)
        if premise is None:
            stack.pop()
            on_path.remove(key)
            failed.add(key)
            continue
        if premise is True:
            return True
        key = _pair_key(premise)
        if key in on_path:
            return True
        if key in failed:
            continue
        if len(on_path) + len(failed) >= DUAL_PAIR_BUDGET:
            raise DepthExceeded(f"more than {DUAL_PAIR_BUDGET} type pairs examined")
        on_path.add(key)
        stack.append((key, _premises(premise)))
    return False
