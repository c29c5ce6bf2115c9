"""Session-type operations: well-formedness, unfolding, obligation and
capability, syntactic dualization, and the two duality checkers (strict
structural duality and full duality closed under unfolding)."""

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
    free_type_vars,
    pretty_type,
    subst_type_var,
)


class TypeError_(Exception):
    """Base for type-operation failures."""


class UnboundTypeVar(TypeError_):
    pass


class CannotUnfold(TypeError_):
    pass


class NoAction(TypeError_):
    pass


class DepthExceeded(TypeError_):
    """The duality pair budget was hit; an internal error, not a verdict."""


@dataclass(frozen=True)
class Violation:
    reason: str
    subterm: SessionType

    def __str__(self):
        return f"{self.reason}: {pretty_type(self.subterm)}"


def well_formed(t: SessionType, allow_free=()) -> tuple[bool, Violation | None]:
    """Check contractivity (no rec t1..rec tn.t1 chains), stratification
    (payload types closed) and that free type variables are declared."""

    def go(u, bound):
        if isinstance(u, (End, Base)):
            return None
        if isinstance(u, TypeVar):
            if u.ident not in bound and u.ident not in allow_free:
                return Violation("unbound type variable", u)
            return None
        if isinstance(u, (TIn, TOut)):
            if free_type_vars(u.payload):
                return Violation("payload type is not closed", u.payload)
            return go(u.payload, frozenset()) or go(u.cont, bound)
        if isinstance(u, TRec):
            chain = {u.var}
            body = u.body
            while isinstance(body, TRec):
                chain.add(body.var)
                body = body.body
            if isinstance(body, TypeVar) and body.ident in chain:
                return Violation("type is not contractive", u)
            return go(u.body, bound | {u.var})
        raise TypeError(u)

    v = go(t, frozenset())
    return (v is None, v)


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
    if isinstance(t, (End, Base)):
        return INF
    if isinstance(t, TypeVar):
        if t.ident not in sigma:
            raise UnboundTypeVar(t.ident)
        return sigma[t.ident]
    if isinstance(t, (TIn, TOut)):
        return t.obl
    if isinstance(t, TRec):
        # well defined because session types are contractive
        return obligation(sigma, t.body)
    raise TypeError(t)


def capability(t: SessionType):
    """Capability of the topmost action; NoAction on end/type variables."""
    if isinstance(t, (TIn, TOut)):
        return t.cap
    if isinstance(t, TRec):
        return capability(t.body)
    raise NoAction(pretty_type(t))


def syntactic_dual(t: SessionType) -> SessionType:
    """Swap inputs with outputs and each priority pair; the result is
    strictly dual to ``t``."""
    if isinstance(t, (End, Base, TypeVar)):
        return t
    if isinstance(t, TIn):
        return TOut(t.cap, t.obl, t.payload, syntactic_dual(t.cont))
    if isinstance(t, TOut):
        return TIn(t.cap, t.obl, t.payload, syntactic_dual(t.cont))
    if isinstance(t, TRec):
        return TRec(t.index, t.var, syntactic_dual(t.body))
    raise TypeError(t)


def type_key(t: SessionType, env=None, depth=0) -> str:
    """Serialization with rec binders de-Bruijn-leveled; equal keys mean
    alpha-equal types."""
    if env is None:
        env = {}
    if isinstance(t, End):
        return "end"
    if isinstance(t, Base):
        return t.kind
    if isinstance(t, TypeVar):
        return env.get(t.ident, f"'{t.ident}")
    if isinstance(t, (TIn, TOut)):
        op = "?" if isinstance(t, TIn) else "!"
        return (
            f"{op}[{t.obl},{t.cap}]"
            f"({type_key(t.payload, {}, 0)}).{type_key(t.cont, env, depth)}"
        )
    if isinstance(t, TRec):
        return (
            f"rec[{t.index}]@{depth}."
            f"{type_key(t.body, {**env, t.var: f'@{depth}'}, depth + 1)}"
        )
    raise TypeError(t)


def type_eq(t: SessionType, s: SessionType) -> bool:
    """Structural equality up to renaming of bound type variables."""
    return type_key(t) == type_key(s)


def dual_strict(t: SessionType, s: SessionType) -> bool:
    """Structural duality without the unfolding rule: end against end,
    matching variables, prefixes with swapped priority pairs and equal
    payloads, recursions with equal indices.  Priorities compare
    syntactically."""
    return dual_strict_path(t, s)[0]


def dual_strict_path(t: SessionType, s: SessionType):
    """Like dual_strict but also reports the path of prefix positions at
    which the first mismatch occurs (empty tuple on success)."""

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


DUAL_PAIR_BUDGET = 10_000


def dual_full(t: SessionType, s: SessionType) -> bool:
    """Duality with the unfolding rule: a pair is discharged structurally
    or by unfolding either side; revisited pairs are discharged
    coinductively (session types denote regular trees, so the reachable
    pair set is finite)."""
    seen = 0

    def aligned(u, v, depth, uenv, venv):
        # rename rec binders to depth markers so memo keys line up
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
        # d-unfold, either side
        if isinstance(u, TRec) and u.index > 0:
            if try_pair(unfold(u), v, depth, uenv, venv, path, proven):
                return ok()
        if isinstance(v, TRec) and v.index > 0:
            if try_pair(u, unfold(v), depth, uenv, venv, path, proven):
                return ok()
        return False

    return try_pair(t, s, 0, {}, {}, frozenset(), set())
