"""Abstract syntax, parser and printer for a binary-session pi calculus
with priority-annotated session types.

Processes: idle, process variable, input, output, parallel composition,
session restriction (binds both endpoints), indexed recursion.  Session
types: end, type variable, priority-annotated input/output prefixes,
indexed recursion, plus a base sort for integer payloads.

Recursion indices are naturals or infinity; ``INF + 1 == INF`` and every
natural is below ``INF`` (we reuse ``math.inf``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

INF = math.inf

# An index is a natural number or INF; a priority is a natural number,
# a symbolic variable name, or INF (INF never appears in source text as
# a priority annotation, it only arises from obligation computation).
Index = float  # int | INF in practice
Priority = object  # int | str | INF


def pri_str(p) -> str:
    """A priority or a recursion index as written in source text."""
    return "inf" if p == INF else str(p)


def co(polarity: str) -> str:
    """The polarity involution: co('+') == '-' and vice versa."""
    if polarity == "+":
        return "-"
    if polarity == "-":
        return "+"
    raise ValueError(f"not a polarity: {polarity!r}")


# ---------------------------------------------------------------------------
# Names and values


@dataclass(frozen=True)
class Var:
    ident: str


@dataclass(frozen=True)
class Endpoint:
    channel: str
    polarity: str

    @property
    def peer(self) -> "Endpoint":
        return Endpoint(self.channel, co(self.polarity))


Name = Var | Endpoint
# A value is a Name or an integer literal (base payloads only).
Value = object


def name_str(n) -> str:
    if isinstance(n, Var):
        return n.ident
    if isinstance(n, Endpoint):
        return n.channel + n.polarity
    return str(n)  # integer literal


# ---------------------------------------------------------------------------
# Session types


@dataclass(frozen=True)
class End:
    pass


@dataclass(frozen=True)
class TypeVar:
    ident: str


@dataclass(frozen=True)
class Base:
    pass


@dataclass(frozen=True)
class TIn:
    obl: Priority
    cap: Priority
    payload: "SessionType"
    cont: "SessionType"


@dataclass(frozen=True)
class TOut:
    obl: Priority
    cap: Priority
    payload: "SessionType"
    cont: "SessionType"


@dataclass(frozen=True)
class TRec:
    index: Index
    var: str
    body: "SessionType"


SessionType = End | TypeVar | Base | TIn | TOut | TRec


# ---------------------------------------------------------------------------
# Processes

Pos = tuple  # (line, col), informational only


@dataclass(frozen=True)
class Idle:
    pos: Pos | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ProcVar:
    ident: str
    pos: Pos | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Input:
    subject: Name
    binder: str
    body: "Process"
    pos: Pos | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Output:
    subject: Name
    payload: Value
    body: "Process"
    pos: Pos | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Par:
    left: "Process"
    right: "Process"
    pos: Pos | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class New:
    channel: str
    pos_type: SessionType | None
    neg_type: SessionType | None
    body: "Process"
    pos: Pos | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Rec:
    index: Index
    var: str
    body: "Process"
    pos: Pos | None = field(default=None, compare=False, repr=False)


Process = Idle | ProcVar | Input | Output | Par | New | Rec


@dataclass(frozen=True)
class Program:
    process: Process
    type_aliases: dict = field(default_factory=dict, compare=False)


# ---------------------------------------------------------------------------
# Traversal kernel, one for processes and session types: every structural
# map, fold and binder-aware rename is written on these, and none recurses.

_WITH_BODY = frozenset({Input, Output, New, Rec, TRec})


def children(x) -> tuple:
    """The immediate subterms of a process or a session type, left to
    right: both sides of a ``|``, the payload and continuation of a
    prefix type, and the body of any other node that has one."""
    t = type(x)
    if t is Par:
        return (x.left, x.right)
    if t is TIn or t is TOut:
        return (x.payload, x.cont)
    return (x.body,) if t in _WITH_BODY else ()


def with_children(x, kids):
    """``x`` with its immediate subterms replaced by ``kids``; ``x``
    itself when every child is unchanged."""
    t = type(x)
    if t is Par:
        left, right = kids
        return x if left is x.left and right is x.right else Par(left, right, x.pos)
    if t is TIn or t is TOut:
        payload, cont = kids
        return x if payload is x.payload and cont is x.cont else t(x.obl, x.cap, payload, cont)
    if t in _WITH_BODY:
        (body,) = kids
        return x if body is x.body else replace(x, body=body)
    return x


def subterms(x):
    """``x`` and all its subterms in preorder, left before right."""
    stack = [x]
    while stack:
        y = stack.pop()
        yield y
        t = type(y)
        if t is Par:
            stack += (y.right, y.left)
        elif t is TIn or t is TOut:
            stack += (y.cont, y.payload)
        elif t in _WITH_BODY:
            stack.append(y.body)


def fold(f, x):
    """Fold a process or a session type bottom-up: ``f(y, *vals)`` gets
    each subterm ``y`` with the values of its children, left to right,
    and returns the value of ``y``."""
    order, todo = [], [x]
    while todo:  # preorder, right before left
        y = todo.pop()
        while True:
            order.append(y)
            t = type(y)
            if t is Par:
                todo.append(y.left)
                y = y.right
            elif t is TIn or t is TOut:
                todo.append(y.payload)
                y = y.cont
            elif t in _WITH_BODY:
                y = y.body
            else:
                break
    vals: list = []
    for y in reversed(order):  # every subterm after its children
        t = type(y)
        if t is Par or t is TIn or t is TOut:
            right = vals.pop()
            vals[-1] = f(y, vals[-1], right)
        elif t in _WITH_BODY:
            vals[-1] = f(y, vals[-1])
        else:
            vals.append(f(y))
    return vals[0]


_REBUILD = object()


def rewrite(f, x, env=()):
    """Rewrite a process or a session type top-down.  ``f(y, env)``
    returns ``(y2, env2)``: ``y2`` takes the place of ``y``, and its
    children are rewritten in turn under ``env2``, or left as they are
    when ``env2`` is None.  Nodes are visited in preorder, left before
    right, and a node whose children did not change is kept as it is."""
    out: list = []
    todo = [(x, env)]
    while todo:
        y, e = todo.pop()
        if e is _REBUILD:
            k = -1 if type(y) in _WITH_BODY else -2
            out[k:] = [with_children(y, out[k:])]
            continue
        y, e = f(y, e)
        t = type(y)
        if e is not None and t in _WITH_BODY:
            todo += ((y, _REBUILD), (y.body, e))
        elif e is not None and (t is Par or t is TIn or t is TOut):
            first, second = children(y)
            todo += ((y, _REBUILD), (second, e), (first, e))
        else:
            out.append(y)
    return out[0]


def map_values(f, p: Process, *args) -> Process:
    """``p`` with the subject and payload ``v`` of a prefix replaced by
    ``f(v, *args)``."""
    if isinstance(p, Input):
        s = f(p.subject, *args)
        return p if s is p.subject else replace(p, subject=s)
    if isinstance(p, Output):
        s, v = f(p.subject, *args), f(p.payload, *args)
        return p if s is p.subject and v is p.payload else replace(p, subject=s, payload=v)
    return p


# ---------------------------------------------------------------------------
# Free names / variables


def _free_at(x, first=frozenset(), second=frozenset()) -> frozenset:
    t = type(x)
    if t is ProcVar or t is TypeVar:
        return frozenset([x.ident])
    if t is Rec or t is TRec:
        return first - {x.var}
    if t is Input:
        first -= {Var(x.binder)}
        return first if isinstance(x.subject, int) else first | {x.subject}
    if t is Output:
        return first | {v for v in (x.subject, x.payload) if not isinstance(v, int)}
    if t is New:
        return first - {Endpoint(x.channel, "+"), Endpoint(x.channel, "-")}
    return first | second  # |, prefix types; the leaves have none


def free_names(x) -> frozenset:
    """What is free in a process or a session type.  For a process, its
    free names and the identifiers (strings) of its free process
    variables: input binds its variable, ``new a`` binds both endpoints
    a+ and a-, recursion binds a process variable only.  For a session
    type, its free type variables."""
    return fold(_free_at, x)


def free_children(x, kinds: tuple) -> tuple[frozenset, dict]:
    """What is free in ``x``, and the ``id`` of each subterm of ``x`` whose
    type is in ``kinds`` -> what is free in each of its children, left to
    right; from one fold."""
    found: dict = {}

    def at(y, *vals):
        if type(y) in kinds:
            found[id(y)] = vals
        return _free_at(y, *vals)

    return fold(at, x), found


# ---------------------------------------------------------------------------
# Substitutions


class _Undefined(Exception):
    """A substitution would capture a free name; the result is None."""


def subst_name(p: Process, target: str, repl) -> Process | None:
    """Capture-avoiding substitution of a name (or base literal) for the
    free occurrences of the variable ``target``.

    Returns None (Undefined) when ``repl`` is an endpoint that would be
    captured by a ``new`` binder; callers are expected to alpha-rename
    first.  Undefined is a value, not a fault.
    """
    var = Var(target)

    def sub(v):
        return repl if v == var else v

    def go(q, capturing):  # capturing: an enclosing ``new`` binds repl's channel
        q2 = map_values(sub, q)
        if q2 is not q and capturing:
            raise _Undefined  # (new c (c+!x.0))[c-/x] is undefined
        if isinstance(q, Input) and q.binder == target:
            return q2, None  # the subject is free, the body is in the binder's scope
        if isinstance(q, New) and isinstance(repl, Endpoint) and repl.channel == q.channel:
            capturing = True
        return q2, capturing

    try:
        return rewrite(go, p, False)
    except _Undefined:
        return None


def subst_proc(p: Process, target: str, q: Process) -> Process | None:
    """Capture-avoiding substitution of process ``q`` for the free
    occurrences of process variable ``target`` in ``p``.

    None (Undefined) when a free endpoint, free variable or free process
    variable of ``q`` would be captured by a binder in ``p``.
    """
    free = free_names(q)

    def go(r, capturing):  # capturing: some enclosing binder would capture q
        if isinstance(r, ProcVar):
            if r.ident != target:
                return r, None
            if capturing:
                raise _Undefined  # (new a X)[a+!b+.0/X] is undefined
            return q, None
        if isinstance(r, Rec):
            return r, None if r.var == target else capturing or r.var in free
        if isinstance(r, Input):
            return r, capturing or Var(r.binder) in free
        if isinstance(r, New):
            return r, capturing or any(
                isinstance(n, Endpoint) and n.channel == r.channel for n in free
            )
        return r, capturing

    try:
        return rewrite(go, p, False)
    except _Undefined:
        return None


def subst_type_var(t: SessionType, target: str, s: SessionType) -> SessionType:
    """Capture-avoiding substitution of type ``s`` for free occurrences of
    the type variable ``target``; shadowed binders are renamed on demand,
    in the same pass."""

    def go(u, env):  # env: type variable -> (replacement, its free variables)
        if isinstance(u, TypeVar):
            return env.get(u.ident, (u,))[0], None
        if isinstance(u, TRec):
            env = {x: r for x, r in env.items() if x != u.var}
            if not env:
                return u, None
            if any(u.var in fv for _r, fv in env.values()):
                body_fv = free_names(u.body)
                brought = frozenset().union(*(fv for x, (_r, fv) in env.items() if x in body_fv))
                if u.var in brought:  # rename the binder to keep what is brought in free
                    fresh, k = u.var, 0
                    while fresh in brought or fresh in body_fv:
                        k += 1
                        fresh = f"{u.var}{k}"
                    env[u.var] = (TypeVar(fresh), {fresh})
                    u = TRec(u.index, fresh, u.body)
        return u, env

    return rewrite(go, t, {target: (s, free_names(s))})


# ---------------------------------------------------------------------------
# Freshening

def _ident_of(v, acc: set):
    if isinstance(v, str):  # a process variable
        acc.add(v)
    elif isinstance(v, Var):
        acc.add(v.ident)
    elif isinstance(v, Endpoint):
        acc.add(v.channel)


def fresh_name(old: str, taken: dict) -> str:
    """The first of ``old``, ``old_1``, ``old_2``, ... not in ``taken``,
    which gains it.  A taken name maps to the last suffix given to it, so
    the search resumes there."""
    new, k = old, taken.get(old, 0)
    while new in taken:
        k += 1
        new = f"{old}_{k}"
    taken[old], taken[new] = k, 0
    return new


def rebind(q: Process, binder: str, env: dict, taken: dict):
    """Rename the ``binder`` field of ``q`` to its ``fresh_name`` in
    ``taken``; ``q`` and ``env`` change only when the name does."""
    old = getattr(q, binder)
    new = fresh_name(old, taken)
    if new == old:
        return q, env
    return replace(q, **{binder: new}), {**env, old: new}


def rename_value(v, venv: dict, cenv: dict):
    """A variable renamed through ``venv``, an endpoint's channel through
    ``cenv``; literals and unmapped names unchanged."""
    if isinstance(v, Var) and v.ident in venv:
        return Var(venv[v.ident])
    if isinstance(v, Endpoint) and v.channel in cenv:
        return Endpoint(cenv[v.channel], v.polarity)
    return v


def freshen(p: Process, reserved=(), free=None) -> Process:
    """Rename binders so every binder in the result is unique and distinct
    from every free name (``free``, what is free in ``p``, when the caller
    has it).  Binders whose names are not reused keep them, so a term
    whose binders clash with nothing is returned as it is, unrewritten."""
    seen = set(reserved)
    for n in free_names(p) if free is None else free:
        _ident_of(n, seen)
    binders = [q.binder if type(q) is Input else q.channel if type(q) is New else q.var
               for q in subterms(p) if type(q) in (Input, New, Rec)]
    if seen.isdisjoint(binders) and len(set(binders)) == len(binders):
        return p
    seen = dict.fromkeys(seen, 0)

    def go(q, env):  # env: the binders renamed so far, per kind
        venv, cenv, penv = env
        if isinstance(q, ProcVar):
            return (replace(q, ident=penv[q.ident]) if q.ident in penv else q), None
        if venv or cenv:
            q = map_values(rename_value, q, venv, cenv)
        if isinstance(q, Input):
            q, venv = rebind(q, "binder", venv, seen)
        elif isinstance(q, New):
            q, cenv = rebind(q, "channel", cenv, seen)
        elif isinstance(q, Rec):
            q, penv = rebind(q, "var", penv, seen)
        return q, (venv, cenv, penv)

    return rewrite(go, p, ({}, {}, {}))


# ---------------------------------------------------------------------------
# Pretty-printing


def pretty_proc(p: Process) -> str:
    out: list = []
    todo: list = [p]  # text pieces and subterms still to print, last first
    while todo:
        q = todo.pop()
        if isinstance(q, Par):
            todo += (q.right, " | ")
        elif isinstance(q, Input):
            out.append(f"{name_str(q.subject)}?({q.binder}).")
        elif isinstance(q, Output):
            out.append(f"{name_str(q.subject)}!{name_str(q.payload)}.")
        elif isinstance(q, New):
            ann = ""
            if q.pos_type is not None:
                ann = f" : {pretty_type(q.pos_type)}"
                if q.neg_type is not None:
                    ann += f" ~ {pretty_type(q.neg_type)}"
            out.append(f"new {q.channel}{ann}.")
        elif isinstance(q, Rec):
            out.append(f"rec[{pri_str(q.index)}] {q.var}.")
        else:  # a text piece, the idle process or a process variable
            out.append(q if type(q) is str else "0" if isinstance(q, Idle) else q.ident)
            continue
        # a | on the left of a | or as the body of a prefix is parenthesised
        body = q.left if isinstance(q, Par) else q.body
        todo += (")", body, "(") if isinstance(body, Par) else (body,)
    return "".join(out)


def pretty_type(t: SessionType) -> str:
    out: list = []
    conts: list = []  # continuations still to print, each with the text before it
    while True:
        if isinstance(t, (TIn, TOut)):
            nested = isinstance(t.payload, (TIn, TOut, TRec))
            op = "?" if isinstance(t, TIn) else "!"
            out.append(f"{op}[{pri_str(t.obl)},{pri_str(t.cap)}] {'(' if nested else ''}")
            conts.append((t.cont, ") . " if nested else " . "))
            t = t.payload
        elif isinstance(t, TRec):
            out.append(f"rec[{pri_str(t.index)}] {t.var}. ")
            t = t.body
        else:
            if not isinstance(t, (End, Base, TypeVar)):
                raise TypeError(t)
            out.append("end" if isinstance(t, End) else "int" if isinstance(t, Base) else t.ident)
            if not conts:
                return "".join(out)
            t, text = conts.pop()
            out.append(text)


# ---------------------------------------------------------------------------
# Lexer / parser


class ParseError(Exception):
    def __init__(self, message, line, col, expected=()):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<num>\d+)
  | (?P<id>[A-Za-z][A-Za-z0-9_]*)
  | (?P<punct>[?!.|()\[\],:~+\-=])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_KEYWORDS = frozenset({"new", "rec", "inf", "end", "int", "type"})
_TYPE_OPENERS = frozenset({"end", "int", "rec", "id", "(", "?", "!"})


def _tokenize(text: str):
    tokens = []
    line, start = 1, 0  # the current line and the offset where it starts
    for m in _TOKEN_RE.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {lexeme!r}", line, m.start() - start + 1)
        if kind == "ws" and "\n" in lexeme:
            line += lexeme.count("\n")
            start = m.start() + lexeme.rfind("\n") + 1
        elif kind not in ("ws", "comment"):
            if kind == "punct" or kind == "id" and lexeme in _KEYWORDS:
                kind = lexeme  # a symbol or keyword is its own terminal
            tokens.append((kind, lexeme, line, m.start() - start + 1))
    tokens.append(("eof", "", line, len(text) - start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.aliases = {}

    # -- token helpers

    def peek(self):
        return self.tokens[self.i]  # ``next`` never moves past eof

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def accept(self, kind):
        if self.tokens[self.i][0] == kind:
            return self.next()
        return None

    def expect(self, kind, what=None):
        tok = self.accept(kind)
        if tok is None:
            got = self.peek()
            want = what or kind
            raise ParseError(
                f"expected {want!r}, found {got[1] or 'end of input'!r}",
                got[2], got[3], expected=(want,),
            )
        return tok

    def error(self, message, expected=()):
        tok = self.peek()
        raise ParseError(message, tok[2], tok[3], expected=expected)

    # -- programs

    def parse_program(self) -> Program:
        while self.accept("type"):
            name_tok = self._ident("alias name", True, "type alias names start uppercase")
            name = name_tok[1]
            if name in self.aliases:
                raise ParseError(f"duplicate type alias {name!r}", name_tok[2], name_tok[3])
            self.expect("=")
            self.aliases[name] = self.parse_type()
        return Program(self.parse_proc(), self.aliases)

    # -- processes

    def parse_proc(self) -> Process:
        """A process: prefixes bind tighter than ``|``, which nests to the
        right.  One loop over a stack of what each pending term waits
        for, innermost last: a prefix its body, as ``(class, fields,
        pos)``; the left side of a ``|`` its right side, as ``(Par,
        (left,), None)``; an open ``(`` its ``)``, as ``(None, (), None)``."""
        stack: list = []
        while True:
            tok = self.tokens[self.i]
            if tok[0] == "num" and tok[1] == "0" or tok[0] == "id" and tok[1][0].isupper():
                self.next()
                p = Idle(pos=_pos(tok)) if tok[0] == "num" else ProcVar(tok[1], pos=_pos(tok))
            else:
                stack.append((*self._opening(tok), _pos(tok)))
                continue
            while True:  # p is complete: hand it to what waits for it
                if stack and stack[-1][0] not in (Par, None):
                    cls, fields, pos = stack.pop()
                    p = cls(*fields, p, pos=pos)
                elif self.accept("|"):
                    stack.append((Par, (p,), None))
                    break
                else:  # p ends a process: close the '|'s it ends, then its '('
                    pos = _pos(self.tokens[self.i])
                    while stack and stack[-1][0] is Par:
                        p = Par(stack.pop()[1][0], p, pos=pos)
                    if not stack:
                        return p
                    stack.pop()
                    self.expect(")")

    def _opening(self, tok) -> tuple:
        """Read the head of a prefix, up to and with its '.', as the class
        and fields of the node it builds; or an open ``(``, as None."""
        if tok[0] == "(":
            self.next()
            return None, ()
        if tok[0] == "new":
            self.next()
            chan = self._lower_id("channel")
            pos_type = neg_type = None
            if self.accept(":"):
                pos_type = self.parse_type()
                if self.accept("~"):
                    neg_type = self.parse_type()
            head = New, (chan, pos_type, neg_type)
        elif tok[0] == "rec":
            self.next()
            idx = self._index()
            var = self._ident("process variable", True, "process variable identifiers start uppercase")
            head = Rec, (idx, var[1])
        elif tok[0] == "id":
            subject = self._name()
            if self.accept("?"):
                self.expect("(")
                binder = self._lower_id("variable")
                self.expect(")")
                head = Input, (subject, binder)
            elif self.accept("!"):
                head = Output, (subject, self._value())
            else:
                self.error("expected '?' or '!' after subject", expected=("?", "!"))
        elif tok[0] == "num":
            self.error("only '0' denotes the idle process", expected=("0",))
        else:
            self.error("expected a process", expected=("process",))
        self.expect(".")
        return head

    def _ident(self, what, upper, message):
        """Read an identifier token: ``what`` names it when none comes, and
        ``message`` is the error when its first letter is not uppercase
        (``upper``) or not lowercase (not ``upper``)."""
        tok = self.expect("id", what=what)
        if tok[1][0].isupper() != upper:
            raise ParseError(message, tok[2], tok[3])
        return tok

    def _lower_id(self, what):
        return self._ident(what, False, f"{what} identifiers start lowercase")[1]

    def _name(self):
        tok = self._ident("name", False, "names are lowercase identifiers")
        sign = self.accept("+") or self.accept("-")
        return Endpoint(tok[1], sign[0]) if sign else Var(tok[1])

    def _value(self):
        tok = self.accept("num")
        return int(tok[1]) if tok else self._name()

    def _index(self):
        self.expect("[")
        idx = INF if self.accept("inf") else int(self.expect("num", what="index")[1])
        self.expect("]")
        return idx

    # -- session types

    def parse_type(self) -> SessionType:
        """A session type, in one loop over a stack of what each pending
        type waits for, innermost last: a prefix type first its payload
        and then, after the '.', its continuation; a ``rec`` its body; an
        open ``(`` its ``)``."""
        stack: list = []  # (class, *fields so far); (None,) for a '('
        while True:
            tok = self.tokens[self.i]
            if tok[0] not in _TYPE_OPENERS:
                self.error("expected a type", expected=("type",))
            self.next()
            if tok[0] == "(":
                stack.append((None,))
                continue
            if tok[0] == "?" or tok[0] == "!":
                self.expect("[")
                obl = self._priority()
                self.expect(",")
                cap = self._priority()
                self.expect("]")
                stack.append((TIn if tok[0] == "?" else TOut, obl, cap))
                continue
            if tok[0] == "rec":
                idx = self._index()
                var = self._lower_id("type variable")
                self.expect(".")
                stack.append((TRec, idx, var))
                continue
            if tok[0] == "end":
                t = End()
            elif tok[0] == "int":
                t = Base()
            elif tok[0] == "id" and tok[1][0].isupper():
                if tok[1] not in self.aliases:
                    raise ParseError(f"unknown type alias {tok[1]!r}", tok[2], tok[3])
                t = self.aliases[tok[1]]
            else:
                t = TypeVar(tok[1])
            while stack:  # t is complete: hand it to what waits for it
                cls, *fields = stack.pop()
                if cls is None:
                    self.expect(")")
                elif cls is TRec or len(fields) == 3:
                    t = cls(*fields, t)
                else:  # the payload: the continuation follows the '.'
                    stack.append((cls, *fields, t))
                    self.expect(".")
                    break
            else:
                return t

    def _priority(self):
        tok = self.accept("num")
        return int(tok[1]) if tok else self._lower_id("priority variable")


def _pos(tok):
    return (tok[2], tok[3])


def _parse(text: str, rule):
    """``rule`` of a parser on the whole of ``text``."""
    parser = _Parser(text)
    result = rule(parser)
    parser.expect("eof", what="end of input")
    return result


def parse_program(text: str) -> Program:
    """Parse a program: optional ``type NAME = T`` alias lines, then a
    process.  Aliases are spliced at parse time, so the returned AST is
    alias-free."""
    return _parse(text, _Parser.parse_program)


def parse_process(text: str) -> Process:
    return _parse(text, _Parser.parse_proc)


def parse_type(text: str) -> SessionType:
    return _parse(text, _Parser.parse_type)
