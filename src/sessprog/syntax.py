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
    kind: str = "int"


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
# Traversal kernel: structural maps, folds and binder-aware renames are
# written on these.  The hot folds free_names, free_proc_vars and
# all_idents keep their own dispatch, which is faster per call.


def children(p: Process) -> tuple:
    """The immediate subprocesses of ``p``, left to right."""
    if isinstance(p, Par):
        return (p.left, p.right)
    if isinstance(p, (Idle, ProcVar)):
        return ()
    return (p.body,)


def with_children(p: Process, kids) -> Process:
    """``p`` with its immediate subprocesses replaced by ``kids``; ``p``
    itself when every child is unchanged."""
    if isinstance(p, Par):
        left, right = kids
        return p if left is p.left and right is p.right else Par(left, right, p.pos)
    if isinstance(p, (Idle, ProcVar)):
        return p
    (body,) = kids
    return p if body is p.body else replace(p, body=body)


def subterms(p: Process):
    """``p`` and all its subprocesses in preorder, left before right;
    iterative, so arbitrarily deep terms do not hit the recursion limit."""
    stack = [p]
    while stack:
        q = stack.pop()
        yield q
        stack.extend(reversed(children(q)))


_REBUILD = object()


def map_proc(f, p: Process, env=()) -> Process:
    """Rewrite ``p`` top-down without recursion.  ``f(q, env)`` returns
    ``(q2, env2)``: ``q2`` takes the place of ``q``, and its children are
    rewritten in turn under ``env2``, or left as they are when ``env2``
    is None.  Nodes are visited in preorder, left before right, and a
    node whose children did not change is kept as it is."""
    out: list = []
    todo = [(p, env)]
    while todo:
        q, e = todo.pop()
        if e is _REBUILD:
            k = -2 if isinstance(q, Par) else -1
            out[k:] = [with_children(q, out[k:])]
        else:
            q, e = f(q, e)
            if e is None or isinstance(q, (Idle, ProcVar)):
                out.append(q)
            elif isinstance(q, Par):
                todo += ((q, _REBUILD), (q.right, e), (q.left, e))
            else:
                todo += ((q, _REBUILD), (q.body, e))
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


def type_children(t: SessionType) -> tuple:
    """The immediate subterms of a session type: payload and continuation
    of a prefix, the body of a recursion."""
    if isinstance(t, (TIn, TOut)):
        return (t.payload, t.cont)
    if isinstance(t, TRec):
        return (t.body,)
    return ()


def type_with_children(t: SessionType, kids) -> SessionType:
    """``t`` with its immediate subterms replaced; ``t`` itself when every
    child is unchanged."""
    if isinstance(t, (TIn, TOut)):
        payload, cont = kids
        if payload is t.payload and cont is t.cont:
            return t
        return type(t)(t.obl, t.cap, payload, cont)
    if isinstance(t, TRec):
        (body,) = kids
        return t if body is t.body else TRec(t.index, t.var, body)
    return t


def map_type(f, t: SessionType, *args) -> SessionType:
    """``t`` with each immediate subterm ``c`` replaced by ``f(c, *args)``."""
    return type_with_children(t, [f(c, *args) for c in type_children(t)])


# ---------------------------------------------------------------------------
# Free names / variables


def free_names(p: Process) -> frozenset:
    """Free names of a process.

    Input binds its variable, ``new a`` binds both endpoints a+ and a-,
    recursion binds a process variable only (never names).
    """
    if isinstance(p, (Idle, ProcVar)):
        return frozenset()
    if isinstance(p, Input):
        sub = frozenset() if isinstance(p.subject, int) else frozenset([p.subject])
        return sub | (free_names(p.body) - {Var(p.binder)})
    if isinstance(p, Output):
        s = set()
        if not isinstance(p.subject, int):
            s.add(p.subject)
        if not isinstance(p.payload, int):
            s.add(p.payload)
        return frozenset(s) | free_names(p.body)
    if isinstance(p, Par):
        return free_names(p.left) | free_names(p.right)
    if isinstance(p, New):
        bound = {Endpoint(p.channel, "+"), Endpoint(p.channel, "-")}
        return free_names(p.body) - bound
    if isinstance(p, Rec):
        return free_names(p.body)
    raise TypeError(p)


def free_proc_vars(p: Process) -> frozenset:
    if isinstance(p, Idle):
        return frozenset()
    if isinstance(p, ProcVar):
        return frozenset([p.ident])
    if isinstance(p, (Input, Output, New)):
        return free_proc_vars(p.body)
    if isinstance(p, Par):
        return free_proc_vars(p.left) | free_proc_vars(p.right)
    if isinstance(p, Rec):
        return free_proc_vars(p.body) - {p.var}
    raise TypeError(p)


def free_type_vars(t: SessionType) -> frozenset:
    if isinstance(t, TypeVar):
        return frozenset([t.ident])
    fv = frozenset().union(*map(free_type_vars, type_children(t)))
    return fv - {t.var} if isinstance(t, TRec) else fv


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
        return map_proc(go, p, False)
    except _Undefined:
        return None


def subst_proc(p: Process, target: str, q: Process) -> Process | None:
    """Capture-avoiding substitution of process ``q`` for the free
    occurrences of process variable ``target`` in ``p``.

    None (Undefined) when a free endpoint, free variable or free process
    variable of ``q`` would be captured by a binder in ``p``.
    """
    names, pvars = free_names(q), free_proc_vars(q)

    def go(r, capturing):  # capturing: some enclosing binder would capture q
        if isinstance(r, ProcVar):
            if r.ident != target:
                return r, None
            if capturing:
                raise _Undefined  # (new a X)[a+!b+.0/X] is undefined
            return q, None
        if isinstance(r, Rec):
            return r, None if r.var == target else capturing or r.var in pvars
        if isinstance(r, Input):
            return r, capturing or Var(r.binder) in names
        if isinstance(r, New):
            return r, capturing or any(
                isinstance(n, Endpoint) and n.channel == r.channel for n in names
            )
        return r, capturing

    try:
        return map_proc(go, p, False)
    except _Undefined:
        return None


def subst_type_var(t: SessionType, target: str, s: SessionType) -> SessionType:
    """Capture-avoiding substitution of type ``s`` for free occurrences of
    the type variable ``target``; shadowed binders are renamed on demand."""
    if isinstance(t, TypeVar):
        return s if t.ident == target else t
    if isinstance(t, TRec):
        if t.var == target:
            return t
        if t.var in free_type_vars(s) and target in free_type_vars(t.body):
            fresh = t.var
            taken = free_type_vars(s) | free_type_vars(t.body)
            k = 0
            while fresh in taken:
                k += 1
                fresh = f"{t.var}{k}"
            body = subst_type_var(t.body, t.var, TypeVar(fresh))
            return TRec(t.index, fresh, subst_type_var(body, target, s))
    return map_type(subst_type_var, t, target, s)


# ---------------------------------------------------------------------------
# Freshening

def _all_idents(p: Process, acc: set):
    if isinstance(p, Idle):
        return
    if isinstance(p, ProcVar):
        acc.add(p.ident)
        return
    if isinstance(p, Input):
        _ident_of(p.subject, acc)
        acc.add(p.binder)
        _all_idents(p.body, acc)
        return
    if isinstance(p, Output):
        _ident_of(p.subject, acc)
        _ident_of(p.payload, acc)
        _all_idents(p.body, acc)
        return
    if isinstance(p, Par):
        _all_idents(p.left, acc)
        _all_idents(p.right, acc)
        return
    if isinstance(p, New):
        acc.add(p.channel)
        _all_idents(p.body, acc)
        return
    if isinstance(p, Rec):
        acc.add(p.var)
        _all_idents(p.body, acc)
        return
    raise TypeError(p)


def _ident_of(v, acc: set):
    if isinstance(v, Var):
        acc.add(v.ident)
    elif isinstance(v, Endpoint):
        acc.add(v.channel)


def all_idents(p: Process) -> set:
    acc: set = set()
    _all_idents(p, acc)
    return acc


def rebind(q: Process, binder: str, env: dict, taken: set):
    """Rename the ``binder`` field of ``q`` to the first of ``name``,
    ``name_1``, ``name_2``, ... not in ``taken``, which gains it.  Returns
    ``q`` and ``env``, both extended only when the name changed."""
    old = getattr(q, binder)
    new, k = old, 0
    while new in taken:
        k += 1
        new = f"{old}_{k}"
    taken.add(new)
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


def freshen(p: Process, reserved=()) -> Process:
    """Rename binders so every binder in the result is unique and distinct
    from every free name.  Binders whose names are not reused keep them,
    so already-fresh terms come back unchanged."""
    seen = set(reserved)
    for n in free_names(p):
        _ident_of(n, seen)
    seen |= free_proc_vars(p)

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

    return map_proc(go, p, ({}, {}, {}))


# ---------------------------------------------------------------------------
# Pretty-printing


def pretty_proc(p: Process) -> str:
    if isinstance(p, Idle):
        return "0"
    if isinstance(p, ProcVar):
        return p.ident
    if isinstance(p, Input):
        return f"{name_str(p.subject)}?({p.binder}).{_body(p.body)}"
    if isinstance(p, Output):
        return f"{name_str(p.subject)}!{name_str(p.payload)}.{_body(p.body)}"
    if isinstance(p, Par):
        left = pretty_proc(p.left)
        if isinstance(p.left, Par):
            left = f"({left})"
        return f"{left} | {pretty_proc(p.right)}"
    if isinstance(p, New):
        ann = ""
        if p.pos_type is not None:
            ann = f" : {pretty_type(p.pos_type)}"
            if p.neg_type is not None:
                ann += f" ~ {pretty_type(p.neg_type)}"
        return f"new {p.channel}{ann}.{_body(p.body)}"
    if isinstance(p, Rec):
        return f"rec[{pri_str(p.index)}] {p.var}.{_body(p.body)}"
    raise TypeError(p)


def _body(p: Process) -> str:
    s = pretty_proc(p)
    if isinstance(p, Par):
        return f"({s})"
    return s


def pretty_type(t: SessionType) -> str:
    if isinstance(t, End):
        return "end"
    if isinstance(t, Base):
        return t.kind
    if isinstance(t, TypeVar):
        return t.ident
    if isinstance(t, (TIn, TOut)):
        op = "?" if isinstance(t, TIn) else "!"
        pay = pretty_type(t.payload)
        if isinstance(t.payload, (TIn, TOut, TRec)):
            pay = f"({pay})"
        return f"{op}[{pri_str(t.obl)},{pri_str(t.cap)}] {pay} . {pretty_type(t.cont)}"
    if isinstance(t, TRec):
        return f"rec[{pri_str(t.index)}] {t.var}. {pretty_type(t.body)}"
    raise TypeError(t)


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
  | (?P<sym>[?!.|()\[\],:~+\-=])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"new", "rec", "inf", "end", "int", "type"}


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", line, col)
        lexeme = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            if kind == "id" and lexeme in _KEYWORDS:
                kind = lexeme
            tokens.append((kind, lexeme, line, col))
        nl = lexeme.count("\n")
        if nl:
            line += nl
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        i = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, aliases=None):
        self.tokens = _tokenize(text)
        self.i = 0
        self.aliases = dict(aliases or {})

    # -- token helpers

    def peek(self, k=0):
        return self.tokens[min(self.i + k, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def accept(self, kind, value=None):
        tok = self.peek()
        if tok[0] == kind and (value is None or tok[1] == value):
            return self.next()
        return None

    def expect(self, kind, value=None, what=None):
        tok = self.accept(kind, value)
        if tok is None:
            got = self.peek()
            want = what or value or kind
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
        while self.peek()[0] == "type":
            self.next()
            name_tok = self.expect("id", what="alias name")
            name = name_tok[1]
            if not name[0].isupper():
                raise ParseError("type alias names start uppercase", name_tok[2], name_tok[3])
            if name in self.aliases:
                raise ParseError(f"duplicate type alias {name!r}", name_tok[2], name_tok[3])
            self.expect("sym", "=")
            self.aliases[name] = self.parse_type()
        proc = self.parse_proc()
        self.expect("eof", what="end of input")
        return Program(proc, self.aliases)

    # -- processes

    def parse_proc(self) -> Process:
        left = self.parse_prefix()
        if self.accept("sym", "|"):
            return Par(left, self.parse_proc(), pos=_pos(self.peek()))
        return left

    def _cont(self) -> Process:
        self.expect("sym", ".")
        return self.parse_prefix()

    def parse_prefix(self) -> Process:
        tok = self.peek()
        pos = _pos(tok)
        if self.accept("num", "0"):
            return Idle(pos=pos)
        if tok[0] == "sym" and tok[1] == "(":
            self.next()
            p = self.parse_proc()
            self.expect("sym", ")")
            return p
        if tok[0] == "new":
            self.next()
            chan = self._lower_id("channel")
            pos_type = neg_type = None
            if self.accept("sym", ":"):
                pos_type = self.parse_type()
                if self.accept("sym", "~"):
                    neg_type = self.parse_type()
            return New(chan, pos_type, neg_type, self._cont(), pos=pos)
        if tok[0] == "rec":
            self.next()
            idx = self._index()
            var = self._upper_id("process variable")
            return Rec(idx, var, self._cont(), pos=pos)
        if tok[0] == "id":
            if tok[1][0].isupper():
                self.next()
                return ProcVar(tok[1], pos=pos)
            subject = self._name()
            if self.accept("sym", "?"):
                self.expect("sym", "(")
                binder = self._lower_id("variable")
                self.expect("sym", ")")
                return Input(subject, binder, self._cont(), pos=pos)
            if self.accept("sym", "!"):
                payload = self._value()
                return Output(subject, payload, self._cont(), pos=pos)
            self.error("expected '?' or '!' after subject", expected=("?", "!"))
        if tok[0] == "num":
            self.error("only '0' denotes the idle process", expected=("0",))
        self.error("expected a process", expected=("process",))

    def _name(self):
        tok = self.expect("id", what="name")
        if not tok[1][0].islower():
            raise ParseError("names are lowercase identifiers", tok[2], tok[3])
        sign = self.peek()
        if sign[0] == "sym" and sign[1] in "+-":
            self.next()
            return Endpoint(tok[1], sign[1])
        return Var(tok[1])

    def _value(self):
        tok = self.peek()
        if tok[0] == "num":
            self.next()
            return int(tok[1])
        return self._name()

    def _index(self):
        self.expect("sym", "[")
        tok = self.peek()
        if tok[0] == "inf":
            self.next()
            idx = INF
        else:
            idx = int(self.expect("num", what="index")[1])
        self.expect("sym", "]")
        return idx

    def _lower_id(self, what):
        tok = self.expect("id", what=what)
        if not tok[1][0].islower():
            raise ParseError(f"{what} identifiers start lowercase", tok[2], tok[3])
        return tok[1]

    def _upper_id(self, what):
        tok = self.expect("id", what=what)
        if not tok[1][0].isupper():
            raise ParseError(f"{what} identifiers start uppercase", tok[2], tok[3])
        return tok[1]

    # -- session types

    def parse_type(self) -> SessionType:
        tok = self.peek()
        if tok[0] == "end":
            self.next()
            return End()
        if tok[0] == "int":
            self.next()
            return Base()
        if tok[0] == "sym" and tok[1] == "(":
            self.next()
            t = self.parse_type()
            self.expect("sym", ")")
            return t
        if tok[0] == "sym" and tok[1] in "?!":
            self.next()
            self.expect("sym", "[")
            obl = self._priority()
            self.expect("sym", ",")
            cap = self._priority()
            self.expect("sym", "]")
            payload = self.parse_type()
            self.expect("sym", ".")
            cont = self.parse_type()
            cls = TIn if tok[1] == "?" else TOut
            return cls(obl, cap, payload, cont)
        if tok[0] == "rec":
            self.next()
            idx = self._index()
            var = self._lower_id("type variable")
            self.expect("sym", ".")
            return TRec(idx, var, self.parse_type())
        if tok[0] == "id":
            self.next()
            if tok[1][0].isupper():
                if tok[1] not in self.aliases:
                    raise ParseError(f"unknown type alias {tok[1]!r}", tok[2], tok[3])
                return self.aliases[tok[1]]
            return TypeVar(tok[1])
        self.error("expected a type", expected=("type",))

    def _priority(self):
        tok = self.peek()
        if tok[0] == "num":
            self.next()
            return int(tok[1])
        return self._lower_id("priority variable")


def _pos(tok):
    return (tok[2], tok[3])


def parse_program(text: str) -> Program:
    """Parse a program: optional ``type NAME = T`` alias lines, then a
    process.  Aliases are spliced at parse time, so the returned AST is
    alias-free."""
    return _Parser(text).parse_program()


def parse_process(text: str, aliases=None) -> Process:
    parser = _Parser(text, aliases)
    proc = parser.parse_proc()
    parser.expect("eof", what="end of input")
    return proc


def parse_type(text: str, aliases=None) -> SessionType:
    parser = _Parser(text, aliases)
    t = parser.parse_type()
    parser.expect("eof", what="end of input")
    return t
