"""Differential test: the kernel-based walkers against the pre-kernel
walkers kept in ``reference_walkers.py``.

Generated programs never reuse a binder name, so on them the two must
agree byte for byte: reachable key sequences and edge counts,
approximants, the approximation preorder and the oracle's JSON.  The
name-clashing programs of ``_clashing`` exercise ``freshen``, the
unfolding's renaming of ``new`` binders and the canonical key of an
unfreshened thread list, where the two must agree as well.  The one-walk measures
must give the E and V of the recursive formulas on finite programs.
The duality checkers must give the verdicts and mismatch paths of the
recursive ones wherever those finish.  The folds, printers and keys of
the iterative kernel must give what the recursive walkers give on every
subterm of generated programs, and the type operations on every
subterm of ``gen_type`` types and their unfoldings and on types of any
shape, violations and exceptions included.  The parser on explicit
stacks must give the recursive parser's ASTs, positions included, alias
tables and parse errors, on valid and on broken texts; the worklist
type checker must give the recursive checker's constraints,
diagnostics and solutions.  The oracle, which answers every residual
question from its one exploration, must give the JSON of the oracle
that runs a fresh search over every residual thread for each question.
"""

import contextlib
import itertools
import json
import pathlib
import random
import re
from dataclasses import fields, is_dataclass, replace

import reference_walkers as ref
from sessprog import gen, progress, semantics, syntax, typecheck
from sessprog.gen import (
    gen_finite,
    gen_subst_pair,
    gen_type,
    gen_user,
    gen_well_typed,
    gen_well_typed_user,
)
from sessprog.measure import emeasure, state_measure, vcount
from sessprog.progress import Truncated, oracle_dynamic
from sessprog.semantics import (
    _flatten,
    _make_state,
    _rename_news,
    approximant,
    approx_leq,
    canonicalize,
    reachable,
    state_to_process,
)
from sessprog.sestypes import (
    DepthExceeded,
    NoAction,
    UnboundTypeVar,
    capability,
    dual_full,
    dual_strict_path,
    obligation,
    syntactic_dual,
    type_key,
    unfold,
    well_formed,
)
from sessprog.syntax import (
    INF,
    Base,
    End,
    Endpoint,
    Idle,
    Input,
    New,
    Output,
    Par,
    ProcVar,
    Rec,
    TIn,
    TOut,
    TRec,
    ParseError,
    TypeVar,
    Var,
    free_names,
    children,
    fresh_name,
    freshen,
    parse_program,
    pretty_proc,
    pretty_type,
    subst_type_var,
    subterms,
)
from sessprog.typecheck import NotClosed, check_closed

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

_PATCHES = (
    (semantics, ("_make_state", "_flatten", "canonicalize", "_rename_news",
                 "subst_name", "subst_proc", "approximant", "is_user_process")),
    (progress, ("canonicalize", "approximant", "is_user_process")),
)


@contextlib.contextmanager
def _reference(monkeypatch):
    """Run the library on the reference walkers."""
    with monkeypatch.context() as m:
        for module, names in _PATCHES:
            for name in names:
                m.setattr(module, name, getattr(ref, name))
        yield


def _exploration(p):
    r = reachable(semantics.canonicalize(p), max_states=300)
    return list(r.states), len(r.edges), r.truncated


def test_reachable_keys_match_reference(monkeypatch):
    rng = random.Random(2024)
    programs = [gen_finite(rng) for _ in range(300)]
    ours = [_exploration(p) for p in programs]
    with _reference(monkeypatch):
        theirs = [_exploration(p) for p in programs]
    assert ours == theirs
    assert sum(len(keys) for keys, _e, _t in ours) > 1000  # the corpus does reduce


def _oracle_json(p, iota=2, max_states=300, oracle=oracle_dynamic):
    try:
        return json.dumps(oracle(p, iota, max_states=max_states).to_json(), sort_keys=True)
    except Truncated as e:
        return f"truncated: {e}"


def test_approximants_and_oracle_match_reference(monkeypatch):
    rng = random.Random(7)
    programs = [gen_user(rng) for _ in range(100)] + [gen_well_typed_user(rng, cells=1) for _ in range(20)]
    ours = [(approximant(p, 2), _oracle_json(p)) for p in programs]
    with _reference(monkeypatch):
        theirs = [(ref.approximant(p, 2), _oracle_json(p)) for p in programs]
    assert ours == theirs
    assert sum('"violated-dynamic"' in j for _a, j in ours) >= 10
    for p in programs:
        for i in range(3):
            for j in range(3):
                q, s = approximant(p, i), approximant(p, j)
                assert approx_leq(q, s) == ref.approx_leq(q, s)
        assert approx_leq(p, programs[0]) == ref.approx_leq(p, programs[0])


def test_oracle_matches_the_full_residual_search():
    # the library answers each residual question from its one
    # exploration, the reference with a fresh search of every residual
    # thread; the verdict, trace, state, prefix and state count must not
    # change
    corpus = [syntax.parse_program(f.read_text()).process for f in sorted(CORPUS.glob("*.ssp"))]
    rng = random.Random(55)  # the corpus of criterion 5
    corpus += [gen_well_typed_user(rng, cells=1) for _ in range(40)]
    corpus += [gen_well_typed_user(rng, cells=2) for _ in range(10)]
    corpus += [gen_user(rng, depth=5) for _ in range(50)]
    rng = random.Random(8)
    seeded = [gen_well_typed_user(rng, cells=c) for c in (1, 2) for _ in range(20)]
    seeded += [gen_user(rng, depth=5) for _ in range(40)]
    cases = [(p, iota) for p in corpus for iota in (1, 2, 3)]
    cases += [(p, iota) for p in seeded for iota in (1, 2)]
    ours = [_oracle_json(p, iota, 50_000) for p, iota in cases]
    theirs = [_oracle_json(p, iota, 50_000, ref.oracle_dynamic) for p, iota in cases]
    assert ours == theirs
    assert sum('"violated-dynamic"' in j for j in ours) >= 50
    assert sum('"holds-dynamic-at-bound"' in j for j in ours) >= 300


def _clashing(rng, depth, chans=(), vars_=()):
    """A process whose binders reuse a few names, across kinds too (a
    variable and a channel may both be called ``a``)."""
    opts = ["idle", "par", "new", "rec", "pvar"]
    if chans or vars_:
        opts += ["input", "output"]
    k = rng.choice(opts) if depth > 0 else "idle"
    if k == "idle":
        return Idle()
    if k == "pvar":
        return ProcVar(rng.choice("XY"))
    if k == "par":
        return Par(_clashing(rng, depth - 1, chans, vars_), _clashing(rng, depth - 1, chans, vars_))
    if k == "new":
        a = rng.choice("abx")
        return New(a, None, None, _clashing(rng, depth - 1, chans + (a,), vars_))
    if k == "rec":
        return Rec(rng.randint(0, 2), rng.choice("XY"), _clashing(rng, depth - 1, chans, vars_))
    names = [Endpoint(c, s) for c in chans for s in "+-"] + [Var(x) for x in vars_]
    subject = rng.choice(names)
    if k == "input":
        x = rng.choice("xya")
        return Input(subject, x, _clashing(rng, depth - 1, chans, vars_ + (x,)))
    payload = rng.choice(names + [rng.randint(0, 3)])
    return Output(subject, payload, _clashing(rng, depth - 1, chans, vars_))


def _renamed(p, seen):
    """``p`` with its ``new`` binders renamed as an unfolding renames them
    in a state whose identifiers are ``seen``."""
    taken = dict.fromkeys(seen, 0)
    return _rename_news(p, [fresh_name(q.channel, taken) for q in subterms(p) if isinstance(q, New)])


def test_renamings_and_keys_match_reference_on_clashing_names():
    rng = random.Random(11)
    programs = [_clashing(rng, 7) for _ in range(400)]
    renamed = 0
    for p in programs:
        q = freshen(p)
        assert q == ref.freshen(p) and pretty_proc(q) == pretty_proc(ref.freshen(p))
        assert freshen(p, reserved={"a", "x"}) == ref.freshen(p, reserved={"a", "x"})
        renamed += q != p
        seen = {"a"}
        assert _renamed(p, seen) == ref._rename_clashing_news(p, set(seen))
        idents = ref.all_idents(p)
        assert _renamed(p, idents) == ref._rename_clashing_news(p, set(idents))
        ours, theirs = _make_state(*_flatten(p)), ref._make_state(*ref._flatten(p))
        assert (ours.key, list(ours.anns.items()), ours.threads) == (
            theirs.key, list(theirs.anns.items()), theirs.threads
        )
    assert renamed > 100  # the corpus does clash


def _binder_field(q):
    return "binder" if isinstance(q, Input) else "channel" if isinstance(q, New) else "var"


def _rebound(rng, p):
    """``p`` with one binder given the name of another binder, of either
    kind, or of a free name; its occurrences keep theirs."""
    binders = [q for q in subterms(p) if isinstance(q, (Input, New, Rec))]
    if not binders:
        return p
    names = {getattr(q, _binder_field(q)) for q in binders}
    for n in free_names(p):
        syntax._ident_of(n, names)
    target, name = rng.choice(binders), rng.choice(sorted(names))

    def go(q, env):
        return (replace(q, **{_binder_field(q): name}), None) if q is target else (q, env)

    return syntax.rewrite(go, p, ())


def test_freshen_returns_early_exactly_where_the_full_rewrite_renames_nothing(monkeypatch):
    """``freshen`` returns a term whose binders clash with nothing as it
    is, unrewritten; elsewhere it renames as the full rewrite of the
    reference does.  On ``corpus/``, seeded programs of every generator,
    name-clashing ones, and each of them with a binder renamed to reuse
    another binder's name or a free name, with and without reserved
    names."""
    monkeypatch.setattr(gen, "_uid", itertools.count())
    rng = random.Random(41)
    programs = [parse_program(f.read_text()).process for f in sorted(CORPUS.glob("*.ssp"))]
    for _ in range(100):
        programs += [gen_finite(rng), gen_user(rng), gen_well_typed(rng), gen_well_typed_user(rng)]
    programs += [_clashing(rng, 7) for _ in range(100)]
    programs += [_rebound(rng, p) for p in programs for _ in range(2)]
    early = renamed = 0
    for p in programs:
        for reserved in ((), {"a", "x", "X"}):
            ours, theirs = freshen(p, reserved), ref.freshen(p, reserved)
            assert ours == theirs and pretty_proc(ours) == pretty_proc(theirs)
            assert (ours is p) == (theirs == p)
            early += ours is p
            renamed += ours is not p
    assert early > 500 and renamed > 500, (early, renamed)


def test_canonicalize_matches_reference_where_no_name_is_reused():
    rng = random.Random(3)
    for _ in range(200):
        p = gen_well_typed_user(rng)
        assert canonicalize(p).key == ref.canonicalize(p).key


def test_measures_match_the_recursive_formulas():
    rng = random.Random(5)
    programs = []
    for _ in range(3000):
        programs += [gen_finite(rng, depth=7, max_index=4), gen_subst_pair(rng)[0]]
    compared = 0
    for p in programs:
        assert emeasure(p) == ref.emeasure(p)
        for r in subterms(p):
            if isinstance(r, Rec):
                assert vcount(r.body, r.var) == ref.vcount(r.body, r.var)
                compared += 1
        for x in ref.free_proc_vars(p) | {"Unused"}:
            assert vcount(p, x) == ref.vcount(p, x)
    assert compared > 3000 and max(map(emeasure, programs)) > 10**4
    states = 0
    for p in programs:
        for s in reachable(canonicalize(p), max_states=20).states.values():
            assert state_measure(s) == ref.emeasure(state_to_process(s))
            states += 1
    assert states > 10_000


def _rewrite_one_rec(rng, t, pick, rewrite):
    """``t`` with one of its ``rec`` subterms that satisfy ``pick``,
    chosen at random, replaced by ``rewrite`` of it."""
    recs = []

    def collect(u):
        if isinstance(u, TRec) and pick(u):
            recs.append(u)
        for c in children(u):
            collect(c)

    def rebuild(u, env):
        return (rewrite(u), None) if u is target else (u, env)

    collect(t)
    if not recs:
        return t
    target = rng.choice(recs)
    return syntax.rewrite(rebuild, t)


def _type_pairs(monkeypatch, rng, n):
    """Quarters: a type with its syntactic dual; the same after a few
    unfoldings anywhere on either side; that again with one recursion
    index of the dual changed; two independent types.  Priority names
    restart for every type, so independent types share them."""

    def fresh_type():
        monkeypatch.setattr(gen, "_uid", itertools.count())
        return gen_type(rng, rng.randint(2, 8))

    for i in range(n):
        t = fresh_type()
        s = fresh_type() if i % 4 == 3 else syntactic_dual(t)
        if i % 4 == 2:
            s = _rewrite_one_rec(
                rng, s, lambda u: True,
                lambda u: TRec(rng.choice([0, 1, 2, 4, 8, 12, INF]), u.var, u.body),
            )
        if i % 4 in (1, 2):
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    t = _rewrite_one_rec(rng, t, lambda u: u.index > 0, unfold)
                else:
                    s = _rewrite_one_rec(rng, s, lambda u: u.index > 0, unfold)
        yield t, s


def test_duality_matches_the_recursive_checkers(monkeypatch):
    verdicts = []
    for t, s in _type_pairs(monkeypatch, random.Random(13), 6000):
        assert dual_strict_path(t, s) == ref.dual_strict_path(t, s)
        ours = dual_full(t, s)
        try:
            theirs = ref.dual_full(t, s)
        except DepthExceeded:
            continue  # the reference re-enters failed pairs until the budget runs out
        assert ours == theirs, (t, s)
        verdicts.append((ours, dual_strict_path(t, s)[0]))
    # both verdicts occur, and unfolding decides some pairs strictness does not
    assert {v for v, _strict in verdicts} == {True, False}
    assert any(full and not strict for full, strict in verdicts)


def _process_corpus():
    """Every subterm of seeded generated programs, and of name-clashing
    ones."""
    rng = random.Random(17)
    programs = [gen_finite(rng) for _ in range(300)] + [gen_user(rng) for _ in range(300)]
    programs += [gen_well_typed_user(rng) for _ in range(200)] + [_clashing(rng, 7) for _ in range(300)]
    return [q for p in programs for q in subterms(p)]


def test_process_folds_printers_and_keys_match_the_recursive_walkers(monkeypatch):
    subs = _process_corpus()
    for q in subs:
        assert free_names(q) == ref.free_names(q) | ref.free_proc_vars(q)
        assert pretty_proc(q) == ref.pretty_proc(q)
        # the entry: text, runs and slots, and free channels as the
        # recursive serialization regrouped gives them, and the identifiers
        # of ``all_idents``, each once
        (*entry, idents), (*theirs, their_idents) = semantics._serialize(q), ref._entry(q)
        assert entry == theirs and len(idents) == len(their_idents) and set(idents) == their_idents
        if isinstance(q, (New, Rec)):  # the same term but for the name its binder binds
            field = "channel" if isinstance(q, New) else "var"
            renamed = replace(q, **{field: getattr(q, field) + "_"})
            assert approx_leq(q, q) and not approx_leq(q, renamed) and not ref.approx_leq(q, renamed)
    ours = [_make_state(*_flatten(q)).key for q in subs]
    with monkeypatch.context() as m:
        m.setattr(semantics, "_serialize", ref._entry)
        theirs = [_make_state(*_flatten(q)).key for q in subs]
    assert ours == theirs
    # and as the reference's separate walks number and render them, open
    # terms among them: a free channel that is not hoisted keeps its name
    assert ours == [ref.canonicalize(q).key for q in subs]
    assert sum("#" in key and re.search(r"'\w+[+-]", key) is not None for key in ours) > 250
    annotated = sum(isinstance(q, New) and q.pos_type is not None for q in subs)
    assert len(subs) > 8000 and annotated > 500


def _outcome(f, *args):
    """The value of ``f(*args)``, or the class and message of what it raised."""
    try:
        return f(*args)
    except Exception as e:  # the exception is the outcome compared
        return type(e), str(e)


def _any_type(rng, depth):
    """A type of any shape over three variable names: open payloads,
    non-contractive and shadowing recursions occur."""
    kinds = ["end", "int", "var", "in", "out", "rec"] if depth > 0 else ["end", "var"]
    k = rng.choice(kinds)
    if k == "end":
        return End()
    if k == "int":
        return Base()
    if k == "var":
        return TypeVar(rng.choice("tuv"))
    if k == "rec":
        return TRec(rng.choice([0, 1, 2, INF]), rng.choice("tuv"), _any_type(rng, depth - 1))
    pri = [1, 2, "a", "b"]
    cls = TIn if k == "in" else TOut
    return cls(rng.choice(pri), rng.choice(pri), _any_type(rng, depth - 1), _any_type(rng, depth - 1))


def _type_corpus(monkeypatch, rng):
    """Every subterm of seeded ``gen_type`` types and of their one-step
    unfoldings at every ``rec``, then types of any shape."""
    monkeypatch.setattr(gen, "_uid", itertools.count())
    types = []
    for _ in range(200):
        t = gen_type(rng, rng.randint(2, 8))
        subs = list(subterms(t))
        subs += [ref.unfold(u) for u in subs if isinstance(u, TRec) and u.index > 0]
        types += [v for u in subs for v in subterms(u)]
    return types + [_any_type(rng, rng.randint(1, 6)) for _ in range(2000)]


def test_a_syntactic_dual_is_dual_by_construction(monkeypatch):
    """Why the checker neither searches nor checks again the syntactic
    dual of a ``new a : T``: when the spine of ``T`` (its continuations
    and recursion bodies) does not end in ``int``, ``syntactic_dual(T)``
    is strictly dual to ``T`` and, if ``T`` is well formed, fully dual;
    when it does, they are not strictly dual.  Either way the dual is
    well formed exactly when ``T`` is.  On the types of ``_type_corpus``
    (``gen_type`` types and their subterms, then types of any shape) and
    every annotation and alias of ``corpus/``."""
    types = _type_corpus(monkeypatch, random.Random(37))
    for f in sorted(CORPUS.glob("*.ssp")):
        program = parse_program(f.read_text())
        types += program.type_aliases.values()
        types += [t for q in subterms(program.process) if isinstance(q, New)
                  for t in (q.pos_type, q.neg_type) if t is not None]
    by_construction = ending_in_int = 0
    for t in types:
        d, end = syntactic_dual(t), t
        while isinstance(end, (TIn, TOut, TRec)):
            end = children(end)[-1]
        (ok, why), (dual_ok, dual_why) = well_formed(t), well_formed(d)
        assert dual_ok == ok and (ok or dual_why.reason == why.reason)
        if isinstance(end, Base):
            assert not dual_strict_path(t, d)[0]
            ending_in_int += 1
        else:
            assert dual_strict_path(t, d) == (True, ()) and (not ok or dual_full(t, d))
            by_construction += ok
    assert by_construction > 2000 and ending_in_int > 300, (by_construction, ending_in_int)


def test_type_operations_match_the_recursive_walkers(monkeypatch):
    rng = random.Random(19)
    types = _type_corpus(monkeypatch, rng)
    violations, raised = set(), set()
    for t in types:
        assert free_names(t) == ref.free_type_vars(t)
        assert pretty_type(t) == ref.pretty_type(t)
        assert type_key(t) == ref.type_key(t)
        env = {x: f"@{i}" for i, x in enumerate(sorted(free_names(t)))}
        assert type_key(t, env, len(env)) == ref.type_key(t, env, len(env))
        assert pretty_type(syntactic_dual(t)) == pretty_type(ref.syntactic_dual(t))
        ok, v = well_formed(t)
        ok_ref, v_ref = ref.well_formed(t)
        assert ok == ok_ref and (v is None) == (v_ref is None)
        if v is not None:
            assert v.reason == v_ref.reason and v.subterm is v_ref.subterm
            violations.add(v.reason)
        for sigma in ({}, {"t": 3, "u": "a"}):
            assert _outcome(obligation, sigma, t) == _outcome(ref.obligation, sigma, t)
        assert _outcome(capability, t) == _outcome(ref.capability, t)
        raised |= {
            o[0] for o in (_outcome(obligation, {}, t), _outcome(capability, t)) if isinstance(o, tuple)
        }
        approx = [approximant(t, i) for i in range(3)] + [t]
        assert [pretty_type(a) for a in approx[:3]] == [
            pretty_type(ref.approximant_type(t, i)) for i in range(3)
        ]
        for a in approx:
            for b in approx:
                assert approx_leq(a, b) == ref.approx_leq_type(a, b)
        if isinstance(t, TRec):
            renamed = TRec(t.index, t.var + "_", t.body)
            assert approx_leq(t, renamed) == ref.approx_leq_type(t, renamed)
            if t.index > 0:
                assert pretty_type(unfold(t)) == pretty_type(ref.unfold(t))
    assert violations == {"unbound type variable", "payload type is not closed", "type is not contractive"}
    assert raised == {UnboundTypeVar, NoAction}


def _binders(t) -> set:
    return {u.var for u in subterms(t) if isinstance(u, TRec)}


def test_well_formed_matches_its_per_payload_walk(monkeypatch):
    # one fold records what is free in every payload; the walk and its
    # first violation are those of asking each payload afresh
    rng = random.Random(29)
    reasons = set()
    for t in _type_corpus(monkeypatch, rng):
        ok, v = well_formed(t)
        ok_ref, v_ref = ref.well_formed_by_payload(t)
        assert ok == ok_ref and (v is None) == (v_ref is None)
        if v is not None:
            assert v.reason == v_ref.reason and v.subterm is v_ref.subterm
            reasons.add(v.reason)
    assert reasons == {"unbound type variable", "payload type is not closed", "type is not contractive"}


def test_type_substitution_matches_the_recursive_one(monkeypatch):
    """Substitutions where binders capture: replacements drawn from the
    corpus, or of any shape over the same three names as the type they
    go into, whose binders then have to be renamed."""
    rng = random.Random(23)
    types = _type_corpus(monkeypatch, rng)
    pairs = [(t, rng.choice(types)) for t in types]
    pairs += [(_any_type(rng, rng.randint(1, 7)), _any_type(rng, rng.randint(0, 4))) for _ in range(20_000)]
    renamed = 0
    for t, s in pairs:
        for x in sorted(ref.free_type_vars(t)):
            ours, theirs = subst_type_var(t, x, s), ref.subst_type_var(t, x, s)
            assert pretty_type(ours) == pretty_type(theirs)
            renamed += not _binders(theirs) <= _binders(t) | _binders(s)
    assert renamed > 300


def _tree(x):
    """A node as nested tuples of its class and every field, ``pos``
    included (it is left out of ``==``)."""
    if is_dataclass(x):
        return (type(x).__name__, *(_tree(getattr(x, f.name)) for f in fields(x)))
    return x


def _library_parse(text, kind):
    return (syntax.parse_type if kind == "type" else syntax.parse_program)(text)


def _reference_parse(text, kind):
    p = ref.RecursiveParser(text)
    if kind == "program":
        return p.parse_program()
    t = p.parse_type()
    p.expect("eof", what="end of input")
    return t


def _parsed(parse, text, kind):
    """The AST and alias table ``parse`` gives for ``text``, or its
    ``ParseError`` as message, line, column and ``expected``."""
    try:
        x = parse(text, kind)
    except ParseError as e:
        return e.message, e.line, e.col, e.expected
    if kind == "type":
        return _tree(x)
    return _tree(x.process), {k: _tree(t) for k, t in x.type_aliases.items()}


def _mutants(rng, text):
    """Seeded truncations of ``text`` and single edits of it: a deleted,
    doubled or inserted character, or a deleted span."""
    cut = rng.randrange(len(text) + 1)
    yield text[:cut]
    i, j = sorted(rng.randrange(len(text) + 1) for _ in range(2))
    yield text[:i] + text[j:]
    yield text[:i] + text[i:i + 1] + text[i:]
    for _ in range(3):
        i = rng.randrange(len(text) + 1)
        yield text[:i] + rng.choice("?!.|()[],:~+-=0 1aXtypeinfrecnewend") + text[i:]


def test_parser_matches_the_recursive_parser(monkeypatch):
    """The parser on explicit stacks, through the public parse functions,
    against its recursive reference with its own tokenizer on
    ``corpus/``, printed seeded programs and types, alias programs, and
    seeded truncations and edits of all of them."""
    monkeypatch.setattr(gen, "_uid", itertools.count())
    rng = random.Random(29)
    texts = [(f.read_text(), "program") for f in sorted(CORPUS.glob("*.ssp"))]
    texts += [(pretty_proc(gen_finite(rng)), "program") for _ in range(150)]
    texts += [(pretty_proc(gen_user(rng)), "program") for _ in range(150)]
    texts += [(pretty_proc(gen_well_typed_user(rng)), "program") for _ in range(100)]
    types = [pretty_type(gen_type(rng, rng.randint(1, 6))) for _ in range(150)]
    texts += [(t, "type") for t in types]
    texts += [(f"type A = {t}\ntype B = ( A )\nnew a : B ~ A . 0", "program") for t in types[:50]]
    texts += [(m, kind) for text, kind in texts for m in _mutants(rng, text)]
    outcomes = []
    for text, kind in texts:
        ours = _parsed(_library_parse, text, kind)
        assert ours == _parsed(_reference_parse, text, kind), text
        outcomes.append(isinstance(ours[0], str))
    assert len(texts) > 3000 and 500 < sum(outcomes) < len(texts) - 500  # both errors and ASTs


def _beside(p, side):
    """``p`` with every process variable ``X`` put in a ``|``: ``X | 0``,
    ``0 | X`` or ``X | X``.  The names ``X`` is declared with then reach
    a side of a ``|`` only through ``X``."""

    def go(q, env):
        if isinstance(q, ProcVar):
            return Par(*{"left": (q, Idle()), "right": (Idle(), q), "both": (q, q)}[side]), None
        return q, env

    return syntax.rewrite(go, p, ())


def test_checker_matches_the_recursive_checker(monkeypatch):
    """The worklist checker, which splits the environment at every ``|``
    by the free names of one fold, against the recursive ``_check``,
    which walks both sides of each ``|`` and searches every pair of
    annotations for duality, syntactic duals included, at indices 0, 1
    and inf: constraints with origin and position, diagnostics and
    solutions, variables in the same order.  The reference ignores the
    table of free sides that ``check_open`` hands on.  An open program's
    verdict is the text of its ``NotClosed``."""
    rng = random.Random(31)
    programs = [parse_program(f.read_text()).process for f in sorted(CORPUS.glob("*.ssp"))]
    programs += [gen_user(rng) for _ in range(300)] + [gen_well_typed_user(rng) for _ in range(150)]
    recursive = programs[-150:]
    programs += [gen_well_typed(rng) for _ in range(150)]
    types = [gen_type(rng) for _ in range(50)]
    programs += [New("a", t, s, Idle()) for t in types for s in (t, syntactic_dual(t))]
    for p in programs[-300:]:  # edits of well-typed programs that still parse
        for text in _mutants(rng, pretty_proc(p)):
            with contextlib.suppress(ParseError):
                programs.append(parse_program(text).process)
    programs += [_beside(p, side) for p in recursive for side in ("left", "right", "both")]

    def verdicts():
        out = []
        for p in programs:
            for iota in (0, 1, INF):
                try:
                    v = check_closed(p, iota)
                except NotClosed as e:
                    out.append(str(e))
                else:
                    out.append((v, list(v.assignment.values.items()) if v.assignment else None))
        return out

    def reference(sigma, gamma, delta, p, iota, _sides):
        return ref.check(sigma, gamma, delta, p, iota)

    ours = verdicts()
    with monkeypatch.context() as m:
        m.setattr(typecheck, "check", reference)
        theirs = verdicts()
    assert ours == theirs and len(ours) > 1_500
    checked = [x[0] for x in ours if type(x) is tuple]
    rules = {d.rule for v in checked for d in v.diagnostics}
    assert sum(v.ok for v in checked) > 300 and len(rules) == 6, rules


def test_cells_match_the_hand_built_cells(monkeypatch):
    """The cells parsed from their text against the hand-built cells,
    each at indices 0-3 and inf, and whole seeded programs of either kind
    of cell: equal ASTs and equal printed text, from equal seeds and the
    same start of the name counter."""
    parsed = gen._cell

    def hand_built(rng, cell, index):
        return ref.CELLS[gen._CELLS.index(cell)](rng, index)

    def both(make):
        out = []
        for cell in (parsed, hand_built):
            monkeypatch.setattr(gen, "_uid", itertools.count(7))
            monkeypatch.setattr(gen, "_cell", cell)
            out.append(make())
        return out

    pairs = [
        both(lambda: gen._cell(random.Random(seed), cell, index))
        for cell in gen._CELLS
        for index in (0, 1, 2, 3, INF)
        for seed in range(4)
    ]
    for seed in range(100):
        pairs.append(both(lambda: gen_well_typed(random.Random(seed))))
        pairs.append(both(lambda: gen_well_typed(random.Random(seed), max_index=5, cells=4)))
        pairs.append(both(lambda: gen_well_typed_user(random.Random(seed))))
    for ours, theirs in pairs:
        assert ours == theirs and pretty_proc(ours) == pretty_proc(theirs)
