"""Differential test: the kernel-based walkers against the pre-kernel
walkers kept in ``reference_walkers.py``.

Generated programs never reuse a binder name, so on them the two must
agree byte for byte: reachable key sequences and edge counts,
approximants, the approximation preorder and the oracle's JSON.  The
name-clashing programs of ``_clashing`` exercise ``freshen``,
``_rename_clashing_news`` and the canonical key of an unfreshened
thread list, where the two must agree as well.  The one-walk measures
must give the E and V of the recursive formulas on finite programs.
The duality checkers must give the verdicts and mismatch paths of the
recursive ones wherever those finish.
"""

import contextlib
import itertools
import json
import random

import reference_walkers as ref
from sessprog import gen, progress, semantics
from sessprog.gen import gen_finite, gen_subst_pair, gen_type, gen_user, gen_well_typed_user
from sessprog.measure import emeasure, state_measure, vcount
from sessprog.progress import Truncated, oracle_dynamic
from sessprog.semantics import (
    _merge,
    _rename_clashing_news,
    approximant,
    approx_leq,
    canonicalize,
    reachable,
    state_to_process,
)
from sessprog.sestypes import DepthExceeded, dual_full, dual_strict_path, syntactic_dual, unfold
from sessprog.syntax import (
    INF,
    Endpoint,
    Idle,
    Input,
    New,
    Output,
    Par,
    ProcVar,
    Rec,
    TRec,
    Var,
    all_idents,
    free_proc_vars,
    freshen,
    map_type,
    pretty_proc,
    subterms,
    type_children,
)

_PATCHES = (
    (semantics, ("_make_state", "_merge", "canonicalize", "_rename_clashing_news",
                 "subst_name", "subst_proc", "approximant", "is_user_process")),
    (progress, ("_make_state", "canonicalize", "approximant", "is_user_process")),
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


def _oracle_json(p):
    try:
        return json.dumps(oracle_dynamic(p, 2, max_states=300).to_json(), sort_keys=True)
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
        assert _rename_clashing_news(p, set(seen)) == ref._rename_clashing_news(p, set(seen))
        assert _rename_clashing_news(p, all_idents(p)) == ref._rename_clashing_news(p, all_idents(p))
        ours, theirs = _merge({}, [p]), ref._merge({}, [p])
        assert (ours.key, ours.channels, ours.threads) == (theirs.key, theirs.channels, theirs.threads)
    assert renamed > 100  # the corpus does clash


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
        for x in free_proc_vars(p) | {"Unused"}:
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
        for c in type_children(u):
            collect(c)

    def rebuild(u):
        return rewrite(u) if u is target else map_type(rebuild, u)

    collect(t)
    if not recs:
        return t
    target = rng.choice(recs)
    return rebuild(t)


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
