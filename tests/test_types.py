import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessprog import sestypes
from sessprog.gen import gen_type
from sessprog.sestypes import (
    CannotUnfold,
    DepthExceeded,
    NoAction,
    UnboundTypeVar,
    capability,
    dual_full,
    dual_strict,
    dual_strict_path,
    obligation,
    syntactic_dual,
    type_eq,
    unfold,
    well_formed,
)
from sessprog.syntax import INF, TRec, TypeVar, parse_type, pretty_type, subst_type_var


def T(s):
    return parse_type(s)


def test_well_formed_accepts():
    ok, _ = well_formed(T("rec[inf]t. ?[0,1] int . t"))
    assert ok


def test_not_contractive():
    ok, v = well_formed(T("rec[inf]t.t"))
    assert not ok and "contractive" in v.reason
    ok, v = well_formed(T("rec[inf]t.rec[2]s.t"))
    assert not ok


def test_unstratified_payload():
    ok, v = well_formed(T("rec[inf]t. ?[0,1] (rec[1]s. ?[0,0] t . s) . t"))
    assert not ok and "closed" in v.reason


def test_unbound_type_var():
    ok, v = well_formed(T("?[0,1] int . t"))
    assert not ok and "unbound" in v.reason


def test_unfold_decrements():
    t = T("rec[2]t. ?[0,1] int . t")
    u = unfold(t)
    assert pretty_type(u) == "?[0,1] int . rec[1] t. ?[0,1] int . t"
    assert isinstance(unfold(T("rec[inf]t. ?[0,1] int . t")).cont, TRec)
    assert unfold(T("rec[inf]t. ?[0,1] int . t")).cont.index == INF


def test_unfold_zero_and_nonrec():
    with pytest.raises(CannotUnfold):
        unfold(T("rec[0]t. ?[0,1] int . t"))
    with pytest.raises(CannotUnfold):
        unfold(T("end"))


def test_obligation():
    assert obligation({}, T("end")) == INF
    assert obligation({}, T("int")) == INF
    assert obligation({}, T("?[al,be] int . end")) == "al"
    assert obligation({}, T("rec[1]t. ![3,4] int . t")) == 3
    assert obligation({"t": 7}, T("t")) == 7
    with pytest.raises(UnboundTypeVar):
        obligation({}, T("t"))


def test_capability():
    assert capability(T("?[al,be] int . end")) == "be"
    assert capability(T("rec[2]t. ![3,4] int . t")) == 4
    with pytest.raises(NoAction):
        capability(T("end"))


def test_syntactic_dual():
    t = T("rec[inf]t. ?[al,be] int . t")
    assert pretty_type(syntactic_dual(t)) == "rec[inf] t. ![be,al] int . t"


def test_dual_strict_mirrors():
    assert dual_strict(T("?[al,be] int . end"), T("![be,al] int . end"))
    assert not dual_strict(T("?[al,be] int . end"), T("![al,be] int . end"))
    assert not dual_strict(T("?[al,be] int . end"), T("?[be,al] int . end"))


def test_dual_strict_path_reports_mismatch():
    ok, path = dual_strict_path(
        T("?[0,1] int . ?[2,3] int . end"), T("![1,0] int . ![2,3] int . end")
    )
    assert not ok and path == (0,)


def test_dual_full_unfolding_derivation():
    # one side folded, the other pre-unfolded once
    t = T("rec[inf]t. ?[al,be] int . t")
    s = T("![be,al] int . rec[inf]t. ![be,al] int . t")
    assert dual_full(t, s)
    assert not dual_strict(t, s)


def test_dual_full_needs_coinduction():
    t = T("rec[inf]t. ?[al,be] int . t")
    s = T("rec[inf]s. ![be,al] int . ![be,al] int . s")
    assert dual_full(t, s)


def test_counterexample_pair_fails_at_finite_indices():
    # the infinite pair is dual only through unfolding; every common
    # finite approximant runs out of unfoldings on one side
    for n in range(5):
        t = T(f"![al,be] int . rec[{n}]t. ![al,be] int . t")
        s = T(f"rec[{n}]t. ?[be,al] int . t")
        assert not dual_strict(t, s)
        assert not dual_full(t, s)
    t = T("![al,be] int . rec[inf]t. ![al,be] int . t")
    s = T("rec[inf]t. ?[be,al] int . t")
    assert dual_full(t, s)


def test_counterexample_family_is_decided_at_every_index_up_to_200():
    # a search that re-enters the pairs it has failed on runs out of its
    # pair budget here from n = 12 on
    for n in range(201):
        t = T(f"![al,be] int . rec[{n}]t. ![al,be] int . t")
        s = T(f"rec[{n}]t. ?[be,al] int . t")
        assert not dual_full(t, s)


def test_dual_full_enters_each_pair_once_and_unfolds_on_demand(monkeypatch):
    entered, unfolded = [], []
    premises, unfold_ = sestypes._premises, sestypes.unfold
    monkeypatch.setattr(sestypes, "_premises", lambda pair, memo: entered.append(pair) or premises(pair, memo))
    monkeypatch.setattr(sestypes, "unfold", lambda t: unfolded.append(t) or unfold_(t))
    cycle = T("rec[inf]x. " + "![a,b] int . " * 30 + "x"), T("rec[inf]y. " + "?[b,a] int . " * 31 + "y")
    t = T("![al,be] int . rec[12]t. ![al,be] int . t")
    for (t, s), dual, unfoldings in ((cycle, True, 2), ((t, T("rec[12]t. ?[be,al] int . t")), False, 24)):
        entered.clear(), unfolded.clear()
        assert dual_full(t, s) == dual
        keys = [sestypes._pair_key(pair) for pair in entered]  # ``entered`` keeps the keyed types alive
        assert len(keys) == len(set(keys)) > 12
        assert len(unfolded) == len(set(map(id, unfolded))) == unfoldings  # no rec unfolded twice
    entered.clear(), unfolded.clear()
    t = T("rec[inf]t. ?[al,be] int . rec[2]s. ![ga,de] end . s")
    assert dual_full(t, syntactic_dual(t))
    assert unfolded == [] and len(entered) == 5  # one structural premise per constructor


def test_dual_full_keys_a_pair_by_its_scopes_too():
    # the same two nodes met under other scopes are another pair: keyed by
    # the nodes alone, a failure under the first scopes would be taken for
    # one under the second
    t = T("rec[2] x. rec[2] y. rec[2] z. rec[1] x. ![0,1] int . y")
    assert dual_full(t, T("rec[2] y. rec[2] z. rec[1] x. ?[1,0] int . y"))


def test_dual_full_pair_budget_still_fires(monkeypatch):
    t = T("rec[inf]x. " + "![a,b] int . " * 30 + "x")
    s = T("rec[inf]y. " + "?[b,a] int . " * 31 + "y")
    monkeypatch.setattr(sestypes, "DUAL_PAIR_BUDGET", 1022)  # the distinct pairs this pair needs
    assert dual_full(t, s)
    monkeypatch.setattr(sestypes, "DUAL_PAIR_BUDGET", 1021)
    with pytest.raises(DepthExceeded, match="more than 1021 type pairs"):
        dual_full(t, s)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_dual_strict_of_syntactic_dual(seed):
    t = gen_type(random.Random(seed))
    assert dual_strict(t, syntactic_dual(t))
    assert dual_strict(syntactic_dual(t), t)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_dual_full_contains_dual_strict(seed):
    rng = random.Random(seed)
    t = gen_type(rng)
    s = syntactic_dual(t) if rng.random() < 0.7 else gen_type(rng)
    if dual_strict(t, s):
        assert dual_full(t, s)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9))
def test_unfold_preserves_duality(seed):
    rng = random.Random(seed)
    t = gen_type(rng)
    s = syntactic_dual(t)
    if isinstance(s, TRec) and s.index > 0 and dual_full(t, s):
        assert dual_full(t, unfold(s))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_type_eq_is_alpha_equality(seed):
    t = gen_type(random.Random(seed))
    assert type_eq(t, t)
    if isinstance(t, TRec):
        renamed = TRec(t.index, "zz", subst_type_var(t.body, t.var, TypeVar("zz")))
        assert type_eq(t, renamed)
