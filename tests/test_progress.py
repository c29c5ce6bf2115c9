import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import corpus_process, deadline
from sessprog import progress
from sessprog.gen import gen_user, gen_well_typed_user
from sessprog.progress import (
    Truncated,
    normal_form_shape,
    oracle_dynamic,
    verify_static,
)
from sessprog.semantics import approximant, canonicalize, is_normal_form, reachable
from sessprog.syntax import Par, parse_process
from sessprog.typecheck import NotClosed


def test_forwarder_verified_static():
    v = verify_static(corpus_process("forwarder.ssp"))
    assert v.status == "verified-static"
    assert v.evidence["assignment"]


def test_mutual_is_unknown_statically():
    assert verify_static(corpus_process("mutual.ssp")).status == "unknown"


def test_idle_verified():
    assert verify_static(parse_process("0")).status == "verified-static"


def test_verify_static_requires_closed():
    with pytest.raises(NotClosed):
        verify_static(parse_process("a+!1.0"))


def test_mutual_violated_dynamically():
    v = oracle_dynamic(corpus_process("mutual.ssp"), 2)
    assert v.status == "violated-dynamic"
    assert v.evidence["prefix"].endswith("?")


def test_self_violated_dynamically():
    v = oracle_dynamic(corpus_process("self.ssp"), 1)
    assert v.status == "violated-dynamic"


def test_orphan_violated_dynamically():
    # reduces forever at infinite index, yet the sent endpoint is orphaned
    v = oracle_dynamic(corpus_process("orphan.ssp"), 3)
    assert v.status == "violated-dynamic"
    assert v.evidence["prefix"] == "a+!"


def test_forwarder_holds_dynamically():
    for iota in (1, 2, 3):
        v = oracle_dynamic(corpus_process("forwarder.ssp"), iota)
        assert v.status == "holds-dynamic-at-bound"


def test_oracle_truncation():
    p = parse_process("rec[inf]X.new a.(a+!1.0 | a-?(x).X)")
    with pytest.raises(Truncated):
        oracle_dynamic(p, 6, max_states=4)


def test_delegated_endpoint_links_the_residual():
    # the peer a- of a+! sits in a payload; its receiver offers a-? only
    # after the exchange on b
    p = parse_process("new a.new b.(a+!1.0 | b+!a-.0 | b-?(y).y?(x).0)")
    assert oracle_dynamic(p, 1).status == "holds-dynamic-at-bound"


@pytest.mark.parametrize(
    "text, prefix",
    [
        ("new a.new b.(a+!1.0 | b+!a-.0 | b-?(y).0)", "a+!"),  # a- delegated, never used
        ("new a.(a+!1.0 | a-!2.0)", "a+!"),  # the peer offers the same kind
        ("new a.(a+?(x).0 | a-?(y).0)", "a+?"),
    ],
)
def test_residual_violations(text, prefix):
    v = oracle_dynamic(parse_process(text), 1)
    assert v.status == "violated-dynamic"
    assert v.evidence["prefix"] == prefix


def test_deadlock_beside_an_independent_cell():
    # freshening renames the forwarder's a and b, so mutual keeps its names
    mutual = corpus_process("mutual.ssp")
    alone = oracle_dynamic(mutual, 2)
    v = oracle_dynamic(Par(mutual, corpus_process("forwarder.ssp")), 2)
    assert v.status == alone.status == "violated-dynamic"
    assert v.evidence["prefix"] == alone.evidence["prefix"] == "a+?"


def test_symmetric_cells_keep_their_own_channels():
    # the two cells' channels swap roles between states with equal keys,
    # so a prefix carried across an edge by raw name lands on the wrong cell
    p = corpus_process("forwarder.ssp")
    for iota in (1, 2):
        assert oracle_dynamic(Par(p, p), iota).status == "holds-dynamic-at-bound"


def test_mixed_indices_are_explored_as_they_are():
    v = oracle_dynamic(parse_process("new a.(rec[inf]X.a+!1.X | rec[2]Y.a-?(x).Y)"), 1)
    assert v.status == "violated-dynamic"
    assert v.evidence["prefix"] == "a+!"
    assert v.evidence["trace"] == [
        "rec @0", "rec @1", "comm a ! 1", "rec @0", "rec @1", "comm a ! 1", "rec @1",
    ]


def test_prefixes_travel_around_a_cycle():
    # the forwarder keeps its infinite indices beside a finite one, so its
    # graph returns to the initial state; the peers of some prefixes are
    # offered only after the way back
    p = Par(corpus_process("forwarder.ssp"), parse_process("rec[0]Z.0"))
    s0 = canonicalize(p)
    assert any(succ.key == s0.key for _st, _label, succ in reachable(s0).edges)
    v = oracle_dynamic(p, 1)
    assert v.status == "holds-dynamic-at-bound" and v.states_explored == 12


def test_one_exploration_per_verdict(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return reachable(*args, **kwargs)

    monkeypatch.setattr(progress, "reachable", counted)
    texts = ["mutual.ssp", "forwarder.ssp", "orphan.ssp", "self.ssp"]
    statuses = {oracle_dynamic(corpus_process(t), 2).status for t in texts}
    assert statuses == {"violated-dynamic", "holds-dynamic-at-bound"}
    assert len(calls) == len(texts)


def test_normal_form_shape():
    assert normal_form_shape(canonicalize(parse_process("0")))
    assert normal_form_shape(canonicalize(parse_process("rec[0]X.a+!1.X")))
    stuck = canonicalize(parse_process("a+?(x).b-!4.0 | b+?(y).a-!3.0"))
    assert is_normal_form(stuck) and not normal_form_shape(stuck)


def test_verdict_json_shape():
    v = oracle_dynamic(corpus_process("forwarder.ssp"), 1)
    j = v.to_json()
    assert set(j) == {"status", "evidence", "statesExplored"}


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_static_implies_dynamic(seed):
    p = gen_well_typed_user(random.Random(seed), cells=1)
    if verify_static(p).status == "verified-static":
        for iota in (1, 2):
            assert oracle_dynamic(p, iota, 20000).status == "holds-dynamic-at-bound"


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 2))
def test_stability_on_well_typed_approximants(seed, n):
    p = gen_well_typed_user(random.Random(seed), cells=1)
    q = approximant(p, n)
    r = reachable(canonicalize(q), 20000)
    assert not r.truncated
    for st_ in r.states.values():
        if is_normal_form(st_):
            assert normal_form_shape(st_)


def test_static_implies_dynamic_on_larger_programs():
    # three-cell programs and deeper user programs at a higher index,
    # under a deadline on the whole pass
    rng = random.Random(77)
    cases = [(p, iota) for p in [gen_well_typed_user(rng, cells=3) for _ in range(20)] for iota in (1, 2)]
    cases += [(gen_user(rng, depth=6), 4) for _ in range(40)]
    verified = violated = 0
    with deadline(30):
        for p, iota in cases:
            static = verify_static(p).status
            dynamic = oracle_dynamic(p, iota, max_states=50_000).status
            verified += static == "verified-static"
            violated += dynamic == "violated-dynamic"
            assert not (static == "verified-static" and dynamic == "violated-dynamic"), p
    assert verified >= 40 and violated > 0
