import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_walkers as ref
from sessprog import semantics, syntax
from sessprog.gen import gen_finite, gen_user, gen_well_typed_user
from sessprog.progress import oracle_dynamic, verify_static
from sessprog.semantics import (
    NotUserProcess,
    approximant,
    approx_leq,
    canonicalize,
    is_normal_form,
    is_user_process,
    reachable,
    state_to_process,
    step,
    trace_to,
)
from sessprog.syntax import INF, parse_process, pretty_proc


def canon(s):
    return canonicalize(parse_process(s))


def test_par_unit_commut_assoc():
    assert canon("0 | a+!1.0") == canon("a+!1.0")
    assert canon("a+!1.0 | b-?(x).0") == canon("b-?(x).0 | a+!1.0")
    assert canon("(a+!1.0 | b-?(x).0) | c+!2.0") == canon(
        "a+!1.0 | (b-?(x).0 | c+!2.0)"
    )


def test_scope_extrusion_and_alpha():
    assert canon("new a.(a+!1.0 | a-?(x).0) | c+!2.0") == canon(
        "new d.(c+!2.0 | (d+!1.0 | d-?(x).0))"
    )


def test_unused_restriction_dropped():
    s = canon("new a.0")
    assert not s.threads and not s.anns
    assert s == canon("0")


def test_a_printed_state_nests_its_channels_in_name_order():
    s = canon("new a.new b.(rec[1]X.a+!1.0 | b+!2.0)")
    assert list(s.anns) == ["b", "a"]  # the order of the key's channel numbers
    assert pretty_proc(state_to_process(s)) == "new a.new b.(b+!2.0 | rec[1] X.a+!1.0)"


def test_canonicalize_idempotent():
    s = canon("new a.(a+!1.0 | a-?(x).0)")
    assert canonicalize(state_to_process(s)) == s


def test_comm_step():
    s = canon("a+!1.0 | a-?(x).b+!x.0")
    (label, s2), = step(s)
    assert label.kind == "comm" and label.channel == "a"
    assert s2 == canon("b+!1.0")


def test_a_receiver_reduces_with_each_payload_sent_to_it():
    # one receiver, two senders: each communication substitutes its own payload
    s = canon("a+!1.0 | a+!2.0 | a-?(x).b+!x.0")
    assert [succ for _label, succ in step(s)] == [canon("a+!2.0 | b+!1.0"), canon("a+!1.0 | b+!2.0")]


def test_no_comm_on_same_polarity():
    assert step(canon("a+!1.0 | a+?(x).0")) == []


def test_rec_zero_is_stuck():
    assert is_normal_form(canon("rec[0]X.a+!1.X"))


def test_rec_unfold_decrements_and_duplicates():
    s = canon("rec[3]X.(rec[6]Y.Y|X)")
    (label, s2), = step(s)
    assert label.kind == "rec"
    assert s2 == canon("rec[6]Y.Y | rec[2]X.(rec[6]Y.Y|X)")


def test_rec_inf_index_stays():
    s = canon("rec[inf]X.(a+!1.0 | X)")
    (_, s2), = step(s)
    assert any(
        getattr(t, "index", None) == INF for t in s2.threads
    )


def test_unfold_renames_clashing_restrictions():
    s = canon("rec[2]X.new a.(a+!1.0 | a-?(x).X)")
    r = reachable(s)
    assert not r.truncated
    finals = [st_ for st_ in r.states.values() if is_normal_form(st_)]
    assert len(finals) == 1


@pytest.mark.parametrize(
    "program, twin",
    [
        ("new a.(a+!1.0 | new a.a-?(x).0)", "new a.(a+!1.0 | new b.b-?(x).0)"),
        (
            "new a.new b.(a+!b+.0 | a-?(x).new b.x!1.0 | b-?(y).0)",
            "new a.new b.(a+!b+.0 | a-?(x).new c.x!1.0 | b-?(y).0)",
        ),
    ],
)
def test_same_named_restrictions_agree_with_renamed_twin(program, twin):
    p, q = parse_process(program), parse_process(twin)
    rp, rq = reachable(canonicalize(p)), reachable(canonicalize(q))
    assert list(rp.states) == list(rq.states) and len(rp.edges) == len(rq.edges)
    assert oracle_dynamic(p).status == oracle_dynamic(q).status


def test_reachable_count():
    r = reachable(canon("rec[1]X.new a.(a+!1.0 | a-?(x).0)"))
    assert len(r.states) == 3 and not r.truncated


def test_reachable_truncation():
    r = reachable(canon("rec[9]X.(rec[9]Y.Y | X)"), max_states=5)
    assert r.truncated and len(r.states) == 5


def test_trace_reconstruction():
    s = canon("rec[1]X.new a.(a+!1.0 | a-?(x).0)")
    r = reachable(s)
    deepest = max(r.states.values(), key=lambda st_: len(trace_to(r, st_.key)))
    labels = trace_to(r, deepest.key)
    assert [l.kind for l in labels] == ["rec", "comm"]


def test_approximant_replaces_inf_everywhere():
    p = parse_process("rec[inf]X.new a : rec[inf]t. ![0,0] int . t.(a+!1.X)")
    q = approximant(p, 3)
    assert q.index == 3 and q.body.pos_type.index == 3


def test_approximant_requires_user_process():
    for text in ("rec[2]X.X", "rec[inf]X.(X | new a.rec[0]Y.Y)"):
        with pytest.raises(NotUserProcess, match="^finite recursion index in a user process$"):
            approximant(parse_process(text), 1)


def test_approximant_shares_what_it_leaves_unchanged():
    # no rec and no infinite annotation index: the process itself
    p = parse_process("new a : ![0,1] int . end . (a+!1.0 | a-?(x).new b.(b+!a+.0 | b-?(y).0))")
    assert approximant(p, 0) is p
    # the rec-free side of a | comes back as the same object, the other is rebuilt
    p = parse_process("new a : ![0,1] int . end . (a+!1.0 | a-?(x).0) | rec[inf] X.X")
    q = approximant(p, 0)
    assert q.left is p.left and q.right is not p.right and q.right.index == 0
    # a new whose annotation changes is rebuilt around the same body
    p = parse_process("new a : rec[inf]t. ![0,0] int . t.(a+!1.0 | a-?(x).0)")
    q = approximant(p, 2)
    assert q.pos_type.index == 2 and q.neg_type is None and q.body is p.body
    # types and a missing annotation
    t = p.pos_type
    assert approximant(t.body, 1) is t.body and approximant(None, 1) is None
    assert approximant(t, 1).index == 1 and approximant(t, 1).body is t.body


def test_approx_leq_basic():
    p = parse_process("rec[inf]X.(rec[inf]Y.Y | X)")
    for n in range(4):
        assert approx_leq(approximant(p, n), p)
    assert not approx_leq(p, approximant(p, 2))
    assert approx_leq(p, p)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_canonical_key_respects_thread_permutation(seed):
    rng = random.Random(seed)
    p = gen_finite(rng, depth=4)
    q = gen_finite(rng, depth=4)
    from sessprog.syntax import Par

    assert canonicalize(Par(p, q)) == canonicalize(Par(q, p))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_state_to_process_round_trips(seed):
    p = gen_finite(random.Random(seed), depth=5)
    s = canonicalize(p)
    assert canonicalize(state_to_process(s)) == s


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 4))
def test_user_approximants_below(seed, n):
    p = gen_user(random.Random(seed), depth=5)
    assert is_user_process(p)
    assert approx_leq(approximant(p, n), p)


def test_successors_come_in_label_order():
    # communications before unfoldings, each kind by thread positions:
    # BFS order, traces and counterexamples depend on this order.  The
    # edges of each state are its successors in the order step gives them.
    rng = random.Random(23)
    both = 0
    for _ in range(300):
        r = reachable(canonicalize(gen_finite(rng, depth=7)), max_states=300)
        for key, edges in itertools.groupby(r.edges, lambda e: e[0].key):
            labels = [(label.kind, label.positions) for _s, label, _succ in edges]
            assert labels == sorted(labels), key
            both += len({kind for kind, _pos in labels}) == 2
    assert both >= 100


def test_successors_built_from_handed_on_serializations_are_built_from_scratch(monkeypatch):
    # every state that exploration builds from its parent's serializations
    # and the memoized reducts is the state built from the same threads
    # serialized afresh: the same key, thread objects in the same order and
    # channels; and each entry a state carries is a fresh serialization of
    # its thread
    make, built = semantics._make_state, []

    def recording(chan_anns, threads):
        built.append((chan_anns, threads, make(chan_anns, threads)))
        return built[-1][2]

    monkeypatch.setattr(semantics, "_make_state", recording)
    rng = random.Random(2024)
    programs = [gen_finite(rng) for _ in range(300)]
    rng = random.Random(9)
    programs += [approximant(gen_well_typed_user(rng, cells=c), i) for c in (1, 2) for i in (1, 2) for _ in range(10)]
    edges = handed_on = 0
    for p in programs:
        r = reachable(canonicalize(p), max_states=300)
        edges += len(r.edges)
        earlier = set()  # the entries of the states built before, by identity
        for chan_anns, threads, st in built:
            fresh = make(chan_anns, [(t, semantics._serialize(t)) for t, _entry in threads])
            assert (st.key, list(st.anns.items())) == (fresh.key, list(fresh.anns.items()))
            assert len(st.threads) == len(fresh.threads)
            assert all(a is b for a, b in zip(st.threads, fresh.threads))
            assert list(st.sers) == list(map(semantics._serialize, st.threads))
            handed_on += sum(id(entry) in earlier for _t, entry in threads)
            earlier.update(map(id, st.sers))
        built.clear()
    assert edges > 3000 and handed_on > 15_000  # successors do keep their parents' threads


def _explore_by_step(s, max_states):
    """``reachable`` with no memo shared between states: a BFS that calls
    ``step`` on each state.  Its states in BFS order, its edges, whether
    it stopped at ``max_states``, and its tree: key -> (parent key,
    label) of the edge each state was kept by, None for ``s``."""
    states, edges, truncated, frontier = {s.key: s}, [], False, [s]
    parents = {s.key: None}
    while frontier:
        nxt = []
        for st in frontier:
            for label, succ in step(st):
                edges.append((st, label, succ))
                if succ.key not in states:
                    if len(states) >= max_states:
                        truncated = True
                        continue
                    states[succ.key] = succ
                    parents[succ.key] = (st.key, label)
                    nxt.append(succ)
        frontier = nxt
    return list(states.values()), edges, truncated, parents


def _differences(s, max_states):
    """``reachable``, which shares one memo of reducts over its
    exploration, and where it and ``_explore_by_step`` disagree: in the
    states (key, channels in order, threads, entries), the edges (source,
    label, positions, successor key) or the truncation."""
    r = reachable(s, max_states=max_states)
    states, edges, truncated, _parents = _explore_by_step(s, max_states)

    def state(st):
        return st.key, list(st.anns.items()), st.threads, st.sers

    def edge(e):
        st, label, succ = e
        return st.key, label, label.positions, succ.key

    return r, (
        [(a, b) for a, b in itertools.zip_longest(map(state, r.states.values()), map(state, states)) if a != b]
        + [(a, b) for a, b in itertools.zip_longest(map(edge, r.edges), map(edge, edges)) if a != b]
        + ([("truncated", r.truncated, truncated)] if r.truncated != truncated else [])
    )


def _seeded_corpus():
    """300 random finite programs and 40 well-typed approximants, each
    with the state bound 300."""
    rng = random.Random(2024)
    corpus = [(gen_finite(rng), 300) for _ in range(300)]
    rng = random.Random(9)
    corpus += [
        (approximant(gen_well_typed_user(rng, cells=c), i), 300) for c in (1, 2) for i in (1, 2) for _ in range(10)
    ]
    return corpus


def test_memoized_exploration_matches_stepping_each_state_afresh():
    corpus = _seeded_corpus()
    rng = random.Random(33)  # the programs of acceptance criterion 3
    corpus += [(gen_finite(rng, depth=6, max_index=4), 1200) for _ in range(1000)]
    states = truncated = 0
    for p, bound in corpus:
        r, differences = _differences(canonicalize(p), bound)
        assert differences == [], pretty_proc(p)
        states, truncated = states + len(r.states), truncated + r.truncated
    assert states > 9000 and truncated >= 3  # criterion 3 has three programs past 1,200 states


def test_trace_follows_the_tree_of_stepping_each_state_afresh():
    # the first edge into a state is the edge the reference BFS kept it
    # by; user programs at index inf lead back into their initial state
    rng = random.Random(41)
    corpus = _seeded_corpus() + [(gen_well_typed_user(rng, cells=c), 300) for c in (1, 2) for _ in range(10)]
    cycles = 0
    for p, bound in corpus:
        s = canonicalize(p)
        r = reachable(s, max_states=bound)
        parents = _explore_by_step(s, bound)[3]
        for key in r.states:
            labels, k = [], key
            while parents[k] is not None:
                k, label = parents[k]
                labels.append(label)
            assert trace_to(r, key) == labels[::-1], pretty_proc(p)
        cycles += any(succ.key == s.key for _st, _label, succ in r.edges)
    assert cycles >= 10


def test_trace_reads_the_edges_only_up_to_its_first_edge_into_the_target():
    # an edge that cannot be read, put right after a state's first
    # in-edge, leaves its trace as it was; the initial state reads none
    s = canon("new a.(a+!1.a+!2.0 | a-?(x).a-?(y).0 | a+!3.0 | a-?(z).0)")
    r = reachable(s)
    assert trace_to(semantics.Reachable(r.states, r.truncated, [None]), s.key) == []
    later = 0
    for key in list(r.states)[1:]:
        i = next(i for i, (_st, _label, succ) in enumerate(r.edges) if succ.key == key)
        edges = r.edges[:i + 1] + [None] + r.edges[i + 1:]
        assert trace_to(semantics.Reachable(r.states, r.truncated, edges), key) == trace_to(r, key)
        later += i + 1 < len(r.edges)
    assert later >= 5


def test_a_normal_form_is_a_state_without_successors(monkeypatch):
    # over seeded explorations and those of acceptance criterion 5, the
    # redex test agrees with building the successors, and builds none;
    # the communications step pairs from the exposed prefixes are those
    # of scanning every sender against every thread
    rng = random.Random(55)  # criterion 5's corpus and its verified approximants
    corpus = [gen_well_typed_user(rng, cells=1) for _ in range(40)]
    corpus += [gen_well_typed_user(rng, cells=2) for _ in range(10)]
    corpus += [gen_user(rng, depth=5) for _ in range(50)]
    verified = [p for p in corpus if verify_static(p).status == "verified-static"]
    explorations = [(approximant(p, i), 50_000) for p in verified for i in (1, 2)]
    states = [
        st_ for p, bound in _seeded_corpus() + explorations for st_ in reachable(canonicalize(p), bound).states.values()
    ]
    make, made = semantics._make_state, []

    def counted(chan_anns, threads):
        made.append(None)
        return make(chan_anns, threads)

    monkeypatch.setattr(semantics, "_make_state", counted)
    normal = [is_normal_form(st_) for st_ in states]
    assert made == []
    steps = [step(st_) for st_ in states]
    assert normal == [not succs for succs in steps]
    comms = [[label.positions for label, _succ in succs if label.kind == "comm"] for succs in steps]
    assert comms == [ref.comms_by_scan(st_.threads) for st_ in states]
    assert len(states) > 3000 and 100 < sum(normal) < len(states)


def test_a_thread_unfolded_under_other_names_is_unfolded_afresh():
    # the rec thread is handed on from the first state to the second, but
    # the binder a_1 leaves with the communication: unfolded in the first
    # state its new gets a_2, in the second a_1, as stepping afresh gives
    s = canon("rec[1]X.new a.(a+!1.0 | a-?(x).0) | b+!1.0 | b-?(a_1).0")
    r = reachable(s)
    (rec,) = [t for t in s.threads if isinstance(t, syntax.Rec)]
    after_comm = r.edges[0][2]
    assert any(t is rec for t in after_comm.threads)
    names = {}
    for st in (s, after_comm):
        ours = [(label, succ) for st_, label, succ in r.edges if st_ is st and label.kind == "rec"]
        theirs = [(label, succ) for label, succ in step(st) if label.kind == "rec"]
        assert [(l.positions, t.key, list(t.anns.items()), t.threads) for l, t in ours] == [
            (l.positions, t.key, list(t.anns.items()), t.threads) for l, t in theirs
        ]
        (_label, succ), = ours
        names[st.key] = list(succ.anns)
    assert names == {s.key: ["a_2"], after_comm.key: ["a_1"]}
    assert _differences(s, 100)[1] == []


def test_one_step_serializes_no_thread_of_its_parent(monkeypatch):
    # neither a serialization nor any walk of the kernel starts at a
    # thread of the parent: what step needs of them is on their entries
    s = canonicalize(gen_well_typed_user(random.Random(7), cells=200))
    walked = []

    def recording(f, at):
        def walk(*args):
            walked.append((f.__name__, args[at]))
            return f(*args)
        return walk

    monkeypatch.setattr(semantics, "_serialize", recording(semantics._serialize, 0))
    for module, name, at in ((syntax, "subterms", 0), (syntax, "fold", 1), (syntax, "rewrite", 1),
                             (semantics, "subterms", 0), (semantics, "rewrite", 1)):
        monkeypatch.setattr(module, name, recording(getattr(module, name), at))
    succs = step(s)
    assert len(s.threads) == 481 and len(succs) == 314
    parents = set(map(id, s.threads))
    assert {name for name, _x in walked} >= {"_serialize", "rewrite"}
    assert [name for name, x in walked if id(x) in parents] == []


def test_merge_writes_a_bound_endpoint_by_its_binder():
    # an unfreshened thread may bind the name of a hoisted channel: its
    # bound endpoints get the binder's token, as they do after freshening
    p = parse_process("new a.(a+!1.0 | a-?(y).new a.(a+!2.0 | a-?(x).0))")
    key = semantics._make_state(*semantics._flatten(p)).key
    assert key == canonicalize(p).key
    assert key.endswith("#0-?(%0).new %1.(%1+!2.0|%1-?(%2).0)")


def test_serialize_lists_every_identifier():
    *_text_parts_free, idents = semantics._serialize(parse_process("new a.rec[1]X.a+?(x).0"))
    assert sorted(idents) == ["X", "a", "x"]
