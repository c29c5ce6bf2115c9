import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CORPUS, ann_delta, corpus_process, subject_reduction_holds, threads_proc
from sessprog import syntax, typecheck
from sessprog.gen import gen_well_typed, gen_well_typed_user
from sessprog.semantics import approximant, canonicalize, state_to_process
from sessprog.syntax import INF, Endpoint, Process, free_names, freshen, parse_process, parse_type
from sessprog.typecheck import (
    Assignment,
    Constraint,
    CycleWitness,
    balanced,
    check,
    check_closed,
    check_open,
    context_reduce,
    solve,
    split_env,
)


def E(name, pol):
    return Endpoint(name, pol)


# --- solver ---------------------------------------------------------------


def C(l, r):
    return Constraint(l, r, "test")


def test_solve_empty():
    assert solve([]) == Assignment({})


def test_solve_drops_infinite_rhs():
    assert solve([C("x", INF)]) == Assignment({})


def test_solve_infinite_lhs_fails():
    w = solve([C(INF, "x")])
    assert isinstance(w, CycleWitness) and len(w.constraints) == 1


def test_solve_mutual_cycle():
    w = solve([C("be", "de"), C("de", "be")])
    assert isinstance(w, CycleWitness)
    assert {(c.lhs, c.rhs) for c in w.constraints} == {("be", "de"), ("de", "be")}


def test_solve_reflexive():
    w = solve([C("be", "be")])
    assert isinstance(w, CycleWitness)
    assert [(c.lhs, c.rhs) for c in w.constraints] == [("be", "be")]


def test_assignment_order_does_not_depend_on_the_hash_seed():
    script = (
        "import json, sys\n"
        "from sessprog.progress import verify_static\n"
        "from sessprog.syntax import parse_program\n"
        "p = parse_program(open(sys.argv[1]).read()).process\n"
        "print(json.dumps(verify_static(p).to_json()))\n"
    )
    src = str(CORPUS.parent / "src")
    outs = [
        subprocess.run(
            [sys.executable, "-c", script, str(CORPUS / "forwarder.ssp")],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        for seed in ("1", "2")
    ]
    assert outs[0] == outs[1]
    # variables in order of first appearance in the constraints
    assert list(json.loads(outs[0])["evidence"]["assignment"]) == ["be", "ga", "de", "al"]


def test_solve_minimal_assignment():
    a = solve([C(0, "x"), C("x", "y")])
    assert a.values == {"x": 1, "y": 2}


def test_solve_constant_bound_violation():
    w = solve([C(0, "x"), C("x", "y"), C("y", 2)])
    assert isinstance(w, CycleWitness)
    # the chain walks from the sources to the violated bound
    assert str(w.constraints[-1]) == "y < 2"


def test_solve_constants_only():
    assert isinstance(solve([C(3, 3)]), CycleWitness)
    assert solve([C(2, 3)]) == Assignment({})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_solver_assignments_are_sound(seed):
    rng = random.Random(seed)
    names = ["p", "q", "r", "s"]
    cs = [
        C(
            rng.choice(names + [rng.randint(0, 3)]),
            rng.choice(names + [rng.randint(0, 3), INF]),
        )
        for _ in range(rng.randint(0, 8))
    ]
    out = solve(cs)
    if isinstance(out, Assignment):
        assert out.satisfies(cs)
    else:
        # a witness chain is contradictory: no assignment can satisfy it
        sub = list(out.constraints)
        assert isinstance(solve(sub), CycleWitness)


# --- shipped examples -------------------------------------------------------


def test_mutual_rejects_with_cycle():
    v = check_closed(corpus_process("mutual.ssp"), INF)
    assert not v.ok
    w = v.solution
    assert {(c.lhs, c.rhs) for c in w.constraints} == {("be", "de"), ("de", "be")}


def test_self_rejects_reflexive():
    v = check_closed(corpus_process("self.ssp"), INF)
    assert not v.ok
    assert {(c.lhs, c.rhs) for c in v.solution.constraints} == {("be", "be")}


def test_forwarder_accepts_at_zero():
    p = approximant(corpus_process("forwarder.ssp"), 0)
    v = check_closed(p, 0)
    assert v.ok
    stated = Assignment({"al": 1, "ga": 1, "de": 0, "be": 0})
    assert stated.satisfies(v.constraints)


def test_forwarder_open_derivation():
    delta = {
        E("a", "-"): parse_type("rec[0]t. ?[al,be] end . t"),
        E("b", "+"): parse_type("rec[0]t. ![ga,de] end . t"),
    }
    p = parse_process("rec[0]X. a-?(x). b+!x. X")
    res = check({}, {}, delta, p, 0)
    assert res.ok
    nontrivial = {(c.lhs, c.rhs) for c in res.constraints if c.rhs != INF}
    assert nontrivial == {("be", "ga"), ("de", "al")}


def test_idle_accepts():
    assert check_closed(parse_process("0"), INF).ok


# --- rule errors ----------------------------------------------------------


def test_linearity_violation():
    v = check_closed(parse_process("new a : ![0,0] int . end.(a+!1.0 | a+!2.0)"), INF)
    assert not v.ok and v.diagnostics[0].rule == "LinearityViolation"


def test_unused_linear_name():
    v = check_closed(parse_process("new a : ![0,0] int . end.a-?(x).0"), INF)
    assert not v.ok and v.diagnostics[0].rule == "UnusedLinearName"


def test_subject_type_mismatch():
    v = check_closed(parse_process("new a : ![0,0] int . end.(a+?(x).0 | a-!1.0)"), INF)
    assert not v.ok and v.diagnostics[0].rule == "SubjectTypeMismatch"


def test_rec_shape_mismatch():
    # prefix-typed endpoint under a recursion
    v = check_closed(
        parse_process("new a : ![0,0] int . end.(rec[1]X.a+!1.X | a-?(x).0)"), INF
    )
    assert not v.ok and v.diagnostics[0].rule == "RecShapeMismatch"


def test_diagnostics_do_not_depend_on_earlier_calls():
    p = parse_process(
        "new a : rec[inf]t. ![p1,p2] int . t . "
        "(rec[inf]X. a+!1.rec[inf]Z.X | rec[inf]Y.a-?(x).Y)"
    )
    first, second = (check_closed(p, INF).diagnostics for _ in range(2))
    assert [str(d) for d in first] == [str(d) for d in second]
    assert "a+ : t%0 is not recursive at rec[inf]Z" in str(first[0])


def test_rec_index_exceeds_judgment():
    v = check_closed(
        parse_process(
            "new a : rec[2]t. ![0,0] int . t.(rec[2]X.a+!1.X | rec[2]Y.a-?(x).Y)"
        ),
        1,
    )
    assert not v.ok and v.diagnostics[0].rule == "RecShapeMismatch"


def test_duality_failure():
    v = check_closed(
        parse_process("new a : ![0,0] int . end ~ ![0,0] int . end.(a+!1.0 | a-!2.0)"),
        INF,
    )
    assert not v.ok and v.diagnostics[0].rule == "DualityFailure"


def test_strict_duality_at_index_zero():
    # dual only through unfolding: accepted at positive index, not at 0
    src = (
        "new a : rec[inf]t. ![0,1] int . t ~ ?[1,0] int . rec[inf]t. ?[1,0] int . t."
        "(rec[inf]X.a+!1.X | a-?(x).rec[inf]Y.a-?(y).Y)"
    )
    p = parse_process(src)
    assert check_closed(p, INF).ok
    v0 = check_closed(approximant(p, 0), 0)
    assert not v0.ok and v0.diagnostics[0].rule == "DualityFailure"


def test_base_payloads_are_discardable():
    assert check_closed(
        parse_process("new a : ![0,0] int . end.(a+!1.0 | a-?(x).0)"), INF
    ).ok


# --- split_env ------------------------------------------------------------


def test_split_env_by_usage():
    delta = {E("a", "+"): parse_type("![0,0] int . end"), E("a", "-"): parse_type("?[0,0] int . end")}
    left = parse_process("a+!1.0")
    right = parse_process("a-?(x).0")
    dl, dr = split_env(delta, free_names(left), free_names(right), {})
    assert set(dl) == {E("a", "+")} and set(dr) == {E("a", "-")}


def test_split_env_unused_end_goes_left():
    delta = {E("c", "+"): parse_type("end")}
    dl, dr = split_env(delta, frozenset(), frozenset(), {})
    assert set(dl) == {E("c", "+")} and not dr


def test_split_env_counts_the_names_a_process_variable_is_declared_with():
    t = parse_type("![0,0] int . end")
    gamma = {"X": {E("a", "+"): t}}
    dl, dr = split_env({E("a", "+"): t}, frozenset(), frozenset({"X"}), gamma)
    assert not dl and set(dr) == {E("a", "+")}


# --- context reduction and balancing --------------------------------------


def test_context_reduce_unfold():
    d = {E("a", "+"): parse_type("rec[1]t. ![0,1] int . t")}
    (d2,) = context_reduce(d)
    assert d2[E("a", "+")] == parse_type("![0,1] int . rec[0]t. ![0,1] int . t")


def test_context_reduce_annihilate():
    d = {
        E("a", "+"): parse_type("![0,1] int . end"),
        E("a", "-"): parse_type("?[1,0] int . end"),
    }
    (d2,) = context_reduce(d)
    assert d2[E("a", "+")] == parse_type("end")
    assert d2[E("a", "-")] == parse_type("end")


def test_context_reduce_empty():
    assert context_reduce({}) == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_context_reduce_preserves_balance(seed):
    rng = random.Random(seed)
    p = gen_well_typed(rng, max_index=2, cells=1)
    d = ann_delta(canonicalize(p))
    assert balanced(d)
    frontier = [d]
    for _ in range(3):
        nxt = []
        for d0 in frontier:
            for d1 in context_reduce(d0):
                assert balanced(d1)
                nxt.append(d1)
        frontier = nxt[:8]


# --- structural properties -------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_verdict_invariant_under_canonicalization(seed):
    rng = random.Random(seed)
    p = gen_well_typed(rng, max_index=2)
    q = state_to_process(canonicalize(p))
    assert check_closed(p, INF).ok == check_closed(q, INF).ok


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_subject_reduction_on_cells(seed):
    p = gen_well_typed(random.Random(seed), max_index=2, cells=1)
    ok, why = subject_reduction_holds(p, INF)
    assert ok, why


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 3))
def test_approximant_typability(seed, n):
    p = gen_well_typed_user(random.Random(seed), cells=1)
    assert check_closed(approximant(p, 0), 0).ok
    assert check_closed(approximant(p, n), n).ok


def test_check_folds_its_process_once(monkeypatch):
    # what is free in both sides of every | comes from one fold over the
    # whole process, not from walks of each side at each |
    p = freshen(gen_well_typed_user(random.Random(6), cells=300))
    folded = []
    fold = syntax.fold

    def counting(f, x):
        if isinstance(x, Process):
            folded.append(x)
        return fold(f, x)

    monkeypatch.setattr(syntax, "fold", counting)
    assert check({}, {}, {}, p, INF).ok
    assert len(folded) == 1 and folded[0] is p


def test_a_fault_in_the_checker_is_not_a_reject(monkeypatch):
    # only an unbound type variable makes an obligation undefined
    delta = {E("a", "+"): parse_type("![0,1] int . end"), E("b", "+"): parse_type("t")}
    v = check_open(delta, parse_process("a+!1.0"), INF)
    assert [str(d) for d in v.diagnostics] == ["1:1: SubjectTypeMismatch: obligation undefined: t"]

    def boom(sigma, t):
        return 1 / 0

    monkeypatch.setattr(typecheck, "obligation", boom)
    with pytest.raises(ZeroDivisionError):
        check_closed(parse_process("new a : ![0,1] int . end.(a+!1.0 | a-?(x).0)"), INF)
