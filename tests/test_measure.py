import random
import signal
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sessprog.cli import main
from sessprog.gen import gen_finite, gen_subst_pair
from sessprog.measure import (
    InfiniteIndex,
    check_decrease,
    emeasure,
    longest_path,
    state_measure,
    vcount,
)
from sessprog.semantics import canonicalize, reachable, state_to_process, step
from sessprog.syntax import Par, parse_process, subst_name, subst_proc


def P(s):
    return parse_process(s)


def test_emeasure_nested_rec():
    assert emeasure(P("rec[3]X.(rec[6]Y.Y|X)")) == 21


def test_emeasure_comm_pair():
    assert emeasure(P("a+!1.0 | a-?(x).0")) == 2


def test_vcount_duplicating_body():
    assert vcount(P("rec[3]Y.(0|X|X)"), "X") == 2


def test_vcount_shadowing():
    assert vcount(P("rec[2]X.X"), "X") == 0


def test_empty_sum_convention():
    assert emeasure(P("rec[0]X.a+!1.X")) == 0
    assert vcount(P("rec[0]Y.X"), "X") == 0


def test_zero_to_zero_power():
    # body without the variable: geometric sum over v = 0 with 0^0 = 1
    assert emeasure(P("rec[2]X.a+!1.0")) == 2


def test_restriction_and_idle_are_transparent():
    assert emeasure(P("new a.(a+!1.0 | 0)")) == 1
    assert vcount(P("new a.(X | 0)"), "X") == 1


def test_infinite_index_rejected():
    with pytest.raises(InfiniteIndex):
        emeasure(P("rec[inf]X.X"))
    with pytest.raises(InfiniteIndex):
        vcount(P("rec[inf]Y.X"), "X")
    # E and V come from one walk, so a shadowed infinite index is no exception
    with pytest.raises(InfiniteIndex):
        vcount(P("rec[2]X.rec[inf]Y.0"), "X")


def test_infinite_index_names_the_outermost_recursion():
    with pytest.raises(InfiniteIndex, match="rec.inf. X$"):
        emeasure(P("rec[inf]X.(rec[inf]Y.Y | rec[inf]Z.Z) | rec[inf]W.W"))


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the body after ``seconds`` of wall time."""

    def expire(_signum, _frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_deep_rec_chain_in_one_walk(tmp_path, capsys):
    # a walk that measures V of a rec body apart from its E takes about
    # 2^200 steps here; the deadline makes that a failure, not a hang
    chain = "".join(f"rec[1]X{i}." for i in range(200)) + "0"
    f = tmp_path / "chain.ssp"
    f.write_text(chain)
    with _deadline(60):
        assert emeasure(P(chain)) == 200
        assert main(["measure", str(f)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "E = 200" and len(out) == 201 and all(line.endswith(" = 0") for line in out[1:])


@pytest.mark.parametrize(
    "program, length",
    [
        ("new a.(rec[300]X.a+!1.X | rec[300]Y.a-?(x).Y)", 900),
        ("new a.(rec[600]X.a+!1.X | rec[600]Y.a-?(x).Y)", 1800),
        ("new a.(a+!1.0 | a-?(x).0 | a-?(y).a+!2.0)", 2),  # the other run stops after 1
    ],
)
def test_longest_path(program, length):
    assert longest_path(P(program)) == length


def test_longest_path_rejects_an_infinite_index():
    with pytest.raises(InfiniteIndex):
        longest_path(P("rec[inf]X.X"))


def test_big_integers():
    p = P("rec[30]A.(rec[30]B.(rec[30]C.(C|C)|B|B)|A|A)")
    assert emeasure(p) > 2**64


def test_decrease_exact_amounts():
    s = canonicalize(P("rec[2]X.new a.(a+!1.0 | a-?(x).X)"))
    for label, succ in step(s):
        drop = state_measure(s) - state_measure(succ)
        assert drop == (2 if label.kind == "comm" else 1)


def test_check_decrease_vacuous():
    ok, fails, truncated = check_decrease(P("rec[0]X.X"))
    assert ok and not fails and not truncated


def test_longest_path_bounded_by_e():
    p = P("rec[2]X.new a.(a+!1.0 | a-?(x).X)")
    assert longest_path(p) <= emeasure(p)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
@example(369048257)  # stops at 800 states of many threads each: the slowest seed known
def test_decrease_on_random_processes(seed):
    p = gen_finite(random.Random(seed), depth=5, max_index=3)
    ok, fails, _ = check_decrease(p, max_states=800)
    assert ok, fails[:1]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9))
def test_substitution_law(seed):
    p, x, q = gen_subst_pair(random.Random(seed))
    pq = subst_proc(p, x, q)
    assert pq is not None
    assert emeasure(pq) == emeasure(p) + emeasure(q) * vcount(p, x)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_measure_invariant_under_canonicalization(seed):
    p = gen_finite(random.Random(seed), depth=5, max_index=3)
    assert emeasure(state_to_process(canonicalize(p))) == emeasure(p)


def test_name_substitution_preserves_measure():
    from sessprog.syntax import Endpoint

    p = P("b-!x.a+?(y).b-!y.0")
    q = subst_name(p, "x", Endpoint("c", "+"))
    assert emeasure(q) == emeasure(p)
    r = subst_name(p, "x", 7)
    assert emeasure(r) == emeasure(p)


def test_positive_measure_when_reducible():
    p = P("a+!1.0 | a-?(x).0")
    assert step(canonicalize(p)) and emeasure(p) > 0
