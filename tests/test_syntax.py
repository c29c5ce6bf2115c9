import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sessprog.gen import gen_finite, gen_type, gen_user
from sessprog.syntax import (
    INF,
    Endpoint,
    Input,
    New,
    Output,
    ParseError,
    Par,
    Rec,
    Var,
    all_idents,
    co,
    fold,
    free_names,
    free_proc_vars,
    freshen,
    parse_process,
    parse_program,
    parse_type,
    pretty_proc,
    pretty_type,
    rewrite,
    subst_name,
    subst_proc,
    subterms,
)


def test_polarity_involution():
    assert co("+") == "-" and co("-") == "+"
    assert Endpoint("a", "+").peer == Endpoint("a", "-")


def test_parse_basic_process():
    p = parse_process("a+?(x).b-!x.0 | rec[3]X.X")
    assert isinstance(p, Par)
    assert isinstance(p.left, Input) and p.left.subject == Endpoint("a", "+")
    assert isinstance(p.right, Rec) and p.right.index == 3


def test_parse_inf_index():
    p = parse_process("rec[inf]X.X")
    assert p.index == INF


def test_parse_new_annotations():
    p = parse_process("new a : ?[al,be] int . end ~ ![be,al] int . end . 0")
    assert isinstance(p, New)
    assert pretty_type(p.pos_type) == "?[al,be] int . end"
    assert pretty_type(p.neg_type) == "![be,al] int . end"
    q = parse_process("new a . 0")
    assert q.pos_type is None and q.neg_type is None


def test_parse_type_aliases():
    prog = parse_program("type T = ?[0,1] int . end\nnew a : T . 0")
    assert pretty_type(prog.process.pos_type) == "?[0,1] int . end"


def test_alias_must_be_defined():
    with pytest.raises(ParseError):
        parse_program("new a : T . 0")


@pytest.mark.parametrize(
    "bad",
    ["a+?(x)", "rec X.X", "new . 0", "a+!.0", "?[1] int . end", "rec[-1]X.X", "0 |"],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_process(bad)


def test_parse_error_position():
    try:
        parse_process("a+?(x).%")
    except ParseError as e:
        assert e.line == 1 and e.col >= 8
    else:
        pytest.fail("no error")


def test_free_names():
    p = parse_process("a+?(x).b-!x.0")
    assert free_names(p) == frozenset({Endpoint("a", "+"), Endpoint("b", "-")})
    q = parse_process("new a.(a+!1.0 | a-?(y).c+!y.0)")
    assert free_names(q) == frozenset({Endpoint("c", "+")})


def test_free_proc_vars():
    assert free_proc_vars(parse_process("rec[2]X.(X | Y)")) == frozenset({"Y"})


def test_subst_name_basic():
    p = parse_process("b-!x.0")
    q = subst_name(p, "x", Endpoint("c", "+"))
    assert pretty_proc(q) == "b-!c+.0"


def test_subst_name_shadowing():
    p = parse_process("a+?(x).b-!x.0")
    assert subst_name(p, "x", 5) == p  # the binder shadows the target


def test_subst_name_reaches_the_subject_of_a_shadowing_input():
    q = subst_name(parse_process("x?(x).x!1.0"), "x", Endpoint("b", "+"))
    assert pretty_proc(q) == "b+?(x).x!1.0"


def test_subst_name_capture_is_undefined():
    # replacing x with c+ under new c would capture the endpoint
    p = parse_process("new c.b-!x.c+!1.0")
    assert subst_name(p, "x", Endpoint("c", "+")) is None


def test_subst_proc_basic():
    p = parse_process("a+!1.X")
    q = subst_proc(p, "X", parse_process("b-?(y).0"))
    assert pretty_proc(q) == "a+!1.b-?(y).0"


def test_subst_proc_capture_is_undefined():
    p = parse_process("new a.(a+!1.0 | X)")
    q = parse_process("a-?(y).0")
    assert subst_proc(p, "X", q) is None


def test_freshen_renames_only_clashes():
    p = parse_process("a+?(x).0 | b+?(x).0")
    f = freshen(p)
    assert f.left.binder != f.right.binder
    fresh = parse_process("a+?(x).b+?(y).0")
    assert freshen(fresh) == fresh


def test_freshen_respects_reserved():
    p = parse_process("a+?(x).0")
    f = freshen(p, reserved={"x"})
    assert f.binder != "x"


def test_all_idents():
    p = parse_process("new a.rec[1]X.a+?(x).0")
    assert all_idents(p) == {"a", "X", "x"}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_process_round_trip(seed):
    rng = random.Random(seed)
    p = rng.choice([gen_finite, gen_user])(rng, depth=5)
    assert parse_process(pretty_proc(p)) == p


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_type_round_trip(seed):
    t = gen_type(random.Random(seed))
    assert parse_type(pretty_type(t)) == t


def test_comments_and_whitespace():
    p = parse_process("# leading comment\n  0  # trailing\n")
    assert pretty_proc(p) == "0"


def _shape(x, *vals):
    return f"{type(x).__name__}({','.join(vals)})"


@pytest.mark.parametrize(
    "x, shape",
    [
        (
            parse_process("new a.(a+!1.0 | rec[2]X.(X | a-?(x).0))"),
            "New(Par(Output(Idle()),Rec(Par(ProcVar(),Input(Idle())))))",
        ),
        (parse_type("rec[1]t. ![a,b] (?[c,d] int . end) . t"), "TRec(TOut(TIn(Base(),End()),TypeVar()))"),
    ],
)
def test_kernel_visits_children_left_to_right(x, shape):
    assert fold(_shape, x) == shape
    preorder = re.findall(r"\w+", shape)
    assert [type(y).__name__ for y in subterms(x)] == preorder
    seen = []
    assert rewrite(lambda y, env: (seen.append(y) or y, env), x) is x  # nothing changed, nothing rebuilt
    assert [type(y).__name__ for y in seen] == preorder
