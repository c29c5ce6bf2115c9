"""Terms 10,000 levels deep, built through the API: every fold, map,
printer and key of the library takes them without hitting the recursion
limit, each call within a time bound.  Then texts 10,000 levels deep
through ``cli.main``: the parser and the type checker run on explicit
stacks, so every command gets its real exit code, never the recursion
limit's.

Results are compared as canonical keys and printed text, built here
independently, never as nodes: dataclass ``==``, ``hash`` and ``repr``
on nodes still recurse.  Each bound is ten times or more the longest
time measured for its call on a 2-vCPU machine: at most 0.1 s for one
walk, 0.25 s for ``freshen`` and 0.95 s for ten explored states; on the
command line, with the parse, 2.9 s to check and 3.7 s to verify the
10,000 cells, 0.13–0.22 s to measure, approximate or check the chain,
1.6 s to explore ten of its states, 0.15 s to measure the nested
recursions and 3.0 s to decide the dual pair.  A ``|`` chain of 4,000
idle cells takes 0.035 s to check, 0.05 s on the command line.  A type
whose payloads nest 8,000 deep takes 0.02–0.04 s to check for
well-formedness, against a bound of 0.1 s."""

import random
import time

import pytest

from sessprog.cli import main
from sessprog.gen import gen_well_typed_user
from sessprog.measure import emeasure
from sessprog.semantics import (
    _serialize,
    approx_leq,
    approximant,
    canonicalize,
    reachable,
)
from sessprog.sestypes import (
    capability,
    dual_strict_path,
    obligation,
    syntactic_dual,
    type_eq,
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
    TypeVar,
    free_names,
    freshen,
    parse_process,
    pretty_proc,
    pretty_type,
)
from sessprog.typecheck import check_closed

N = 10_000
REC_EVERY = 100  # a type recursion opens before every 100th prefix


def deep_type(var="t", tail=None):
    """``rec[inf] t0. ![0,1] int . ?[1,2] int . ... . t0`` with a nested
    ``rec`` every REC_EVERY prefixes: N prefixes, N / REC_EVERY recursions."""
    t = TypeVar(f"{var}0") if tail is None else tail
    for i in reversed(range(N)):
        t = (TOut if i % 2 == 0 else TIn)(i, i + 1, Base(), t)
        if i % REC_EVERY == 0:
            t = TRec(INF, f"{var}{i // REC_EVERY}", t)
    return t


def deep_type_text(index="inf", dual=False):
    parts = []
    for i in range(N):
        if i % REC_EVERY == 0:
            parts.append(f"rec[{index}] t{i // REC_EVERY}. ")
        out = (i % 2 == 0) != dual
        pri = f"{i + 1},{i}" if dual else f"{i},{i + 1}"
        parts.append(f"{'!' if out else '?'}[{pri}] int . ")
    return "".join(parts) + "t0"


def deep_type_key():
    parts = []
    for i in range(N):
        if i % REC_EVERY == 0:
            parts.append(f"rec[inf]@{i // REC_EVERY}.")
        parts.append(f"{'!' if i % 2 == 0 else '?'}[{i},{i + 1}](int).")
    return "".join(parts) + "@0"


def deep_chain(a="a", x="X", y="Y", v="x"):
    """``new a : T . (rec[inf] X. a+!0 . a+!1 . ... . X | rec[inf] Y. a-?(x). Y)``:
    N outputs in a row under a ``new`` annotated with ``deep_type()``."""
    body = ProcVar(x)
    for i in reversed(range(N)):
        body = Output(Endpoint(a, "+"), i, body)
    reader = Rec(INF, y, Input(Endpoint(a, "-"), v, ProcVar(y)))
    return New(a, deep_type(), None, Par(Rec(INF, x, body), reader))


def deep_chain_text(a="a", x="X", y="Y", v="x", index="inf"):
    outs = "".join(f"{a}+!{i}." for i in range(N))
    return (
        f"new {a} : {deep_type_text(index)}."
        f"(rec[{index}] {x}.{outs}{x} | rec[{index}] {y}.{a}-?({v}).{y})"
    )


@pytest.fixture(scope="module")
def chain():
    return deep_chain()


@pytest.fixture(scope="module")
def deep():
    return deep_type()


WALK_S = 1.0


def within(seconds, f, *args):
    t0 = time.perf_counter()
    result = f(*args)
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"{f.__name__} took {elapsed:.2f} s"
    return result


def test_process_folds(chain):
    a = {Endpoint("a", "+"), Endpoint("a", "-")}
    assert within(WALK_S, free_names, chain) == frozenset()
    assert within(WALK_S, free_names, chain.body) == a
    assert within(WALK_S, free_names, chain.body.left.body) == {Endpoint("a", "+"), "X"}
    assert set(within(WALK_S, _serialize, chain)[3]) == {"a", "X", "Y", "x"}
    finite = approximant(chain, 1)
    assert within(WALK_S, emeasure, finite) == (N + 1) + 2


def test_printers(chain, deep):
    assert within(WALK_S, pretty_type, deep) == deep_type_text()
    assert within(WALK_S, pretty_proc, chain) == deep_chain_text()


def test_canonical_keys(chain):
    outs = "".join(f"#0+!{i}." for i in range(N))
    key = f"nu[1] rec[inf]%0.{outs}%0 || rec[inf]%0.#0-?(%1).%0"
    assert within(WALK_S, canonicalize, chain).key == key
    # guarded, the annotated new is serialized with the key of its type
    guarded = Input(Endpoint("c", "-"), "y", chain)
    outs = "".join(f"%1+!{i}." for i in range(N))
    key = f"nu[0] 'c-?(%0).new %1:{deep_type_key()}.(rec[inf]%2.{outs}%2|rec[inf]%3.%1-?(%4).%3)"
    assert within(WALK_S, canonicalize, guarded).key == key


def test_exploration(chain):
    r = within(10, reachable, canonicalize(approximant(chain, 20)), 10)
    assert len(r.states) == 10 and r.truncated
    assert all(len(k) > N for k in r.states)


def test_freshen_approximant_and_preorder(chain):
    assert pretty_proc(within(2.5, freshen, chain)) == deep_chain_text()
    twice = within(2.5, freshen, Par(chain, chain))
    assert pretty_proc(twice) == deep_chain_text() + " | " + deep_chain_text("a_1", "X_1", "Y_1", "x_1")
    two, three = within(WALK_S, approximant, chain, 2), approximant(chain, 3)
    assert pretty_proc(three) == deep_chain_text(index=3)
    assert within(WALK_S, approx_leq, two, three) and approx_leq(chain, chain)
    assert not approx_leq(three, two)


# A long ``|`` chain under an annotated ``new``: what is free in the sides
# of every ``|`` comes from one fold over the whole process, so the check
# is linear in the chain's length.
IDLE_CELLS = 4000
IDLE_CHAIN = "new a : ![1,2] int . end.(a+!1.0 | " + "0 | " * IDLE_CELLS + "a-?(x).0)"


def test_check_of_a_long_par_chain():
    assert within(1.0, check_closed, parse_process(IDLE_CHAIN), INF).ok


def test_type_folds_and_checks(deep):
    assert within(WALK_S, free_names, deep) == frozenset()
    assert within(WALK_S, free_names, deep.body) == {"t0"}
    assert within(WALK_S, well_formed, deep) == (True, None)
    ok, violation = within(WALK_S, well_formed, deep.body)
    assert not ok and violation.reason == "unbound type variable" and violation.subterm.ident == "t0"
    assert within(WALK_S, obligation, {}, deep) == 0 and within(WALK_S, capability, deep) == 1


def test_well_formed_walks_a_chain_of_recursions_once():
    # each maximal chain of directly nested recs is walked from its head
    # only, and the scope grows without a copy per binder
    ended, closed = End(), TypeVar("t0")
    for i in reversed(range(N)):
        ended, closed = TRec(INF, f"t{i}", ended), TRec(INF, f"t{i}", closed)
    assert within(WALK_S, well_formed, ended) == (True, None)
    ok, violation = within(WALK_S, well_formed, closed)
    assert not ok and violation.reason == "type is not contractive" and violation.subterm is closed


# Payloads nested 8,000 deep: what is free in every payload comes from one
# fold over the whole type, so the stratification check is linear in the
# nesting, not quadratic.
NESTED = 8_000


def test_well_formed_on_nested_payloads():
    closed, opened = End(), TypeVar("t")
    for _ in range(NESTED):
        closed, opened = TOut(0, 1, closed, End()), TOut(0, 1, opened, End())
    assert within(0.1, well_formed, closed) == (True, None)
    ok, violation = within(0.1, well_formed, TIn(0, 1, opened, End()))
    assert not ok and violation.reason == "payload type is not closed" and violation.subterm is opened


def test_type_rewrites_and_keys(deep):
    assert within(WALK_S, type_key, deep) == deep_type_key()
    assert within(WALK_S, type_eq, deep, deep_type(var="s"))
    dual = within(WALK_S, syntactic_dual, deep)
    assert pretty_type(dual) == deep_type_text(dual=True)
    assert type_key(within(WALK_S, syntactic_dual, dual)) == deep_type_key()
    text = deep_type_text()
    assert pretty_type(within(WALK_S, unfold, deep)) == text[len("rec[inf] t0. "):-len("t0")] + text
    approx = within(WALK_S, approximant, deep, 2)
    assert pretty_type(approx) == deep_type_text(index=2)
    assert within(WALK_S, approx_leq, approx, deep) and not approx_leq(deep, approx)


def test_duality_path(deep):
    assert within(WALK_S, dual_strict_path, deep, syntactic_dual(deep)) == (True, ())
    ended = syntactic_dual(deep_type(tail=End()))
    assert within(WALK_S, dual_strict_path, deep, ended) == (False, tuple(range(N)))


def test_check_of_one_annotation_searches_no_pairs(deep):
    # the negative type of ``new a : T`` is T's syntactic dual, dual by
    # construction, so no pair search runs into DUAL_PAIR_BUDGET, as a
    # search of its 10,100 pairs would at index inf
    for iota in (0, INF):
        v = within(WALK_S, check_closed, New("a", deep, None, Idle()), iota)
        assert [d.rule for d in v.diagnostics] == ["UnusedLinearName"]


# Texts 10,000 levels deep through the command line: the parser and the
# type checker run on explicit stacks, so each gets its real verdict.


@pytest.fixture(scope="module")
def texts(tmp_path_factory):
    d = tmp_path_factory.mktemp("deep")
    files = {
        # 10,000 cells, left-nested: the text opens with 9,999 '('
        "cells": pretty_proc(gen_well_typed_user(random.Random(1), cells=N)),
        "chain": "new a.(" + "a+!1." * (N // 2) + "0 | " + "a-?(x)." * (N // 2) + "0)",
        "recs": "".join(f"rec[1] X{i}." for i in range(N)) + "X0",
        "idle": IDLE_CHAIN,
    }
    for name, text in files.items():
        (d / f"{name}.ssp").write_text(text)
    return d, files


def cli(capsys, seconds, *argv):
    t0 = time.perf_counter()
    code = main([str(a) for a in argv])
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"{argv[0]} took {elapsed:.2f} s"
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_checks_and_verifies_10000_cells(texts, capsys):
    d, _ = texts
    code, out, _ = cli(capsys, 40, "check", d / "cells.ssp")
    assert code == 0 and out.startswith("accept\nassignment: ")
    code, out, _ = cli(capsys, 40, "progress", d / "cells.ssp")
    assert code == 0 and out.startswith("verified-static\n")


def test_cli_on_a_10000_prefix_chain(texts, capsys):
    d, files = texts
    chain = d / "chain.ssp"
    assert cli(capsys, 2, "measure", chain) == (0, f"E = {N}\n", "")
    assert cli(capsys, 2, "approx", chain, 1) == (0, files["chain"] + "\n", "")
    code, out, _ = cli(capsys, 3, "check", chain)
    assert code == 1 and out == "reject\n1:8: SubjectTypeMismatch: a+ : end cannot send\n"
    code, out, err = cli(capsys, 20, "explore", chain, "--max-states", 10)
    assert code == 3 and out.startswith("states: 10 ") and "recursion" not in err


def test_cli_checks_a_4000_cell_par_chain(texts, capsys):
    d, _ = texts
    assert cli(capsys, 1, "check", d / "idle.ssp") == (0, "accept\nassignment: (empty)\n", "")


def test_cli_measures_10000_nested_recursions(texts, capsys):
    d, _ = texts
    rows = ["V_X0(body) = 1"] + [f"V_X{i}(body) = 0" for i in range(1, N)]
    assert cli(capsys, 2, "measure", d / "recs.ssp") == (0, "\n".join([f"E = {N}", *rows]) + "\n", "")


def test_cli_decides_a_2000_prefix_dual_pair(capsys):
    n = 2000
    pair = ["".join(f"{'!?'[(i + d) % 2]}[{i + d},{i + 1 - d}] int . " for i in range(n)) + "end" for d in (0, 1)]
    code, out, _ = cli(capsys, 30, "dual", *pair)
    assert code == 0 and out == "dual_strict: True\ndual_full: True\n"
