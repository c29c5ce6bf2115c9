"""Each correctness check of the benchmark passes on a real verdict and
fails once that verdict is corrupted.

    python3 -m pytest bench/test_checks.py
"""

import pathlib
import sys
from dataclasses import replace

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import workloads  # noqa: E402
from sessprog import semantics  # noqa: E402
from sessprog.syntax import INF, parse_process  # noqa: E402
from sessprog.typecheck import Constraint  # noqa: E402

FINITE = "new a.(rec[2]X.a+!1.X | rec[3]Y.a-?(x).Y) | rec[2]Z.(Z | 0)"
MF_META = {"max_states": 80}


def _mf():
    return workloads.measure_finite(MF_META, FINITE)


def test_measure_finite_checks_pass_on_real_verdict():
    assert checks.check_measure_finite(MF_META, _mf()) == []


def test_wrong_emeasure_is_caught():
    res = _mf()
    res["e"] += 1
    assert any("emeasure" in e for e in checks.check_measure_finite(MF_META, res))


def test_wrong_decrease_verdict_is_caught():
    res = _mf()
    res["decrease_ok"] = False
    assert any("check_decrease" in e for e in checks.check_measure_finite(MF_META, res))


def test_longest_path_above_e_is_caught():
    res = _mf()
    res["longest"] = res["e"] + 1
    assert any("longest path" in e for e in checks.check_measure_finite(MF_META, res))


def test_wrong_edge_drop_is_caught():
    p = parse_process(FINITE)
    r = semantics.reachable(semantics.canonicalize(p))

    def e_of(st):
        return checks.e_measure(semantics.state_to_process(st))

    assert checks.edge_drop_errors(r.edges, e_of) == []
    st, label, succ = r.edges[0]
    relabelled = replace(label, kind="comm" if label.kind == "rec" else "rec")
    assert checks.edge_drop_errors([(st, relabelled, succ)], e_of)


def test_mirror_mismatch_is_caught():
    p = parse_process(FINITE)
    r = semantics.reachable(semantics.canonicalize(p))
    r_deep = semantics.reachable(semantics.canonicalize(checks.mirror(p)))
    r_top = semantics.reachable(semantics.canonicalize(checks.mirror(p, deep=False)))
    assert checks.mirror_errors(r, r_top) == []
    assert not checks.mirror_counts_differ(r, r_deep)
    renamed = replace(r_top, states={k + " ": s for k, s in r_top.states.items()})
    assert checks.mirror_errors(r, renamed)
    assert checks.mirror_counts_differ(r, replace(r_deep, edges=r_deep.edges[1:]))


def test_mirror_counts_differ_where_unfolding_renames_channels():
    # rec[3] X.(new a.(a+!a-.new b.X | X) | X) reaches 14 states, its mirror 26
    p = parse_process("rec[3] X.(new a.(a+!a-.new b.X | X) | X)")
    meta = {"max_states": 80}
    assert checks.deep_mirror_mismatch(meta, {"process": p})


PO_META = {"iotas": [1, 2], "max_states": 50_000}
ORPHAN = "new a . new b . (a+!b-.0 | rec[inf]X.X)"
FORWARDER = (ROOT / "corpus" / "forwarder.ssp").read_text()


def test_progress_checks_pass_on_real_verdicts():
    for text in (ORPHAN, FORWARDER):
        res = workloads.progress_oracle(PO_META, text)
        assert checks.check_progress_oracle(PO_META, res) == []


def test_unsound_verdict_pair_is_caught():
    verified = workloads.progress_oracle(PO_META, FORWARDER)["static"]
    res = workloads.progress_oracle(PO_META, ORPHAN)
    res["static"] = verified
    assert any("verified-static" in e for e in checks.check_progress_oracle(PO_META, res))


def test_counterexample_that_does_not_replay_is_caught():
    res = workloads.progress_oracle(PO_META, ORPHAN)
    _iota, v = res["dynamic"][0]
    v.evidence["prefix"] = "b-?"
    assert any("exposing" in e for e in checks.check_progress_oracle(PO_META, res))
    v.evidence["trace"] = ["comm a+ ! b-"]
    assert any("no matching" in e for e in checks.check_progress_oracle(PO_META, res))


def test_cli_examples_hold_and_a_wrong_exit_or_witness_is_caught():
    assert checks.check_corpus_cli(ROOT) == []
    expected = ["reject", "...[be < be]"]
    good = "reject\nUnsatisfiableConstraints: x [be < be]\n"
    assert checks.cli_errors("check f", expected, 1, good) == []
    assert checks.cli_errors("check f", expected, 0, good)
    assert checks.cli_errors("check f", expected, 1, "reject\nUnsatisfiableConstraints: x [be < de]\n")


def _sw(with_deadlock: bool):
    cells = ["new a : ![p1,p2] int . end.(a+!3.0 | a-?(x).0)",
             "new f : rec[inf]t. ![f1,f2] end . t . new g : rec[inf]s. ![f3,f4] end . s . "
             "(rec[inf]X. f-?(x). g+!x. X | rec[inf]Y. new h. f+!h+. Y | rec[inf]Z. g-?(y). Z)"]
    meta = {"cells": 2, "deadlock": None}
    if with_deadlock:
        cells.append("new c : ?[al,be] int . end . new d : ?[ga,de] int . end . "
                     "(c+?(x).d-!4.0 | d+?(y).c-!3.0)")
        meta = {"cells": 3, "deadlock": ["be", "de"]}
    return meta, workloads.static_wide(meta, " | ".join(f"({c})" for c in cells))


def test_static_wide_checks_pass_on_real_verdicts():
    for dl in (False, True):
        meta, res = _sw(dl)
        assert checks.check_static_wide(meta, res) == []


def test_rejected_deadlock_free_program_is_caught():
    meta, res = _sw(False)
    res["check"] = replace(res["check"], ok=False)
    assert checks.check_static_wide(meta, res)


def test_assignment_breaking_a_constraint_is_caught():
    meta, res = _sw(False)
    values = dict(res["check"].assignment.values)
    assert checks.unsatisfied(res["check"].constraints, values) == []
    assert checks.unsatisfied(res["check"].constraints, {k: 0 for k in values})


def test_open_cycle_witness_is_caught():
    meta, res = _sw(True)
    w = res["check"].solution.constraints
    assert checks.cycle_errors(w, meta["deadlock"]) == []
    assert checks.cycle_errors(w[:1], meta["deadlock"])
    assert checks.cycle_errors((Constraint("be", "ga", "t"), Constraint("ga", "be", "t")), ["be", "de"])


def test_cell_independence_violation_is_caught():
    meta, res = _sw(False)
    whole = res["check"]
    cells = [workloads.typecheck.check_closed(c, INF) for c in checks.top_cells(res["process"])]
    assert checks.cells_errors(whole, cells) == []
    assert checks.cells_errors(replace(whole, constraints=whole.constraints[1:]), cells)
    assert whole.assignment.values
    bumped = {k: n + 1 for k, n in whole.assignment.values.items()}
    moved = replace(whole, solution=replace(whole.assignment, values=bumped))
    assert checks.cells_errors(moved, cells)
