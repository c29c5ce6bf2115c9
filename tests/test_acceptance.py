"""Acceptance suite: seven criteria, one test each, each printing a
single pass line on success.  Derived oracle values are computed by an
independent in-test evaluator and frozen by assertion."""

import random
import time

from helpers import corpus_process, subject_reduction_holds
from sessprog.gen import gen_finite, gen_subst_pair, gen_user, gen_well_typed, gen_well_typed_user
from sessprog.measure import check_decrease, emeasure, longest_path, vcount
from sessprog.progress import normal_form_shape, oracle_dynamic, verify_static
from sessprog.semantics import (
    approximant,
    approx_leq,
    canonicalize,
    is_normal_form,
    reachable,
    state_to_process,
    step,
)
from sessprog.sestypes import dual_full, dual_strict
from sessprog.syntax import (
    INF,
    Idle,
    Input,
    New,
    Output,
    Par,
    ProcVar,
    Rec,
    parse_process,
    parse_type,
    subst_proc,
)
from sessprog.typecheck import Assignment, CycleWitness, check_closed


def _report(n, detail):
    print(f"[criterion {n}] PASS: {detail}")


def test_criterion_1_example_verdicts_exact():
    t0 = time.monotonic()
    v = check_closed(corpus_process("mutual.ssp"), INF)
    assert not v.ok and isinstance(v.solution, CycleWitness)
    assert {(c.lhs, c.rhs) for c in v.solution.constraints} == {("be", "de"), ("de", "be")}
    t_mutual = time.monotonic() - t0

    t0 = time.monotonic()
    v = check_closed(corpus_process("self.ssp"), INF)
    assert not v.ok
    assert {(c.lhs, c.rhs) for c in v.solution.constraints} == {("be", "be")}
    t_self = time.monotonic() - t0

    t0 = time.monotonic()
    p = approximant(corpus_process("forwarder.ssp"), 0)
    v = check_closed(p, 0)
    assert v.ok
    stated = Assignment({"al": 1, "ga": 1, "de": 0, "be": 0})
    assert stated.satisfies(v.constraints)
    t_fwd = time.monotonic() - t0

    assert max(t_mutual, t_self, t_fwd) < 1.0
    _report(1, "mutual/self reject with the exact witnesses, forwarder accepts "
               "and the stated assignment satisfies the constraints")


def test_criterion_2_duality_suite():
    t = parse_type("rec[inf]t. ?[al,be] int . t")
    s = parse_type("![be,al] int . rec[inf]t. ![be,al] int . t")
    assert dual_full(t, s) and not dual_strict(t, s)

    for n in range(5):
        tn = parse_type(f"![al,be] int . rec[{n}]t. ![al,be] int . t")
        sn = parse_type(f"rec[{n}]t. ?[be,al] int . t")
        assert not dual_strict(tn, sn)
        assert not dual_full(tn, sn)
    _report(2, "unfolding derivation passes dual_full only; counterexample "
               "pair fails at n in 0..4")


def test_criterion_3_measure_properties():
    t0 = time.monotonic()
    rng = random.Random(33)
    n_procs = 0
    while n_procs < 1000:
        p = gen_finite(rng, depth=6, max_index=4)
        n_procs += 1
        ok, fails, truncated = check_decrease(p, max_states=1200)
        assert ok, fails[:1]
        if not truncated:
            assert longest_path(p, max_states=1200) <= emeasure(p)
    n_pairs = 0
    while n_pairs < 1000:
        p, x, q = gen_subst_pair(rng)
        pq = subst_proc(p, x, q)
        assert pq is not None
        assert emeasure(pq) == emeasure(p) + emeasure(q) * vcount(p, x)
        n_pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0
    _report(3, f"{n_procs} processes: exact decrease (1 per unfold, 2 per "
               f"communication), substitution law, path bound; {elapsed:.1f}s")


def test_criterion_4_subject_reduction():
    rng = random.Random(44)
    n = 0
    while n < 200:
        cells = 1 if n % 3 else 2
        p = gen_well_typed(rng, max_index=2, cells=cells)
        v = check_closed(p, INF)
        assert v.ok
        q = state_to_process(canonicalize(p))
        assert check_closed(q, INF).ok == v.ok
        ok, why = subject_reduction_holds(p, INF)
        assert ok, why
        n += 1
    _report(4, f"{n} well-typed processes: every successor re-checks; "
               "verdicts invariant under canonicalization")


def test_criterion_5_soundness_cross_check():
    rng = random.Random(55)
    corpus = [gen_well_typed_user(rng, cells=1) for _ in range(40)]
    corpus += [gen_well_typed_user(rng, cells=2) for _ in range(10)]
    corpus += [gen_user(rng, depth=5) for _ in range(50)]
    verified = 0
    for p in corpus:
        if verify_static(p).status != "verified-static":
            continue
        verified += 1
        for iota in (1, 2, 3):
            v = oracle_dynamic(p, iota, max_states=50_000)
            assert v.status != "violated-dynamic", v.evidence
    assert verified >= 40
    shaped = 0
    for p in corpus:
        if verify_static(p).status != "verified-static":
            continue
        for iota in (1, 2):
            r = reachable(canonicalize(approximant(p, iota)), 50_000)
            assert not r.truncated
            for st in r.states.values():
                if is_normal_form(st):
                    assert normal_form_shape(st)
                    shaped += 1
    _report(5, f"{verified} statically verified processes never flagged by the "
               f"dynamic oracle; {shaped} normal forms have the stable shape")


def _state_leq(q, s):
    """The approximation preorder lifted to canonical states: channels
    coincide and threads match one-to-one under the process preorder."""
    if q.anns.keys() != s.anns.keys() or len(q.threads) != len(s.threads):
        return False

    def match(i, used):
        if i == len(q.threads):
            return True
        for j, t in enumerate(s.threads):
            if j not in used and approx_leq(q.threads[i], t):
                if match(i + 1, used | {j}):
                    return True
        return False

    return match(0, frozenset())


def _replayable(approx_state, target):
    """Breadth-first search: can the approximant reach a state below the
    trace endpoint in as many steps as the trace took?"""
    frontier = {approx_state.key: approx_state}
    for _depth in range(target[0] + 1):
        if any(_state_leq(st, target[1]) for st in frontier.values()):
            return True
        nxt = {}
        for st in frontier.values():
            for _lab, succ in step(st):
                nxt[succ.key] = succ
        frontier = nxt
    return False


def test_criterion_6_approximation_properties():
    rng = random.Random(66)
    checked_traces = 0
    for i in range(40):
        p = gen_user(rng, depth=5) if i % 2 else gen_well_typed_user(rng, cells=1)
        for n in range(5):
            assert approx_leq(approximant(p, n), p)
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        s = canonicalize(p)
        trace_ok = True
        for _ in range(k):
            succs = step(s)
            if not succs:
                trace_ok = False
                break
            _lab, s = rng.choice(succs)
        if not trace_ok:
            continue
        a0 = canonicalize(approximant(p, n))
        assert _replayable(a0, (k, s)), (n, k)
        checked_traces += 1
    assert checked_traces >= 20
    _report(6, f"approximants sit below their sources for n in 0..4; "
               f"{checked_traces} traces replay and land below the endpoint")


def test_criterion_7_example_reduction_verbatim():
    p = parse_process("rec[3]X.(rec[6]Y.Y|X)")
    (label, succ), = step(canonicalize(p))
    assert label.kind == "rec"
    expected = {parse_process("rec[6]Y.Y"), parse_process("rec[2]X.(rec[6]Y.Y|X)")}
    assert set(succ.threads) == expected  # structural identity, no renaming

    # independent evaluator for the defining equations
    def v(proc, x):
        if isinstance(proc, Idle):
            return 0
        if isinstance(proc, ProcVar):
            return 1 if proc.ident == x else 0
        if isinstance(proc, (Input, Output, New)):
            return v(proc.body, x)
        if isinstance(proc, Par):
            return v(proc.left, x) + v(proc.right, x)
        if isinstance(proc, Rec):
            if proc.var == x:
                return 0
            base = v(proc.body, proc.var)
            return v(proc.body, x) * sum(base**k for k in range(proc.index))
        raise TypeError(proc)

    def e(proc):
        if isinstance(proc, (Idle, ProcVar)):
            return 0
        if isinstance(proc, (Input, Output)):
            return 1 + e(proc.body)
        if isinstance(proc, New):
            return e(proc.body)
        if isinstance(proc, Par):
            return e(proc.left) + e(proc.right)
        if isinstance(proc, Rec):
            base = v(proc.body, proc.var)
            return (1 + e(proc.body)) * sum(base**k for k in range(proc.index))
        raise TypeError(proc)

    before = emeasure(p)
    after = emeasure(state_to_process(succ))
    assert before == e(p) == 21
    assert after == e(state_to_process(succ)) == 20
    assert before - after == 1
    _report(7, "rec[3]X.(rec[6]Y.Y|X) steps verbatim; E drops 21 -> 20")
