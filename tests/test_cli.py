import json
import os
import pathlib
import subprocess
import sys

import pytest

from sessprog import semantics, sestypes, typecheck
from sessprog.cli import main

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_accepts_forwarder(capsys):
    code, out, _ = run(capsys, "check", CORPUS / "forwarder.ssp")
    assert code == 0 and "accept" in out and "al=1" in out


def test_check_rejects_mutual_with_witness(capsys):
    code, out, _ = run(capsys, "check", CORPUS / "mutual.ssp")
    assert code == 1 and "be < de" in out and "de < be" in out


def test_check_json_is_deterministic(capsys):
    _, out1, _ = run(capsys, "check", CORPUS / "forwarder.ssp", "--json")
    _, out2, _ = run(capsys, "check", CORPUS / "forwarder.ssp", "--json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["status"] == "accept"


def test_oracle_self_counterexample(capsys):
    code, out, _ = run(capsys, "oracle", CORPUS / "self.ssp", "--approx", 1)
    assert code == 1 and "violated-dynamic" in out


def test_oracle_forwarder_holds(capsys):
    code, out, _ = run(capsys, "oracle", CORPUS / "forwarder.ssp")
    assert code == 0 and "holds-dynamic-at-bound" in out


def test_progress_verdicts(capsys):
    assert run(capsys, "progress", CORPUS / "forwarder.ssp")[0] == 0
    assert run(capsys, "progress", CORPUS / "mutual.ssp")[0] == 1


def test_explore_stats(capsys):
    code, out, _ = run(capsys, "explore", CORPUS / "forwarder.ssp", "--approx", 1)
    assert code == 0 and "states:" in out


def test_explore_truncation_exit(capsys):
    code, _, _ = run(
        capsys, "explore", CORPUS / "forwarder.ssp", "--approx", "3", "--max-states", "5"
    )
    assert code == 3


def test_explore_steps_each_state_once(monkeypatch, capsys):
    step, calls = semantics.step, []

    def counted(s, memo=None):
        calls.append(s.key)
        return step(s, memo)

    monkeypatch.setattr(semantics, "step", counted)
    for limit, exit_code in (("100000", 0), ("5", 3)):
        calls.clear()
        code, out, _ = run(
            capsys, "explore", CORPUS / "forwarder.ssp", "--approx", 3, "--max-states", limit, "--json"
        )
        assert code == exit_code
        assert sorted(calls) == sorted(set(calls)) and len(calls) == json.loads(out)["states"]


def test_run_is_seeded(capsys):
    _, out1, _ = run(capsys, "run", CORPUS / "forwarder.ssp", "--seed", 5, "--max-steps", 8, "--json")
    _, out2, _ = run(capsys, "run", CORPUS / "forwarder.ssp", "--seed", 5, "--max-steps", 8, "--json")
    assert out1 == out2


def test_measure_output(capsys):
    code, out, _ = run(capsys, "measure", CORPUS / "mutual.ssp")
    assert code == 0 and "E = 4" in out


def test_measure_infinite_index(capsys):
    code, _, err = run(capsys, "measure", CORPUS / "forwarder.ssp")
    assert code == 1 and "infinite" in err


def test_approx_prints_replaced_indices(capsys):
    code, out, _ = run(capsys, "approx", CORPUS / "orphan.ssp", "2")
    assert code == 0 and "rec[2]" in out and "inf" not in out


def test_dual_verdicts(capsys):
    code, out, _ = run(
        capsys,
        "dual",
        "rec[inf]t. ?[al,be] int . t",
        "![be,al] int . rec[inf]t. ![be,al] int . t",
    )
    assert code == 0
    assert "dual_strict: False" in out and "dual_full: True" in out


# dual only through unfolding: 30 outputs against 31 inputs per turn
_LONG_CYCLE = ("rec[inf]x. " + "![a,b] int . " * 30 + "x", "rec[inf]y. " + "?[b,a] int . " * 31 + "y")


def test_dual_decides_a_pair_of_930_type_pairs(capsys):
    code, out, err = run(capsys, "dual", *_LONG_CYCLE)
    assert code == 0 and "dual_full: True" in out and err == ""


def test_dual_pair_budget_is_a_limit(monkeypatch, capsys):
    monkeypatch.setattr(sestypes, "DUAL_PAIR_BUDGET", 100)
    code, _, err = run(capsys, "dual", *_LONG_CYCLE)
    assert code == 3 and "limit: more than 100 type pairs examined" in err


def test_check_rejects_a_non_dual_annotation_at_index_12(tmp_path, capsys):
    f = tmp_path / "r12.ssp"
    f.write_text("new a : ![al,be] int . rec[12]t. ![al,be] int . t ~ rec[12]t. ?[be,al] int . t . 0\n")
    code, out, _ = run(capsys, "check", f)
    assert code == 1 and "DualityFailure" in out


def test_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.ssp"
    bad.write_text("new . 0")
    code, _, err = run(capsys, "check", bad)
    assert code == 2 and "parse error" in err


def test_missing_file_exit(capsys):
    code, _, _ = run(capsys, "check", "/nonexistent/x.ssp")
    assert code == 2


def test_unreadable_file_is_a_usage_error(tmp_path, capsys):
    latin = tmp_path / "latin.ssp"
    latin.write_bytes("# caf\xe9\nnew a . 0\n".encode("latin-1"))
    for f in (tmp_path, latin):  # a directory, a file that is not UTF-8
        code, _, err = run(capsys, "check", f)
        assert code == 2 and err.startswith("error: "), err


@pytest.mark.parametrize("command", ["check", "progress", "oracle"])
def test_an_open_program_is_a_usage_error(command, tmp_path, capsys):
    # exit 1 would say the program is ill typed or has no progress
    f = tmp_path / "open.ssp"
    f.write_text("a+!1.0 | b-?(x).0")
    code, out, err = run(capsys, command, f)
    assert code == 2 and out == "" and err == "error: free names in a closed program: a+, b-\n"


@pytest.mark.parametrize("argv", [["approx", "2"], ["progress"]])
def test_a_finite_index_where_a_user_process_is_needed_is_a_usage_error(argv, tmp_path, capsys):
    f = tmp_path / "finite.ssp"
    f.write_text("new a.(rec[2]X.a+!1.X | rec[inf]Y.a-?(x).Y)")
    code, out, err = run(capsys, argv[0], f, *argv[1:])
    assert code == 2 and out == "" and err == "error: finite recursion index in a user process\n"


@pytest.mark.parametrize(
    "types, violation",
    [
        (("rec[1] t. t", "rec[1] t. t"), "type is not contractive: rec[1] t. t"),
        (
            ("![1,2] (?[1,2] t . end) . end", "?[2,1] (?[1,2] t . end) . end"),
            "payload type is not closed: ?[1,2] t . end",
        ),
        (("rec[1] t. ![1,2] int . t", "rec[1] t. rec[1] u. t"), "type is not contractive: rec[1] t. rec[1] u. t"),
    ],
)
def test_dual_rejects_ill_formed_types(types, violation, capsys):
    code, out, err = run(capsys, "dual", *types)
    assert code == 2 and out == "" and err == f"error: ill-formed type: {violation}\n"


def test_progress_has_no_judgment_index():
    with pytest.raises(SystemExit) as e:
        main(["progress", str(CORPUS / "forwarder.ssp"), "--judgment-index", "0"])
    assert e.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["approx", "orphan.ssp", "-3"],
        ["explore", "forwarder.ssp", "--approx", "-1"],
        ["oracle", "forwarder.ssp", "--approx", "-1"],
    ],
)
def test_negative_indices_are_usage_errors(argv, capsys):
    argv[1] = str(CORPUS / argv[1])
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2 and "not a natural number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["explore", "forwarder.ssp", "--max-states", "0"], "not a positive integer"),
        (["oracle", "forwarder.ssp", "--max-states", "-1"], "not a positive integer"),
        (["run", "forwarder.ssp", "--max-steps", "-3"], "not a natural number"),
    ],
)
def test_bounds_out_of_range_are_usage_errors(argv, message, capsys):
    argv[1] = str(CORPUS / argv[1])
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2 and message in capsys.readouterr().err


def test_smallest_bounds_are_accepted(capsys):
    code, out, _ = run(capsys, "run", CORPUS / "forwarder.ssp", "--max-steps", 0)
    assert code == 0 and "after 0 steps" in out
    code, out, _ = run(capsys, "explore", CORPUS / "forwarder.ssp", "--max-states", 1)
    assert code == 3 and "states: 1 " in out


def test_deep_nesting_gets_its_verdict(tmp_path, capsys):
    deep = tmp_path / "deep.ssp"
    deep.write_text("new a." + "a+!1." * 5000 + "0")
    code, out, _ = run(capsys, "check", deep)
    assert code == 1 and out == "reject\n1:7: SubjectTypeMismatch: a+ : end cannot send\n"


def test_an_internal_fault_is_not_a_reject(monkeypatch, capsys):
    def boom(sigma, t):
        return 1 / 0

    monkeypatch.setattr(typecheck, "obligation", boom)
    code, out, err = run(capsys, "check", CORPUS / "forwarder.ssp")
    assert code == 4 and out == ""
    assert err.startswith("Traceback") and err.endswith("ZeroDivisionError: division by zero\n")


def test_explore_keeps_a_guarded_restriction_apart(tmp_path, capsys):
    outs = []
    for inner in ("b", "c"):
        f = tmp_path / f"{inner}.ssp"
        f.write_text(f"new a . new b . (a+!b+.0 | a-?(x).new {inner} . x!1.0 | b-?(y).0)")
        code, out, _ = run(capsys, "explore", f)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["measure", "mutual.ssp"],
        ["run", "forwarder.ssp", "--max-steps", "50"],
        ["check", "forwarder.ssp", "--json"],
    ],
)
def test_a_closed_stdout_is_not_a_reject(argv):
    argv[1] = str(CORPUS / argv[1])
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        done = subprocess.run(
            [sys.executable, "-m", "sessprog.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            env={**os.environ, "PYTHONPATH": str(CORPUS.parent / "src")},
        )
    finally:
        os.close(write_end)
    assert done.returncode == 0 and b"Traceback" not in done.stderr, done.stderr.decode()
