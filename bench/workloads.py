"""What one operation of each workload does: take one program's text to
its verdict.  Every call goes through a module attribute, so the traced
run sees the wrappers it installs on those attributes."""

from __future__ import annotations

from sessprog import measure, progress, semantics, syntax, typecheck


def measure_finite(meta: dict, text: str) -> dict:
    p = syntax.parse_program(text).process
    s0 = semantics.canonicalize(p)
    bound = meta["max_states"]
    ok, failures, truncated = measure.check_decrease(p, max_states=bound)
    longest = None if truncated else measure.longest_path(p, max_states=bound)
    return {
        "process": p,
        "threads": len(s0.threads),
        "decrease_ok": ok,
        "failures": len(failures),
        "truncated": truncated,
        "longest": longest,
        "e": measure.emeasure(p),
    }


def progress_oracle(meta: dict, text: str) -> dict:
    p = syntax.parse_program(text).process
    static = progress.verify_static(p)
    dynamic = [
        (iota, progress.oracle_dynamic(p, iota, max_states=meta["max_states"]))
        for iota in meta["iotas"]
    ]
    return {"process": p, "static": static, "dynamic": dynamic}


def static_wide(meta: dict, text: str) -> dict:
    p = syntax.parse_program(text).process
    return {
        "process": p,
        "check": typecheck.check_closed(p, syntax.INF),
        "static": progress.verify_static(p),
    }


def summary(workload: str, result: dict) -> tuple:
    """The parts of a verdict that must repeat exactly from pass to pass."""
    if workload == "measure-finite":
        return tuple(result[k] for k in ("threads", "decrease_ok", "failures", "truncated", "longest", "e"))
    if workload == "progress-oracle":
        return (result["static"].status,) + tuple(
            (iota, v.status, v.states_explored, repr(v.evidence)) for iota, v in result["dynamic"]
        )
    return (
        result["check"].ok,
        tuple(str(c) for c in result["check"].constraints),
        result["static"].status,
    )


RUN = {
    "measure-finite": measure_finite,
    "progress-oracle": progress_oracle,
    "static-wide": static_wide,
}
