"""The traced run: spans around calls into the program's modules, taken
from outside the program by replacing module attributes with wrappers.

A wrapper replaces every attribute of every loaded ``sessprog`` module
that holds the original function, so names imported into other modules
(``progress.reachable``, ``typecheck.free_names``) are traced as well.
A recursive function is timed and counted at its outermost call only.
Self time is a span's duration minus the time its child spans cover;
work done by the tracer's own hooks is left out of every span.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name); counts and times are reported per span name
TARGETS = (
    ("syntax", "parse_program", "syntax.parse"),
    ("syntax", "free_names", "syntax.free_names"),
    ("semantics", "canonicalize", "semantics.canonicalize"),
    ("semantics", "_make_state", "semantics.make_state"),
    ("semantics", "step", "semantics.step"),
    ("semantics", "reachable", "semantics.reachable"),
    ("measure", "emeasure", "measure.emeasure"),
    ("measure", "check_decrease", "measure.check_decrease"),
    ("measure", "longest_path", "measure.longest_path"),
    ("typecheck", "check_closed", "typecheck.check_closed"),
    ("typecheck", "solve", "typecheck.solve"),
    ("sestypes", "dual_full", "sestypes.dual_full"),
    ("progress", "verify_static", "progress.verify_static"),
    ("progress", "oracle_dynamic", "progress.oracle"),
    ("progress", "_residual_matches", "progress.residual_search"),
)

# per-layer metrics: name -> unit; every one is reported on every workload
METRICS = {
    "syntax.parse.calls": "count",
    "syntax.parse.s": "s",
    "syntax.parse.bytes": "bytes",
    "syntax.free_names.calls": "count",
    "syntax.free_names.s": "s",
    "semantics.canonicalize.calls": "count",
    "semantics.canonicalize.s": "s",
    "semantics.make_state.calls": "count",
    "semantics.make_state.s": "s",
    "semantics.step.calls": "count",
    "semantics.step.s": "s",
    "semantics.step.successors": "count",
    "semantics.reachable.calls": "count",
    "semantics.reachable.s": "s",
    "semantics.reachable.states": "count",
    "semantics.reachable.edges": "count",
    "semantics.key_reuse": "ratio",
    "measure.emeasure.calls": "count",
    "measure.emeasure.s": "s",
    "measure.check_decrease.s": "s",
    "measure.longest_path.s": "s",
    "typecheck.check_closed.calls": "count",
    "typecheck.check_closed.s": "s",
    "typecheck.constraints": "count",
    "typecheck.solve.calls": "count",
    "typecheck.solve.s": "s",
    "sestypes.dual_full.calls": "count",
    "sestypes.dual_full.s": "s",
    "progress.verify_static.s": "s",
    "progress.oracle.calls": "count",
    "progress.oracle.s": "s",
    "progress.residual_searches": "count",
    "progress.residual_states": "count",
    "progress.residual_distinct_ratio": "ratio",
}


class Tracer:
    def __init__(self, keep_spans: int):
        self.keep_spans = keep_spans  # spans kept in memory, first ones only
        self.spans: list = []  # (id, name, start, end, parent id)
        self.stack: list = []  # [span id, name, time covered by children]
        self.next_id = 0
        self.counts: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.program_keys: set = set()
        self.residual_keys: set = set()

    # -- hooks that turn results into counts

    def _on_result(self, name, args, result):
        c = self.counts
        if name == "syntax.parse":
            c["syntax.parse.bytes"] += len(args[0])
        elif name == "semantics.make_state":
            self.program_keys.add(result.key)
        elif name == "semantics.step":
            c["semantics.step.successors"] += len(result)
        elif name == "semantics.reachable":
            c["semantics.reachable.states"] += len(result.states)
            c["semantics.reachable.edges"] += len(result.edges)
            if self.stack and self.stack[-1][1] == "progress.residual_search":
                c["progress.residual_states"] += len(result.states)
                self.residual_keys.update(result.states)
        elif name == "typecheck.check_closed":
            c["typecheck.constraints"] += len(result.constraints)

    def begin_program(self):
        """Distinct keys are counted within one program's verdict."""
        self.counts["key_reuse.distinct"] += len(self.program_keys)
        self.counts["residual.distinct"] += len(self.residual_keys)
        self.program_keys = set()
        self.residual_keys = set()

    def wrap(self, name, fn):
        active = False

        def traced(*args, **kwargs):
            nonlocal active
            if active:
                return fn(*args, **kwargs)
            active = True
            parent = self.stack[-1] if self.stack else None
            frame = [self.next_id, name, 0.0]
            self.next_id += 1
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active = False
                self.stack.pop()
                self.counts[name + ".calls"] += 1
                self.self_s[name] += (t1 - t0) - frame[2]
                if len(self.spans) < self.keep_spans:
                    self.spans.append((frame[0], name, t0, t1, parent[0] if parent else None))
            self._on_result(name, args, result)
            if parent is not None:
                # the hook's own time is covered too, so no span is charged for it
                parent[2] += perf_counter() - t0
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "sessprog" or n.startswith("sessprog.")]
        for mod_name, attr, name in TARGETS:
            orig = getattr(sys.modules[f"sessprog.{mod_name}"], attr)
            wrapper = self.wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)

    def snapshot(self) -> dict:
        self.begin_program()
        return {"counts": dict(self.counts), "self_s": dict(self.self_s)}

    def write_spans(self, path):
        with open(path, "w") as f:
            for sid, name, t0, t1, parent in self.spans:
                f.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1, "parent": parent}) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_pass_metrics(before: dict, after: dict, scale: float) -> dict:
    """Per-layer metrics of one pass from two snapshots around it; times
    are multiplied by the pass's calibration ``scale``."""
    c = {k: after["counts"].get(k, 0) - before["counts"].get(k, 0) for k in after["counts"]}
    s = {k: after["self_s"].get(k, 0.0) - before["self_s"].get(k, 0.0) for k in after["self_s"]}
    out = {}
    for metric in METRICS:
        if metric.endswith(".s"):
            out[metric] = s.get(metric[:-2], 0.0) * scale
        elif metric == "semantics.key_reuse":
            out[metric] = _ratio(c.get("key_reuse.distinct", 0), c.get("semantics.make_state.calls", 0))
        elif metric == "progress.residual_distinct_ratio":
            out[metric] = _ratio(c.get("residual.distinct", 0), c.get("progress.residual_states", 0))
        elif metric == "progress.residual_searches":
            out[metric] = c.get("progress.residual_search.calls", 0)
        else:
            out[metric] = c.get(metric, 0)
    return out
