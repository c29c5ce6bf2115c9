#!/usr/bin/env python3
"""Generate one workload's corpus as ``.ssp`` text from a seed.

Usage (from the repository root):

    python3 bench/corpus.py --workload measure-finite --seed 1 --out corpus.txt

The generators of ``sessprog.gen`` draw fresh names from module-level
counters, so the same seed gives the same text only in a fresh
interpreter; this script is therefore always run as its own process.
It prints one JSON line with the corpus digest and size.

The corpus file is a sequence of chunks.  Each chunk starts with a line
``# program <i> <json>`` whose JSON holds what the benchmark needs to
know about the program (approximation indices, cell count, the names in
an injected deadlock cell); the rest of the chunk is the program text.
``#`` starts a comment in ``.ssp``, so every chunk is a valid ``.ssp``
file on its own and the header never reaches the parser as syntax.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import random
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sessprog.gen import gen_finite, gen_user, gen_well_typed_user  # noqa: E402
from sessprog.semantics import approximant, canonicalize, reachable, state_to_process  # noqa: E402
from sessprog.syntax import Idle, Par, ProcVar, Rec, parse_process, pretty_proc  # noqa: E402

# A band or class that stays short after this many draws stops the run.
MAX_DRAWS = 5_000

def _fill(draw, classes) -> list[tuple[dict, str]]:
    """Draw candidates until every class has its count.  ``draw`` gives (text, facts); ``classes`` holds (fit, count) pairs,
    where fit(text, facts) gives the program's metadata or None, and a
    candidate joins the first open class it fits."""
    got: list = [[] for _ in classes]
    for _ in range(MAX_DRAWS):
        if all(len(g) >= n for g, (_fit, n) in zip(got, classes)):
            return [item for g in got for item in g]
        text, facts = draw()
        for g, (fit, n) in zip(got, classes):
            meta = fit(text, facts) if len(g) < n else None
            if meta is not None:
                g.append((meta, text))
                break
    raise SystemExit(f"corpus classes not filled after {MAX_DRAWS} draws")


# -- measure-finite ----------------------------------------------------------

MF_STATE_BOUND = 80
MF_MIN_BOUND = 10
# A program's work is estimated from one exploration: the length of every
# successor's canonical key summed over the edges (what the canonicalizer
# writes; twice when the state bound is not hit, since longest_path then
# explores again), the calls E and V make on every state, and the text
# length (parsing).  The weights are fitted to timings on 600 programs;
# the estimate is within 12 % of the time for half of them.
MF_CALL_WEIGHT = 0.45
MF_TEXT_WEIGHT = 6.5
# Programs wanted per band: (least threads in one state, least and most
# work, count).  A program joins the first open band it fits, under the
# largest state bound (from MF_MIN_BOUND to MF_STATE_BOUND) that puts its
# work inside the band.  Narrow bands keep a pass, the median program and
# the 95th percentile about the same from seed to seed.  Programs that
# reach twenty or more threads come up about twice in 3,000 draws, so
# the thread-heavy band asks for a dozen or more.
MF_BANDS = (
    (12, 30_000, 40_000, 3),
    (0, 30_000, 40_000, 30),
    (0, 4_000, 6_000, 14),
    (0, 2_000, 3_000, 13),
    (0, 1_000, 1_200, 80),
    (0, 0, 700, 60),
)


def _calls(p) -> int:
    """Calls that emeasure and vcount make on ``p`` (vcount recurses twice
    under each recursion)."""

    def v(q) -> int:
        if isinstance(q, (Idle, ProcVar)):
            return 1
        if isinstance(q, Par):
            return 1 + v(q.left) + v(q.right)
        if isinstance(q, Rec):
            return 1 + 2 * v(q.body)
        return 1 + v(q.body)

    def e(q) -> int:
        if isinstance(q, (Idle, ProcVar)):
            return 1
        if isinstance(q, Par):
            return 1 + e(q.left) + e(q.right)
        if isinstance(q, Rec):
            return 1 + e(q.body) + v(q.body)
        return 1 + e(q.body)

    return e(p)


class _Profile:
    """(work, most threads) under every state bound b up to the states
    explored so far.  A bounded BFS keeps the first states it finds and
    expands all of them, so a smaller bound sees a prefix of a larger
    one.  Exploration grows in stages only while the work stays within
    what the asking band could take."""

    STAGES = (MF_MIN_BOUND, 20, 40, MF_STATE_BOUND)

    def __init__(self, p, text: str):
        self.s0, self.text = canonicalize(p), text
        self.prof: list = []
        self.stage = 0
        self.whole = False  # the last entry is what MF_STATE_BOUND gives

    def upto(self, most_work: int):
        while not self.whole and (not self.prof or self.prof[-1][0] <= most_work):
            bound = self.STAGES[self.stage]
            self.stage += 1
            self.prof = _prefix_work(reachable(self.s0, max_states=bound), self.text)
            self.whole = len(self.prof) < bound or bound == MF_STATE_BOUND
        return self.prof, self.whole


def _prefix_work(r, text: str) -> list[tuple[int, int]]:
    order = {key: i for i, key in enumerate(r.states)}
    key_len = [0] * len(order)
    succs: list = [[] for _ in order]
    for st, _label, succ in r.edges:
        key_len[order[st.key]] += len(succ.key)
        succs[order[st.key]].append(succ)
    seen: set = set()
    prof, written, calls, threads = [], 0, 0, 0
    for i, st in enumerate(r.states.values()):
        written += key_len[i]
        threads = max(threads, len(st.threads))
        for s in [st] + succs[i]:
            if s.key not in seen:
                seen.add(s.key)
                calls += _calls(state_to_process(s))
        truncated = r.truncated or i + 1 < len(order)
        work = written * (1 if truncated else 2) + MF_CALL_WEIGHT * calls
        prof.append((int(work + MF_TEXT_WEIGHT * len(text)), threads))
    return prof


def _mf_fit(prof, whole: bool, band) -> int | None:
    """Largest state bound that puts the program inside the band."""
    least_threads, lo, hi, _n = band
    for b in range(len(prof), 0, -1):
        work, threads = prof[b - 1]
        if whole and b == len(prof):
            b = MF_STATE_BOUND
        elif b < MF_MIN_BOUND:
            return None
        if lo <= work <= hi and threads >= least_threads:
            return b
    return None


def measure_finite(rng: random.Random) -> list[tuple[dict, str]]:
    def draw():
        p = gen_finite(rng, depth=6, max_index=4)
        text = pretty_proc(p)
        return text, _Profile(p, text)

    def band_fit(band):
        def fit(_text, profile):
            prof, whole = profile.upto(band[2])
            bound = _mf_fit(prof, whole, band)
            if bound is None:
                return None
            return {"max_states": bound, "work": prof[min(bound, len(prof)) - 1][0]}
        return fit

    out = _fill(draw, [(band_fit(band), band[-1]) for band in MF_BANDS])
    rng.shuffle(out)
    return out


# -- progress-oracle ---------------------------------------------------------

PO_MAX_STATES = 50_000
# Programs wanted per class: (cells, process recursions in the text,
# approximation indices, count).  The recursion count tells gen's cells
# apart: a loop cell has two, a forwarder three, the send, two-step and
# delegation cells none.  A forwarder makes the oracle's residual
# searches blow up, so a two-cell program with one runs at index 1 only
# (two forwarders at index 2 take over 10 s).  The counts put one
# uniform class at each reported rank: loop cells cover the median
# program, lone forwarder cells the 90th percentile, with at most seven
# slower programs above them (so a loop beside another cell also runs at
# index 1 only).
PO_CLASSES = (
    (1, 0, (1, 2, 3), 20),
    (1, 2, (1, 2, 3), 30),
    (1, 3, (1, 2, 3), 12),
    (2, 0, (1, 2), 12),
    (2, 2, (1,), 3),
    (2, 4, (1, 2), 2),
    (2, 3, (1,), 3),
    (2, 5, (1,), 1),
    (2, 6, (1,), 1),
)
# arbitrary user programs, mostly ill typed, by the states their
# approximant at index 2 reaches: (least, most, count)
PO_USER = ((1, 2, 8), (3, 60, 8))
_PROC_REC = re.compile(r"rec\[inf\] [A-Z]")


def _states_at(p, iota, bound) -> int:
    r = reachable(canonicalize(approximant(p, iota)), max_states=bound)
    return len(r.states) if not r.truncated else bound + 1


def progress_oracle(rng: random.Random) -> list[tuple[dict, str]]:
    def cells_draw(cells):
        return lambda: (pretty_proc(gen_well_typed_user(rng, cells=cells)), None)

    def user_draw():
        p = gen_user(rng, depth=5)
        return pretty_proc(p), _states_at(p, 2, 60)

    def with_recs(k, iotas):
        return lambda text, _i: {"iotas": iotas} if len(_PROC_REC.findall(text)) == k else None

    def with_states(lo, hi):
        return lambda _t, states: {"iotas": [1, 2]} if lo <= states <= hi else None

    items = []
    for cells in (1, 2):
        classes = [(with_recs(k, list(iotas)), n) for c, k, iotas, n in PO_CLASSES if c == cells]
        items += _fill(cells_draw(cells), classes)
    items += _fill(user_draw, [(with_states(lo, hi), n) for lo, hi, n in PO_USER])
    rng.shuffle(items)
    return [({**meta, "max_states": PO_MAX_STATES}, text) for meta, text in items]


# -- static-wide -------------------------------------------------------------

# Cell counts, the same for every seed: 17 narrow programs, then two
# clusters of equal width that hold the reported ranks (sixteen programs
# of 24 cells around the median, fourteen of 52 cells around the 80th
# percentile), then three wide ones.  Checking time grows faster than
# linearly with width, so the wide ones carry about a third of a pass.
# The parser overflows the recursion limit near 500 cells.
SW_WIDTHS = list(range(8, 25, 1)) + [24] * 16 + [52] * 14 + [100, 150, 200]
# Every fifth program also gets one deadlocked cell shaped like
# corpus/mutual.ssp: each send is guarded by the other session's receive.
SW_DEADLOCK_EVERY = 5


def _deadlock_cell(k: int) -> tuple[str, list[str]]:
    a, b, al, be, ga, de = (f"{n}dl{k}" for n in ("a", "b", "al", "be", "ga", "de"))
    text = (
        f"new {a} : ?[{al},{be}] int . end . new {b} : ?[{ga},{de}] int . end . "
        f"({a}+?(x).{b}-!4.0 | {b}+?(y).{a}-!3.0)"
    )
    return text, [be, de]


def static_wide(rng: random.Random) -> list[tuple[dict, str]]:
    out = []
    for i, width in enumerate(SW_WIDTHS):
        p = gen_well_typed_user(rng, cells=width)
        meta = {"cells": width, "deadlock": None}
        if i % SW_DEADLOCK_EVERY == SW_DEADLOCK_EVERY - 1:
            cells = []
            while isinstance(p, Par):  # gen composes cells left-nested
                cells.append(p.right)
                p = p.left
            cells.append(p)
            cells.reverse()
            text, cycle = _deadlock_cell(i)
            cells.insert(rng.randint(0, len(cells)), parse_process(text))
            p = cells[0]
            for q in cells[1:]:
                p = Par(p, q)
            meta = {"cells": width + 1, "deadlock": cycle}
        out.append((meta, pretty_proc(p)))
    rng.shuffle(out)
    return out


GENERATORS = {
    "measure-finite": measure_finite,
    "progress-oracle": progress_oracle,
    "static-wide": static_wide,
}


def render(workload: str, seed: int) -> str:
    chunks = GENERATORS[workload](random.Random(f"{workload}:{seed}"))
    lines = [f"# sessprog benchmark corpus: workload {workload}, seed {seed}"]
    for i, (meta, text) in enumerate(chunks):
        lines.append(f"# program {i} {json.dumps(meta, sort_keys=True)}")
        lines.append(text)
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    text = render(args.workload, args.seed)
    pathlib.Path(args.out).write_text(text)
    print(json.dumps({
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "programs": text.count("\n# program "),
        "bytes": len(text.encode()),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
