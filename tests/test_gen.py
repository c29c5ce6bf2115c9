"""The seeded generators are pinned: their output on fixed seeds, from a
fresh name counter, hashes to a recorded digest.  The test suite's
seeded corpora and the benchmark's corpora all come from these
generators, so a change to any draw shows up here first.  A change that
means to alter the corpora updates ``DIGEST`` on purpose."""

import hashlib
import itertools
import random

from sessprog import gen
from sessprog.syntax import pretty_proc, pretty_type

DIGEST = "58d1fa6b8e4fdf63b5cef2580c20a009fc4ebb0ba8ca1d901c6508277678530b"

CALLS = [
    ("gen_finite", {}),
    ("gen_finite", {"depth": 8, "max_index": 2}),
    ("gen_type", {}),
    ("gen_well_typed", {}),
    ("gen_well_typed", {"max_index": 5, "cells": 4}),
    ("gen_well_typed_user", {}),
    ("gen_well_typed_user", {"cells": 3}),
    ("gen_user", {}),
    ("gen_subst_pair", {}),
]


def test_generators_are_pinned(monkeypatch):
    monkeypatch.setattr(gen, "_uid", itertools.count())
    lines = []
    for seed in range(25):
        for name, kwargs in CALLS:
            out = getattr(gen, name)(random.Random(seed), **kwargs)
            if name == "gen_type":
                lines.append(pretty_type(out))
            elif name == "gen_subst_pair":
                p, x, q = out
                lines.append(f"{pretty_proc(p)} [{pretty_proc(q)}/{x}]")
            else:
                lines.append(pretty_proc(out))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST
