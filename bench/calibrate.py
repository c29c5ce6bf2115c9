"""A fixed slice of pure-Python work, timed between stretches of the
verifier's work so that every time can be scaled to one machine speed.

On a shared 2-vCPU machine the speed of the same loop drifts by up to a
factor of two over seconds (see README.md).  The slice does the kind of
work the verifier does (frozen dataclasses, isinstance dispatch,
recursion, small dicts and strings) and uses none of its code, so a
change to the verifier never changes the slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

# Times are reported as if every slice had taken this long.
REFERENCE_S = 0.006


@dataclass(frozen=True)
class _Node:
    left: object
    right: object


def _size(n) -> int:
    if isinstance(n, _Node):
        return _size(n.left) + _size(n.right)
    return 1


def _unit() -> int:
    acc = 0
    for r in range(12):
        seen: dict = {}
        tree: object = 0
        for i in range(120):
            tree = _Node(tree, i) if i % 2 else _Node(i, tree)
            key = f"n{i % 37}.{r}"
            seen[key] = seen.get(key, 0) + 1
        acc += _size(tree) + len(seen) + len(" ".join(sorted(seen)))
    return acc


def slice_s() -> float:
    """Seconds taken by one slice (four units, about 6 ms here)."""
    t0 = perf_counter()
    for _ in range(4):
        _unit()
    return perf_counter() - t0
