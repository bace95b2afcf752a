"""A fixed job that measures how fast the machine runs Python right now.

The machine's speed drifts with the load of its neighbours: the same stage
on the same input can take twice as long a few minutes later. The
benchmark runs this job between stages and reports every time scaled by
``REFERENCE_S / <median job time over the run>``, the seconds the work
would have taken at the speed of the machine the reference was taken on.

The job mimics the pipeline's mix of work: per-cell calls on small numpy
vectors (the Gram and scoring loops), a memoized recursion over node pairs
of two trees (the tree kernels) and dict counting (similarity features).
It is part of the benchmark, not of qrerank, so no change to the program
changes it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# the job's median time, rounded, on the machine that BASELINE.json was
# measured on
REFERENCE_S = 0.010

_VECTORS = list(np.random.default_rng(0).random((64, 20)))


def _tree(depth: int, label: int) -> tuple:
    if depth == 0:
        return (f"w{label % 7}",)
    return (f"N{label % 5}",) + tuple(_tree(depth - 1, 3 * label + k)
                                      for k in range(3))


def _nodes(tree: tuple, out: list) -> list:
    out.append(tree)
    for child in tree[1:]:
        _nodes(child, out)
    return out


_NODES = (_nodes(_tree(4, 0), []), _nodes(_tree(4, 1), []))


def _cells() -> float:
    total = 0.0
    for i, u in enumerate(_VECTORS):
        for j in range(i, i + 8):
            d = np.asarray(u, dtype=np.float64) - np.asarray(
                _VECTORS[j % len(_VECTORS)], dtype=np.float64)
            total += math.exp(-0.05 * float(np.dot(d, d)))
    return total


def _delta(a: tuple, b: tuple, memo: dict) -> float:
    key = (id(a), id(b))
    if key not in memo:
        value = 0.0
        if a[0] == b[0]:
            value = 0.4
            for ca, cb in zip(a[1:], b[1:]):
                value *= 1.0 + _delta(ca, cb, memo)
        memo[key] = value
    return memo[key]


def _tree_pairs() -> float:
    memo: dict = {}
    return sum(_delta(a, b, memo) for a in _NODES[0] for b in _NODES[1])


def _counting() -> int:
    counts: dict = {}
    for i in range(4000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
    return len(counts)


def job() -> None:
    _cells()
    _tree_pairs()
    _counting()


def measure(repeats: int) -> float:
    """Median wall time of ``repeats`` runs of the job."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        job()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
