"""Tree kernels, vector kernels, and Gram-matrix assembly.

Two tree kernels are provided:

* ``stk`` — the subset-tree kernel: counts shared fragments in which every
  included node keeps its complete production (all children), decayed by λ
  per production.
* ``ptk`` — the partial-tree kernel: also admits fragments that keep any
  ordered subsequence of a node's children, with gap decay λ and per-level
  decay μ. Child sequences are compared with the standard string-subsequence
  dynamic program (cubic in the child-list length per node pair).

Every tree of one kernel call (``gram_matrix``, ``kernel_matrix``, ``ptk``,
``stk``) is compiled against one table that the call creates
(``_Subtrees``). The table hash-conses subtrees: a subtree is interned by
its label and its children's subtree ids, so equal subtrees get one id
wherever they occur, and a child's id is always smaller than its parent's. A
compiled tree is its distinct subtree ids in ascending order, each with the
number of nodes that root it, plus buckets from a label or production to the
(id, count) pairs that carry it. The table (labels, productions, child
offsets and ids) and the compiled trees are flat int32 arrays, read in place
by both engines.

The tree kernels of one Gram or scoring row, its two trees against the
same-position trees of a block of columns, are one tree block
(``_tree_block``); ``_prepare`` computes each example's two self-kernels as
a block of one column, and ``ptk``/``stk`` one pair as a block of one tree.
Both kernels run over the pairs of subtrees the buckets match, in ascending
order of the row tree's ids. A Δ memo keyed by (row subtree, column
subtree), created per block and dropped after it, shares work across the
block's tree pairs. A memo miss means the labels (STK: the productions)
differ: a child's matched pairs are all filled in before its parent reads
them, since its id comes first, so no recursion is needed at any depth. PTK
skips the DP on 1×1 child blocks, and the DP returns 0 at once on an
all-zero block. Each matched pair adds its Δ times ``c1·c2`` to an exactly
rounded sum, c1 and c2 being the counts of its two subtrees, as one term
Δ·2^b per set bit b of ``c1·c2`` (exact products, so the sum is that of
``c1·c2`` copies of Δ, in a handful of terms). The result is
bit-identical to evaluating every node pair on its own, because Δ is a pure
function of the two subtrees and the DP of the block's values and λ (fixed
per call); every Δ is ≥ +0, so no key holds −0.0 or NaN and equal keys mean
equal bits; and the sum is exactly rounded, so only the exact total of the
terms matters.

Two engines compute a block, with the same bits. The native engine
(``_tk.c``, built and loaded by :mod:`._native` the first time a process
needs it) keeps the memo in C. It evaluates each Δ with the Python engine's
operations in the same order (``(μλ)λ``, ``μ(λ² + λ²·d)``, ``μ(λ² + s)``,
the DP's ``λ²·v`` seed, its M recurrence and next level ``D·(λ²·M)``, STK's
``d *= 1 + child``), sums with the partials of ``math.fsum`` (any exactly
rounded sum equals it), and is compiled with ``-ffp-contract=off`` and
without ``-ffast-math``, so no multiply-add is fused and no sum reordered.
The Python engine (``_ptk``, ``_stk``) also caches the child-sequence DP per
child-Δ block (flattened, with its width); it runs where the native engine
cannot be built or loaded (one WARNING names why) and serves the tests as
the reference. No option selects an engine. The memo holds one row's work,
not the whole call's, and ``kernel_matrix`` drops a row's subtrees and trees
from the table with the row. ``gram_matrix`` and ``kernel_matrix`` log one
INFO line with the call's tree pairs, interned subtrees, Δ values, DP runs
and the engine that ran. No state outlives a call.

On top of the tree kernels sits the example-pair kernel used for training:
an RBF (or linear) kernel on the dense feature vector, the two-way tree
kernel on the REL-linked tree pair, and a linear or RBF kernel on the rank
feature, summed per the enabled blocks.

The pair kernel is evaluated a row at a time (``_row``): one example
against a block of columns whose vectors and ranks are stacked once per call
(``_stack``, which also runs every missing-block and dimension check before
any row). ``gram_matrix`` takes row i against columns i..n-1 and mirrors it;
``kernel_matrix`` takes each row against all columns. The vector blocks are
batched but keep the per-pair arithmetic, so every value is bit-identical
to evaluating its pair alone: each dot product is one BLAS dot per pair
(``np.matmul`` of 1×dim by dim×1 calls the same routine as ``np.dot``),
each exponential is libm's ``exp``, the function ``math.exp`` calls
(``_exp``: one native loop per row), and the blocks are added to 0.0 in the
order sim, tree, rank. ``np.einsum`` or ``(d * d).sum(1)`` round some dot
products differently, and ``np.exp`` some exponentials. The tree block is
one ``_tree_block`` call per row, normalized in numpy with
:func:`normalize_kernel`'s operations. A row's temporaries are
O(columns × dim); no n×n×dim array is built. ``gram_matrix`` and
``kernel_matrix`` raise :class:`NumericalError` at the first non-finite
value.

The Gram cache file (``save_gram``, ``load_gram``) is text: the lower
triangle, each cell the 16 hex digits of its IEEE-754 bits, so it is exact
by construction and both directions are a few numpy operations per block of
cells. No engine is involved.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import time
from array import array
from collections import defaultdict
from dataclasses import fields
from itertools import accumulate
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import _native
from .config import KernelConfig
from .errors import DataError, NumericalError
# Example is defined in the numpy-free features module and re-exported here
from .features import Example
from .treebank import SyntaxTree

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# tree kernels
# ---------------------------------------------------------------------------

class _Subtrees:
    """A hash-consing table of subtrees and the trees compiled against it,
    created by one kernel call and shared by every tree that call compiles.

    A subtree is interned by its label id and its children's subtree ids,
    so equal subtrees, within one tree or across trees, get one id, and a
    child's id is always smaller than its parent's. Per id the table keeps
    the label id, the production id (-1 for a leaf) and the child ids, in
    flat int32 arrays that both engines read: ``labels``, ``prods`` and the
    child CSR ``kid_off``/``kid_ids``. Labels and productions share one id
    space, so a bucket key of either kind never collides with the other.

    :meth:`compile` packs a tree into ``forest`` at the offset it returns:
    ``n, k``, the tree's n distinct subtree ids in ascending order, the
    number of nodes that root each, its k bucket keys (the label and
    production ids it carries) in ascending order, the end of each key's
    bucket, then the buckets' subtree ids and their counts. The counters
    record the call's tree-kernel work for its log line.
    """

    def __init__(self):
        self.names: dict = {}       # label or production → id
        self.index: dict[tuple[int, tuple[int, ...]], int] = {}
        self.labels, self.prods = array("i"), array("i")
        self.kid_off, self.kid_ids = array("i", [0]), array("i")
        self.forest = array("i")
        self.interned = self.pairs = self.deltas = self.dp_runs = 0
        self.engine = "python"

    def compile(self, tree: SyntaxTree) -> int:
        names, index, labels, prods = (self.names, self.index, self.labels,
                                       self.prods)
        counts: dict[int, int] = defaultdict(int)
        done: list[int] = []    # finished subtrees not yet claimed by a parent
        for node in tree.iter_nodes():
            first_kid = len(done) - len(node.children)
            kids = tuple(done[first_kid:])
            label = names.setdefault(node.label, len(names))
            s = index.get((label, kids))
            if s is None:
                s = index[label, kids] = len(labels)
                prod = (label, tuple(labels[k] for k in kids))
                labels.append(label)
                prods.append(names.setdefault(prod, len(names))
                             if kids else -1)
                self.kid_ids.extend(kids)
                self.kid_off.append(len(self.kid_ids))
            done[first_kid:] = [s]
            counts[s] += 1
        nodes = sorted(counts.items())
        buckets = defaultdict(list)
        for s, c in nodes:
            buckets[labels[s]].append((s, c))
            if prods[s] >= 0:
                buckets[prods[s]].append((s, c))
        keys = sorted(buckets)
        pairs = [p for key in keys for p in buckets[key]]
        at = len(self.forest)
        self.forest.extend([len(nodes), len(keys)])
        # ids, counts, keys, bucket ends, bucket ids, bucket counts
        for column in (*zip(*nodes), keys,
                       accumulate(len(buckets[key]) for key in keys),
                       *zip(*pairs)):
            self.forest.extend(column)
        return at

    def mark(self) -> tuple[int, int]:
        """The sizes of the table and the forest, for :meth:`rollback`."""
        return len(self.labels), len(self.forest)

    def rollback(self, mark: tuple[int, int]) -> None:
        """Forget every subtree interned and tree compiled since ``mark``."""
        size, trees = mark
        for s in range(size, len(self.labels)):
            kids = self.kid_ids[self.kid_off[s]:self.kid_off[s + 1]]
            del self.index[self.labels[s], tuple(kids)]
        self.interned += len(self.labels) - size
        del (self.labels[size:], self.prods[size:],
             self.kid_ids[self.kid_off[size]:], self.kid_off[size + 1:],
             self.forest[trees:])

    def tally(self, pairs: int, deltas: int, dp_runs: int,
              engine: str) -> None:
        self.pairs += pairs
        self.deltas += deltas
        self.dp_runs += dp_runs
        self.engine = engine

    def report(self, call: str) -> None:
        logger.info("%s: %d tree pairs, %d subtrees interned, %d delta values "
                    "computed, %d child-block DP runs, %s engine", call,
                    self.pairs, self.interned + len(self.labels), self.deltas,
                    self.dp_runs, self.engine)


def _nodes(forest: array, t: int):
    """The (id, count) pairs of the compiled tree at offset ``t``."""
    n = forest[t]
    return zip(forest[t + 2:t + 2 + n], forest[t + 2 + n:t + 2 + 2 * n])


def _buckets(forest: array, t: int) -> dict[int, list[tuple[int, int]]]:
    """The buckets of the compiled tree at offset ``t``: key → (id, count)
    pairs."""
    n, k = forest[t], forest[t + 1]
    t += 2 + 2 * n
    keys, ends = forest[t:t + k], forest[t + k:t + 2 * k]
    t += 2 * k
    m = ends[-1]
    pairs = list(zip(forest[t:t + m], forest[t + m:t + 2 * m]))
    return {key: pairs[a:b] for key, a, b in zip(keys, [0, *ends], ends)}


def _add_times(terms: list, d: float, c: int) -> None:
    """Append terms that sum to c·d exactly: d·2^b for each set bit b of c.
    Scaling by a power of two is exact, so ``math.fsum`` of the terms is
    that of c copies of d; where d·2^b overflows, so would the copies' sum,
    and the error is the one ``math.fsum`` raises for it."""
    b = 0
    while c:
        if c & 1:
            try:
                terms.append(math.ldexp(d, b))
            except OverflowError:
                raise OverflowError("intermediate overflow in fsum") from None
        c >>= 1
        b += 1


def _stk(t1: int, t2: int, lam: float, sub: _Subtrees, memo: dict) -> float:
    prods, off, kids = sub.prods, sub.kid_off, sub.kid_ids
    buckets2 = _buckets(sub.forest, t2)
    terms = []
    for s1, c1 in _nodes(sub.forest, t1):
        for s2, c2 in buckets2.get(prods[s1], ()):
            d = memo.get((s1, s2))
            if d is None:
                d = lam
                for x, y in zip(kids[off[s1]:off[s1 + 1]],
                                kids[off[s2]:off[s2 + 1]]):
                    d *= 1.0 + memo.get((x, y), 0.0)
                memo[s1, s2] = d
            if c1 * c2 == 1:
                terms.append(d)
            else:
                _add_times(terms, d, c1 * c2)
    return math.fsum(terms)


def stk(t1: SyntaxTree, t2: SyntaxTree, lam: float = 0.4) -> float:
    """Subset-tree kernel between two trees.

    K = Σ_{n1∈t1, n2∈t2} Δ(n1, n2) where Δ is 0 unless the productions at
    n1 and n2 are identical, and otherwise λ·∏_j (1 + Δ(child_j, child_j)).
    Leaf children contribute a bare factor 1, so a matching preterminal pair
    scores exactly λ. Symmetric in its tree arguments (bit-for-bit: the
    child products run in the same positional order either way, and the
    final reduction is an exactly rounded sum).
    """
    if not 0.0 < lam <= 1.0:
        raise DataError(f"lambda must be in (0, 1], got {lam}")
    return _one_pair("STK", t1, t2, lam, 1.0)


def _subsequence_sum(D: list[tuple[float, ...]], lam: float) -> float:
    """Σ over pairs of equal-length nonempty child subsequences of
    λ^{span(J1)+span(J2)} · ∏ Δ(paired children), via the subsequence-kernel
    dynamic program; D[i][j] is Δ of the i-th and j-th children."""
    if not any(map(any, D)):
        return 0.0      # every child pair unmatched: no term is nonzero
    n, m = len(D), len(D[0])
    lam2 = lam * lam
    # dps holds DPS_p: the sum over subsequence pairs of length p that END
    # exactly at positions (i, j), weighted by full spans.
    dps = [[lam2 * v for v in row] for row in D]
    terms = [v for row in dps for v in row]
    for p in range(2, min(n, m) + 1):
        # M[i][j+1] = Σ_{i'≤i, j'≤j} λ^{i-i'} λ^{j-j'} dps[i'][j'], for the
        # entries read below (a symmetric grouping, so that transposing the
        # arguments transposes M exactly)
        M, up = [], [0.0] * m
        for i in range(n - 1):
            row = [0.0]
            for j in range(m - 1):
                row.append(dps[i][j] + lam * (up[j + 1] + row[j])
                           - lam2 * up[j])
            M.append(row)
            up = row
        nxt = [[0.0] * m for _ in range(n)]
        alive = False
        for i in range(1, n):
            for j in range(1, m):
                if D[i][j] != 0.0 and M[i - 1][j] != 0.0:
                    v = D[i][j] * (lam2 * M[i - 1][j])
                    nxt[i][j] = v
                    terms.append(v)
                    alive = True
        if not alive:
            break
        dps = nxt
    return math.fsum(terms)


def _ptk(t1: int, t2: int, lam: float, mu: float, sub: _Subtrees,
         memo: dict, blocks: dict) -> float:
    lam2 = lam * lam
    mu_lam2 = mu * lam * lam    # a childless node; (μλ)λ, not μ(λλ)
    labels, off, kids = sub.labels, sub.kid_off, sub.kid_ids
    buckets2 = _buckets(sub.forest, t2)
    terms = []
    for s1, c1 in _nodes(sub.forest, t1):
        for s2, c2 in buckets2.get(labels[s1], ()):
            d = memo.get((s1, s2))
            if d is None:
                a = kids[off[s1]:off[s1 + 1]]
                b = kids[off[s2]:off[s2 + 1]]
                if not a or not b:
                    d = mu_lam2
                elif len(a) == 1 and len(b) == 1:   # the DP's one term is λ²·Δ
                    d = mu * (lam2 + lam2 * memo.get((a[0], b[0]), 0.0))
                else:
                    m = len(b)
                    key = (m, *[memo.get((x, y), 0.0) for x in a for y in b])
                    s = blocks.get(key)
                    if s is None:
                        s = blocks[key] = _subsequence_sum(
                            [key[k:k + m] for k in range(1, len(key), m)], lam)
                    d = mu * (lam2 + s)
                memo[s1, s2] = d
            if c1 * c2 == 1:
                terms.append(d)
            else:
                _add_times(terms, d, c1 * c2)
    return math.fsum(terms)


def ptk(t1: SyntaxTree, t2: SyntaxTree, lam: float = 0.4, mu: float = 0.4) -> float:
    """Partial-tree kernel between two trees.

    K = Σ_{n1,n2} Δ(n1, n2); Δ = 0 when labels differ, otherwise
    μ·(λ² + Σ_{J1,J2} λ^{d(J1)+d(J2)} ∏_i Δ(c_{J1,i}, c_{J2,i})) over pairs
    of equal-length nonempty child subsequences, d(J) being the span from
    first to last selected index. No cap on subsequence length. Symmetric.
    """
    if not 0.0 < lam <= 1.0:
        raise DataError(f"lambda must be in (0, 1], got {lam}")
    if not 0.0 < mu <= 1.0:
        raise DataError(f"mu must be in (0, 1], got {mu}")
    return _one_pair("PTK", t1, t2, lam, mu)


def _one_pair(kind: str, t1: SyntaxTree, t2: SyntaxTree, lam: float,
              mu: float) -> float:
    sub = _Subtrees()
    row = np.array([sub.compile(t1)])
    return float(_tree_block(kind, lam, mu, sub, row,
                             np.array([[sub.compile(t2)]]))[0, 0])


def _tree_block(kind: str, lam: float, mu: float, sub: _Subtrees,
                row: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Raw tree kernels between each tree of one row and the tree in the
    same position of each column, all compiled against ``sub``: ``row``
    holds the forest offsets of the row's trees and ``cols`` one such row
    per column; the result has the shape of ``cols``.

    The native engine computes the block when it is available; else, or if
    it reports running out of memory or an overflowing sum, the Python
    engine does, so an error is raised as ``math.fsum`` raises it. One Δ
    memo serves the block and is dropped after it; the Python engine adds a
    child-block DP cache."""
    row = np.ascontiguousarray(row, dtype=np.int64)
    cols = np.ascontiguousarray(cols, dtype=np.int64)
    if cols.ndim != 2 or cols.shape[1] != len(row):
        raise ValueError(f"tree block of shape {cols.shape} for a row of "
                         f"{len(row)} trees")
    out = np.empty(cols.shape)
    if not out.size:
        return out
    native = _native.load()
    if native is not None:
        work = np.zeros(2, dtype=np.int64)
        if native.tree_block(
                int(kind == "PTK"), lam, mu,
                *(a.buffer_info()[0] for a in (sub.labels, sub.prods,
                                               sub.kid_off, sub.kid_ids,
                                               sub.forest)),
                len(row), row.ctypes.data, len(cols), cols.ctypes.data,
                out.ctypes.data, work.ctypes.data) == 0:
            sub.tally(out.size, *work.tolist(), "native")
            return out
    memo, blocks = {}, {}
    for j, col in enumerate(cols.tolist()):
        for k, (t1, t2) in enumerate(zip(row.tolist(), col)):
            out[j, k] = (_stk(t1, t2, lam, sub, memo) if kind == "STK"
                         else _ptk(t1, t2, lam, mu, sub, memo, blocks))
    sub.tally(out.size, len(memo), len(blocks), "python")
    return out


def normalize_kernel(k_xy: float, k_xx: float, k_yy: float) -> float:
    """Cosine-style normalization k_xy / sqrt(k_xx · k_yy)."""
    if k_xx <= 0.0 or k_yy <= 0.0:
        raise NumericalError(
            f"degenerate self-kernel (k_xx={k_xx}, k_yy={k_yy}): "
            "cannot normalize"
        )
    return k_xy / math.sqrt(k_xx * k_yy)


def _normalize(k: np.ndarray, k_row: np.ndarray,
               k_cols: np.ndarray) -> np.ndarray:
    """:func:`normalize_kernel` over a row's tree block: k[j, t] over
    sqrt(k_row[t] · k_cols[j, t]), each operation correctly rounded as in
    the one-cell form. The first degenerate self-kernel, in column order,
    raises."""
    bad = (k_row <= 0.0) | (k_cols <= 0.0)
    if bad.any():
        j, t = np.argwhere(bad)[0]
        normalize_kernel(float(k[j, t]), float(k_row[t]), float(k_cols[j, t]))
    return k / np.sqrt(k_row * k_cols)


def _require_trees(e: Example):
    if e.tree_first is None or e.tree_second is None:
        raise DataError(
            f"tree block enabled but example ({e.query_id}, {e.candidate_id}) "
            "is missing its REL-linked tree pair"
        )


class _Trees(NamedTuple):
    """The tree state of a block of examples in one kernel call: the forest
    offsets of each example's two compiled trees (n×2, or n×0 when the tree
    block is off) and their self-kernels (same shape; ones where not
    needed)."""
    at: np.ndarray
    selfs: np.ndarray

    def tail(self, i: int) -> _Trees:
        return _Trees(self.at[i:], self.selfs[i:])


def _prepare(examples, cfg: KernelConfig, sub: _Subtrees,
             selfs: bool) -> _Trees:
    """The tree state of ``examples``: their two trees compiled against the
    call's table ``sub`` and, if ``selfs``, their self-kernels. An example's
    two self-kernels are one tree block, sharing one Δ memo."""
    if not cfg.use_tk:
        return _Trees(np.empty((len(examples), 0), dtype=np.int64),
                      np.empty((len(examples), 0)))
    for e in examples:
        _require_trees(e)
    at = np.array([(sub.compile(e.tree_first), sub.compile(e.tree_second))
                   for e in examples], dtype=np.int64)
    k = np.ones(at.shape)
    if selfs:
        for i, trees in enumerate(at):
            k[i] = _tree_block(cfg.tk_kind, cfg.lam, cfg.mu, sub, trees,
                               trees[None])[0]
    return _Trees(at, k)


def _exp(x: np.ndarray) -> np.ndarray:
    """``math.exp`` of each value of x. The native engine calls libm's
    ``exp``, the function ``math.exp`` calls, so the bits are the same; where
    a value overflows, or the engine is unavailable, ``math.exp`` runs, and
    raises as it does."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    native = _native.load()
    if native is not None:
        out = np.empty_like(x)
        if native.exp(len(x), x.ctypes.data, out.ctypes.data) == 0:
            return out
    return np.array([math.exp(v) for v in x.tolist()])


def _rbf_row(u: np.ndarray, X: np.ndarray, gamma: float) -> np.ndarray:
    """exp(−γ‖u−x‖²) for each row x of X: one BLAS dot and one ``exp`` per
    row, as for one pair alone (see the module docstring)."""
    d = u - X
    sq = np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]
    return _exp(-gamma * sq)


def _resolve_gamma(cfg: KernelConfig, dim: int) -> float:
    return cfg.gamma if cfg.gamma is not None else 1.0 / dim


def _require_vec(e: Example) -> array:
    if e.vec is None:
        raise DataError(
            f"similarity block enabled but example ({e.query_id}, "
            f"{e.candidate_id}) has no feature vector"
        )
    return e.vec


def _require_rank(e: Example) -> float:
    if e.rank_value is None:
        raise DataError(
            f"rank block enabled but example ({e.query_id}, "
            f"{e.candidate_id}) has no rank feature"
        )
    return e.rank_value


def _check_dims(u, v) -> None:
    if len(u) != len(v):
        raise DataError(
            f"feature vectors disagree in dimension: ({len(u)},) vs "
            f"({len(v)},)")


def _stack(examples, cfg: KernelConfig):
    """The vec block (n×dim, each vec checked against the first) and the
    rank block (n) of ``examples`` as float64 arrays, each None when the
    config does not use it. The one place where the examples' plain float
    vectors become a numpy block: their bytes, joined, read in place."""
    X = r = None
    if cfg.use_sim:
        vecs = [_require_vec(e) for e in examples]
        for v in vecs:
            _check_dims(vecs[0], v)
        X = np.frombuffer(b"".join(vecs)).reshape(len(vecs), len(vecs[0]))
    if cfg.use_rank:
        r = np.array([_require_rank(e) for e in examples], dtype=np.float64)
    return X, r


def _row(e: Example, p: _Trees, X, r, cols: _Trees, cfg: KernelConfig,
         sub: _Subtrees) -> np.ndarray:
    """The combined kernel between one example ``e`` and a block of
    columns: their stacked vec and rank blocks ``X`` and ``r`` (from
    :func:`_stack`) and their tree state ``cols``. ``p`` is a tree state
    whose first example is ``e``; in a Gram row it is ``cols`` itself, and
    the first column, the diagonal, takes the self-kernels at hand.

    Each value is the sum, in this order, of the sim, tree and rank blocks,
    starting from 0.0, with the arithmetic of one pair alone; temporaries
    are O(columns × dim). The row's tree kernels are one tree block
    (:func:`_tree_block`), sharing one Δ memo."""
    row = np.zeros(len(cols.at))
    # an overflow leaves a non-finite cell, which gram_matrix and
    # kernel_matrix report as a NumericalError; numpy's warning would only
    # precede that message
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.use_sim:
            u = np.asarray(_require_vec(e), dtype=np.float64)
            _check_dims(u, X[0])
            if cfg.vec_kernel == "LINEAR":
                row += np.matmul(X[:, None, :], u[:, None])[:, 0, 0]
            else:
                row += _rbf_row(u, X, _resolve_gamma(cfg, len(u)))
        if cfg.use_tk:
            diagonal = int(p is cols)
            k = np.empty(cols.at.shape)
            k[:diagonal] = p.selfs[:diagonal]
            k[diagonal:] = _tree_block(cfg.tk_kind, cfg.lam, cfg.mu, sub,
                                       p.at[0], cols.at[diagonal:])
            if cfg.normalize_tk:
                k = _normalize(k, p.selfs[0], cols.selfs)
            row += k[:, 0] + k[:, 1]
        if cfg.use_rank:
            r_e = _require_rank(e)
            if cfg.rank_kernel == "LINEAR":
                row += r_e * r
            else:
                d = r_e - r
                row += _exp((-_resolve_gamma(cfg, 1) * d) * d)
    return row


def _require_finite(call: str, i: int, first: int, row: np.ndarray) -> None:
    """Raise :class:`NumericalError` naming the first non-finite value of
    ``row``, cells (i, first), (i, first + 1), ... of the call's matrix."""
    bad = ~np.isfinite(row)
    if bad.any():
        j = int(np.argmax(bad))
        raise NumericalError(f"{call}: non-finite kernel value {row[j]} at "
                             f"cell ({i}, {first + j})")


def gram_matrix(examples: list[Example], cfg: KernelConfig) -> np.ndarray:
    """Full kernel matrix: G[i][j] is the combined kernel of e_i and e_j,
    the sum of the blocks ``cfg`` enables.

    Row i is computed against columns i..n-1 and mirrored, so the result is
    exactly symmetric. Tree self-kernels, computed once, also fill the
    diagonal. A non-finite value raises :class:`NumericalError` naming its
    cell, the first in row-major order.
    """
    if not examples:
        raise DataError("gram_matrix requires at least one example")
    n = len(examples)
    sub = _Subtrees()
    prepared = _prepare(examples, cfg, sub, True)
    X, r = _stack(examples, cfg)
    G = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        tail = prepared.tail(i)
        row = _row(examples[i], tail,
                   None if X is None else X[i:], None if r is None else r[i:],
                   tail, cfg, sub)
        _require_finite("gram_matrix", i, i, row)
        G[i, i:] = row
        G[i:, i] = row
    if cfg.use_tk:
        sub.report("gram_matrix")
    return G


def kernel_matrix(rows: list[Example], cols: list[Example],
                  cfg: KernelConfig) -> np.ndarray:
    """Rectangular kernel matrix: K[i][j] is the combined kernel of
    rows[i] and cols[j], as in :func:`gram_matrix`.
    Each tree is compiled, and its self-kernels computed, once: a column's
    for the whole call, a row's for its row only; a row's subtrees and
    trees leave the table with the row. A non-finite value raises
    :class:`NumericalError` naming its cell, the first in row-major order."""
    if not rows or not cols:
        raise DataError("kernel_matrix requires non-empty example lists")
    sub = _Subtrees()
    prep_c = _prepare(cols, cfg, sub, cfg.normalize_tk)
    mark = sub.mark()
    X, r = _stack(cols, cfg)
    K = np.empty((len(rows), len(cols)), dtype=np.float64)
    for i, e_i in enumerate(rows):
        p_i = _prepare([e_i], cfg, sub, cfg.normalize_tk)
        K[i] = _row(e_i, p_i, X, r, prep_c, cfg, sub)
        _require_finite("kernel_matrix", i, 0, K[i])
        sub.rollback(mark)
    if cfg.use_tk:
        sub.report("kernel_matrix")
    return K


# ---------------------------------------------------------------------------
# config fingerprint and the Gram cache file
# ---------------------------------------------------------------------------

def config_fingerprint(cfg: KernelConfig) -> str:
    """Stable hex digest of every kernel hyperparameter.

    Grams, models, and metrics reports all echo this value so that mixing
    artifacts produced under different kernels is detectable.
    """
    canon = ";".join(
        f"{name}={getattr(cfg, name)!r}"
        for name in sorted(f.name for f in fields(KernelConfig))
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


GRAM_MAGIC = "qrerank-gram v2"
# the two hex digits of each byte, as one uint16 in memory order
_PAIRS = np.frombuffer(b"".join(b"%02x" % b for b in range(256)),
                       dtype=np.uint16)
_CELL = 17          # bytes per cell: 16 hex digits and a separator
_BLOCK = 1 << 15    # cells per block: a few MB of temporaries at any n


def _blocks(n: int):
    """The lower triangle of an n×n matrix in blocks of whole rows, about
    ``_BLOCK`` cells each but at least one row: rows i..j-1 of the block,
    the mask of their cells in ``G[i:j, :j]`` and the separator after each
    cell, a newline after a row's last and a space after the others."""
    i = 0
    while i < n:
        # the largest j with j(j+1)/2 - i(i+1)/2 <= _BLOCK
        j = (math.isqrt(8 * _BLOCK + 4 * i * (i + 1) + 1) - 1) // 2
        j = min(n, max(i + 1, j))
        lower = np.arange(j) <= np.arange(i, j)[:, None]
        sep = np.full((j * (j + 1) - i * (i + 1)) // 2, ord(" "),
                      dtype=np.uint8)
        sep[np.cumsum(np.arange(i + 1, j + 1)) - 1] = ord("\n")
        yield i, j, lower, sep
        i = j


def save_gram(path: str | Path, gram: np.ndarray, fingerprint: str) -> None:
    """Write a Gram matrix cache: three header lines, then the lower
    triangle row-major, row i holding G[i][0..i], each value as the 16
    lowercase hex digits of its IEEE-754 binary64 bits and a space, or a
    newline after a row's last. A non-finite value raises
    :class:`NumericalError` naming its cell. One INFO line gives n, the
    file's bytes and the seconds."""
    start = time.perf_counter()
    gram = np.asarray(gram, dtype=np.float64)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise DataError("gram must be a square matrix")
    n = gram.shape[0]
    if not np.isfinite(gram).all():
        for i in range(n):
            _require_finite("save_gram", i, 0, gram[i, :i + 1])
    with open(path, "wb") as fh:
        fh.write(f"# {GRAM_MAGIC}\n# fingerprint: {fingerprint}\n# n: {n}\n"
                 .encode("utf-8"))
        for i, j, lower, sep in _blocks(n):
            bits = gram[i:j, :j][lower].astype(">f8").view(np.uint8)
            cells = np.empty((len(sep), _CELL), dtype=np.uint8)
            cells[:, :16].view(np.uint16)[:] = _PAIRS[bits.reshape(-1, 8)]
            cells[:, 16] = sep
            fh.write(cells)
        size = fh.tell()
    logger.info("save_gram: n %d, %d bytes, %.3f s", n, size,
                time.perf_counter() - start)


def _header_line(fh, path) -> str:
    line = fh.readline()
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 ({exc.reason})") from exc


def _bad_cell(cells: np.ndarray, pairs: np.ndarray, i: int,
              sep: np.ndarray) -> str:
    """What is wrong with the first bad cell of a block of rows from i."""
    k = int(np.argmax((pairs > 255).any(axis=1) | (cells[:, 16] != sep)))
    row = i + int(np.count_nonzero(sep[:k] == ord("\n")))
    if cells[k, 16] == sep[k]:
        text = cells[k, :16].tobytes().decode("latin-1")
        return f"bad number {text!r} in row {row}"
    if cells[k, 16] not in b" \n":
        return f"bad separator {chr(cells[k, 16])!r} in row {row}"
    first = (row * (row + 1) - i * (i + 1)) // 2
    ends = np.flatnonzero(cells[first:, 16] == ord("\n"))
    count = ends[0] + 1 if len(ends) else f"more than {len(cells) - first}"
    return f"row {row} has {count} entries, expected {row + 1}"


def load_gram(path: str | Path) -> tuple[np.ndarray, str]:
    """Read a Gram cache written by :func:`save_gram`.

    Returns (matrix, fingerprint); the matrix is mirrored back to full
    symmetric form, the saved matrix bit for bit. Raises
    :class:`DataError` on any malformation. The file's size is checked
    against n before the matrix is allocated; a bad cell names its row.

    One INFO line gives n, the file's bytes and the seconds."""
    start = time.perf_counter()
    with open(path, "rb") as fh:
        magic, fp_line, n_line = (_header_line(fh, path) for _ in range(3))
        if magic != f"# {GRAM_MAGIC}\n":
            raise DataError(f"{path}: not a gram cache file")
        if not fp_line.startswith("# fingerprint: "):
            raise DataError(f"{path}: missing fingerprint header")
        fingerprint = fp_line[len("# fingerprint: "):].strip()
        if not n_line.startswith("# n: "):
            raise DataError(f"{path}: missing size header")
        try:
            n = int(n_line[len("# n: "):])
        except ValueError as exc:
            raise DataError(f"{path}: bad size header") from exc
        if n < 0:
            raise DataError(f"{path}: bad size header")
        size = os.fstat(fh.fileno()).st_size
        body, need = size - fh.tell(), _CELL * n * (n + 1) // 2
        if body != need:
            raise DataError(f"{path}: {n} rows take {need} bytes, "
                            f"found {body}")
        # back from two hex digits to their byte; any other uint16 to 256
        byte = np.full(1 << 16, 256, dtype=np.uint16)
        byte[_PAIRS] = np.arange(256)
        G = np.empty((n, n), dtype=np.float64)
        for i, j, lower, sep in _blocks(n):
            data = fh.read(_CELL * len(sep))
            if len(data) != _CELL * len(sep):
                raise DataError(f"{path}: file ends in row {i}")
            cells = np.frombuffer(data, dtype=np.uint8).reshape(-1, _CELL)
            pairs = byte[cells[:, :16].view(np.uint16)]
            if pairs.max() > 255 or not np.array_equal(cells[:, 16], sep):
                raise DataError(f"{path}: {_bad_cell(cells, pairs, i, sep)}")
            G[i:j, :j][lower] = pairs.astype(np.uint8).view(">f8")[:, 0]
            np.copyto(G[:j, i:j], G[i:j, :j].T, where=lower.T)
    if not np.all(np.isfinite(G)):
        raise DataError(f"{path}: gram contains non-finite values")
    logger.info("load_gram: n %d, %d bytes, %.3f s", n, size,
                time.perf_counter() - start)
    return G, fingerprint
