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
by both engines. Every tree a kernel takes is bracketed text, the text that
``read_examples`` keeps; anything else is a :class:`DataError`. It is
compiled in one pass over the tokens that :func:`.treebank.tokens` checks,
the grammar that ``read_examples`` also uses, so a bare token, which that
grammar does not hold as a tree, is refused too. Each node is interned as
its tokens close it, in post-order, so the ids do not depend on the text's
spacing.

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
The Python engine mirrors it function for function (``_tree_pair``,
``_delta_ptk``, ``_delta_stk``, ``_subsequence_sum``), caching nothing
more; it runs where the native engine cannot be built or loaded (one
WARNING names why) and serves the tests as the reference. No option
selects an engine. The memo holds one row's work, not the whole call's,
while the table holds every tree of the call, rows and columns alike,
compiled before the first row; a row only reads it. A Gram (``gram_matrix``,
``write_gram``) and ``kernel_matrix`` log one INFO line with the call's
tree pairs, distinct subtrees, Δ values, DP runs (the same from either
engine) and the engine that ran. No state outlives a call.

On top of the tree kernels sits the example-pair kernel used for training:
an RBF (or linear) kernel on the dense feature vector, the two-way tree
kernel on the REL-linked tree pair, and a linear or RBF kernel on the rank
feature, ``rank_feature(original_rank, rank_mode)``, summed per the enabled
blocks.

Every kernel matrix comes from one generator of rows (``_kernel_rows``).
Before the first row it runs every missing-block, dimension and tree check
and stacks the rows' and the columns' vectors, ranks, tree offsets and
self-kernels once per call (``_prepare``); ``_row`` then computes row i
from that state by index. ``kernel_matrix`` takes each row against all
columns. The Gram takes row i against columns 0..i, its lower triangle in
the order of its file: ``gram_matrix`` mirrors each row into the matrix,
and ``write_gram`` writes each to the file as it is computed, so that it
holds O(n) beyond the examples, never the n×n matrix. The log lines and
errors of a matrix name the function called (``gram_matrix``,
``write_gram`` or ``kernel_matrix``). Each value has the bits of its pair
in either order, so the mirror is exact. The vector
blocks are batched but keep the per-pair arithmetic, so every value is
bit-identical to evaluating its pair alone: each dot product is one BLAS
dot per pair (``np.matmul`` of 1×dim by dim×1 calls the same routine as
``np.dot``), each exponential is libm's ``exp``, the function
``math.exp`` calls (``_exp``: one native loop per row), and the blocks are
added to 0.0 in the order sim, tree, rank. ``np.einsum`` or
``(d * d).sum(1)`` round some dot products differently, and ``np.exp``
some exponentials. The tree block is one ``_tree_block`` call per row,
normalized in numpy with :func:`normalize_kernel`'s operations. A row's
temporaries are O(columns × dim); no n×n×dim array is built. A Gram and
``kernel_matrix`` raise :class:`NumericalError` at the first non-finite
value, the Gram's first in its file's order. Either matrix, if it takes
more than a second, logs its progress: at most ten INFO lines, each with
the rows done, the seconds and an estimate of the seconds left.

The Gram cache file (``write_gram``, ``save_gram``, ``load_gram_lower``,
``load_gram``) is text: the lower triangle, each cell the 16 hex digits of
its IEEE-754 bits, so it is exact by construction. One writer encodes each
row with one ``binascii.hexlify`` call as the row arrives, into a
temporary file renamed into place when complete. One reader decodes and
checks blocks of rows with a few numpy operations, each block straight
into place in the packed triangle (row i from offset i(i+1)/2), which is
what ``load_gram_lower`` returns and ``train`` solves on; ``load_gram``
reads it into the first cells of an n×n matrix and unpacks it there. Either
holds a block's temporaries beyond what it returns. No engine is involved.
"""

from __future__ import annotations

import binascii
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
from .features import Example, rank_feature
from .treebank import tokens

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

    :meth:`compile` reads a tree's bracketed text and packs the tree into
    ``forest`` at the offset it returns: ``n, k``, the tree's n distinct
    subtree ids in ascending order, the number of nodes that root each, its
    k bucket keys (the label and production ids it carries) in ascending
    order, the end of each key's bucket, then the buckets' subtree ids and
    their counts. The counters record the call's tree-kernel work for its
    log line.
    """

    def __init__(self):
        self.names: dict = {}       # label or production → id
        self.index: dict[tuple[int, tuple[int, ...]], int] = {}
        self.labels, self.prods = array("i"), array("i")
        self.kid_off, self.kid_ids = array("i", [0]), array("i")
        self.forest = array("i")
        self.pairs = self.deltas = self.dp_runs = 0
        self.engine = "python"

    def compile(self, tree: str) -> int:
        """Compile a tree given as bracketed text, which :func:`tokens`
        checks; return its offset in ``forest``. A tree that is not text
        raises :class:`DataError`.

        The nodes are interned in post-order, as the tokens close them: a
        leaf at its token, an internal node, label included, at its ``)``."""
        if not isinstance(tree, str):
            raise DataError(f"a tree must be bracketed text, not "
                            f"{type(tree).__name__}")
        names, index, labels, prods = (self.names, self.index, self.labels,
                                       self.prods)
        counts: dict[int, int] = defaultdict(int)
        done: list[int] = []    # finished subtrees not yet claimed by a parent
        opened: list[tuple[str, int]] = []   # open nodes: label, first kid
        toks = iter(tokens(tree))
        for tok in toks:
            if tok == "(":
                opened.append((next(toks), len(done)))
                continue
            label, first_kid = opened.pop() if tok == ")" else (tok, len(done))
            kids = tuple(done[first_kid:])
            label = names.setdefault(label, len(names))
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

    def tally(self, pairs: int, deltas: int, engine: str) -> None:
        """Add a tree block's work; its DP runs are counted as they run."""
        self.pairs += pairs
        self.deltas += deltas
        self.engine = engine

    def report(self, call: str) -> None:
        logger.info("%s: %d tree pairs, %d subtrees interned, %d delta values "
                    "computed, %d child-block DP runs, %s engine", call,
                    self.pairs, len(self.labels), self.deltas,
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


def _subsequence_sum(D: list[list[float]], lam: float) -> float:
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


def _delta_ptk(s1: int, s2: int, lam: float, mu: float, sub: _Subtrees,
               memo: dict) -> float:
    """PTK's Δ of two subtrees of one label: (μλ)λ when either is
    childless, μ(λ² + λ²·Δ) for one child each, else μ(λ² + the DP over
    their child block), a run counted in ``sub.dp_runs``."""
    off, kids = sub.kid_off, sub.kid_ids
    a, b = kids[off[s1]:off[s1 + 1]], kids[off[s2]:off[s2 + 1]]
    lam2 = lam * lam
    if not a or not b:
        return mu * lam * lam
    if len(a) == 1 and len(b) == 1:     # the DP's one term is λ²·Δ
        return mu * (lam2 + lam2 * memo.get((a[0], b[0]), 0.0))
    sub.dp_runs += 1
    return mu * (lam2 + _subsequence_sum(
        [[memo.get((x, y), 0.0) for y in b] for x in a], lam))


def _delta_stk(s1: int, s2: int, lam: float, sub: _Subtrees,
               memo: dict) -> float:
    """STK's Δ of two subtrees of one production: λ·∏ (1 + Δ(child pair))
    over their children in position order."""
    off, kids = sub.kid_off, sub.kid_ids
    d = lam
    for x, y in zip(kids[off[s1]:off[s1 + 1]], kids[off[s2]:off[s2 + 1]]):
        d *= 1.0 + memo.get((x, y), 0.0)
    return d


def _tree_pair(kind: str, t1: int, t2: int, lam: float, mu: float,
               sub: _Subtrees, memo: dict) -> float:
    """The raw kernel between the compiled trees at offsets t1 (row side)
    and t2 (column side): the exactly rounded sum of c1·c2 times Δ over the
    subtree pairs the buckets match, each Δ read from or put in ``memo``."""
    is_ptk = kind == "PTK"
    key_of = sub.labels if is_ptk else sub.prods
    buckets2 = _buckets(sub.forest, t2)
    terms = []
    for s1, c1 in _nodes(sub.forest, t1):
        for s2, c2 in buckets2.get(key_of[s1], ()):
            d = memo.get((s1, s2))
            if d is None:
                d = memo[s1, s2] = (
                    _delta_ptk(s1, s2, lam, mu, sub, memo) if is_ptk
                    else _delta_stk(s1, s2, lam, sub, memo))
            if c1 * c2 == 1:
                terms.append(d)
            else:
                _add_times(terms, d, c1 * c2)
    return math.fsum(terms)


def stk(t1: str, t2: str, lam: float = 0.4) -> float:
    """Subset-tree kernel between two trees, each its bracketed text.

    K = Σ_{n1∈t1, n2∈t2} Δ(n1, n2) where Δ is 0 unless the productions at
    n1 and n2 are identical, and otherwise λ·∏_j (1 + Δ(child_j, child_j)).
    Leaf children contribute a bare factor 1, so a matching preterminal pair
    scores exactly λ. Symmetric in its tree arguments (bit-for-bit: the
    child products run in the same positional order either way, and the
    final reduction is an exactly rounded sum).
    """
    return _one_pair(t1, t2, KernelConfig(tk_kind="STK", lam=lam))


def ptk(t1: str, t2: str, lam: float = 0.4, mu: float = 0.4) -> float:
    """Partial-tree kernel between two trees, each its bracketed text.

    K = Σ_{n1,n2} Δ(n1, n2); Δ = 0 when labels differ, otherwise
    μ·(λ² + Σ_{J1,J2} λ^{d(J1)+d(J2)} ∏_i Δ(c_{J1,i}, c_{J2,i})) over pairs
    of equal-length nonempty child subsequences, d(J) being the span from
    first to last selected index. No cap on subsequence length. Symmetric.
    """
    return _one_pair(t1, t2, KernelConfig(lam=lam, mu=mu))


def _one_pair(t1: str, t2: str, cfg: KernelConfig) -> float:
    """The raw tree kernel ``cfg`` names between two trees; λ and μ have
    been checked where ``cfg`` was made."""
    sub = _Subtrees()
    row = np.array([sub.compile(t1)])
    return float(_tree_block(cfg.tk_kind, cfg.lam, cfg.mu, sub, row,
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
    memo serves the block and is dropped after it."""
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
            sub.dp_runs += int(work[1])
            sub.tally(out.size, int(work[0]), "native")
            return out
    memo = {}
    for j, col in enumerate(cols.tolist()):
        for k, (t1, t2) in enumerate(zip(row.tolist(), col)):
            out[j, k] = _tree_pair(kind, t1, t2, lam, mu, sub, memo)
    sub.tally(out.size, len(memo), "python")
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
    for tree in (e.tree_first, e.tree_second):
        if not isinstance(tree, str):
            raise DataError(
                f"example ({e.query_id}, {e.candidate_id}) holds a "
                f"{type(tree).__name__} tree, not bracketed text")


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


def _rank(e: Example, mode: str) -> float:
    try:
        return rank_feature(e.original_rank, mode)
    except DataError as exc:
        raise DataError(f"rank block enabled but example ({e.query_id}, "
                        f"{e.candidate_id}): {exc}") from None


def _check_dims(u, v) -> None:
    if len(u) != len(v):
        raise DataError(
            f"feature vectors disagree in dimension: ({len(u)},) vs "
            f"({len(v)},)")


class _Block(NamedTuple):
    """A block of examples prepared for one kernel call: their vec block
    ``X`` (n×dim) and rank block ``r`` (n) as float64, each None when the
    config does not use it, the forest offsets of each example's two
    compiled trees ``at`` (n×2, or n×0 when the tree block is off) and their
    self-kernels ``selfs`` (same shape; ones where not needed)."""
    X: np.ndarray | None
    r: np.ndarray | None
    at: np.ndarray
    selfs: np.ndarray

    def head(self, j: int) -> _Block:
        """The block of the first j examples."""
        return _Block(*(None if a is None else a[:j] for a in self))


def _prepare(examples, cfg: KernelConfig, sub: _Subtrees, selfs: bool,
             ref: np.ndarray | None = None) -> _Block:
    """The block of ``examples``: first the missing-block, dimension and
    rank checks, then their two trees compiled against the call's table
    ``sub`` and, if ``selfs``, their self-kernels. Each vec is checked
    against the first row of ``ref``, the columns' vec block, if given, and
    else against the first vec of ``examples``. The vecs' bytes, joined, are
    read in place. An example's two self-kernels are one tree block, sharing
    one Δ memo."""
    n = len(examples)
    if cfg.use_tk:
        for e in examples:
            _require_trees(e)
    X = r = None
    if cfg.use_sim:
        vecs = [_require_vec(e) for e in examples]
        for v in vecs:
            if ref is None:
                _check_dims(vecs[0], v)
            else:
                _check_dims(v, ref[0])
        X = np.frombuffer(b"".join(vecs)).reshape(n, len(vecs[0]))
    if cfg.use_rank:
        r = np.array([_rank(e, cfg.rank_mode) for e in examples],
                     dtype=np.float64)
    if not cfg.use_tk:
        return _Block(X, r, np.empty((n, 0), dtype=np.int64), np.empty((n, 0)))
    at = np.array([(sub.compile(e.tree_first), sub.compile(e.tree_second))
                   for e in examples], dtype=np.int64)
    k = np.ones(at.shape)
    if selfs:
        for i, trees in enumerate(at):
            k[i] = _tree_block(cfg.tk_kind, cfg.lam, cfg.mu, sub, trees,
                               trees[None])[0]
    return _Block(X, r, at, k)


def _row(i: int, rows: _Block, cols: _Block, cfg: KernelConfig,
         sub: _Subtrees, diagonal: bool = False) -> np.ndarray:
    """The combined kernel between example i of ``rows`` and every example
    of ``cols``, read from the two prepared blocks. With ``diagonal``, as in
    a Gram row, the last column is example i itself and takes its
    self-kernels at hand.

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
            u = rows.X[i]
            if cfg.vec_kernel == "LINEAR":
                row += np.matmul(cols.X[:, None, :], u[:, None])[:, 0, 0]
            else:
                row += _rbf_row(u, cols.X, _resolve_gamma(cfg, len(u)))
        if cfg.use_tk:
            m = len(cols.at) - diagonal
            k = np.empty(cols.at.shape)
            k[:m] = _tree_block(cfg.tk_kind, cfg.lam, cfg.mu, sub, rows.at[i],
                                cols.at[:m])
            k[m:] = rows.selfs[i:i + diagonal]
            if cfg.normalize_tk:
                k = _normalize(k, rows.selfs[i], cols.selfs)
            row += k[:, 0] + k[:, 1]
        if cfg.use_rank:
            r_i = rows.r[i]
            if cfg.rank_kernel == "LINEAR":
                row += r_i * cols.r
            else:
                d = r_i - cols.r
                row += _exp((-_resolve_gamma(cfg, 1) * d) * d)
    return row


def _require_finite(call: str, i: int, row: np.ndarray) -> None:
    """Raise :class:`NumericalError` naming the first non-finite value of
    ``row``, cells (i, 0), (i, 1), ... of the call's matrix."""
    bad = ~np.isfinite(row)
    if bad.any():
        j = int(np.argmax(bad))
        raise NumericalError(f"{call}: non-finite kernel value {row[j]} at "
                             f"cell ({i}, {j})")


# a matrix computed in less time than this logs no progress
_PROGRESS_AFTER_S = 1.0


def _kernel_rows(call: str, rows: list[Example],
                 cols: list[Example] | None, cfg: KernelConfig):
    """The rows of a kernel matrix, in order: each of ``rows`` against every
    one of ``cols`` (:func:`kernel_matrix`) or, with ``cols`` None, the Gram
    matrix of ``rows`` as its file holds it, row i against columns 0..i
    (:func:`gram_matrix`, :func:`write_gram`). ``call`` names the function
    called, in the log lines and the errors.

    This call prepares the columns' block and then the rows'
    (:func:`_prepare`): every missing-block, dimension and tree check, every
    tree compiled into the call's one table, and the self-kernels the rows
    need. The rows only read that state. Each row
    is computed as it is taken from the iterator returned, which raises
    :class:`NumericalError` at the first non-finite value.

    Once a row ends a tenth of the cells and the rows have taken
    ``_PROGRESS_AFTER_S`` seconds, one INFO line gives the rows done of n,
    the seconds and an estimate of the seconds left: at most ten lines."""
    start = time.perf_counter()
    n, sub, gram = len(rows), _Subtrees(), cols is None
    if gram:
        if not rows:
            raise DataError(f"{call} requires at least one example")
        cells = n * (n + 1) // 2
        p = c = _prepare(rows, cfg, sub, True)
    else:
        if not rows or not cols:
            raise DataError(f"{call} requires non-empty example lists")
        cells = n * len(cols)
        c = _prepare(cols, cfg, sub, cfg.normalize_tk)
        p = _prepare(rows, cfg, sub, cfg.normalize_tk, c.X)

    def generate():
        done, tenth = 0, 1
        for i in range(n):
            row = _row(i, p, c.head(i + 1) if gram else c, cfg, sub, gram)
            _require_finite(call, i, row)
            done += len(row)
            if 10 * done >= tenth * cells:
                tenth = 10 * done // cells + 1
                seconds = time.perf_counter() - start
                if seconds >= _PROGRESS_AFTER_S:
                    logger.info("%s: %d of %d rows, %.1f s, ETA %.1f s",
                                call, i + 1, n, seconds,
                                seconds * (cells - done) / done)
            yield row
        if cfg.use_tk:
            sub.report(call)

    return generate()


def gram_matrix(examples: list[Example], cfg: KernelConfig) -> np.ndarray:
    """Full kernel matrix: G[i][j] is the combined kernel of e_i and e_j,
    the sum of the blocks ``cfg`` enables.

    Row i is computed against columns 0..i and mirrored, so the result is
    exactly symmetric. Tree self-kernels, computed once, also fill the
    diagonal. A non-finite value raises :class:`NumericalError` naming its
    cell, the first of the lower triangle in row-major order.
    """
    rows = _kernel_rows("gram_matrix", examples, None, cfg)
    n = len(examples)
    G = np.empty((n, n), dtype=np.float64)
    for i, row in enumerate(rows):
        G[i, :i + 1] = row
        G[:i, i] = row[:i]
    return G


def kernel_matrix(rows: list[Example], cols: list[Example],
                  cfg: KernelConfig) -> np.ndarray:
    """Rectangular kernel matrix: K[i][j] is the combined kernel of
    rows[i] and cols[j], as in :func:`gram_matrix`. Each tree is compiled,
    and its self-kernels computed, once for the whole call. A non-finite
    value raises :class:`NumericalError` naming its cell, the first in
    row-major order."""
    K_rows = _kernel_rows("kernel_matrix", rows, cols, cfg)
    K = np.empty((len(rows), len(cols)), dtype=np.float64)
    for i, row in enumerate(K_rows):
        K[i] = row
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
_CELL = 17          # bytes per cell: 16 hex digits and a separator
_BLOCK = 1 << 13    # cells per block read: well under a MB of temporaries
# each lowercase hex digit → its value; any other byte → 16
_NIBBLES = bytes(int(c, 16) if c in "0123456789abcdef" else 16
                 for c in map(chr, range(256)))


def _blocks(n: int):
    """The lower triangle of an n×n matrix in blocks of whole rows, about
    ``_BLOCK`` cells each but at least one row: the block's first row i and
    the separator after each of its cells, a newline after a row's last and
    a space after the others. The block's cells start at i(i+1)/2 in the
    packed triangle."""
    i = 0
    while i < n:
        # the largest j with j(j+1)/2 - i(i+1)/2 <= _BLOCK
        j = (math.isqrt(8 * _BLOCK + 4 * i * (i + 1) + 1) - 1) // 2
        j = min(n, max(i + 1, j))
        sep = np.full((j * (j + 1) - i * (i + 1)) // 2, ord(" "),
                      dtype=np.uint8)
        sep[np.cumsum(np.arange(i + 1, j + 1)) - 1] = ord("\n")
        yield i, sep
        i = j


def _write_gram(call: str, path: str | Path, n: int, fingerprint: str,
                rows) -> None:
    """Write a Gram file of the n lower-triangle rows ``rows`` (row i
    holding cells 0..i), each row encoded and written as it is taken from
    the iterable: the 16 hex digits of each value's big-endian bytes, a
    space between values and a newline after the row.

    The file is written under a temporary name beside ``path`` and renamed
    to ``path`` once complete; on any error it is removed, and a file
    already at ``path`` is left as it was. One INFO line, led by ``call``,
    gives n, the file's bytes and the seconds."""
    start = time.perf_counter()
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(f"# {GRAM_MAGIC}\n# fingerprint: {fingerprint}\n"
                     f"# n: {n}\n".encode("utf-8"))
            for row in rows:
                fh.write(binascii.hexlify(row.astype(">f8").tobytes(),
                                          b" ", 8))
                fh.write(b"\n")
            size = fh.tell()
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    logger.info("%s: n %d, %d bytes, %.3f s", call, n, size,
                time.perf_counter() - start)


def save_gram(path: str | Path, gram: np.ndarray, fingerprint: str) -> None:
    """Write a Gram matrix cache: three header lines, then the lower
    triangle row-major, row i holding G[i][0..i], each value as the 16
    lowercase hex digits of its IEEE-754 binary64 bits and a space, or a
    newline after a row's last. A non-finite value raises
    :class:`NumericalError` naming its cell, and leaves ``path`` as it was.
    One INFO line gives n, the file's bytes and the seconds."""
    gram = np.asarray(gram, dtype=np.float64)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise DataError("gram must be a square matrix")

    def rows():
        for i, row in enumerate(gram):
            _require_finite("save_gram", i, row[:i + 1])
            yield row[:i + 1]

    _write_gram("save_gram", path, len(gram), fingerprint, rows())


def write_gram(path: str | Path, examples: list[Example],
               cfg: KernelConfig) -> None:
    """Compute the Gram matrix of ``examples`` under ``cfg`` and write its
    cache file, the bytes :func:`save_gram` writes of
    :func:`gram_matrix`'s result, one row at a time: the n×n matrix is
    never held. An error leaves ``path`` as it was."""
    rows = _kernel_rows("write_gram", examples, None, cfg)
    _write_gram("write_gram", path, len(examples), config_fingerprint(cfg),
                rows)


def _header_line(fh, path) -> str:
    line = fh.readline()
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 ({exc.reason})") from exc


def _bad_cell(cells: np.ndarray, digits: np.ndarray, i: int,
              sep: np.ndarray) -> str:
    """What is wrong with the first bad cell of a block of rows from i."""
    k = int(np.argmax((digits > 15).any(axis=1) | (cells[:, 16] != sep)))
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


def load_gram_lower(path: str | Path) -> tuple[np.ndarray, str]:
    """Read a Gram cache written by :func:`save_gram` as it is stored.

    Returns (lower, fingerprint): ``lower`` is the lower triangle packed
    row-major in one flat float64 array, row i (cells G[i][0..i]) from
    offset i(i+1)/2, n(n+1)/2 values in all; no n×n matrix is built.
    Raises :class:`DataError` on any malformation. The file's size is
    checked against n before the triangle is allocated; a bad cell names
    its row. Blocks of about ``_BLOCK`` cells are decoded and checked,
    non-finite values included, one at a time, each straight into its place
    in the triangle, so the temporaries beyond it stay under a MB at any n.

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
        lower = np.empty(n * (n + 1) // 2, dtype=np.float64)
        for i, sep in _blocks(n):
            _decode(path, fh.read(_CELL * len(sep)), i, sep,
                    lower[i * (i + 1) // 2:][:len(sep)])
    logger.info("load_gram_lower: n %d, %d bytes, %.3f s", n, size,
                time.perf_counter() - start)
    return lower, fingerprint


def load_gram(path: str | Path) -> tuple[np.ndarray, str]:
    """Read a Gram cache written by :func:`save_gram` as (matrix,
    fingerprint): the full symmetric n×n matrix, the saved matrix bit for
    bit, with :func:`load_gram_lower`'s checks and errors. The packed
    triangle is copied into a new matrix and mirrored, row by row."""
    lower, fingerprint = load_gram_lower(path)
    n = (math.isqrt(8 * len(lower) + 1) - 1) // 2
    G = np.empty((n, n))
    for i in range(n):
        row = lower[i * (i + 1) // 2:][:i + 1]
        G[i, :i + 1] = row
        G[:i, i] = row[:i]
    return G, fingerprint


def _decode(path: str | Path, data: bytes, i: int, sep: np.ndarray,
            out: np.ndarray) -> None:
    """Check and decode ``data``, the text of a block of rows from row i
    whose cells end in the separators ``sep``, into ``out``. A bad cell
    raises :class:`DataError`. The temporaries, about 40 bytes a cell, are
    dropped on return, before the next block is read."""
    if len(data) != _CELL * len(sep):
        raise DataError(f"{path}: file ends in row {i}")
    text = np.frombuffer(data, dtype=np.uint8).reshape(-1, _CELL)
    digits = np.frombuffer(data.translate(_NIBBLES), dtype=np.uint8
                           ).reshape(-1, _CELL)[:, :16]
    if digits.max() > 15 or not np.array_equal(text[:, 16], sep):
        raise DataError(f"{path}: {_bad_cell(text, digits, i, sep)}")
    # each byte from its two digits, the high one first
    bits = digits[:, 0::2] << 4
    bits |= digits[:, 1::2]
    out[:] = bits.view(">f8")[:, 0]
    if not np.isfinite(out).all():
        raise DataError(f"{path}: gram contains non-finite values")
