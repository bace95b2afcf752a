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
same-position trees of a block of columns, are one tree block, computed
within the row's native call or, by the Python engine, by ``_tree_block``;
``_prepare`` computes each example's two self-kernels as a block of one
column, and ``ptk``/``stk`` one pair as a block of one tree. Both kernels run over the pairs of subtrees the buckets match, in ascending
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
and packs the rows' and the columns' vectors, ranks, tree offsets and
self-kernels once per call into flat ``array`` buffers (``_prepare``);
``_row`` then computes row i from that state by index. ``kernel_matrix``
takes each row against all columns. The Gram takes row i against columns
0..i, its lower triangle in the order of its file: ``gram_matrix`` mirrors
each row into the matrix, and ``write_gram`` writes each to the file as it
is computed, so that it holds O(n) beyond the examples, never the n×n
matrix. The log lines and errors of a matrix name the function called
(``gram_matrix``, ``write_gram`` or ``kernel_matrix``).

A row is one native call (``qrerank_kernel_row``), or the Python engine's
loop where the engine is unavailable or the call fails, with the same
scalar operations in the same order: the sim block's sum
``Σ_k u_k·x_k`` (LINEAR) or ``Σ_k (u_k − x_k)²`` (RBF, then
``exp(−γ·Σ)``) taken left to right from 0.0, the tree block normalized as
:func:`normalize_kernel` does, ``k / sqrt(k_row·k_col)``, the rank block
``r_i·r_j`` or ``exp((−γ·d)·d)``, and each cell ``((0.0 + sim) + (t0 + t1))
+ rank`` over the enabled blocks. ``exp`` is libm's, which ``math.exp``
calls, and ``sqrt`` is correctly rounded, so both engines give the same
bits on any machine; no BLAS is involved. Each value has the bits of its
pair in either order, so the Gram's mirror is exact. A Gram and
``kernel_matrix`` raise :class:`NumericalError` at the first non-finite
value, the Gram's first in its file's order; the native call returns its
index. Either matrix, if it takes more than a second, logs its progress: at
most ten INFO lines, each with the rows done, the seconds and an estimate
of the seconds left.

The Gram cache file (``write_gram``, ``save_gram``, ``load_gram_lower``,
``load_gram``) is text: the lower triangle, each cell the 16 hex digits of
its IEEE-754 bits, so it is exact by construction, and it is read as it is
written, a row at a time. One writer encodes each row, its big-endian
bytes, with one ``binascii.hexlify`` call as the row arrives, into a
temporary file renamed into place when complete. One reader (``_gram_rows``)
checks each row's bytes in one step and decodes them with ``bytes.fromhex``:
``load_gram_lower`` packs the rows into the triangle ``train`` solves on
(row i from offset i(i+1)/2), and ``load_gram`` mirrors each into an n×n
matrix. No engine is involved.

Only the functions that take or return numpy matrices import numpy, when
they run: ``gram_matrix``, ``kernel_matrix``, ``save_gram`` and
``load_gram``. ``load_gram_lower`` returns the triangle as an
``array('d')``, so no stage loads numpy through this module: not
``gram``, which calls ``write_gram``, nor ``train``, nor ``rerank``.
"""

from __future__ import annotations

import binascii
import hashlib
import logging
import math
import os
import re
import stat
import sys
import time
from array import array
from collections import defaultdict
from dataclasses import fields
from functools import reduce
from itertools import accumulate
from operator import add, mul
from operator import sub as minus
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import _native
from .config import KernelConfig
from .errors import DataError, NumericalError
# Example is defined in the numpy-free features module and re-exported here
from .features import Example, rank_feature
from .treebank import tokens

if TYPE_CHECKING:
    import numpy as np

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
    row = array("q", [sub.compile(t1)])
    return _tree_block(cfg.tk_kind, cfg.lam, cfg.mu, sub, row,
                       array("q", [sub.compile(t2)]))[0]


def _tree_block(kind: str, lam: float, mu: float, sub: _Subtrees,
                row: array, cols: array) -> array:
    """Raw tree kernels between each tree of one row and the tree in the
    same position of each column, all compiled against ``sub``: ``row``
    holds the forest offsets of the row's trees and ``cols`` one such run
    per column, back to back; the result, in ``cols``' order, is as long.

    The native engine computes the block when it is available; else, or if
    it reports running out of memory or an overflowing sum, the Python
    engine does, so an error is raised as ``math.fsum`` raises it. One Δ
    memo serves the block and is dropped after it."""
    out = array("d", [0.0]) * len(cols)
    if not out:
        return out
    native = _native.load()
    if native is not None:
        work = array("q", [0, 0])
        if native.tree_block(
                int(kind == "PTK"), lam, mu,
                *(a.buffer_info()[0] for a in (sub.labels, sub.prods,
                                               sub.kid_off, sub.kid_ids,
                                               sub.forest)),
                len(row), row.buffer_info()[0], len(cols) // len(row),
                cols.buffer_info()[0], out.buffer_info()[0],
                work.buffer_info()[0]) == 0:
            sub.dp_runs += work[1]
            sub.tally(len(out), work[0], "native")
            return out
    memo = {}
    for j in range(0, len(cols), len(row)):
        for k, t1 in enumerate(row):
            out[j + k] = _tree_pair(kind, t1, cols[j + k], lam, mu, sub, memo)
    sub.tally(len(out), len(memo), "python")
    return out


def normalize_kernel(k_xy: float, k_xx: float, k_yy: float) -> float:
    """Cosine-style normalization k_xy / sqrt(k_xx · k_yy), with IEEE
    division: where the product of two tiny self-kernels rounds to 0, the
    result is inf (nan for k_xy = 0), as ``qrerank_kernel_row`` gives it."""
    if k_xx <= 0.0 or k_yy <= 0.0:
        raise NumericalError(
            f"degenerate self-kernel (k_xx={k_xx}, k_yy={k_yy}): "
            "cannot normalize"
        )
    d = math.sqrt(k_xx * k_yy)
    return k_xy / d if d else k_xy * math.inf   # IEEE's k_xy / +0.0


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
    """A block of n examples prepared for one kernel call, each buffer flat
    and row-major: their vecs ``X`` (n·dim float64) and ranks ``r`` (n),
    each None when the config does not use it, the forest offsets of each
    example's two compiled trees ``at`` (2n int64, empty when the tree
    block is off) and their self-kernels ``selfs`` (2n float64, empty where
    not needed)."""
    X: array | None
    dim: int
    r: array | None
    at: array
    selfs: array


def _prepare(examples, cfg: KernelConfig, sub: _Subtrees, selfs: bool,
             ref: array | None = None) -> _Block:
    """The block of ``examples``: first the missing-block, dimension and
    rank checks, then their two trees compiled against the call's table
    ``sub`` and, if ``selfs``, their self-kernels. Each vec is checked
    against ``ref``, the first of the columns' vecs, if given, and else
    against the first vec of ``examples``. An example's two self-kernels are
    one tree block, sharing one Δ memo."""
    if cfg.use_tk:
        for e in examples:
            _require_trees(e)
    X, dim, r = None, 0, None
    if cfg.use_sim:
        vecs = [_require_vec(e) for e in examples]
        for v in vecs:
            if ref is None:
                _check_dims(vecs[0], v)
            else:
                _check_dims(v, ref)
        X, dim = array("d", b"".join(vecs)), len(vecs[0])
    if cfg.use_rank:
        r = array("d", [_rank(e, cfg.rank_mode) for e in examples])
    at, k = array("q"), array("d")
    if cfg.use_tk:
        for e in examples:
            at.append(sub.compile(e.tree_first))
            at.append(sub.compile(e.tree_second))
        if selfs:
            for i in range(0, len(at), 2):
                trees = at[i:i + 2]
                k.extend(_tree_block(cfg.tk_kind, cfg.lam, cfg.mu, sub,
                                     trees, trees))
    return _Block(X, dim, r, at, k)


# qrerank_kernel_row's codes for a sim or rank block: off, LINEAR, RBF
_BLOCK_KINDS = {None: 0, "LINEAR": 1, "RBF": 2}


def _address(a: array | None) -> int | None:
    return None if a is None else a.buffer_info()[0]


def _native_row(native, rows: _Block, cols: _Block, cfg: KernelConfig,
                sub: _Subtrees, diagonal: bool):
    """The native engine's ``_row`` for one call's blocks: a function of
    (i, m, out) that fills ``out`` with row i against the first m columns
    and returns the index of its first non-finite cell, m if none, or -1
    when the call fails. It holds the buffers' addresses, so the blocks and
    ``sub`` must outlive it, unchanged."""
    tree = -1 if not cfg.use_tk else int(cfg.tk_kind == "PTK")
    fixed = (
        _BLOCK_KINDS[cfg.vec_kernel if cfg.use_sim else None],
        _resolve_gamma(cfg, rows.dim) if cfg.use_sim else 0.0, rows.dim,
        _address(rows.X), _address(cols.X),
        tree, cfg.lam, cfg.mu,
        *(a.buffer_info()[0] for a in (sub.labels, sub.prods, sub.kid_off,
                                       sub.kid_ids, sub.forest)),
        _address(rows.at), _address(cols.at), int(cfg.normalize_tk),
        _address(rows.selfs), _address(cols.selfs),
        _BLOCK_KINDS[cfg.rank_kernel if cfg.use_rank else None],
        _resolve_gamma(cfg, 1), _address(rows.r), _address(cols.r))
    work = array("q", [0, 0])
    call, at = native.kernel_row, work.buffer_info()[0]

    def row(i: int, m: int, out: array) -> int:
        bad = call(i, m, int(diagonal), out.buffer_info()[0], at, *fixed)
        if bad >= 0 and tree >= 0 and m > diagonal:
            sub.dp_runs += work[1]
            sub.tally(2 * (m - diagonal), work[0], "native")
        return bad
    return row


def _row(i: int, m: int, rows: _Block, cols: _Block, cfg: KernelConfig,
         sub: _Subtrees, diagonal: bool = False) -> tuple[array, int]:
    """The Python engine's row: the combined kernel between example i of
    ``rows`` and the first m examples of ``cols``, read from the two
    prepared blocks, and the index of its first non-finite value (m if
    none). With ``diagonal``, as in a Gram row, the last column is example i
    itself and takes its self-kernels at hand.

    Each value is the sum, in this order, of the sim, tree and rank blocks,
    starting from 0.0, with the scalar operations of ``qrerank_kernel_row``
    in the same order. The row's tree kernels are one tree block
    (:func:`_tree_block`), sharing one Δ memo."""
    row = [0.0] * m
    if cfg.use_sim:
        dim, X = rows.dim, cols.X
        u = rows.X[i * dim:(i + 1) * dim]
        xs = (X[j:j + dim] for j in range(0, m * dim, dim))
        if cfg.vec_kernel == "LINEAR":
            sims = [reduce(add, map(mul, u, x), 0.0) for x in xs]
        else:
            gamma = _resolve_gamma(cfg, dim)
            sims = []
            for x in xs:
                d = list(map(minus, u, x))
                sims.append(math.exp(-gamma * reduce(add, map(mul, d, d),
                                                     0.0)))
        row = list(map(add, row, sims))
    if cfg.use_tk:
        selfs = rows.selfs[2 * i:2 * i + 2]
        k = _tree_block(cfg.tk_kind, cfg.lam, cfg.mu, sub,
                        rows.at[2 * i:2 * i + 2],
                        cols.at[:2 * (m - diagonal)])
        if diagonal:
            k.extend(selfs)
        if cfg.normalize_tk:
            k = [normalize_kernel(v, a, b)
                 for v, a, b in zip(k, selfs * m, cols.selfs)]
        row = list(map(add, row, map(add, k[0::2], k[1::2])))
    if cfg.use_rank:
        r_i, r = rows.r[i], cols.r[:m]
        if cfg.rank_kernel == "LINEAR":
            row = [v + r_i * r_j for v, r_j in zip(row, r)]
        else:
            gamma = _resolve_gamma(cfg, 1)
            row = [v + math.exp((-gamma * d) * d)
                   for v, d in zip(row, (r_i - r_j for r_j in r))]
    return array("d", row), _first_non_finite(row)


def _first_non_finite(row) -> int:
    """The index of the first non-finite value of ``row``, or its length."""
    return next((j for j, v in enumerate(row) if not math.isfinite(v)),
                len(row))


def _require_finite(call: str, i: int, row, j: int) -> None:
    """Raise :class:`NumericalError` naming ``row[j]``, the first non-finite
    value of ``row``, cells (i, 0), (i, 1), ... of the call's matrix, unless
    j is past the row's end."""
    if j < len(row):
        raise NumericalError(f"{call}: non-finite kernel value {row[j]} at "
                             f"cell ({i}, {j})")


# a matrix computed in less time than this logs no progress
_PROGRESS_AFTER_S = 1.0


def _kernel_rows(call: str, rows: list[Example],
                 cols: list[Example] | None, cfg: KernelConfig):
    """The rows of a kernel matrix, in order, each an ``array('d')``: each
    of ``rows`` against every one of ``cols`` (:func:`kernel_matrix`) or,
    with ``cols`` None, the Gram matrix of ``rows`` as its file holds it,
    row i against columns 0..i (:func:`gram_matrix`, :func:`write_gram`).
    ``call`` names the function called, in the log lines and the errors.

    This call prepares the columns' block and then the rows'
    (:func:`_prepare`): every missing-block, dimension and tree check, every
    tree compiled into the call's one table, and the self-kernels the rows
    need. The rows only read that state. Each row is computed as it is taken
    from the iterator returned, by one native call or else by the Python
    engine (:func:`_row`); the iterator raises :class:`NumericalError` at
    the first non-finite value.

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
        p = _prepare(rows, cfg, sub, cfg.normalize_tk,
                     c.X[:c.dim] if cfg.use_sim else None)
    native = _native.load()
    native_row = (None if native is None else
                  _native_row(native, p, c, cfg, sub, gram))

    def generate():
        done, tenth = 0, 1
        for i in range(n):
            m = i + 1 if gram else len(cols)
            row, bad = array("d", [0.0]) * m, -1
            if native_row is not None:
                bad = native_row(i, m, row)
            if bad < 0:
                row, bad = _row(i, m, p, c, cfg, sub, gram)
            _require_finite(call, i, row, bad)
            done += m
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
    import numpy as np

    rows = _kernel_rows("gram_matrix", examples, None, cfg)
    n = len(examples)
    G = np.empty((n, n), dtype=np.float64)
    for i, row in enumerate(rows):
        G[i, :i + 1] = row
        G[:i, i] = G[i, :i]
    return G


def kernel_matrix(rows: list[Example], cols: list[Example],
                  cfg: KernelConfig) -> np.ndarray:
    """Rectangular kernel matrix: K[i][j] is the combined kernel of
    rows[i] and cols[j], as in :func:`gram_matrix`. Each tree is compiled,
    and its self-kernels computed, once for the whole call. A non-finite
    value raises :class:`NumericalError` naming its cell, the first in
    row-major order."""
    import numpy as np

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
_HEX = b"0123456789abcdef"   # the digits a cell is written in


def _write_gram(call: str, path: str | Path, n: int, fingerprint: str,
                rows) -> None:
    """Write a Gram file of the n lower-triangle rows ``rows`` (row i an
    ``array('d')`` of cells 0..i), each row encoded and written as it is
    taken from the iterable: the 16 hex digits of each value's big-endian
    bytes, a space between values and a newline after the row. A row is
    byte-swapped in place on a little-endian host.

    The file is written under a temporary name beside ``path`` and renamed
    to ``path`` once complete; on any error it is removed, and a file
    already at ``path`` is left as it was. One INFO line, led by ``call``,
    gives n, the file's bytes and the seconds."""
    start = time.perf_counter()
    swap = sys.byteorder == "little"
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(f"# {GRAM_MAGIC}\n# fingerprint: {fingerprint}\n"
                     f"# n: {n}\n".encode("utf-8"))
            for row in rows:
                if swap:
                    row.byteswap()
                fh.write(binascii.hexlify(row, b" ", 8))
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
    import numpy as np

    gram = np.asarray(gram, dtype=np.float64)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise DataError("gram must be a square matrix")

    def rows():
        for i, row in enumerate(gram):
            cells = array("d", row[:i + 1].tobytes())
            _require_finite("save_gram", i, cells, _first_non_finite(cells))
            yield cells

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


def _gram_rows(call: str, path: str | Path):
    """Read a Gram cache file as :func:`_write_gram` writes it: yield (n,
    fingerprint) once the file's size is checked against n, then each row
    i, G[i][0..i], as an ``array('d')`` decoded with ``bytes.fromhex`` from
    its 17·(i+1) bytes, checked in one step, and byte-swapped on a
    little-endian host. Anything but the exact layout, or a non-finite
    value, raises :class:`DataError` naming the file (and the row). One INFO
    line, led by ``call``, gives n, the file's bytes and the seconds."""
    start = time.perf_counter()
    swap = sys.byteorder == "little"
    # checked before the open: opening a FIFO with no writer would block
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise DataError(f"{path}: not a regular file")
    with open(path, "rb") as fh:
        try:
            magic, fp_line, n_line = (fh.readline().decode() for _ in range(3))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not valid UTF-8 ({exc.reason})") from exc
        if magic != f"# {GRAM_MAGIC}\n":
            raise DataError(f"{path}: not a gram cache file")
        if not fp_line.startswith("# fingerprint: "):
            raise DataError(f"{path}: missing fingerprint header")
        if not n_line.startswith("# n: "):
            raise DataError(f"{path}: missing size header")
        # only what the writer writes: ASCII digits, no sign, space,
        # underscore or leading zero; a larger n's file needs 10^36 bytes
        if not (m := re.fullmatch(r"# n: (0|[1-9][0-9]{0,17})\n", n_line)):
            raise DataError(f"{path}: bad size header")
        n = int(m[1])
        size = os.fstat(fh.fileno()).st_size
        body, need = size - fh.tell(), _CELL * n * (n + 1) // 2
        if body != need:
            raise DataError(f"{path}: {n} rows take {need} bytes, "
                            f"found {body}")
        yield n, fp_line[len("# fingerprint: "):].strip()
        for i in range(n):
            line = fh.read(_CELL * (i + 1))
            seps = b" " * i + b"\n"
            if line[16::_CELL] != seps or line.translate(None, _HEX) != seps:
                raise DataError(f"{path}: {_bad_row(fh, line, i)}")
            row = array("d", bytes.fromhex(line.decode("ascii")))
            if swap:
                row.byteswap()
            # a sum of finite values can overflow: only then is each read
            if not math.isfinite(sum(row)) and \
                    not all(map(math.isfinite, row)):
                raise DataError(f"{path}: gram contains non-finite values")
            yield row
    logger.info("%s: n %d, %d bytes, %.3f s", call, n, size,
                time.perf_counter() - start)


def _bad_row(fh, line: bytes, i: int) -> str:
    """What is wrong with the first bad cell of row i, whose bytes ``line``
    failed their check; a row that runs on past its end is read on."""
    if len(line) < _CELL * (i + 1):
        return f"file ends in row {i}"
    for k in range(i + 1):
        digits, sep = line[_CELL * k:][:16], line[_CELL * k + 16]
        if sep not in b" \n":
            return f"bad separator {chr(sep)!r} in row {i}"
        if (sep == ord("\n")) != (k == i):
            break
        if digits.translate(None, _HEX):
            return f"bad number {digits.decode('latin-1')!r} in row {i}"
    if k < i:       # a newline before the row's last cell
        return f"row {i} has {k + 1} entries, expected {i + 1}"
    rest = fh.readline()
    if not rest.endswith(b"\n"):
        return f"row {i} does not end in a newline"
    return f"row {i} has {i + 2 + rest.count(b' ')} entries, expected {i + 1}"


def load_gram_lower(path: str | Path) -> tuple[array, str]:
    """Read a Gram cache written by :func:`save_gram` as it is stored:
    (lower, fingerprint), ``lower`` the lower triangle packed row-major in
    one flat ``array('d')``, row i (G[i][0..i]) from offset i(i+1)/2, and no
    n×n matrix. Each row is checked and decoded, then copied into place.
    Any malformation raises :class:`DataError`, naming the row of a bad
    cell. One INFO line gives n, the file's bytes and the seconds."""
    rows = _gram_rows("load_gram_lower", path)
    n, fingerprint = next(rows)
    # repeated from one cell: array("d", bytes(8N)) would peak at twice N
    lower = array("d", [0.0]) * (n * (n + 1) // 2)
    for i, row in enumerate(rows):
        start = i * (i + 1) // 2
        lower[start:start + i + 1] = row
    return lower, fingerprint


def load_gram(path: str | Path) -> tuple[np.ndarray, str]:
    """Read a Gram cache written by :func:`save_gram` as (matrix,
    fingerprint): the full symmetric n×n matrix, the saved matrix bit for
    bit, each row mirrored into it as it is read (no triangle is held),
    with :func:`load_gram_lower`'s checks, errors and INFO line."""
    import numpy as np

    rows = _gram_rows("load_gram", path)
    n, fingerprint = next(rows)
    G = np.empty((n, n))
    for i, row in enumerate(rows):
        row = np.frombuffer(row)
        G[i, :i + 1] = row
        G[:i, i] = row[:i]
    return G, fingerprint
