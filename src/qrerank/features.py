"""Dense features for question pairs.

Five families:

* 20 text similarities — {GST, LCS, Jaccard, containment, cosine} computed
  over word n-grams for n = 1..4 of the two question texts (case-folded,
  stopwords removed).
* one tree-pair similarity scalar — the normalized partial-tree kernel
  between the two REL-linked macro-trees of the same example.
* the search-engine rank of the candidate, as-is or inverted.
* the concatenation of the two questions' embedding vectors.
* seven MT-evaluation measures comparing a question against a comment:
  sentence BLEU, a no-shift TER, an exact-match METEOR variant, NIST,
  unigram precision/recall, and length ratio.

All functions are pure; extraction across examples is embarrassingly
parallel.

An example's ``vec`` joins the enabled blocks in one fixed order, which the
run configuration alone determines:

1. the 20 similarities (``use_sim_features``), n-major and measure-minor:
   position 5·(n − 1) + k holds measure ``SIM_MEASURES[k]`` over n-grams
   of order ``SIM_NGRAM_ORDERS[n − 1]``;
2. the tree-pair similarity (``use_ptk_feature``);
3. the original question's embedding, then the candidate's
   (``use_embeddings``), d values each;
4. the seven MT-evaluation measures (``use_mte``), in the order
   :func:`mte_vector` lists them.

The rank feature is no part of ``vec``: the kernel computes it from the
example's ``original_rank`` (:func:`rank_feature`).

Feature values are plain float64 vectors (``array('d')``): ``Example`` and
``embedding_pair`` convert any 1-d sequence of real numbers, numpy arrays
included, and ``np.asarray`` reads one without a copy. This module imports no
numpy, and neither does ``featurize`` through it. ``ptk_feature`` alone
imports :mod:`.kernels`, when it is called: of the feature families only the
tree-pair similarity (``use_ptk_feature``, off by default) computes with
them, and the tree kernels run without numpy. ``Example``, the
featurized pair that the kernels consume, lives here for the same reason;
``qrerank.kernels.Example`` is the same class.
"""

from __future__ import annotations

import math
import operator
import re
from array import array
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real
from pathlib import Path

from . import _native
from .config import RANK_MODES, KernelConfig
from .errors import DataError, open_text

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)

SIM_MEASURES = ("gst", "lcs", "jaccard", "containment", "cosine")
SIM_NGRAM_ORDERS = (1, 2, 3, 4)


def _float_vector(values, what: str) -> array | None:
    """``values`` as a plain float64 vector, or None when they do not form a
    1-d sequence. An ``array('d')`` is kept as it is; any other sequence of
    real numbers, a numpy array included, is copied into one. An item that is
    not a real number (a bool included), or an integer too large for a
    double, is a :class:`DataError` naming ``what``."""
    if isinstance(values, array) and values.typecode == "d":
        return values
    if isinstance(values, (str, bytes, Mapping)) \
            or getattr(values, "ndim", 1) != 1:
        return None
    try:
        items = list(values)
    except TypeError:
        return None
    for x in items:
        if type(x) is not float and (isinstance(x, bool)
                                     or not isinstance(x, Real)):
            if isinstance(x, Iterable) and not isinstance(x, str):
                return None
            raise DataError(f"{what} item {x!r} is not a real number")
    try:
        return array("d", items)
    except OverflowError:
        raise DataError(f"{what} holds an integer too large for a double") \
            from None


def _check_label(label) -> None:
    """Raise :class:`DataError` unless ``label`` is the int +1 or -1."""
    if type(label) is not int or label not in (-1, 1):
        raise DataError(f"example label must be +1 or -1, got {label!r}")


@dataclass
class Example:
    """One (original question, candidate) pair, featurized for the kernel.

    vec holds the enabled feature blocks, joined in the order the module
    docstring gives, as a plain float64 vector, an ``array('d')``; any 1-d
    sequence of finite real numbers is converted to one. tree_first /
    tree_second are the two REL-linked macro-trees (each side marked with
    respect to the other), as bracketed text: the text ``featurize`` writes
    and ``read_examples`` checks, the one form the kernels and
    ``save_examples`` take. (``load_examples`` replaces each with a
    walkable :class:`~.treebank.SyntaxTree` view, which they refuse.)
    original_rank is the search rank, from which the kernel computes the
    rank feature. Blocks a configuration does not use may be None.
    """

    query_id: str
    candidate_id: str
    label: int
    original_rank: int
    vec: array | None = None
    tree_first: str | None = None
    tree_second: str | None = None

    def __post_init__(self):
        for name in ("query_id", "candidate_id"):
            if not isinstance(getattr(self, name), str):
                raise DataError(f"example {name} must be a string, got "
                                f"{getattr(self, name)!r}")
        _check_label(self.label)
        if type(self.original_rank) is not int or self.original_rank < 1:
            raise DataError(f"original_rank must be an integer >= 1, got "
                            f"{self.original_rank!r}")
        if self.vec is not None:
            vec = _float_vector(self.vec, "example vec")
            if vec is None:
                raise DataError("example vec must be a 1-d array")
            if not vec:
                raise DataError("example vec is empty")
            if not all(map(math.isfinite, vec)):
                raise DataError("example vec contains non-finite values")
            self.vec = vec


# ---------------------------------------------------------------------------
# tokenization and n-grams
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _folded(stopwords: frozenset[str]) -> frozenset[str]:
    """The case-folded stopwords, computed once per stopword set."""
    return frozenset(s.casefold() for s in stopwords)


def tokenize(text: str,
             stopwords: frozenset[str] | set[str] = frozenset()
             ) -> tuple[str, ...]:
    """Unicode-aware word tokenization: runs of letters/digits, case-folded,
    with stopwords removed. Deterministic; no token is empty, and empty text
    gives an empty tuple.
    """
    tokens = [t.casefold() for t in _WORD_RE.findall(text)]
    stop = _folded(frozenset(stopwords))
    if stop:
        tokens = [t for t in tokens if t not in stop]
    return tuple(tokens)


def _ngrams(tokens: tuple[str, ...], n: int) -> tuple[tuple[str, ...], ...]:
    """The n-grams of ``tokens``, in order: none when there are fewer than n
    tokens."""
    return tuple(tokens[i:i + n] for i in range(len(tokens) - n + 1))


# ---------------------------------------------------------------------------
# similarity measures
# ---------------------------------------------------------------------------

def _lcs_length(a, b) -> int:
    """LCS length of the sequences ``a`` and ``b``.

    Bit-parallel (Allison & Dix 1986; Hyyrö 2004) over the match masks of
    ``a``'s positions (bit i of an element's mask set where a[i] is that
    element): bit i of ``v`` is 0 when column i of the DP row steps up, so
    the length is the count of zeros. One big-int update per element of
    ``b``; the result is the exact integer the quadratic DP gives.
    """
    masks: dict = {}
    for i, x in enumerate(a):
        masks[x] = masks.get(x, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for y in b:
        m = masks.get(y)
        if m is not None:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def _gst_tiled_length(a, b, min_match: int) -> int:
    """Greedy string tiling (Wise 1993): repeatedly take the longest common
    run of unmarked elements (length >= min_match), marking every
    non-overlapping occurrence of that length per round. Returns the total
    tiled length.

    ``b``'s positions are indexed by element, so a round visits only the
    equal, unmarked (i, j) pairs, in row-major order; the run lengths of the
    previous row sit in a dict keyed by j. Tiles are taken in the order of
    the full |a|×|b| scan, so the result is the same.
    """
    b_positions: dict = {}
    for j, y in enumerate(b):
        b_positions.setdefault(y, []).append(j)
    marked_a = [False] * len(a)
    marked_b = [False] * len(b)
    tiled = 0
    while True:
        best = 0
        ends = []
        # prev[j] / cur[j] = length of the common unmarked run ending at
        # (i - 1, j) / (i, j)
        prev: dict[int, int] = {}
        for i, x in enumerate(a):
            cur: dict[int, int] = {}
            if not marked_a[i]:
                for j in b_positions.get(x, ()):
                    if not marked_b[j]:
                        run = prev.get(j - 1, 0) + 1
                        cur[j] = run
                        if run > best:
                            best = run
                            ends = [(i, j)]
                        elif run == best:
                            ends.append((i, j))
            prev = cur
        if best < min_match:
            break
        for i, j in ends:
            si, sj = i + 1 - best, j + 1 - best
            if any(marked_a[si:i + 1]) or any(marked_b[sj:j + 1]):
                continue
            marked_a[si:i + 1] = [True] * best
            marked_b[sj:j + 1] = [True] * best
            tiled += best
    return tiled


@lru_cache(maxsize=16)
def _tokens(text: str, stopwords: frozenset) -> tuple[str, ...]:
    """``tokenize(text, stopwords)``, memoized with a small bound: in task B
    the original question recurs across its consecutive candidates, and is
    tokenized once."""
    return tokenize(text, stopwords)


# the ten counts per n-gram order that both engines fill, in this order,
# and that _measures turns into the order's five similarities
_COUNTS_PER_ORDER = 10


def _python_counts(a: tuple[str, ...], b: tuple[str, ...],
                   min_match: int) -> list[int]:
    """The counts of every order of the token sequences ``a`` and ``b``:
    the GST tiled length, the LCS length, |A∩B|, |A∪B| and |A| over the
    distinct n-grams, the cosine dot product, the two sums of squared
    counts and the two n-gram counts. This is the Python engine, the
    mirror of the native one's ``qrerank_similarity``: each order's
    n-grams and their counts are built afresh for each pair, as there. It
    is the fallback where the native engine is unavailable, and the
    reference the tests compare it against."""
    counts = []
    for n in SIM_NGRAM_ORDERS:
        ga, gb = _ngrams(a, n), _ngrams(b, n)
        A, B = Counter(ga), Counter(gb)
        counts += (
            _gst_tiled_length(ga, gb, min_match),
            _lcs_length(ga, gb),
            len(A.keys() & B.keys()),
            len(A.keys() | B.keys()),
            len(A),
            sum(c * B[g] for g, c in A.items() if g in B),
            sum(map(operator.mul, A.values(), A.values())),
            sum(map(operator.mul, B.values(), B.values())),
            len(ga),
            len(gb),
        )
    return counts


def _native_counts(native, a: tuple[str, ...], b: tuple[str, ...],
                   min_match: int) -> list[int] | None:
    """``_python_counts`` from the native engine, or None when it runs out
    of memory. Both texts' tokens are interned to ids in one dict."""
    ids: dict[str, int] = {}
    a_ids = array("i", [ids.setdefault(t, len(ids)) for t in a])
    b_ids = array("i", [ids.setdefault(t, len(ids)) for t in b])
    counts = array("q", bytes(8 * _COUNTS_PER_ORDER * len(SIM_NGRAM_ORDERS)))
    if native.similarity(a_ids.buffer_info()[0], len(a_ids),
                         b_ids.buffer_info()[0], len(b_ids), min_match,
                         counts.buffer_info()[0]):
        return None
    return counts.tolist()


def _measures(tiled: int, lcs: int, inter: int, union: int, size_a: int,
              dot: int, squares_a: int, squares_b: int, len_a: int,
              len_b: int) -> tuple[float, ...]:
    """GST, LCS, Jaccard, containment and cosine of one n-gram order from
    its counts (see ``_python_counts``); all 0 when a side has no n-gram.

    GST is 2·tiled / (len_a + len_b), LCS is lcs / max(len_a, len_b),
    Jaccard |A∩B| / |A∪B|, containment |A∩B| / |A| (directed from the first
    text) and cosine the cosine of the two n-gram count vectors."""
    if not len_a or not len_b:
        return (0.0, 0.0, 0.0, 0.0, 0.0)
    return (2.0 * tiled / (len_a + len_b),
            lcs / max(len_a, len_b),
            inter / union,
            inter / size_a,
            dot / (math.sqrt(squares_a) * math.sqrt(squares_b)))


def similarity_vector(qo_text: str, qs_text: str,
                      stopwords: frozenset[str] | set[str] = frozenset(),
                      gst_min_match: int = 1) -> array:
    """The 20 text similarities between the two questions.

    For every n in 1..4 the texts are mapped to their n-gram representations
    and each of GST, LCS, Jaccard, containment and cosine is computed; the
    result is ordered n-major / measure-minor, as ``SIM_NGRAM_ORDERS`` ×
    ``SIM_MEASURES``. Containment is directed from the first (original
    question) argument. ``stopwords`` are removed from both texts, compared
    case-folded as the tokens are; GST tiles runs of at least
    ``gst_min_match`` n-grams, an int ≥ 1 (anything else is a
    :class:`DataError`).

    This is the one definition of the 20 measures. Both engines compute
    only the integer counts of each order; ``_measures`` makes the floats
    from them, so the native engine (``_tk.c``) and the Python engine
    (``_python_counts``, where the native one is unavailable) give the same
    bits.
    """
    if isinstance(gst_min_match, bool) or not isinstance(gst_min_match, int):
        raise DataError(f"gst_min_match must be an integer, got "
                        f"{gst_min_match!r}")
    if gst_min_match < 1:
        raise DataError("gst_min_match must be >= 1")
    stopwords = frozenset(stopwords)
    a, b = _tokens(qo_text, stopwords), _tokens(qs_text, stopwords)
    native = _native.load()
    counts = (None if native is None
              else _native_counts(native, a, b, gst_min_match))
    if counts is None:
        counts = _python_counts(a, b, gst_min_match)
    return array("d", [v for k in range(0, len(counts), _COUNTS_PER_ORDER)
                       for v in _measures(*counts[k:k + _COUNTS_PER_ORDER])])


# ---------------------------------------------------------------------------
# tree, rank, and embedding features
# ---------------------------------------------------------------------------

def ptk_feature(tree_o_rel: str, tree_s_rel: str, cfg: KernelConfig) -> float:
    """Normalized partial-tree kernel between the two REL-linked trees of
    one example, each its bracketed text — structural similarity of the
    pair as a single scalar. A tree that is not text raises
    :class:`DataError`.

    The one feature that computes with :mod:`.kernels`; it imports that
    module when it is called."""
    from .kernels import normalize_kernel, ptk

    if tree_o_rel is None or tree_s_rel is None:
        raise DataError("ptk_feature requires both REL-linked trees")
    k_oo = ptk(tree_o_rel, tree_o_rel, cfg.lam, cfg.mu)
    k_ss = ptk(tree_s_rel, tree_s_rel, cfg.lam, cfg.mu)
    k_os = ptk(tree_o_rel, tree_s_rel, cfg.lam, cfg.mu)
    return normalize_kernel(k_os, k_oo, k_ss)


def rank_feature(pos: int, mode: str) -> float:
    """The candidate's search rank, verbatim (AS_IS) or inverted (INVERSE).
    A position too large for a double raises :class:`DataError`."""
    if mode not in RANK_MODES:
        raise DataError(f"rank mode must be one of {RANK_MODES}, got {mode!r}")
    if pos < 1:
        raise DataError(f"rank position must be >= 1, got {pos}")
    try:
        return float(pos) if mode == "AS_IS" else 1.0 / pos
    except OverflowError:
        raise DataError("rank position is too large for a double") from None


def embedding_pair(v_new, v_forum) -> array:
    """Concatenate the new-question and forum-question embeddings, each a
    1-d sequence of real numbers of one length, into one float64 vector."""
    if v_new is None or v_forum is None:
        raise DataError("embedding_pair requires both vectors")
    a = _float_vector(v_new, "embedding")
    b = _float_vector(v_forum, "embedding")
    if a is None or b is None:
        raise DataError("embedding must be a 1-d vector")
    if len(a) != len(b):
        raise DataError(
            f"embedding dimensions disagree: ({len(a)},) vs ({len(b)},)")
    return a + b


# ---------------------------------------------------------------------------
# MT-evaluation features
# ---------------------------------------------------------------------------

def _clipped_matches(cand_counts: Counter, ref_counts: Counter) -> int:
    return sum(min(c, ref_counts[g]) for g, c in cand_counts.items())


def _sentence_bleu(cand, ref) -> float:
    """Sentence BLEU over 1..4-grams.

    The unigram precision is used raw (zero overlap means BLEU 0); higher
    orders get add-one smoothing on both numerator and denominator so short
    sentences do not zero the score. Brevity penalty exp(1 − ref/cand) when
    the candidate is shorter.
    """
    if not cand:
        return 0.0
    m1 = _clipped_matches(Counter(_ngrams(cand, 1)),
                          Counter(_ngrams(ref, 1)))
    if m1 == 0:
        return 0.0
    log_sum = math.log(m1 / len(cand))
    for n in range(2, 5):
        cn = Counter(_ngrams(cand, n))
        rn = Counter(_ngrams(ref, n))
        total = sum(cn.values())
        matched = _clipped_matches(cn, rn)
        log_sum += math.log((matched + 1) / (total + 1))
    bp = 1.0 if len(cand) >= len(ref) else math.exp(1.0 - len(ref) / len(cand))
    return bp * math.exp(log_sum / 4.0)


def _edit_distance(a, b) -> int:
    """Word-level Levenshtein distance (insert/delete/substitute, unit costs)."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, y in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (0 if x == y else 1))
        prev = cur
    return prev[-1]


def _ter_noshift(cand, ref) -> float:
    """Edit distance over reference length, capped at 1. No block shifts:
    the full metric's shift search is heuristic, and this stays a simple,
    reproducible signal."""
    return min(1.0, _edit_distance(cand, ref) / len(ref))


def _greedy_alignment(cand, ref):
    """In-order exact-match alignment: each candidate token takes the
    reference position continuing the current run when possible, otherwise
    the leftmost unused occurrence. Returns (cand_pos, ref_pos) pairs."""
    positions = {}
    for j, tok in enumerate(ref):
        positions.setdefault(tok, []).append(j)
    used = set()
    pairs = []
    prev_ref = None
    for i, tok in enumerate(cand):
        options = [j for j in positions.get(tok, ()) if j not in used]
        if not options:
            prev_ref = None
            continue
        if prev_ref is not None and prev_ref + 1 in options:
            j = prev_ref + 1
        else:
            j = options[0]
        used.add(j)
        pairs.append((i, j))
        prev_ref = j
    return pairs


def _meteor_lite(cand, ref) -> float:
    """Exact-unigram METEOR: Fmean 10PR/(R+9P) times the fragmentation
    penalty 1 − 0.5·(chunks/matches)³. Zero when nothing aligns."""
    pairs = _greedy_alignment(cand, ref)
    matches = len(pairs)
    if matches == 0:
        return 0.0
    precision = matches / len(cand)
    recall = matches / len(ref)
    fmean = 10.0 * precision * recall / (recall + 9.0 * precision)
    chunks = 1
    for (ci, rj), (pi, pj) in zip(pairs[1:], pairs):
        if ci != pi + 1 or rj != pj + 1:
            chunks += 1
    return fmean * (1.0 - 0.5 * (chunks / matches) ** 3)


_NIST_BETA = math.log(0.5) / math.log(2.0 / 3.0) ** 2


def _nist(cand, ref) -> float:
    """NIST over 1..5-grams with information weights taken from this pair's
    own reference: info(g) = log2(count_ref(prefix(g)) / count_ref(g))."""
    if not cand or not ref:
        return 0.0
    ref_counts = {n: Counter(_ngrams(ref, n)) for n in range(1, 6)}
    score = 0.0
    for n in range(1, 6):
        cn = Counter(_ngrams(cand, n))
        total = sum(cn.values())
        if total == 0:
            break
        rn = ref_counts[n]
        info_sum = 0.0
        for g, c in cn.items():
            matched = min(c, rn[g])
            if matched == 0:
                continue
            if n == 1:
                info = math.log2(len(ref) / rn[g])
            else:
                info = math.log2(ref_counts[n - 1][g[:-1]] / rn[g])
            info_sum += matched * info
        score += info_sum / total
    if len(cand) >= len(ref):
        bp = 1.0
    else:
        bp = math.exp(_NIST_BETA * math.log(len(cand) / len(ref)) ** 2)
    return score * bp


def mte_vector(question: Iterable[str],
               comment: Iterable[str]) -> array:
    """The seven MT-evaluation features of a (question, comment) pair, each
    given as its tokens: sentence BLEU, no-shift TER, exact-match METEOR,
    NIST, unigram precision, unigram recall and the length ratio, in that
    order.

    The question plays the candidate-translation role and the comment the
    reference. Both sequences should be tokenized WITHOUT stopword removal.
    An empty comment leaves the length ratio with a zero denominator and is
    rejected.
    """
    cand = tuple(question)
    ref = tuple(comment)
    if not ref:
        raise DataError("mte_vector: empty comment (length ratio denominator)")
    matches = _clipped_matches(Counter(cand), Counter(ref))
    precision = matches / len(cand) if cand else 0.0
    recall = matches / len(ref)
    return array("d", [
        _sentence_bleu(cand, ref),
        _ter_noshift(cand, ref),
        _meteor_lite(cand, ref),
        _nist(cand, ref),
        precision,
        recall,
        len(cand) / len(ref),
    ])


# ---------------------------------------------------------------------------
# external inputs: stopword and embedding files
# ---------------------------------------------------------------------------

def load_stopwords(path: str | Path) -> frozenset[str]:
    """One token per line, UTF-8, kept as written: each consumer folds the
    words as it folds the tokens it compares them with. Blank lines and
    comment lines, whose stripped text starts with ``#``, are ignored."""
    out = set()
    with open_text(path) as fh:
        for line in fh:
            word = line.strip()
            if word and not word.startswith("#"):
                out.add(word)
    return frozenset(out)


def load_embeddings(path: str | Path) -> dict[str, array]:
    """Embedding table: one ``id<TAB>v1 v2 … vd`` record per line, each
    vector a plain float64 ``array('d')``.

    All vectors must share one dimension; duplicate ids and malformed
    numbers are rejected with their line number.
    """
    table: dict[str, array] = {}
    dim = None
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if "\t" not in line:
                raise DataError(f"{path}:{lineno}: expected 'id<TAB>values'")
            ident, _, rest = line.rstrip("\n").partition("\t")
            if not ident:
                raise DataError(f"{path}:{lineno}: empty embedding id")
            if ident in table:
                raise DataError(f"{path}:{lineno}: duplicate embedding id {ident!r}")
            try:
                vec = array("d", [float(x) for x in rest.split()])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad number in embedding") from exc
            if not vec:
                raise DataError(f"{path}:{lineno}: empty embedding vector")
            if not all(map(math.isfinite, vec)):
                raise DataError(f"{path}:{lineno}: non-finite embedding value")
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise DataError(
                    f"{path}:{lineno}: embedding dimension {len(vec)} != {dim}"
                )
            table[ident] = vec
    if not table:
        raise DataError(f"{path}: empty embedding file")
    return table
