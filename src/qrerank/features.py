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
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .config import RANK_MODES
from .errors import DataError, open_text
from .kernels import KernelConfig, normalize_kernel, ptk
from .treebank import SyntaxTree

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)

SIM_MEASURES = ("gst", "lcs", "jaccard", "containment", "cosine")
SIM_NGRAM_ORDERS = (1, 2, 3, 4)

MTE_NAMES = ("mte_bleu", "mte_ter_noshift", "mte_meteor_lite", "mte_nist",
             "mte_precision", "mte_recall", "mte_length_ratio")


@dataclass(frozen=True)
class TokenSeq:
    """An ordered, immutable token sequence. Tokens are never empty strings."""

    tokens: tuple[str, ...] = ()

    def __post_init__(self):
        if any(not t for t in self.tokens):
            raise DataError("TokenSeq tokens must be non-empty strings")

    def __len__(self):
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def __getitem__(self, i):
        return self.tokens[i]


@dataclass(frozen=True)
class FeatureVector:
    """Parallel (values, names) pair for one feature block."""

    values: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise DataError("feature values must form a 1-d vector")
        if len(values) != len(self.names):
            raise DataError("feature values and names differ in length")
        if len(set(self.names)) != len(self.names):
            raise DataError("feature names must be unique")

    def __len__(self):
        return len(self.names)


def concat_features(*blocks: FeatureVector) -> FeatureVector:
    """Concatenate feature blocks, keeping names aligned with values."""
    if not blocks:
        return FeatureVector(np.zeros(0), ())
    values = np.concatenate([b.values for b in blocks])
    names = tuple(n for b in blocks for n in b.names)
    return FeatureVector(values, names)


@dataclass(frozen=True)
class FeatureConfig:
    """Text-preprocessing knobs shared by the similarity features."""

    stopwords: frozenset[str] = field(default_factory=frozenset)
    gst_min_match: int = 1

    def __post_init__(self):
        if self.gst_min_match < 1:
            raise DataError("gst_min_match must be >= 1")


# ---------------------------------------------------------------------------
# tokenization and n-grams
# ---------------------------------------------------------------------------

def tokenize(text: str, stopwords: frozenset[str] | set[str] = frozenset()) -> TokenSeq:
    """Unicode-aware word tokenization: runs of letters/digits, case-folded,
    with stopwords removed. Deterministic; empty text gives an empty sequence.
    """
    stop = {s.casefold() for s in stopwords}
    tokens = tuple(
        t for t in (m.group().casefold() for m in _WORD_RE.finditer(text))
        if t not in stop
    )
    return TokenSeq(tokens)


# ---------------------------------------------------------------------------
# similarity measures
# ---------------------------------------------------------------------------

def jaccard(A: set, B: set) -> float:
    """|A∩B| / |A∪B|, with 0 for two empty sets."""
    if not A and not B:
        return 0.0
    return len(A & B) / len(A | B)


def containment(A: set, B: set) -> float:
    """|A∩B| / |A| — how much of A (the original-question side) B covers."""
    if not A:
        return 0.0
    return len(A & B) / len(A)


def cosine(A: Counter, B: Counter) -> float:
    """Cosine of the two count vectors; 0 if either is empty."""
    if not A or not B:
        return 0.0
    dot = sum(c * B[g] for g, c in A.items() if g in B)
    norm_a = math.sqrt(sum(map(operator.mul, A.values(), A.values())))
    norm_b = math.sqrt(sum(map(operator.mul, B.values(), B.values())))
    return dot / (norm_a * norm_b)


def _match_masks(seq) -> dict:
    """Element -> bitmask of its positions in ``seq`` (bit j = position j)."""
    masks: dict = {}
    for j, y in enumerate(seq):
        masks[y] = masks.get(y, 0) | (1 << j)
    return masks


def _lcs_length(a, b_masks: dict, len_b: int) -> int:
    """LCS length of ``a`` and a sequence ``b`` given by its match masks.

    Bit-parallel (Allison & Dix 1986; Hyyrö 2004): bit j of ``v`` is 0 when
    column j of the DP row steps up, so the length is the count of zeros. One
    big-int update per element of ``a``; the result is the exact integer the
    quadratic DP gives.
    """
    full = (1 << len_b) - 1
    v = full
    for x in a:
        m = b_masks.get(x)
        if m is not None:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len_b - v.bit_count()


def lcs_sim(a, b) -> float:
    """Longest-common-subsequence length over max(len_a, len_b).

    Works on any hashable-element sequences (token sequences or n-gram
    sequences). Returns 0 when either side is empty. The length comes from
    the bit-parallel LCS of Allison & Dix / Hyyrö, one big-int step per
    element of ``a``.
    """
    a, b = list(a), list(b)
    if not a or not b:
        return 0.0
    return _lcs_length(a, _match_masks(b), len(b)) / max(len(a), len(b))


def _gst_tiled_length(a, b, min_match: int) -> int:
    """Greedy string tiling: repeatedly take the longest common run of
    unmarked elements (length >= min_match), marking every non-overlapping
    occurrence of that length per round. Returns the total tiled length.

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


def gst_sim(a, b, min_match: int = 1) -> float:
    """Greedy-string-tiling similarity: 2·tiled / (len_a + len_b).

    Greedy string tiling (Wise 1993), each round driven by an index of
    ``b``'s positions per element, so that it costs the number of equal
    pairs rather than |a|·|b|.
    """
    if min_match < 1:
        raise DataError(f"min_match must be >= 1, got {min_match}")
    a, b = list(a), list(b)
    if not a or not b:
        return 0.0
    return 2.0 * _gst_tiled_length(a, b, min_match) / (len(a) + len(b))


class _Grams:
    """One text's n-grams of one order, ready for every measure."""

    def __init__(self, toks: TokenSeq, n: int):
        self.seq = tuple(toks[i:i + n] for i in range(len(toks) - n + 1))
        self.counts = Counter(self.seq)

    @cached_property
    def masks(self) -> dict:
        """LCS match masks, built only for the side that reads them."""
        return _match_masks(self.seq)


@lru_cache(maxsize=16)
def _profile(text: str, stopwords: frozenset) -> tuple[_Grams, ...]:
    """The n-grams of ``text`` for every order in SIM_NGRAM_ORDERS.

    Memoized with a small bound: in task B the original question recurs
    across its consecutive candidates, and its profile is built once.
    """
    toks = tokenize(text, stopwords)
    return tuple(_Grams(toks, n) for n in SIM_NGRAM_ORDERS)


_SIM_NAMES = tuple(f"sim_n{n}_{measure}" for n in SIM_NGRAM_ORDERS
                   for measure in SIM_MEASURES)


def similarity_vector(qo_text: str, qs_text: str,
                      cfg: FeatureConfig = FeatureConfig()) -> FeatureVector:
    """The 20 text similarities between the two questions.

    For every n in 1..4 the texts are mapped to their n-gram representations
    and each of GST, LCS, Jaccard, containment and cosine is computed; the
    result is ordered n-major / measure-minor with names like
    ``sim_n2_jaccard``. Containment is directed from the first (original
    question) argument.

    Each text is profiled once (see ``_profile``); the values are those of
    ``gst_sim``, ``lcs_sim``, ``jaccard``, ``containment`` and ``cosine`` on
    the n-gram sequences. LCS runs on the first text's cached match masks.
    """
    stopwords = frozenset(cfg.stopwords)
    values = []
    for ga, gb in zip(_profile(qo_text, stopwords),
                      _profile(qs_text, stopwords)):
        len_a, len_b = len(ga.seq), len(gb.seq)
        if not len_a or not len_b:
            values += (0.0, 0.0, 0.0, 0.0, 0.0)
            continue
        # LCS is symmetric: the masks of the first text serve every
        # candidate it is paired with
        lcs = _lcs_length(gb.seq, ga.masks, len_a)
        values += (
            gst_sim(ga.seq, gb.seq, cfg.gst_min_match),
            lcs / max(len_a, len_b),
            jaccard(ga.counts.keys(), gb.counts.keys()),
            containment(ga.counts.keys(), gb.counts.keys()),
            cosine(ga.counts, gb.counts),
        )
    return FeatureVector(np.array(values), _SIM_NAMES)


# ---------------------------------------------------------------------------
# tree, rank, and embedding features
# ---------------------------------------------------------------------------

def ptk_feature(tree_o_rel: SyntaxTree, tree_s_rel: SyntaxTree,
                cfg: KernelConfig) -> float:
    """Normalized partial-tree kernel between the two REL-linked trees of
    one example — structural similarity of the pair as a single scalar."""
    if tree_o_rel is None or tree_s_rel is None:
        raise DataError("ptk_feature requires both REL-linked trees")
    k_oo = ptk(tree_o_rel, tree_o_rel, cfg.lam, cfg.mu)
    k_ss = ptk(tree_s_rel, tree_s_rel, cfg.lam, cfg.mu)
    k_os = ptk(tree_o_rel, tree_s_rel, cfg.lam, cfg.mu)
    return normalize_kernel(k_os, k_oo, k_ss)


def rank_feature(pos: int, mode: str) -> float:
    """The candidate's search rank, verbatim (AS_IS) or inverted (INVERSE)."""
    if mode not in RANK_MODES:
        raise DataError(f"rank mode must be one of {RANK_MODES}, got {mode!r}")
    if pos < 1:
        raise DataError(f"rank position must be >= 1, got {pos}")
    return float(pos) if mode == "AS_IS" else 1.0 / pos


def embedding_pair(v_new: np.ndarray, v_forum: np.ndarray) -> np.ndarray:
    """Concatenate the new-question and forum-question embeddings."""
    if v_new is None or v_forum is None:
        raise DataError("embedding_pair requires both vectors")
    v_new = np.asarray(v_new, dtype=np.float64)
    v_forum = np.asarray(v_forum, dtype=np.float64)
    if v_new.ndim != 1 or v_forum.ndim != 1 or v_new.shape != v_forum.shape:
        raise DataError(
            f"embedding dimensions disagree: {v_new.shape} vs {v_forum.shape}"
        )
    return np.concatenate([v_new, v_forum])


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
    c1 = Counter(tuple(cand[i:i + 1]) for i in range(len(cand)))
    r1 = Counter(tuple(ref[i:i + 1]) for i in range(len(ref)))
    m1 = _clipped_matches(c1, r1)
    if m1 == 0:
        return 0.0
    log_sum = math.log(m1 / len(cand))
    for n in range(2, 5):
        cn = Counter(tuple(cand[i:i + n]) for i in range(len(cand) - n + 1))
        rn = Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
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
    ref_counts = {
        n: Counter(tuple(ref[i:i + n]) for i in range(len(ref) - n + 1))
        for n in range(1, 6)
    }
    score = 0.0
    for n in range(1, 6):
        cn = Counter(tuple(cand[i:i + n]) for i in range(len(cand) - n + 1))
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


def mte_vector(question: TokenSeq, comment: TokenSeq) -> FeatureVector:
    """The seven MT-evaluation features of a (question, comment) pair.

    The question plays the candidate-translation role and the comment the
    reference. Both sequences should be tokenized WITHOUT stopword removal.
    An empty comment leaves the length ratio with a zero denominator and is
    rejected.
    """
    cand = list(question)
    ref = list(comment)
    if not ref:
        raise DataError("mte_vector: empty comment (length ratio denominator)")
    c1 = Counter(cand)
    r1 = Counter(ref)
    matches = sum(min(c, r1[g]) for g, c in c1.items())
    precision = matches / len(cand) if cand else 0.0
    recall = matches / len(ref)
    values = np.array([
        _sentence_bleu(cand, ref),
        _ter_noshift(cand, ref),
        _meteor_lite(cand, ref),
        _nist(cand, ref),
        precision,
        recall,
        len(cand) / len(ref),
    ])
    return FeatureVector(values, MTE_NAMES)


# ---------------------------------------------------------------------------
# external inputs: stopword and embedding files
# ---------------------------------------------------------------------------

def load_stopwords(path: str | Path) -> frozenset[str]:
    """One token per line, UTF-8; case-folded. Blank lines are ignored."""
    out = set()
    with open_text(path) as fh:
        for line in fh:
            word = line.strip()
            if word:
                out.add(word.casefold())
    return frozenset(out)


def load_embeddings(path: str | Path) -> dict[str, np.ndarray]:
    """Embedding table: one ``id<TAB>v1 v2 … vd`` record per line.

    All vectors must share one dimension; duplicate ids and malformed
    numbers are rejected with their line number.
    """
    table: dict[str, np.ndarray] = {}
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
                vec = np.array([float(x) for x in rest.split()], dtype=np.float64)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad number in embedding") from exc
            if vec.size == 0:
                raise DataError(f"{path}:{lineno}: empty embedding vector")
            if not np.all(np.isfinite(vec)):
                raise DataError(f"{path}:{lineno}: non-finite embedding value")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise DataError(
                    f"{path}:{lineno}: embedding dimension {vec.size} != {dim}"
                )
            table[ident] = vec
    if not table:
        raise DataError(f"{path}: empty embedding file")
    return table
