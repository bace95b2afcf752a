"""Ranking and evaluation: reranking, MAP/AvgRec/MRR, significance testing.

Candidates are reranked by descending score with ties broken by ascending
original rank, which makes reranking fully deterministic.  Metrics follow the
conventions of retrieval scorers for ranked question lists:

* average precision uses the denominator ``min(R, k)`` where ``R`` counts the
  relevant candidates in the whole group and ``k`` is the evaluation cutoff;
* groups without any relevant candidate are excluded from all three averages;
* the reported numbers are scaled to [0, 100].

The paired randomization test flips the sign of each per-query metric
difference with probability one half and counts how often the resampled
absolute mean difference reaches the observed one, with add-one smoothing on
both numerator and denominator.  The flip masks come from
``random.Random(seed)`` and depend only on the seed and the number of
queries — never on the metric values — so swapping the two systems
provably leaves the p-value unchanged.  The module imports no numpy.
"""

from __future__ import annotations

import math
import random
from itertools import repeat
from operator import add, ge, itemgetter

from .errors import DataError, open_text


def _check_id(name: str, value: str) -> None:
    """Raise :class:`DataError` unless ``value`` is an id that a
    predictions line can hold: non-empty, no tab, CR or LF."""
    if not value or "\t" in value or "\r" in value or "\n" in value:
        raise DataError(f"{name} must be non-empty, with no tab, CR or LF, "
                        f"got {value!r}")


class _Record:
    """Immutable fields, the names in ``__slots__``, each set once by the
    constructor; equality, hashing and ``repr`` over them, in that order.
    (A plain class: ``dataclasses`` costs ``evaluate`` its import.)"""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in
                           zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"


class Candidate(_Record):
    """One ranked candidate question with its gold label and model score."""

    __slots__ = ("candidate_id", "original_rank", "gold_relevant", "score")
    candidate_id: str
    original_rank: int
    gold_relevant: bool
    score: float

    def __init__(self, candidate_id: str, original_rank: int,
                 gold_relevant: bool, score: float):
        _check_id("candidate_id", candidate_id)
        if type(original_rank) is not int or original_rank < 1:
            raise DataError(
                f"original_rank must be a positive integer, got "
                f"{original_rank!r}")
        try:
            value = float(score)
        except (TypeError, ValueError):
            value = math.nan
        if not math.isfinite(value):
            raise DataError(
                f"score of candidate {candidate_id!r} must be a finite "
                f"float, got {score!r}")
        self._set(candidate_id, original_rank, gold_relevant, value)


class QueryGroup(_Record):
    """All candidates retrieved for one original question."""

    __slots__ = ("query_id", "candidates")
    query_id: str
    candidates: tuple[Candidate, ...]

    def __init__(self, query_id: str, candidates):
        candidates = tuple(candidates)
        _check_id("query_id", query_id)
        if not candidates:
            raise DataError(f"query {query_id!r} has no candidates")
        ids = [c.candidate_id for c in candidates]
        if len(set(ids)) != len(ids):
            raise DataError(f"duplicate candidate ids in query {query_id!r}")
        ranks = [c.original_rank for c in candidates]
        if len(set(ranks)) != len(ranks):
            raise DataError(
                f"duplicate original ranks in query {query_id!r}")
        self._set(query_id, candidates)


def reranked_candidates(group: QueryGroup) -> tuple[Candidate, ...]:
    """Candidates sorted by descending score, ties by ascending original rank."""
    return tuple(sorted(group.candidates,
                        key=lambda c: (-c.score, c.original_rank)))


def average_precision(ranked_gold, k: int | None = None) -> float:
    """Average precision of a ranked boolean relevance list at cutoff ``k``.

    ``R`` counts relevant items in the whole list; the denominator is
    ``min(R, k)``.  Returns 0.0 when the list has no relevant items (callers
    exclude such groups from averaging).
    """
    gold = [bool(g) for g in ranked_gold]
    if k is None:
        k = len(gold)
    if k < 1:
        raise DataError(f"cutoff k must be >= 1, got {k}")
    total_relevant = sum(gold)
    if total_relevant == 0:
        return 0.0
    hits = 0
    precision_sum = 0.0
    for i, is_relevant in enumerate(gold[:k], start=1):
        if is_relevant:
            hits += 1
            precision_sum += hits / i
    return precision_sum / min(total_relevant, k)


def _first_relevant_rank(gold, k: int) -> int | None:
    for i, is_relevant in enumerate(gold[:k], start=1):
        if is_relevant:
            return i
    return None


def evaluate(groups, k: int | None = None) -> dict[str, float]:
    """MAP, AvgRec and MRR (each scaled to [0, 100]) over already-ordered groups.

    The candidate order inside each group is taken as the system ranking.
    Groups with no relevant candidate are excluded from all three means.
    """
    groups = list(groups)
    if not groups:
        raise DataError("no query groups to evaluate")
    aps: list[float] = []
    recalls: list[float] = []
    reciprocal_ranks: list[float] = []
    for group in groups:
        gold = [c.gold_relevant for c in group.candidates]
        total_relevant = sum(gold)
        if total_relevant == 0:
            continue
        cutoff = len(gold) if k is None else k
        if cutoff < 1:
            raise DataError(f"cutoff k must be >= 1, got {cutoff}")
        aps.append(average_precision(gold, cutoff))
        recalls.append(sum(gold[:cutoff]) / min(total_relevant, cutoff))
        first = _first_relevant_rank(gold, cutoff)
        reciprocal_ranks.append(0.0 if first is None else 1.0 / first)
    if not aps:
        raise DataError("no group has a relevant candidate")
    return {
        "MAP": 100.0 * _mean(aps),
        "AvgRec": 100.0 * _mean(recalls),
        "MRR": 100.0 * _mean(reciprocal_ranks),
    }


def _pairwise_sum(values: list[float], start: int, n: int) -> float:
    """numpy's float64 pairwise sum of ``values[start:start + n]``, in its
    order of additions: a plain loop below 8 values, eight interleaved
    accumulators up to a block of 128, and above that two halves split at
    n/2 rounded down to a multiple of 8."""
    if n < 8:
        total = 0.0
        for i in range(start, start + n):
            total += values[i]
        return total
    if n <= 128:
        r = values[start:start + 8]
        end = start + n - n % 8
        for i in range(start + 8, end, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, start + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return (_pairwise_sum(values, start, half)
            + _pairwise_sum(values, start + half, n - half))


def _mean(values: list[float]) -> float:
    """``float(np.mean(values))`` bit for bit, without numpy: the reduction
    starts from 0.0 and adds the pairwise sum, then divides by the count."""
    return (0.0 + _pairwise_sum(values, 0, len(values))) / len(values)


def per_query_average_precision(groups, k: int | None = None) -> dict[str, float]:
    """AP per query id, in group order, skipping groups with no relevant.

    The resulting mapping pairs up with another system's mapping over the
    same corpus to feed :func:`randomization_test`.
    """
    out: dict[str, float] = {}
    for group in groups:
        gold = [c.gold_relevant for c in group.candidates]
        if not any(gold):
            continue
        if group.query_id in out:
            raise DataError(f"duplicate query id {group.query_id!r}")
        out[group.query_id] = average_precision(
            gold, len(gold) if k is None else k)
    return out


# resamples drawn at a time; each draw is a multiple of 32 bits, so the
# generator's words run on from one draw to the next and the block size
# changes no p-value
_RESAMPLE_BLOCK = 1024


def _sign_tables(diffs: list[float]) -> list[list[float]]:
    """For each run of 8 differences (fewer in the last), the 256 signed
    sums that a byte of sign bits picks: entry m is ((0.0 ± d_0) ± d_1)
    ± ..., with + for d_t where bit t of m is set. The last run's table
    repeats over the bits past its end."""
    tables = []
    for k in range(0, len(diffs), 8):
        table = [0.0]
        for d in diffs[k:k + 8]:
            table = [s - d for s in table] + [s + d for s in table]
        tables.append(table * (256 // len(table)))
    return tables


def _statistics(tables: list[list[float]], data: bytes):
    """|t_0[b_0] + t_1[b_1] + ...|, added left to right, for each resample
    of ``data``: one byte b_j per table t_j, the resamples one after
    another."""
    size, total = len(tables), None
    for j, table in enumerate(tables):
        picks = data[j::size]
        # itemgetter of one index gives the item, not a 1-tuple
        picks = (itemgetter(*picks)(table) if len(picks) > 1
                 else (table[picks[0]],))
        total = picks if total is None else map(add, total, picks)
    return map(abs, total)


def randomization_test(ap_a, ap_b, resamples: int = 10000,
                       seed: int = 0) -> float:
    """Two-sided paired sign-flip randomization p-value for mean(ap_a - ap_b).

    p = (1 + #{resamples with |resampled mean| >= |observed mean|})
        / (1 + resamples)

    The signs are the bits of one stream of ``random.Random(seed)
    .getrandbits``, read little-endian: each resample takes the next
    ⌈n/8⌉ bytes, bit k the sign of difference k (set: +), and the bits
    past n go unused. The means share the divisor n, so the sums are
    compared: each resample's is one entry per run of 8 differences
    (:func:`_sign_tables`), picked by that run's byte and added left to
    right. The observed sum is the resample with every sign +, so it ties
    exactly, and flipping every sign negates each entry exactly, so
    swapping the two systems leaves the p-value unchanged.
    """
    try:
        a = [float(x) for x in ap_a]
        b = [float(x) for x in ap_b]
    except (TypeError, ValueError) as exc:
        raise DataError(f"paired metric lists must hold real numbers: "
                        f"{exc}") from exc
    if len(a) != len(b):
        raise DataError(f"paired metric lists differ in shape: "
                        f"({len(a)},) vs ({len(b)},)")
    if not a:
        raise DataError("paired metric lists are empty")
    if resamples < 1000:
        raise DataError(f"resamples must be >= 1000, got {resamples}")
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    tables = _sign_tables([x - y for x, y in zip(a, b)])
    size = len(tables)
    observed, = _statistics(tables, b"\xff" * size)
    rng = random.Random(seed)
    count = 0
    for done in range(0, resamples, _RESAMPLE_BLOCK):
        m = min(_RESAMPLE_BLOCK, resamples - done)
        data = rng.getrandbits(8 * size * m).to_bytes(size * m, "little")
        count += sum(map(ge, _statistics(tables, data), repeat(observed)))
    return (count + 1) / (resamples + 1)


def write_predictions(path, groups) -> None:
    """Write a predictions TSV: query_id, candidate_id, rank, score, gold.

    ``rank`` is the 1-based position of the candidate inside its group's
    current order, so callers should pass already-reranked groups.
    """
    lines = []
    for group in groups:
        for position, c in enumerate(group.candidates, start=1):
            gold = "true" if c.gold_relevant else "false"
            lines.append(f"{group.query_id}\t{c.candidate_id}\t{position}\t"
                         f"{c.score!r}\t{gold}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_predictions(path) -> list[QueryGroup]:
    """Read a predictions TSV back into ordered query groups."""
    by_query: dict[str, list[tuple[int, Candidate]]] = {}
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 5:
                raise DataError(
                    f"{path}:{lineno}: expected 5 tab-separated fields, "
                    f"got {len(fields)}")
            query_id, candidate_id, rank_s, score_s, gold_s = fields
            try:
                rank = int(rank_s)
                score = float(score_s)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            if gold_s not in ("true", "false"):
                raise DataError(
                    f"{path}:{lineno}: gold column must be 'true' or "
                    f"'false', got {gold_s!r}")
            candidate = Candidate(candidate_id=candidate_id,
                                  original_rank=rank,
                                  gold_relevant=(gold_s == "true"),
                                  score=score)
            by_query.setdefault(query_id, []).append((rank, candidate))
    groups = []
    for query_id, entries in by_query.items():
        entries.sort(key=lambda pair: pair[0])
        groups.append(QueryGroup(
            query_id=query_id,
            candidates=tuple(c for _, c in entries)))
    return groups
