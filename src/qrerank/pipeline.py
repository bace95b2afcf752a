"""The pipeline's data layer: corpus ingestion, featurization, examples
files, scoring and grouping.

The canonical corpus format is JSONL (UTF-8), one candidate pair per line::

    {"query_id": "q1", "candidate_id": "c3", "original_rank": 3,
     "qo_text": "...", "qs_text": "...", "gold_label": "Relevant",
     "qo_trees": ["(S ...)"], "qs_trees": ["(S ...)"],
     "comment_text": "...", "qo_embedding_id": "...", "qs_embedding_id": "..."}

Two ranking tasks are supported.  Task "B" ranks forum questions retrieved
for a new question (10 candidates per query, labels PerfectMatch / Relevant /
Irrelevant); task "D" ranks question-comment pairs from cross-forum retrieval
(30 candidates per query, labels Direct / Related / Irrelevant).
:class:`CorpusRecord` checks the types and values of a record's own fields,
so a record built through the API passes the same checks as a line of a
corpus. :func:`load_corpus` adds the schema (unknown and missing keys), the
checks that need the task (label inventory, rank range) and those that need
other lines (uniqueness), names the line of each fault, and logs the gold
class counts of every corpus it reads.

The CLI (:mod:`.cli`) is the one orchestration: its ``featurize`` stage
runs :func:`load_corpus`, :func:`build_examples` and :func:`save_examples`;
``gram`` reads the examples back with :func:`read_examples`, ``train`` reads
their labels with :func:`load_labels`, and ``rerank`` scores the test
examples with :func:`score_examples` and groups them by query with
:func:`make_groups`.  Each stage writes a file that the next one reads.

Every tree is bracketed text, checked against the one grammar
(:func:`~.treebank.tokens`), and text is the one tree that the kernels and
:func:`save_examples` take. ``featurize`` checks each distinct sentence
string once, joins a side's sentences as the text of its macro-tree and
REL-links the two texts. :func:`read_examples` checks each tree of an
examples file and keeps it as its text, which the kernels compile straight
into their subtree table; ``gram`` and ``rerank`` have it skip the trees
when their kernel has no tree block. :func:`load_examples` alone parses
each tree into a walkable :class:`~.treebank.SyntaxTree`, for callers that
walk them.

An examples file is JSONL too, one :class:`~.features.Example` per line,
its keys ``Example``'s fields and no feature names: its ``vec`` joins the
blocks that the run configuration enables, in the order the
:mod:`.features` docstring gives. The corpus, the examples and their
labels are read by one record loop (:func:`_read_jsonl`), which names the
file and the line of each fault, and refuses a record with a repeated
key, where ``json`` would keep the last value. :func:`save_examples`
writes through :func:`.errors.replace_file`, the one writer of every
stage's file, so a failed write leaves no part of a file behind.

This module imports no numpy: corpus loading, featurization, the
examples files and the scores work on plain float vectors.
``score_examples`` imports :mod:`.kernels` when it runs, so the
``featurize`` stage loads the kernels only when ``use_ptk_feature`` asks
for the tree kernels.
"""

from __future__ import annotations

import json
import logging
import math
import operator
import time
from array import array
from dataclasses import MISSING, dataclass, fields

from . import _native
from .config import TASK_SPECS, KernelConfig, RunConfig, _check_task
from .errors import DataError, open_text, replace_file
from .features import (
    Example,
    _check_label,
    embedding_pair,
    load_embeddings,
    load_stopwords,
    mte_vector,
    ptk_feature,
    similarity_vector,
    tokenize,
)
from .rankeval import Candidate, QueryGroup, _check_id
from .rellink import _excluded, _link
from .treebank import _TOKEN, parse_bracketed, tokens

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CorpusRecord:
    """One (original question, candidate) pair as ingested from JSONL.

    A record checks its own fields, however it is built: each id non-empty
    with no tab, CR or LF; the rank an integer >= 1; the two texts and the
    label strings; each other string non-empty or None; each tree field a
    list of non-empty strings, kept as a tuple (an empty one as None). A bad
    field raises :class:`DataError`. The checks that need the task or other
    records are :func:`load_corpus`'s."""

    query_id: str
    candidate_id: str
    original_rank: int
    qo_text: str
    qs_text: str
    gold_label: str
    qo_trees: tuple[str, ...] | None = None
    qs_trees: tuple[str, ...] | None = None
    comment_text: str | None = None
    qo_embedding_id: str | None = None
    qs_embedding_id: str | None = None

    def __post_init__(self):
        for name in ("query_id", "candidate_id"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise DataError(f"field {name!r} must be a non-empty string")
            _check_id(name, value)
        rank = self.original_rank
        if type(rank) is not int:
            raise DataError("field 'original_rank' must be an integer")
        if rank < 1:
            raise DataError(f"field 'original_rank' must be >= 1, got {rank}")
        for name in ("qo_text", "qs_text", "gold_label"):
            if not isinstance(getattr(self, name), str):
                raise DataError(f"field {name!r} must be a string")
        for name in ("comment_text", "qo_embedding_id", "qs_embedding_id"):
            value = getattr(self, name)
            if value is not None and not (isinstance(value, str) and value):
                raise DataError(
                    f"field {name!r} must be a non-empty string or null")
        for name in ("qo_trees", "qs_trees"):
            trees = getattr(self, name)
            if trees is None:
                continue
            if not isinstance(trees, (list, tuple)) or \
                    not all(isinstance(t, str) and t for t in trees):
                raise DataError(
                    f"field {name!r} must be a list of bracketed tree strings")
            object.__setattr__(self, name, tuple(trees) or None)


# ---------------------------------------------------------------------------
# corpus ingestion
# ---------------------------------------------------------------------------

def gold_binary(label: str, task: str) -> int:
    """Map a task's gold label onto the binary training target {+1, -1}."""
    _check_task(task)
    spec = TASK_SPECS[task]
    if label not in spec.labels:
        raise DataError(
            f"unknown gold label {label!r} for task {task} "
            f"(expected one of {spec.labels})")
    return 1 if label in spec.relevant else -1


def _field_error(path, lineno: int, message: str) -> DataError:
    return DataError(f"{path}:{lineno}: {message}")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The JSON object of ``pairs``; a repeated key raises
    :class:`DataError`, where ``json`` would keep its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DataError(f"repeated key {key!r}")
        obj[key] = value
    return obj


# one decoder for every line: json.loads would build a new one, a reference
# cycle, per call
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _json_object(line: str, path, lineno: int) -> dict:
    """The JSON object on line ``lineno`` of ``path``: a line that is not
    JSON, not an object or an object with a repeated key raises
    :class:`DataError` naming ``path`` and the line, as does an integer
    longer than the interpreter converts (``sys.get_int_max_str_digits``)
    or a nesting deeper than the decoder's recursion reaches."""
    try:
        obj = _DECODER.decode(line)
    except DataError as exc:
        raise _field_error(path, lineno, str(exc)) from exc
    # a JSONDecodeError, an integer too long, or arrays nested too deep
    except (ValueError, RecursionError) as exc:
        raise _field_error(path, lineno, f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise _field_error(path, lineno, "record must be a JSON object")
    return obj


def _read_jsonl(path, what: str, make) -> list:
    """``make(obj, lineno)`` for the JSON object on each non-blank line of
    the JSONL file ``path``, read by :func:`_json_object`, in order. A
    :class:`DataError` or a missing key (:class:`KeyError`) that ``make``
    raises is named with ``path`` and the line; a file with no record
    raises :class:`DataError` naming ``path``: ``empty {what}``."""
    out = []
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            obj = _json_object(line, path, lineno)
            try:
                out.append(make(obj, lineno))
            except KeyError as exc:
                raise _field_error(path, lineno, f"missing field {exc}") \
                    from exc
            except DataError as exc:
                raise _field_error(path, lineno, str(exc)) from exc
    if not out:
        raise DataError(f"{path}: empty {what}")
    return out


def load_corpus(path, task: str) -> list[CorpusRecord]:
    """Read a JSONL corpus for the given task. Each line holds the fields of
    one :class:`CorpusRecord`, which checks them; the loader adds the checks
    that need the task (the rank range, the label, ``comment_text`` only for
    task D) or other lines (a repeated pair, a query's repeated rank). Each
    fault raises :class:`DataError` naming ``path`` and the line."""
    _check_task(task)
    lo, hi = TASK_SPECS[task].ranks
    names = {f.name for f in fields(CorpusRecord)}
    required = [f.name for f in fields(CorpusRecord) if f.default is MISSING]
    seen_pairs: dict[tuple[str, str], int] = {}
    seen_ranks: dict[tuple[str, int], int] = {}

    def make(obj, lineno):
        unknown = set(obj) - names
        if unknown:
            raise DataError(f"unknown fields: {sorted(unknown)}")
        missing = [k for k in required if k not in obj]
        if missing:
            raise DataError(f"missing fields: {missing}")
        record = CorpusRecord(**obj)
        rank = record.original_rank
        if not lo <= rank <= hi:
            raise DataError(f"original_rank {rank} outside task "
                            f"{task} range {lo}..{hi}")
        gold_binary(record.gold_label, task)
        if record.comment_text is not None and task != "D":
            raise DataError("field 'comment_text' is only valid for "
                            "task D records")
        pair = (record.query_id, record.candidate_id)
        if pair in seen_pairs:
            raise DataError(
                f"duplicate (query_id, candidate_id) {pair} "
                f"(first seen at line {seen_pairs[pair]})")
        rank_key = (record.query_id, rank)
        if rank_key in seen_ranks:
            raise DataError(
                f"query {record.query_id!r} has two candidates at "
                f"rank {rank} (first seen at line {seen_ranks[rank_key]})")
        seen_pairs[pair] = seen_ranks[rank_key] = lineno
        return record

    records = _read_jsonl(path, "corpus", make)
    relevant, irrelevant = class_counts(records, task)
    logger.info(
        "loaded %d records (%d queries) from %s: %d relevant, %d irrelevant",
        len(records), len({r.query_id for r in records}), path,
        relevant, irrelevant)
    return records


def class_counts(records, task: str) -> tuple[int, int]:
    """(relevant, irrelevant) gold counts of a corpus."""
    relevant = sum(1 for r in records if gold_binary(r.gold_label, task) > 0)
    return relevant, len(records) - relevant


# ---------------------------------------------------------------------------
# featurization
# ---------------------------------------------------------------------------

def _record_name(record: CorpusRecord) -> str:
    return f"record ({record.query_id!r}, {record.candidate_id!r})"


def _macro_from(strings, record, side, root_label, checked: set[str]):
    """The tokens of one side's macro-tree ``(root_label s1 s2 …)``; a
    sentence string is checked against the grammar the first time, when
    it joins ``checked``, and only split into its tokens after that."""
    if not strings:
        raise DataError(
            f"{_record_name(record)}: {side} parse trees are required by "
            f"the current configuration")
    toks = ["(", root_label]
    for s in strings:
        if s in checked:
            toks += _TOKEN.findall(s)
            continue
        try:
            toks += tokens(s)
        except DataError as exc:
            raise DataError(f"{_record_name(record)}: {exc}") from exc
        checked.add(s)
    toks.append(")")
    return toks


def _embedding_for(embeddings, explicit_id, fallback_id, record) -> array:
    key = explicit_id if explicit_id is not None else fallback_id
    try:
        return embeddings[key]
    except KeyError:
        raise DataError(
            f"{_record_name(record)}: embedding id {key!r} not found in "
            f"the embedding file") from None


def build_examples(records, cfg: RunConfig) -> list[Example]:
    """Featurize validated corpus records, in input order.

    Each distinct sentence string is checked once per call: a query's
    ``qo`` sentences, checked for its first candidate, are only split
    into tokens for the others. The two REL-linked macro-trees are kept as
    bracketed text. The feature blocks are appended to one vector in the
    order the :mod:`.features` docstring gives. When the 20 text
    similarities are on, one INFO line gives the pair count, the seconds
    spent in them and the engine that computed them."""
    stopwords = (load_stopwords(cfg.stopword_path)
                 if cfg.stopword_path else frozenset())
    excluded = _excluded(cfg.rel, stopwords)
    embeddings = (load_embeddings(cfg.embedding_path)
                  if cfg.use_embeddings else None)
    need_vec = cfg.kernel.use_sim
    need_trees = cfg.kernel.use_tk or cfg.use_ptk_feature

    examples: list[Example] = []
    checked: set[str] = set()
    sim_s = 0.0
    for record in records:
        tree_first = tree_second = None
        if need_trees:
            qo = _macro_from(record.qo_trees, record, "qo_text",
                             cfg.macro_root_label, checked)
            qs = _macro_from(record.qs_trees, record, "qs_text",
                             cfg.macro_root_label, checked)
            tree_first = _link(qo, qs, cfg.rel, excluded)
            tree_second = _link(qs, qo, cfg.rel, excluded)

        vec = None
        if need_vec:
            vec = array("d")
            if cfg.use_sim_features:
                start = time.perf_counter()
                vec += similarity_vector(record.qo_text, record.qs_text,
                                         stopwords, cfg.gst_min_match)
                sim_s += time.perf_counter() - start
            if cfg.use_ptk_feature:
                vec.append(ptk_feature(tree_first, tree_second, cfg.kernel))
            if cfg.use_embeddings:
                v_qo = _embedding_for(embeddings, record.qo_embedding_id,
                                      record.query_id, record)
                v_qs = _embedding_for(embeddings, record.qs_embedding_id,
                                      record.candidate_id, record)
                vec += embedding_pair(v_qo, v_qs)
            if cfg.use_mte:
                if record.comment_text is None:
                    raise DataError(
                        f"{_record_name(record)}: comment_text is required "
                        f"when MTE features are enabled")
                question_text = (record.qo_text if cfg.mte_side == "qo"
                                 else record.qs_text)
                try:
                    vec += mte_vector(tokenize(question_text),
                                      tokenize(record.comment_text))
                except DataError as exc:
                    raise DataError(f"{_record_name(record)}: {exc}") from exc

        examples.append(Example(
            query_id=record.query_id,
            candidate_id=record.candidate_id,
            label=gold_binary(record.gold_label, cfg.task),
            original_rank=record.original_rank,
            vec=vec,
            tree_first=tree_first,
            tree_second=tree_second,
        ))
    if need_vec and cfg.use_sim_features:
        logger.info("build_examples: %d pairs, %.3f s in the similarities, "
                    "%s engine", len(examples), sim_s,
                    "python" if _native.load() is None else "native")
    return examples


# ---------------------------------------------------------------------------
# featurized-example files
# ---------------------------------------------------------------------------

# the keys of an examples record, in the order save_examples writes them
_EXAMPLE_KEYS = tuple(f.name for f in fields(Example))
_TREE_KEYS = ("tree_first", "tree_second")


def save_examples(path, examples: list[Example]) -> None:
    """Write featurized examples as JSONL, one record per example with
    :class:`~.features.Example`'s fields as its keys, each tree as the
    bracketed text it holds (:func:`build_examples`, :func:`read_examples`).
    The file is written through :func:`.errors.replace_file`: a tree that
    is not text raises :class:`DataError` naming its example, and it or any
    other error leaves ``path`` as it was."""
    with replace_file(path) as fh:
        for e in examples:
            obj = {key: getattr(e, key) for key in _EXAMPLE_KEYS}
            for tree in map(obj.get, _TREE_KEYS):
                if tree is not None and not isinstance(tree, str):
                    raise DataError(
                        f"example ({e.query_id}, {e.candidate_id}) holds a "
                        f"{type(tree).__name__} tree, not bracketed text")
            if e.vec is not None:
                obj["vec"] = [float(v) for v in e.vec]
            fh.write(json.dumps(obj) + "\n")


def _example_tree(text, key, keep: bool) -> str | None:
    """The value ``text`` of the field ``key`` of an examples record, which
    must be a string or null: with ``keep``, the bracketed tree checked and
    kept as text; else None."""
    if text is None:
        return None
    if not isinstance(text, str):
        raise DataError(f"field {key!r} must be a bracketed tree or null")
    if not keep:
        return None
    tokens(text)
    return text


def read_examples(path, trees: bool = True) -> list[Example]:
    """Read featurized examples written by :func:`save_examples`, each tree
    checked against the bracketed grammar (:func:`~.treebank.tokens`) and
    kept as its text, which the kernels compile. A malformed tree raises
    :class:`DataError` naming ``path``, the line and the byte offset. With
    ``trees`` false, as for a kernel with no tree block, a tree field must
    still be a string or null, but it is neither checked nor kept: each
    example's trees are None. A key it does not read is ignored, so a file
    from a version whose records also held the feature names or the rank
    feature, which the kernel now computes, reads to the same examples."""

    def make(obj, _):
        values = {key: obj[key] for key in _EXAMPLE_KEYS}
        for key in _TREE_KEYS:
            values[key] = _example_tree(values[key], key, trees)
        return Example(**values)

    return _read_jsonl(path, "example file", make)


def load_examples(path) -> list[Example]:
    """:func:`read_examples`, with each tree parsed into a walkable
    :class:`~.treebank.SyntaxTree`, for callers that walk trees; the
    kernels and :func:`save_examples` take the text :func:`read_examples`
    keeps, not these."""
    examples = read_examples(path)
    for e in examples:
        if e.tree_first is not None:
            e.tree_first = parse_bracketed(e.tree_first)
        if e.tree_second is not None:
            e.tree_second = parse_bracketed(e.tree_second)
    return examples


def load_labels(path) -> list[int]:
    """The labels of an examples file, in order, checked as
    :func:`read_examples` checks them; no tree is read and no vector
    converted."""

    def make(obj, _):
        _check_label(obj["label"])
        return obj["label"]

    return _read_jsonl(path, "example file", make)


# ---------------------------------------------------------------------------
# scoring and grouping
# ---------------------------------------------------------------------------

def score_examples(test_examples, model, train_examples,
                   kernel_cfg: KernelConfig) -> array:
    """Decision scores of test examples against a trained model's supports.

    Each test example's kernel row against the supports is scored as it is
    computed, as the exactly rounded sum (``math.fsum``) of its K_ij·coef_j
    plus the bias, so no test × support matrix is held and the score does
    not depend on the order of the terms. A sum beyond the doubles, or one
    of inf and -inf, scores nan, which :func:`make_groups` refuses. The
    scores come as an ``array('d')``, one per test example."""
    from .kernels import _kernel_rows

    needed = max(model.support_indices, default=-1) + 1
    if needed > len(train_examples):
        raise DataError(
            f"the model's support indices need at least {needed} training "
            f"examples, but {len(train_examples)} were given")
    supports = [train_examples[i] for i in model.support_indices]
    if not supports:
        return array("d", [model.bias]) * len(test_examples)
    coefs = model.dual_coefs.tolist()
    scores = array("d")
    for row in _kernel_rows("kernel_matrix", test_examples, supports,
                            kernel_cfg):
        try:
            score = math.fsum(map(operator.mul, row, coefs))
        except (OverflowError, ValueError):
            score = math.nan
        scores.append(score + model.bias)
    return scores


def make_groups(examples, scores) -> list[QueryGroup]:
    """Group examples by query, preserving encounter order; each candidate
    carries its example's score (one per example)."""
    examples = list(examples)
    if len(scores) != len(examples):
        raise DataError(
            f"{len(scores)} scores for {len(examples)} examples")
    per_query: dict[str, list[Candidate]] = {}
    for i, e in enumerate(examples):
        per_query.setdefault(e.query_id, []).append(Candidate(
            candidate_id=e.candidate_id,
            original_rank=e.original_rank,
            gold_relevant=e.label > 0,
            score=float(scores[i]),
        ))
    return [QueryGroup(query_id=qid, candidates=tuple(cands))
            for qid, cands in per_query.items()]
