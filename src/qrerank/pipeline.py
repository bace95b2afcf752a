"""End-to-end orchestration: corpus ingestion, featurization, experiments.

The canonical corpus format is JSONL (UTF-8), one candidate pair per line::

    {"query_id": "q1", "candidate_id": "c3", "original_rank": 3,
     "qo_text": "...", "qs_text": "...", "gold_label": "Relevant",
     "qo_trees": ["(S ...)"], "qs_trees": ["(S ...)"],
     "comment_text": "...", "qo_embedding_id": "...", "qs_embedding_id": "..."}

Two ranking tasks are supported.  Task "B" ranks forum questions retrieved
for a new question (10 candidates per query, labels PerfectMatch / Relevant /
Irrelevant); task "D" ranks question-comment pairs from cross-forum retrieval
(30 candidates per query, labels Direct / Related / Irrelevant).  The loader
validates schema, types, label inventory, rank ranges, and uniqueness with
line-numbered errors, and logs the gold class counts of every corpus it
reads.

``run_experiment`` wires the full path: featurize both splits, assemble the
training Gram matrix, train the SVM, score the test split against the support
vectors, rerank, evaluate, and write a predictions TSV plus a small metrics
report.  No statistic is ever computed across the train/test boundary, and
all randomness flows from the single seed in :class:`RunConfig`.

This module imports no numpy: corpus loading, featurization and the
examples files work on plain float vectors.  ``score_examples`` and
``run_experiment`` import numpy, :mod:`.kernels` and :mod:`.svm` when they
run, so the ``featurize`` stage never loads them (unless
``use_ptk_feature`` asks for the tree kernels).
"""

from __future__ import annotations

import json
import logging
import time
from array import array
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import _native
from .config import (
    MTE_SIDES,
    TASKS,
    KernelConfig,
    RunConfig,
    _check_task,
)
from .errors import DataError, open_text
from .features import (
    Example,
    FeatureConfig,
    FeatureVector,
    concat_features,
    embedding_pair,
    load_embeddings,
    load_stopwords,
    mte_vector,
    ptk_feature,
    rank_feature,
    similarity_vector,
    tokenize,
)
from .rankeval import (
    Candidate,
    QueryGroup,
    evaluate,
    reranked_candidates,
    write_predictions,
)
from .rellink import rel_link
from .treebank import SyntaxTree, macro_tree, parse_bracketed, to_bracketed

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "TASKS",
    "TASK_LABELS",
    "RELEVANT_LABELS",
    "TASK_RANK_RANGE",
    "MTE_SIDES",
    "CorpusRecord",
    "RunConfig",
    "load_corpus",
    "gold_binary",
    "class_counts",
    "task_cutoff",
    "build_examples",
    "save_examples",
    "load_examples",
    "make_groups",
    "rank_baseline_groups",
    "score_examples",
    "run_experiment",
]

TASK_LABELS = {
    "B": ("PerfectMatch", "Relevant", "Irrelevant"),
    "D": ("Direct", "Related", "Irrelevant"),
}
RELEVANT_LABELS = {
    "B": frozenset({"PerfectMatch", "Relevant"}),
    "D": frozenset({"Direct", "Related"}),
}
TASK_RANK_RANGE = {"B": (1, 10), "D": (1, 30)}


def task_cutoff(task: str) -> int:
    """Evaluation cutoff: the deepest rank the task's retrieval returns."""
    _check_task(task)
    return TASK_RANK_RANGE[task][1]


@dataclass(frozen=True)
class CorpusRecord:
    """One (original question, candidate) pair as ingested from JSONL."""

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
        if not self.query_id or not self.candidate_id:
            raise DataError("query_id and candidate_id must be non-empty")
        if not isinstance(self.original_rank, int) \
                or isinstance(self.original_rank, bool) \
                or self.original_rank < 1:
            raise DataError(
                f"original_rank must be a positive integer, got "
                f"{self.original_rank!r}")
        for name in ("qo_trees", "qs_trees"):
            trees = getattr(self, name)
            if trees is not None:
                object.__setattr__(self, name, tuple(trees))


# ---------------------------------------------------------------------------
# corpus ingestion
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = ("query_id", "candidate_id", "original_rank",
                    "qo_text", "qs_text", "gold_label")
_OPTIONAL_FIELDS = ("qo_trees", "qs_trees", "comment_text",
                    "qo_embedding_id", "qs_embedding_id")


def gold_binary(label: str, task: str) -> int:
    """Map a task's gold label onto the binary training target {+1, -1}."""
    _check_task(task)
    if label not in TASK_LABELS[task]:
        raise DataError(
            f"unknown gold label {label!r} for task {task} "
            f"(expected one of {TASK_LABELS[task]})")
    return 1 if label in RELEVANT_LABELS[task] else -1


def _field_error(path, lineno: int, message: str) -> DataError:
    return DataError(f"{path}:{lineno}: {message}")


def _require_str(obj, key, path, lineno, allow_empty=True) -> str:
    value = obj[key]
    if not isinstance(value, str) or (not allow_empty and not value):
        raise _field_error(path, lineno,
                           f"field {key!r} must be a non-empty string"
                           if not allow_empty else
                           f"field {key!r} must be a string")
    return value


def _optional_str(obj, key, path, lineno) -> str | None:
    value = obj.get(key)
    if value is None:
        return None
    if not isinstance(value, str) or not value:
        raise _field_error(path, lineno,
                           f"field {key!r} must be a non-empty string or null")
    return value


def _optional_trees(obj, key, path, lineno) -> tuple[str, ...] | None:
    value = obj.get(key)
    if value is None:
        return None
    if not isinstance(value, list) or \
            not all(isinstance(t, str) and t for t in value):
        raise _field_error(
            path, lineno,
            f"field {key!r} must be a list of bracketed tree strings")
    return tuple(value) if value else None


def load_corpus(path, task: str) -> list[CorpusRecord]:
    """Read and validate a JSONL corpus for the given task."""
    _check_task(task)
    records: list[CorpusRecord] = []
    seen_pairs: dict[tuple[str, str], int] = {}
    seen_ranks: dict[tuple[str, int], int] = {}
    lo, hi = TASK_RANK_RANGE[task]
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise _field_error(path, lineno, f"invalid JSON: {exc}") \
                    from exc
            if not isinstance(obj, dict):
                raise _field_error(path, lineno, "record must be a JSON object")
            unknown = set(obj) - set(_REQUIRED_FIELDS) - set(_OPTIONAL_FIELDS)
            if unknown:
                raise _field_error(
                    path, lineno, f"unknown fields: {sorted(unknown)}")
            missing = [k for k in _REQUIRED_FIELDS if k not in obj]
            if missing:
                raise _field_error(path, lineno, f"missing fields: {missing}")

            query_id = _require_str(obj, "query_id", path, lineno,
                                    allow_empty=False)
            candidate_id = _require_str(obj, "candidate_id", path, lineno,
                                        allow_empty=False)
            rank = obj["original_rank"]
            if not isinstance(rank, int) or isinstance(rank, bool):
                raise _field_error(
                    path, lineno, "field 'original_rank' must be an integer")
            if not lo <= rank <= hi:
                raise _field_error(
                    path, lineno,
                    f"original_rank {rank} outside task {task} range "
                    f"{lo}..{hi}")
            qo_text = _require_str(obj, "qo_text", path, lineno)
            qs_text = _require_str(obj, "qs_text", path, lineno)
            gold_label = _require_str(obj, "gold_label", path, lineno)
            try:
                gold_binary(gold_label, task)
            except DataError as exc:
                raise _field_error(path, lineno, str(exc)) from exc
            comment_text = _optional_str(obj, "comment_text", path, lineno)
            if comment_text is not None and task != "D":
                raise _field_error(
                    path, lineno,
                    "field 'comment_text' is only valid for task D records")

            pair = (query_id, candidate_id)
            if pair in seen_pairs:
                raise _field_error(
                    path, lineno,
                    f"duplicate (query_id, candidate_id) {pair} "
                    f"(first seen at line {seen_pairs[pair]})")
            seen_pairs[pair] = lineno
            rank_key = (query_id, rank)
            if rank_key in seen_ranks:
                raise _field_error(
                    path, lineno,
                    f"query {query_id!r} has two candidates at rank {rank} "
                    f"(first seen at line {seen_ranks[rank_key]})")
            seen_ranks[rank_key] = lineno

            records.append(CorpusRecord(
                query_id=query_id,
                candidate_id=candidate_id,
                original_rank=rank,
                qo_text=qo_text,
                qs_text=qs_text,
                gold_label=gold_label,
                qo_trees=_optional_trees(obj, "qo_trees", path, lineno),
                qs_trees=_optional_trees(obj, "qs_trees", path, lineno),
                comment_text=comment_text,
                qo_embedding_id=_optional_str(obj, "qo_embedding_id",
                                              path, lineno),
                qs_embedding_id=_optional_str(obj, "qs_embedding_id",
                                              path, lineno),
            ))
    if not records:
        raise DataError(f"{path}: empty corpus")
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


def _macro_from(strings, record, side, root_label) -> SyntaxTree:
    if not strings:
        raise DataError(
            f"{_record_name(record)}: {side} parse trees are required by "
            f"the current configuration")
    try:
        trees = [parse_bracketed(s) for s in strings]
    except DataError as exc:
        raise DataError(f"{_record_name(record)}: {exc}") from exc
    return macro_tree(trees, root_label)


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

    When the 20 text similarities are on, one INFO line gives the pair
    count, the seconds spent in them and the engine that computed them."""
    stopwords = (load_stopwords(cfg.stopword_path)
                 if cfg.stopword_path else frozenset())
    feature_cfg = FeatureConfig(stopwords=stopwords,
                                gst_min_match=cfg.gst_min_match)
    rel_cfg = (replace(cfg.rel, stopwords=stopwords)
               if cfg.stopword_path else cfg.rel)
    embeddings = (load_embeddings(cfg.embedding_path)
                  if cfg.use_embeddings else None)
    need_vec = cfg.kernel.use_sim
    need_trees = cfg.kernel.use_tk or cfg.use_ptk_feature

    examples: list[Example] = []
    sim_s = 0.0
    for record in records:
        tree_first = tree_second = None
        if need_trees:
            macro_qo = _macro_from(record.qo_trees, record, "qo_text",
                                   cfg.macro_root_label)
            macro_qs = _macro_from(record.qs_trees, record, "qs_text",
                                   cfg.macro_root_label)
            tree_first = rel_link(macro_qo, macro_qs, rel_cfg)
            tree_second = rel_link(macro_qs, macro_qo, rel_cfg)

        vec = None
        vec_names: tuple[str, ...] = ()
        if need_vec:
            blocks = []
            if cfg.use_sim_features:
                start = time.perf_counter()
                blocks.append(similarity_vector(record.qo_text,
                                                record.qs_text, feature_cfg))
                sim_s += time.perf_counter() - start
            if cfg.use_ptk_feature:
                blocks.append(FeatureVector(
                    array("d", [ptk_feature(tree_first, tree_second,
                                            cfg.kernel)]),
                    ("tree_pair_sim",)))
            if cfg.use_embeddings:
                v_qo = _embedding_for(embeddings, record.qo_embedding_id,
                                      record.query_id, record)
                v_qs = _embedding_for(embeddings, record.qs_embedding_id,
                                      record.candidate_id, record)
                pair = embedding_pair(v_qo, v_qs)
                dim = len(pair) // 2
                names = tuple(f"emb_qo_{i}" for i in range(dim)) + \
                    tuple(f"emb_qs_{i}" for i in range(dim))
                blocks.append(FeatureVector(pair, names))
            if cfg.use_mte:
                if record.comment_text is None:
                    raise DataError(
                        f"{_record_name(record)}: comment_text is required "
                        f"when MTE features are enabled")
                question_text = (record.qo_text if cfg.mte_side == "qo"
                                 else record.qs_text)
                try:
                    blocks.append(mte_vector(tokenize(question_text),
                                             tokenize(record.comment_text)))
                except DataError as exc:
                    raise DataError(f"{_record_name(record)}: {exc}") from exc
            merged = concat_features(*blocks)
            vec, vec_names = merged.values, merged.names

        examples.append(Example(
            query_id=record.query_id,
            candidate_id=record.candidate_id,
            label=gold_binary(record.gold_label, cfg.task),
            original_rank=record.original_rank,
            vec=vec,
            vec_names=vec_names,
            rank_value=rank_feature(record.original_rank, cfg.rank_mode),
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

def save_examples(path, examples) -> None:
    """Write featurized examples as JSONL (trees in bracketed form)."""
    with open(path, "w", encoding="utf-8") as fh:
        for e in examples:
            obj = {
                "query_id": e.query_id,
                "candidate_id": e.candidate_id,
                "label": e.label,
                "original_rank": e.original_rank,
                "vec": None if e.vec is None else [float(v) for v in e.vec],
                "vec_names": list(e.vec_names),
                "rank_value": e.rank_value,
                "tree_first": None if e.tree_first is None
                else to_bracketed(e.tree_first),
                "tree_second": None if e.tree_second is None
                else to_bracketed(e.tree_second),
            }
            fh.write(json.dumps(obj) + "\n")


def _example_tree(obj, key) -> SyntaxTree | None:
    text = obj[key]
    if text is None:
        return None
    if not isinstance(text, str):
        raise DataError(f"field {key!r} must be a bracketed tree or null")
    return parse_bracketed(text)


def load_examples(path) -> list[Example]:
    """Read featurized examples written by :func:`save_examples`."""
    examples: list[Example] = []
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise _field_error(path, lineno, f"invalid JSON: {exc}") \
                    from exc
            if not isinstance(obj, dict):
                raise _field_error(path, lineno, "record must be a JSON object")
            try:
                names = obj.get("vec_names")
                examples.append(Example(
                    query_id=obj["query_id"],
                    candidate_id=obj["candidate_id"],
                    label=obj["label"],
                    original_rank=obj["original_rank"],
                    vec=obj["vec"],
                    vec_names=() if names is None else names,
                    rank_value=obj["rank_value"],
                    tree_first=_example_tree(obj, "tree_first"),
                    tree_second=_example_tree(obj, "tree_second"),
                ))
            except KeyError as exc:
                raise _field_error(path, lineno, f"missing field {exc}") \
                    from exc
            except DataError as exc:
                raise _field_error(path, lineno, str(exc)) from exc
    if not examples:
        raise DataError(f"{path}: empty example file")
    return examples


# ---------------------------------------------------------------------------
# scoring, grouping, and the full experiment
# ---------------------------------------------------------------------------

def score_examples(test_examples, model, train_examples,
                   kernel_cfg: KernelConfig) -> np.ndarray:
    """Decision scores of test examples against a trained model's supports."""
    import numpy as np

    from .kernels import kernel_matrix

    needed = max(model.support_indices, default=-1) + 1
    if needed > len(train_examples):
        raise DataError(
            f"the model's support indices need at least {needed} training "
            f"examples, but {len(train_examples)} were given")
    supports = [train_examples[i] for i in model.support_indices]
    if not supports:
        return np.full(len(test_examples), model.bias)
    K = kernel_matrix(test_examples, supports, kernel_cfg)
    return K @ model.dual_coefs + model.bias


def make_groups(examples, scores=None) -> list[QueryGroup]:
    """Group examples by query, preserving encounter order.

    With ``scores`` given (one per example) candidates carry them; otherwise
    candidates are unscored.
    """
    examples = list(examples)
    if scores is not None and len(scores) != len(examples):
        raise DataError(
            f"{len(scores)} scores for {len(examples)} examples")
    per_query: dict[str, list[Candidate]] = {}
    for i, e in enumerate(examples):
        per_query.setdefault(e.query_id, []).append(Candidate(
            candidate_id=e.candidate_id,
            original_rank=e.original_rank,
            gold_relevant=e.label > 0,
            score=None if scores is None else float(scores[i]),
        ))
    return [QueryGroup(query_id=qid, candidates=tuple(cands))
            for qid, cands in per_query.items()]


def rank_baseline_groups(examples) -> list[QueryGroup]:
    """Groups ordered by the ingested search rank (the retrieval baseline)."""
    groups = []
    for group in make_groups(examples):
        ordered = tuple(sorted(group.candidates,
                               key=lambda c: c.original_rank))
        groups.append(QueryGroup(group.query_id, ordered))
    return groups


def run_experiment(train_path, test_path, cfg: RunConfig, out_dir) -> dict:
    """Featurize, train, rerank the test split, evaluate, and write outputs.

    Writes ``predictions.tsv`` and ``report.txt`` under ``out_dir`` and
    returns a summary dict with the metrics and the kernel fingerprint.
    """
    from .kernels import config_fingerprint, gram_matrix
    from .svm import train_smo

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    train_records = load_corpus(train_path, cfg.task)
    test_records = load_corpus(test_path, cfg.task)
    train_examples = build_examples(train_records, cfg)
    test_examples = build_examples(test_records, cfg)

    fingerprint = config_fingerprint(cfg.kernel)
    gram = gram_matrix(train_examples, cfg.kernel)
    labels = [e.label for e in train_examples]
    train_cfg = replace(cfg.train, seed=cfg.seed)
    model = train_smo(gram, labels, train_cfg,
                      kernel_fingerprint=fingerprint)

    scores = score_examples(test_examples, model, train_examples, cfg.kernel)
    groups = [QueryGroup(g.query_id, reranked_candidates(g))
              for g in make_groups(test_examples, scores)]
    metrics = evaluate(groups, k=task_cutoff(cfg.task))

    predictions_path = out_dir / "predictions.tsv"
    write_predictions(predictions_path, groups)
    report_path = out_dir / "report.txt"
    report_lines = [
        "# qrerank-report v1",
        f"task: {cfg.task}",
        f"seed: {cfg.seed}",
        f"config_fingerprint: {fingerprint}",
        f"train_records: {len(train_examples)}",
        f"test_records: {len(test_examples)}",
        f"support_vectors: {len(model.support_indices)}",
        f"MAP: {metrics['MAP']:.4f}",
        f"AvgRec: {metrics['AvgRec']:.4f}",
        f"MRR: {metrics['MRR']:.4f}",
    ]
    report_path.write_text("\n".join(report_lines) + "\n", encoding="utf-8")

    return {
        "metrics": metrics,
        "fingerprint": fingerprint,
        "support_vectors": len(model.support_indices),
        "predictions_path": str(predictions_path),
        "report_path": str(report_path),
    }
