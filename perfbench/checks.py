"""Output checks for each CLI stage, and work counts computed from the inputs.

Each check returns a list of problems; an empty list means the stage's output
is correct. The checks read artifacts through qrerank's own loaders, so a
change of file format that keeps the loader's contract needs no change here.
"""

from __future__ import annotations

import math
import re

import numpy as np

from qrerank.errors import DataError
from qrerank.kernels import load_gram
from qrerank.pipeline import load_examples
from qrerank.rankeval import evaluate, read_predictions
from qrerank.svm import load_model


def check_examples(path, records: list[dict]) -> list[str]:
    try:
        examples = load_examples(path)
    except (DataError, OSError) as exc:
        return [f"examples file unreadable: {exc}"]
    got = [(e.query_id, e.candidate_id) for e in examples]
    want = [(r["query_id"], r["candidate_id"]) for r in records]
    return [] if got == want else [
        f"examples file holds {len(got)} examples, not the {len(want)} "
        f"corpus records in order"]


def check_gram(path, n: int) -> list[str]:
    try:
        gram, _ = load_gram(path)
    except (DataError, OSError) as exc:
        return [f"gram file unreadable: {exc}"]
    problems = []
    if gram.shape != (n, n):
        problems.append(f"gram is {gram.shape}, expected ({n}, {n})")
    elif not np.array_equal(gram, gram.T):
        problems.append("gram is not symmetric")
    if not np.all(np.isfinite(gram)):
        problems.append("gram has non-finite cells")
    return problems


def check_model(path, n_train: int) -> list[str]:
    try:
        model = load_model(path)
    except (DataError, OSError) as exc:
        return [f"model file unreadable: {exc}"]
    problems = []
    if not model.support_indices:
        problems.append("model has no support vectors")
    if any(not 0 <= i < n_train for i in model.support_indices):
        problems.append("model support index out of range")
    if not np.all(np.isfinite(model.dual_coefs)):
        problems.append("model has non-finite coefficients")
    return problems


def check_predictions(path, records: list[dict]) -> list[str]:
    """Every test candidate exactly once, ranks 1..n per query, finite scores."""
    try:
        with open(path, encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    except OSError as exc:
        return [f"predictions unreadable: {exc}"]
    problems = []
    if any(len(row) != 5 for row in rows):
        return ["predictions line without 5 tab-separated fields"]
    pairs = [(row[0], row[1]) for row in rows]
    want = {(r["query_id"], r["candidate_id"]) for r in records}
    if len(pairs) != len(set(pairs)):
        problems.append("a candidate is listed twice")
    if set(pairs) != want:
        problems.append(f"predictions list {len(set(pairs))} candidates, "
                        f"the test corpus {len(want)}")
    ranks: dict[str, list[int]] = {}
    try:
        for row in rows:
            ranks.setdefault(row[0], []).append(int(row[2]))
            if not math.isfinite(float(row[3])):
                problems.append(f"non-finite score for {row[1]}")
    except ValueError:
        return problems + ["predictions rank or score is not a number"]
    for qid, got in ranks.items():
        if sorted(got) != list(range(1, len(got) + 1)):
            problems.append(f"query {qid} ranks are not 1..{len(got)}")
    return problems


def _printed(stdout: str, name: str) -> str | None:
    match = re.search(rf"^{re.escape(name)}: (\S+)$", stdout, re.MULTILINE)
    return match.group(1) if match else None


def check_evaluate(stdout: str, predictions_path, k: int) -> list[str]:
    """The printed MAP/AvgRec/MRR equal a recomputation from the predictions."""
    try:
        metrics = evaluate(read_predictions(predictions_path), k=k)
    except (DataError, OSError) as exc:
        return [f"cannot recompute metrics: {exc}"]
    return [f"evaluate printed {name} {_printed(stdout, name)}, recomputed "
            f"{metrics[name]:.4f}"
            for name in ("MAP", "AvgRec", "MRR")
            if _printed(stdout, name) != f"{metrics[name]:.4f}"]


def check_sigtest(stdout: str, records: list[dict], relevant: set[str]) \
        -> list[str]:
    queries = {r["query_id"] for r in records if r["gold_label"] in relevant}
    problems = []
    if _printed(stdout, "queries") != str(len(queries)):
        problems.append(f"sigtest printed queries {_printed(stdout, 'queries')}"
                        f", expected {len(queries)}")
    try:
        p = float(_printed(stdout, "p_value") or "nan")
    except ValueError:
        p = math.nan
    if not 0.0 < p <= 1.0:
        problems.append(f"sigtest p-value {p} outside (0, 1]")
    return problems


def printed_map(stdout: str) -> float:
    return float(_printed(stdout, "MAP"))


# ---------------------------------------------------------------------------
# work counts
# ---------------------------------------------------------------------------

def _histograms(trees, key) -> np.ndarray:
    """Row t counts the keys of tree t's nodes (labels or productions)."""
    index: dict = {}
    rows = []
    for tree in trees:
        counts: dict[int, int] = {}
        for node in tree.iter_nodes():
            k = key(node)
            if k is not None:
                col = index.setdefault(k, len(index))
                counts[col] = counts.get(col, 0) + 1
        rows.append(counts)
    out = np.zeros((len(rows), max(len(index), 1)), dtype=np.int64)
    for r, counts in enumerate(rows):
        for col, c in counts.items():
            out[r, col] = c
    return out


def _label(node):
    return node.label


def _production(node):
    if not node.children:
        return None
    return (node.label, tuple(c.label for c in node.children))


def matched_node_pairs(train, test, support_indices, tk_kind: str) -> int:
    """Node pairs with equal label (PTK) or production (STK) over every tree
    pair the pipeline evaluates: the training Gram with each example's two
    self-kernels, then test rows x support columns with the self-kernels of
    both sides."""
    key = _label if tk_kind == "PTK" else _production
    supports = [train[i] for i in support_indices]
    total = 0
    for side in ("tree_first", "tree_second"):
        trees = [getattr(e, side) for e in train + test + supports]
        h = _histograms(trees, key)
        n, m = len(train), len(test)
        tr, te, su = h[:n], h[n:n + m], h[n + m:]
        gram = tr @ tr.T
        selfs = np.einsum("ij,ij->i", h, h)
        total += (int(gram.sum()) + int(np.trace(gram))) // 2
        total += int(selfs.sum())          # gram selfs + test and support selfs
        total += int((te @ su.T).sum())
    return total
