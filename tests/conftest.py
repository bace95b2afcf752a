"""Shared helpers: random tree / sequence generators, synthetic corpora and
the CLI chain, used across test modules."""

import json
from array import array
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qrerank import _native
from qrerank.cli import main
from qrerank.features import (
    SIM_MEASURES,
    SIM_NGRAM_ORDERS,
    similarity_vector,
)
from qrerank.treebank import SyntaxTree, to_bracketed


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print one PASS/FAIL/SKIP line per acceptance criterion."""
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    name = marker.kwargs.get("name", item.name)
    if report.skipped:
        reason = ""
        if isinstance(report.longrepr, tuple):
            reason = f" ({report.longrepr[2]})"
        print(f"\nACCEPTANCE SKIP: {name}{reason}")
    elif report.when == "call":
        verdict = "PASS" if report.passed else "FAIL"
        print(f"\nACCEPTANCE {verdict}: {name}")

NONTERMINALS = ["S", "NP", "VP", "PP", "SBAR", "ADJP", "A", "B"]
TOKENS = ["visa", "qatar", "wife", "visit", "can", "i", "get", "a", "the", "work"]


def random_tree(rng, max_depth=6, max_branch=4):
    """A random parse-shaped tree: internal root, token leaves."""

    def grow(depth):
        if depth >= max_depth or (depth > 1 and rng.random() < 0.35):
            return SyntaxTree(TOKENS[rng.integers(len(TOKENS))])
        width = int(rng.integers(1, max_branch + 1))
        kids = tuple(grow(depth + 1) for _ in range(width))
        return SyntaxTree(NONTERMINALS[rng.integers(len(NONTERMINALS))], kids)

    width = int(rng.integers(1, max_branch + 1))
    kids = tuple(grow(2) for _ in range(width))
    return SyntaxTree(NONTERMINALS[rng.integers(len(NONTERMINALS))], kids)


def random_small_tree(rng, max_nodes=8):
    """A random tree with at most ``max_nodes`` nodes (for exhaustive oracles).

    Uses a node budget: each internal node spends one unit and splits the
    remainder among a random number of children. Labels come from a tiny
    alphabet so that random pairs actually collide. The root is internal,
    since a bare token is not a bracketed tree.
    """
    labels = ["S", "A", "B"]
    tokens = ["a", "b"]

    def grow(budget, root=False):
        if (budget <= 1 or rng.random() < 0.3) and not root:
            return SyntaxTree(tokens[rng.integers(len(tokens))]), 1
        width = int(rng.integers(1, min(3, budget - 1) + 1))
        used = 1
        kids = []
        for k in range(width):
            share = (budget - used) // (width - k)
            child, spent = grow(max(1, share))
            kids.append(child)
            used += spent
        return SyntaxTree(labels[rng.integers(len(labels))], tuple(kids)), used

    tree, _ = grow(int(rng.integers(2, max_nodes + 1)), root=True)
    return tree


def make_rng(seed=42):
    return np.random.default_rng(seed)


def random_doubles(rng, n):
    """``n`` finite float64 values drawn as random bit patterns: about a
    quarter subnormal (either sign), with both zeros among them."""
    bits = rng.integers(0, 2 ** 64, size=n, dtype=np.uint64)
    bits[rng.random(n) < 0.25] &= np.uint64(0x800F_FFFF_FFFF_FFFF)
    bits[rng.random(n) < 0.05] = rng.choice(np.array([0, 2 ** 63],
                                                     dtype=np.uint64))
    values = bits.view(np.float64)
    values[~np.isfinite(values)] = 1.5
    return values


# the names of the 20 similarities, in their places in a vec: n-major over
# SIM_NGRAM_ORDERS, measure-minor over SIM_MEASURES
SIM_LAYOUT = tuple(f"sim_n{n}_{measure}" for n in SIM_NGRAM_ORDERS
                   for measure in SIM_MEASURES)


def sim_named(vec) -> dict:
    """The 20 similarities at the head of ``vec``, keyed by their
    ``SIM_LAYOUT`` names."""
    return dict(zip(SIM_LAYOUT, vec))


def python_engine_vector(monkeypatch, qo, qs, **kwargs):
    """``similarity_vector`` on the Python engine, the native one off."""
    with monkeypatch.context() as m:
        m.setattr(_native, "load", lambda: None)
        return similarity_vector(qo, qs, **kwargs)


@pytest.fixture
def unigram(monkeypatch):
    """``unigram(a, b, min_match=1)``: the five n = 1 similarities of
    ``similarity_vector`` between texts whose words are the letters of ``a``
    and ``b``, as a dict keyed by measure name. Both engines compute them
    (the native one where it is available) and must agree bit for bit."""
    native = _native.load()

    def measures(a, b, min_match=1):
        qo, qs = " ".join(a), " ".join(b)
        fv = python_engine_vector(monkeypatch, qo, qs,
                                  gst_min_match=min_match)
        if native is not None:
            assert [v.hex() for v in similarity_vector(
                qo, qs, gst_min_match=min_match)] \
                == [v.hex() for v in fv]
        return dict(zip(SIM_MEASURES, fv))

    return measures


RELEVANT_TREES = ["(S (NP (DT the) (NN passport)) (VP (VB renew)))"]
IRRELEVANT_TREES = ["(S (NP (NN pizza)) (VP (VB bake) (NP (NN dough))))"]


def corpus_row(query_id, rank, relevant, task="B", with_trees=False,
               with_comments=False):
    """One synthetic JSONL corpus record.

    Relevant candidates repeat the original question's text (and trees);
    irrelevant ones share nothing with it, so any text-similarity feature
    separates the classes perfectly.
    """
    if task == "B":
        label = "Relevant" if relevant else "Irrelevant"
    else:
        label = "Related" if relevant else "Irrelevant"
    qo = f"renew the passport quickly topic{query_id}"
    qs = qo if relevant else f"bake pizza dough slowly item{rank}"
    row = {
        "query_id": query_id,
        "candidate_id": f"{query_id}_c{rank}",
        "original_rank": rank,
        "qo_text": qo,
        "qs_text": qs,
        "gold_label": label,
    }
    if with_trees:
        row["qo_trees"] = RELEVANT_TREES
        row["qs_trees"] = RELEVANT_TREES if relevant else IRRELEVANT_TREES
    if with_comments:
        row["comment_text"] = qs + " indeed"
    return row


def write_corpus(path, n_queries=4, per_query=5, relevant_ranks=(2, 4),
                 task="B", with_trees=False, with_comments=False):
    """Write a synthetic corpus; returns the row dicts."""
    rows = []
    for qi in range(n_queries):
        for rank in range(1, per_query + 1):
            rows.append(corpus_row(
                f"q{qi}", rank, relevant=rank in relevant_ranks, task=task,
                with_trees=with_trees, with_comments=with_comments))
    write_jsonl(path, rows)
    return rows


def lower(G):
    """The lower triangle of the square ``G`` packed as ``train_smo`` takes
    it and ``load_gram_lower`` returns it: an ``array('d')``, row i,
    G[i][0..i], from offset i(i+1)/2."""
    return array("d", np.asarray(G, dtype=np.float64)[np.tril_indices(len(G))])


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def run_chain(train, test, out_dir, flags=()):
    """Run featurize (both corpora), gram, train and rerank through
    ``cli.main``, each stage with the config ``flags`` and reading the files
    the stages before it wrote under ``out_dir``. Returns the paths of those
    files: ``train_examples``, ``test_examples``, ``gram``, ``model`` and
    ``predictions``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = SimpleNamespace(
        train_examples=out / "train.examples",
        test_examples=out / "test.examples", gram=out / "train.gram",
        model=out / "model.txt", predictions=out / "predictions.tsv")
    stages = [
        ["featurize", "--corpus", train, "--out", paths.train_examples],
        ["featurize", "--corpus", test, "--out", paths.test_examples],
        ["gram", "--examples", paths.train_examples, "--out", paths.gram],
        ["train", "--gram", paths.gram, "--examples", paths.train_examples,
         "--out", paths.model],
        ["rerank", "--model", paths.model,
         "--train-examples", paths.train_examples,
         "--test-examples", paths.test_examples, "--out", paths.predictions],
    ]
    for argv in stages:
        argv = [str(arg) for arg in argv] + list(flags)
        assert main(argv) == 0, argv
    return paths


def make_examples(rng, n, dim=8, with_trees=True):
    """Random featurized examples for kernel/SVM tests, their trees as
    bracketed text."""
    from qrerank.kernels import Example

    out = []
    for i in range(n):
        rank = int(rng.integers(1, 11))
        out.append(
            Example(
                query_id=f"q{i // 10}",
                candidate_id=f"c{i}",
                label=1 if rng.random() < 0.5 else -1,
                original_rank=rank,
                vec=rng.normal(size=dim),
                tree_first=to_bracketed(random_tree(rng, max_depth=4,
                                                    max_branch=3))
                if with_trees else None,
                tree_second=to_bracketed(random_tree(rng, max_depth=4,
                                                     max_branch=3))
                if with_trees else None,
            )
        )
    return out
