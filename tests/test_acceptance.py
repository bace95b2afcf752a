"""Acceptance suite: one test per shipping criterion.

Each test carries an ``acceptance`` marker and prints a single
``ACCEPTANCE PASS/FAIL/SKIP: <criterion>`` line via the conftest hook.  The
last two criteria need the converted SemEval corpus; they skip unless the
``QRERANK_SEMEVAL_DIR`` environment variable points at a directory holding
``taskB-train.jsonl``, ``taskB-dev.jsonl`` and ``taskB-test.jsonl``.
"""

import math
import os
import time

import numpy as np
import pytest

from qrerank.features import similarity_vector
from qrerank.kernels import KernelConfig, gram_matrix, ptk, stk
from qrerank.pipeline import (
    RunConfig,
    build_examples,
    class_counts,
    load_corpus,
    make_groups,
    rank_baseline_groups,
    run_experiment,
)
from qrerank.rankeval import (
    Candidate,
    QueryGroup,
    average_precision,
    evaluate,
    per_query_average_precision,
    randomization_test,
    rerank,
)
from qrerank.svm import TrainConfig, train_smo
from qrerank.treebank import parse_bracketed

from conftest import make_examples, make_rng, random_small_tree, write_corpus
from oracles import ptk_bruteforce, stk_bruteforce
from test_svm import blobs, kkt_violation, linear_gram, scores_on_training

SEMEVAL_DIR = os.environ.get("QRERANK_SEMEVAL_DIR")
needs_semeval = pytest.mark.skipif(
    not SEMEVAL_DIR,
    reason="QRERANK_SEMEVAL_DIR not set; dataset-gated criterion skipped")


def _tree_pairs(count, seed):
    rng = make_rng(seed)
    trees = [random_small_tree(rng, max_nodes=8) for _ in range(count)]
    pairs = [(trees[i], trees[(i + 1) % count]) for i in range(count)]
    pairs += [(t, t) for t in trees[::10]]
    return pairs


@pytest.mark.acceptance(name="STK matches the exhaustive fragment oracle "
                             "(200 trees, lam in {1.0, 0.4}, <10s)")
def test_stk_bruteforce_equivalence():
    start = time.monotonic()
    fixture = parse_bracketed("(S (A a) (B b))")
    assert abs(stk(fixture, fixture, lam=1.0) - 6.0) <= 1e-9
    for a, b in _tree_pairs(200, seed=20240401):
        for lam in (1.0, 0.4):
            fast = stk(a, b, lam=lam)
            slow = stk_bruteforce(a, b, lam=lam)
            assert abs(fast - slow) <= 1e-9, (a, b, lam)
    assert time.monotonic() - start < 10.0


@pytest.mark.acceptance(name="PTK matches the exhaustive fragment oracle "
                             "(200 trees, lam in {1.0, 0.4}, <10s)")
def test_ptk_bruteforce_equivalence():
    start = time.monotonic()
    for a, b in _tree_pairs(200, seed=20240402):
        for lam in (1.0, 0.4):
            fast = ptk(a, b, lam=lam, mu=lam)
            slow = ptk_bruteforce(a, b, lam=lam, mu=lam)
            assert abs(fast - slow) <= 1e-9, (a, b, lam)
    assert time.monotonic() - start < 10.0


@pytest.mark.acceptance(name="Gram matrices are symmetric and PSD under "
                             "all five kernel configurations")
def test_gram_psd():
    configs = [
        KernelConfig(),                                            # sim-RBF
        KernelConfig(use_sim=False, use_tk=True, tk_kind="STK"),
        KernelConfig(use_sim=False, use_tk=True, tk_kind="PTK"),
        KernelConfig(use_sim=False, use_rank=True,
                     rank_kernel="LINEAR"),
        KernelConfig(use_tk=True, use_rank=True),                  # combined
    ]
    examples = make_examples(make_rng(77), 20)
    for cfg in configs:
        G = gram_matrix(examples, cfg)
        assert float(np.max(np.abs(G - G.T))) <= 1e-12
        eigenvalues = np.linalg.eigvalsh(G)
        spectral_norm = float(np.max(np.abs(eigenvalues)))
        assert eigenvalues.min() >= -1e-8 * spectral_norm, cfg


@pytest.mark.acceptance(name="SMO: analytic two-point solution, KKT on "
                             "separable and non-separable sets, monotone dual")
def test_smo_correctness():
    # Dual-objective monotonicity is asserted inside the solver on every
    # iteration; make sure those assertions are actually live here.
    assert __debug__

    G = np.array([[1.0, -1.0], [-1.0, 1.0]])
    model = train_smo(G, [-1, 1], TrainConfig(C=1.0))
    np.testing.assert_allclose(np.abs(model.dual_coefs), [0.5, 0.5],
                               atol=1e-6)
    assert abs(model.bias) <= 1e-6
    score = model.dual_coefs @ np.array([-0.5, 0.5]) + model.bias
    assert score == pytest.approx(0.5, abs=1e-6)

    rng = make_rng(20240403)
    for center, spread in (((2.5, 2.5), 0.6), ((0.5, 0.5), 1.5)):
        X, y = blobs(rng, 25, center, spread)
        gram = linear_gram(X)
        cfg = TrainConfig(C=1.0)
        trained = train_smo(gram, y, cfg)
        assert kkt_violation(trained, gram, y, cfg.C, cfg.tol) <= 1e-12


@pytest.mark.acceptance(name="Metric fixtures: AP, MRR, and a three-group "
                             "hand-computed evaluation")
def test_metric_fixtures():
    ap = average_precision([True, False, True, False], k=4)
    assert abs(ap - 0.83333) <= 1e-5

    def ordered_group(gold, query_id):
        n = len(gold)
        return QueryGroup(query_id, tuple(
            Candidate(f"{query_id}_c{i}", i + 1, bool(g), float(n - i))
            for i, g in enumerate(gold)))

    mrr_only = evaluate([ordered_group([False, True, False, False], "q")],
                        k=4)
    assert mrr_only["MRR"] == 50.0

    groups = [
        ordered_group([True, False, False], "q1"),   # AP 1, rec 1, RR 1
        ordered_group([False, True, False], "q2"),   # AP 1/2, rec 1, RR 1/2
        ordered_group([False, False, False], "q3"),  # excluded everywhere
    ]
    metrics = evaluate(groups, k=3)
    assert metrics["MAP"] == 75.0
    assert metrics["AvgRec"] == 100.0
    assert metrics["MRR"] == 75.0


@pytest.mark.acceptance(name="All 20 text similarities match hand oracles "
                             "on a reference sentence pair")
def test_similarity_fixtures(unigram):
    # unigram measures of one-letter words, on both engines
    assert abs(unigram("ab", "bc")["jaccard"] - 1.0 / 3.0) <= 1e-9
    assert abs(unigram("abcde", "ace")["lcs"] - 0.6) <= 1e-9
    assert abs(unigram("abcd", "bcda", 2)["gst"] - 0.75) <= 1e-9

    fv = similarity_vector("how to get visa for qatar",
                           "visa for qatar how long")
    expected = {
        # unigrams: a = [how to get visa for qatar], b = [visa for qatar how long]
        "sim_n1_gst": 8.0 / 11.0,          # tiles "visa for qatar" + "how"
        "sim_n1_lcs": 3.0 / 6.0,           # visa for qatar
        "sim_n1_jaccard": 4.0 / 7.0,
        "sim_n1_containment": 4.0 / 6.0,
        "sim_n1_cosine": 4.0 / math.sqrt(30.0),
        # bigrams: 5 vs 4, sharing (visa,for) and (for,qatar)
        "sim_n2_gst": 4.0 / 9.0,
        "sim_n2_lcs": 2.0 / 5.0,
        "sim_n2_jaccard": 2.0 / 7.0,
        "sim_n2_containment": 2.0 / 5.0,
        "sim_n2_cosine": 2.0 / math.sqrt(20.0),
        # trigrams: 4 vs 3, sharing (visa,for,qatar)
        "sim_n3_gst": 2.0 / 7.0,
        "sim_n3_lcs": 1.0 / 4.0,
        "sim_n3_jaccard": 1.0 / 6.0,
        "sim_n3_containment": 1.0 / 4.0,
        "sim_n3_cosine": 1.0 / math.sqrt(12.0),
        # 4-grams: no overlap
        "sim_n4_gst": 0.0,
        "sim_n4_lcs": 0.0,
        "sim_n4_jaccard": 0.0,
        "sim_n4_containment": 0.0,
        "sim_n4_cosine": 0.0,
    }
    assert fv.names == tuple(expected)
    for name, value in zip(fv.names, fv.values):
        assert abs(value - expected[name]) <= 1e-9, name


@pytest.mark.acceptance(name="End-to-end sanity: perfect features give "
                             "MAP 100 on 50x10 queries in <60s")
def test_end_to_end_perfect_features(tmp_path):
    start = time.monotonic()
    train = tmp_path / "train.jsonl"
    test = tmp_path / "test.jsonl"
    write_corpus(train, n_queries=50, per_query=10, relevant_ranks=(2, 5, 7))
    write_corpus(test, n_queries=50, per_query=10, relevant_ranks=(3, 6, 9))
    out = run_experiment(train, test, RunConfig(), tmp_path / "out")
    assert out["metrics"]["MAP"] == 100.0
    assert time.monotonic() - start < 60.0


@pytest.mark.acceptance(name="Scoring by INVERSE rank alone reproduces the "
                             "ingested order (permutation identity)")
def test_inverse_rank_identity(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, n_queries=10, per_query=10, relevant_ranks=(2, 4))
    records = load_corpus(corpus, "B")
    cfg = RunConfig(kernel=KernelConfig(use_sim=False, use_rank=True),
                    rank_mode="INVERSE")
    examples = build_examples(records, cfg)
    # hand the grouper a shuffled stream to rule out order luck
    shuffled = examples[::-1]
    groups = make_groups(shuffled, [e.rank_value for e in shuffled])
    for group in groups:
        by_original_rank = [c.candidate_id for c in sorted(
            group.candidates, key=lambda c: c.original_rank)]
        assert rerank(group) == by_original_rank


@needs_semeval
@pytest.mark.acceptance(name="SemEval task B: Sim+TK+inverse-rank beats the "
                             "search-engine baseline (p < 0.05)")
def test_semeval_beats_baseline(tmp_path):
    train = os.path.join(SEMEVAL_DIR, "taskB-train.jsonl")
    test = os.path.join(SEMEVAL_DIR, "taskB-test.jsonl")
    cfg = RunConfig(
        kernel=KernelConfig(use_sim=True, use_tk=True, use_rank=True),
        rank_mode="INVERSE")
    out = run_experiment(train, test, cfg, tmp_path / "semeval")

    rank_only = RunConfig(kernel=KernelConfig(use_sim=False, use_rank=True))
    test_examples = build_examples(load_corpus(test, "B"), rank_only)
    baseline_groups = rank_baseline_groups(test_examples)
    baseline = evaluate(baseline_groups, k=10)
    assert out["metrics"]["MAP"] > baseline["MAP"]

    from qrerank.rankeval import read_predictions
    model_groups = read_predictions(out["predictions_path"])
    ap_model = per_query_average_precision(model_groups, k=10)
    ap_base = per_query_average_precision(baseline_groups, k=10)
    assert set(ap_model) == set(ap_base)
    order = sorted(ap_model)
    p = randomization_test([ap_model[q] for q in order],
                           [ap_base[q] for q in order],
                           resamples=10000, seed=1)
    assert p < 0.05


@needs_semeval
@pytest.mark.acceptance(name="SemEval task B loader reproduces the official "
                             "split statistics")
def test_semeval_class_counts():
    expected = {
        "taskB-train.jsonl": (1083, 1586),
        "taskB-dev.jsonl": (214, 286),
        "taskB-test.jsonl": (233, 467),
    }
    for filename, counts in expected.items():
        records = load_corpus(os.path.join(SEMEVAL_DIR, filename), "B")
        assert class_counts(records, "B") == counts, filename
