"""Reranking, MAP/AvgRec/MRR, and the paired randomization test."""

import random

import numpy as np
import pytest

from qrerank import rankeval
from qrerank.errors import DataError
from qrerank.rankeval import (
    Candidate,
    QueryGroup,
    average_precision,
    evaluate,
    randomization_test,
    read_predictions,
    reranked_candidates,
    write_predictions,
)

from conftest import make_rng, random_doubles


def make_group(scores, gold=None, query_id="q1"):
    n = len(scores)
    gold = gold if gold is not None else [False] * n
    return QueryGroup(query_id=query_id, candidates=tuple(
        Candidate(candidate_id=f"c{i+1}", original_rank=i + 1,
                  gold_relevant=bool(g), score=s)
        for i, (s, g) in enumerate(zip(scores, gold))))


def reranked_ids(group):
    return [c.candidate_id for c in reranked_candidates(group)]


def gold_group(gold, query_id="q1"):
    """Group whose current order is the ranking (scores descending)."""
    n = len(gold)
    return make_group([float(n - i) for i in range(n)], gold, query_id)


class TestRerank:
    def test_sorts_by_descending_score(self):
        group = make_group([0.1, 0.9, 0.5])
        assert reranked_ids(group) == ["c2", "c3", "c1"]

    def test_ties_fall_back_to_original_rank(self):
        group = make_group([0.5, 0.5, 0.5])
        assert reranked_ids(group) == ["c1", "c2", "c3"]

    def test_inverse_rank_scores_reproduce_original_order(self):
        group = make_group([1.0 / r for r in range(1, 11)])
        assert reranked_ids(group) == [f"c{i}" for i in range(1, 11)]

    def test_output_is_permutation(self):
        rng = make_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            group = make_group(list(rng.normal(size=n)))
            out = reranked_ids(group)
            assert sorted(out) == sorted(c.candidate_id
                                         for c in group.candidates)

    def test_monotone_transform_invariance(self):
        rng = make_rng(6)
        for _ in range(50):
            scores = list(rng.normal(size=8))
            base = reranked_ids(make_group(scores))
            shifted = reranked_ids(make_group([3.0 * s + 7.0 for s in scores]))
            assert base == shifted

    def test_missing_score_rejected(self):
        # a candidate is scored when it is made, so none reaches rerank
        with pytest.raises(DataError, match="score of candidate 'c2'"):
            Candidate("c2", 2, False, None)

    def test_reranked_candidates_order_matches_ids(self):
        group = make_group([0.1, 0.9, 0.5], gold=[True, False, True])
        cands = reranked_candidates(group)
        assert [c.candidate_id for c in cands] == ["c2", "c3", "c1"]
        assert cands == tuple(group.candidates[k] for k in (1, 2, 0))
        assert [c.gold_relevant for c in cands] == [False, True, True]


class TestAveragePrecision:
    def test_hand_fixture(self):
        ap = average_precision([True, False, True, False], k=4)
        assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)
        assert ap == pytest.approx(0.83333, abs=1e-5)

    def test_all_relevant_is_one(self):
        assert average_precision([True] * 7) == pytest.approx(1.0)

    def test_none_in_top_k_is_zero(self):
        assert average_precision([False, False, True], k=2) == 0.0

    def test_no_relevant_returns_zero(self):
        assert average_precision([False, False]) == 0.0

    def test_single_relevant_ap_is_reciprocal_rank(self):
        for rank in range(1, 11):
            gold = [False] * 10
            gold[rank - 1] = True
            assert average_precision(gold) == pytest.approx(1.0 / rank)

    def test_relevant_beyond_k_counts_in_denominator(self):
        # R=2 but only one inside k=2: (1/1) / min(2, 2)
        gold = [True, False, True]
        assert average_precision(gold, k=2) == pytest.approx(0.5)

    def test_bad_cutoff_rejected(self):
        with pytest.raises(DataError):
            average_precision([True], k=0)


class TestEvaluate:
    def test_perfect_ranking_scores_100(self):
        groups = [gold_group([True] + [False] * 9, query_id=f"q{i}")
                  for i in range(5)]
        metrics = evaluate(groups, k=10)
        assert metrics == {"MAP": 100.0, "AvgRec": 100.0, "MRR": 100.0}

    def test_mrr_second_position(self):
        metrics = evaluate([gold_group([False, True, False, False])], k=4)
        assert metrics["MRR"] == pytest.approx(50.0)

    def test_map_mean_of_group_aps(self):
        groups = [
            gold_group([True, True], query_id="q1"),            # AP = 1.0
            gold_group([True, False, True, False], "q2"),       # AP = 0.83333
        ]
        metrics = evaluate(groups, k=4)
        assert metrics["MAP"] == pytest.approx(91.666666, abs=1e-3)

    def test_three_group_hand_fixture(self):
        groups = [
            gold_group([True, False, False], query_id="q1"),  # AP 1, RR 1
            gold_group([False, True, False], query_id="q2"),  # AP 1/2, RR 1/2
            gold_group([False, False, False], query_id="q3"),  # excluded
        ]
        metrics = evaluate(groups, k=3)
        assert metrics["MAP"] == pytest.approx(75.0)
        assert metrics["AvgRec"] == pytest.approx(100.0)
        assert metrics["MRR"] == pytest.approx(75.0)

    def test_metrics_bounded(self):
        rng = make_rng(12)
        for _ in range(20):
            groups = []
            for qi in range(6):
                gold = list(rng.integers(0, 2, size=8) > 0)
                groups.append(gold_group(gold, query_id=f"q{qi}"))
            if not any(any(c.gold_relevant for c in g.candidates)
                       for g in groups):
                continue
            metrics = evaluate(groups, k=8)
            for value in metrics.values():
                assert 0.0 <= value <= 100.0

    def test_metrics_are_numpy_means_bit_for_bit(self):
        rng = make_rng(13)
        groups = [gold_group(list(rng.integers(0, 2, size=10) > 0),
                             query_id=f"q{qi}") for qi in range(300)]
        aps, recalls, rrs = [], [], []
        for g in groups:
            gold = [c.gold_relevant for c in g.candidates]
            if any(gold):
                aps.append(average_precision(gold, 7))
                recalls.append(sum(gold[:7]) / min(sum(gold), 7))
                rrs.append(1.0 / (gold.index(True) + 1)
                           if True in gold[:7] else 0.0)
        assert evaluate(groups, k=7) == {
            "MAP": 100.0 * float(np.mean(aps)),
            "AvgRec": 100.0 * float(np.mean(recalls)),
            "MRR": 100.0 * float(np.mean(rrs))}

    def test_empty_groups_rejected(self):
        with pytest.raises(DataError, match="no query groups"):
            evaluate([])

    def test_all_irrelevant_rejected(self):
        with pytest.raises(DataError, match="relevant"):
            evaluate([gold_group([False, False])])

    def test_cutoff_limits_credit(self):
        # relevant at position 3 is invisible at k=2
        metrics = evaluate([
            gold_group([False, False, True], query_id="q1"),
            gold_group([True, False, False], query_id="q2"),
        ], k=2)
        assert metrics["MRR"] == pytest.approx(50.0)
        assert metrics["MAP"] == pytest.approx(50.0)


def p_by_plain_loops(ap_a, ap_b, resamples, seed):
    """``randomization_test``'s p-value with no tables and the signs of all
    resamples drawn at once: resample r's bits are bytes r·⌈n/8⌉ onward of
    one ``getrandbits`` read little-endian, bit k the sign of difference k
    (set: +); each run of 8 differences is summed from 0.0 in order, the
    runs' sums are added left to right, and the observed sum is that of
    every sign +."""
    diffs = [float(x) - float(y) for x, y in zip(ap_a, ap_b)]
    n, size = len(diffs), (len(diffs) + 7) // 8

    def statistic(bits):
        total = None
        for start in range(0, n, 8):
            run = 0.0
            for k in range(start, min(start + 8, n)):
                if bits >> k & 1:
                    run = run + diffs[k]
                else:
                    run = run - diffs[k]
            total = run if total is None else total + run
        return abs(total)

    observed = statistic((1 << n) - 1)
    data = random.Random(seed).getrandbits(8 * size * resamples).to_bytes(
        size * resamples, "little")
    count = 0
    for r in range(resamples):
        bits = int.from_bytes(data[r * size:(r + 1) * size], "little")
        if statistic(bits) >= observed:
            count += 1
    return (count + 1) / (resamples + 1)


# (queries, resamples, seed): 26 and 70 queries are the benchmark's and the
# paper's test sets; the rest are drawn below
BLOCK_CASES = [(1, 1000, 0), (26, 10000, 0), (70, 10000, 0),
               (70, 2049, 7), (399, 12000, 999)] + [
    (int(rng.integers(1, 400)), int(rng.integers(1000, 12001)),
     int(rng.integers(0, 1000)))
    for rng in map(make_rng, range(10))]


class TestRandomizationTest:
    @pytest.mark.parametrize("n,resamples,seed", BLOCK_CASES)
    def test_the_block_size_changes_no_p_value(self, n, resamples, seed):
        # drawn 1,024 resamples at a time, through tables of 8 differences'
        # signed sums: the p-value of plain loops over one draw
        rng = make_rng(n + seed)
        # cutoff-10 APs lie on a grid of tenths, with ties
        a = rng.integers(0, 11, size=n) / 10
        b = rng.integers(0, 11, size=n) / 10
        assert randomization_test(a, b, resamples, seed) == \
            p_by_plain_loops(a, b, resamples, seed)

    def test_identical_lists_give_p_one(self):
        a = [0.5, 0.7, 0.9, 0.2]
        assert randomization_test(a, a, resamples=1000, seed=3) == 1.0

    def test_large_uniform_gap_is_significant(self):
        rng = make_rng(1)
        b = list(rng.uniform(0.2, 0.6, size=50))
        a = [x + 0.3 for x in b]
        p = randomization_test(a, b, resamples=10000, seed=1)
        assert p < 0.05

    def test_swap_symmetry_exact(self):
        rng = make_rng(2)
        a = list(rng.uniform(size=30))
        b = list(rng.uniform(size=30))
        p_ab = randomization_test(a, b, resamples=2000, seed=9)
        p_ba = randomization_test(b, a, resamples=2000, seed=9)
        assert p_ab == p_ba

    def test_deterministic_for_fixed_seed(self):
        rng = make_rng(4)
        a = list(rng.uniform(size=20))
        b = list(rng.uniform(size=20))
        p1 = randomization_test(a, b, resamples=1500, seed=11)
        p2 = randomization_test(a, b, resamples=1500, seed=11)
        assert p1 == p2

    def test_p_value_range(self):
        rng = make_rng(8)
        a = list(rng.uniform(size=10))
        b = list(rng.uniform(size=10))
        p = randomization_test(a, b, resamples=1000, seed=0)
        assert 1.0 / 1001.0 <= p <= 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="shape"):
            randomization_test([0.1, 0.2], [0.1], resamples=1000)

    def test_too_few_resamples_rejected(self):
        with pytest.raises(DataError, match="resamples"):
            randomization_test([0.1], [0.2], resamples=999)

    def test_empty_lists_rejected(self):
        with pytest.raises(DataError, match="empty"):
            randomization_test([], [], resamples=1000)


class TestQueryGroupValidation:
    def test_duplicate_candidate_ids_rejected(self):
        with pytest.raises(DataError, match="duplicate candidate ids"):
            QueryGroup("q1", (Candidate("c1", 1, False, 0.1),
                              Candidate("c1", 2, False, 0.2)))

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(DataError, match="duplicate original ranks"):
            QueryGroup("q1", (Candidate("c1", 1, False, 0.1),
                              Candidate("c2", 1, False, 0.2)))

    def test_empty_group_rejected(self):
        with pytest.raises(DataError, match="no candidates"):
            QueryGroup("q1", ())

    def test_candidate_validation(self):
        with pytest.raises(DataError):
            Candidate("", 1, False, 0.1)
        with pytest.raises(DataError):
            Candidate("c1", 0, False, 0.1)
        for score in (float("nan"), float("inf"), "high"):
            with pytest.raises(DataError, match="finite float"):
                Candidate("c1", 1, False, score)

    @pytest.mark.parametrize("rank", [True, False, 1.0, np.int64(1)])
    def test_candidate_rank_must_be_int(self, rank):
        with pytest.raises(DataError, match="original_rank"):
            Candidate("c", rank, True, 0.0)


class TestPredictionsFile:
    def make_groups(self):
        return [
            QueryGroup("q1", (
                Candidate("c2", 2, True, 0.9),
                Candidate("c1", 1, False, 0.30000000000000004),
            )),
            QueryGroup("q2", (
                Candidate("c3", 1, False, -1.5),
            )),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "pred.tsv"
        groups = self.make_groups()
        write_predictions(path, groups)
        loaded = read_predictions(path)
        assert [g.query_id for g in loaded] == ["q1", "q2"]
        first = loaded[0]
        assert [c.candidate_id for c in first.candidates] == ["c2", "c1"]
        assert [c.gold_relevant for c in first.candidates] == [True, False]
        # repr-format scores survive the round trip bit-for-bit
        assert first.candidates[1].score == 0.30000000000000004

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_predictions_round_trip_byte_for_byte(self, tmp_path,
                                                         seed):
        # ids of any characters but tab, CR and LF, scores of any bits
        rng = make_rng(seed)
        alphabet = list("aZ09 _-.:#é\u00a0\u2028\x0b\x0c\x1c\x85\U0001f600")

        def name(prefix, k):
            return f"{prefix}{k}" + "".join(rng.choice(alphabet, 4))

        groups = []
        for q in range(int(rng.integers(1, 6))):
            n = int(rng.integers(1, 13))
            ranks = rng.permutation(30)[:n] + 1
            scores = random_doubles(rng, n)
            groups.append(QueryGroup(name("q", q), tuple(
                Candidate(name("c", k), int(ranks[k]),
                          bool(rng.random() < 0.4), float(scores[k]))
                for k in range(n))))
        path, again = tmp_path / "pred.tsv", tmp_path / "again.tsv"
        write_predictions(path, groups)
        loaded = read_predictions(path)
        write_predictions(again, loaded)
        assert again.read_bytes() == path.read_bytes()
        assert [(g.query_id, [(c.candidate_id, repr(c.score), c.gold_relevant)
                              for c in g.candidates]) for g in loaded] == \
            [(g.query_id, [(c.candidate_id, repr(c.score), c.gold_relevant)
                           for c in g.candidates]) for g in groups]

    @pytest.mark.parametrize("char", ["\t", "\r", "\n"])
    def test_an_id_a_line_cannot_hold_is_refused(self, char):
        message = "must be non-empty, with no tab, CR or LF"
        with pytest.raises(DataError, match="^candidate_id " + message):
            Candidate(f"c{char}1", 1, True, 0.5)
        with pytest.raises(DataError, match="^query_id " + message):
            QueryGroup(f"q{char}1", (Candidate("c1", 1, True, 0.5),))

    def test_evaluate_consumes_file_directly(self, tmp_path):
        path = tmp_path / "pred.tsv"
        write_predictions(path, self.make_groups())
        metrics = evaluate(read_predictions(path), k=10)
        assert metrics["MAP"] == pytest.approx(100.0)

    def test_malformed_lines_name_line_number(self, tmp_path):
        path = tmp_path / "pred.tsv"
        path.write_text("q1\tc1\t1\t0.5\ttrue\nq1\tc2\tX\t0.5\tfalse\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=":2"):
            read_predictions(path)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "pred.tsv"
        path.write_text("q1\tc1\t1\t0.5\n", encoding="utf-8")
        with pytest.raises(DataError, match="5 tab-separated"):
            read_predictions(path)

    def test_bad_gold_value_rejected(self, tmp_path):
        path = tmp_path / "pred.tsv"
        path.write_text("q1\tc1\t1\t0.5\tyes\n", encoding="utf-8")
        with pytest.raises(DataError, match="gold"):
            read_predictions(path)

    def test_unscored_candidate_rejected(self, tmp_path):
        path = tmp_path / "pred.tsv"
        with pytest.raises(DataError, match="must be a finite float"):
            write_predictions(path, [QueryGroup(
                "q1", (Candidate("c1", 1, False, None),))])
        assert not path.exists()


class TestMean:
    """``rankeval._mean`` is numpy's float64 pairwise mean, so the metrics
    keep the bits they had when ``evaluate`` called ``np.mean``."""

    @staticmethod
    def values(rng, n):
        signs = rng.choice([-1.0, 1.0], size=n)
        return list(signs * rng.random(n) * 10.0 ** rng.uniform(-16, 16, n))

    def test_every_length_to_1000_and_past_the_blocks(self):
        rng = make_rng(5)
        for n in [*range(1, 1001), 4097]:
            v = self.values(rng, n)
            assert rankeval._mean(v) == float(np.mean(v)), n

    @pytest.mark.parametrize("v", [[-0.0], [-0.0] * 9, [1e16, 1.0, -1e16],
                                   [0.1] * 7, [0.1] * 129])
    def test_edge_values(self, v):
        assert repr(rankeval._mean(v)) == repr(float(np.mean(v)))
