"""Text similarities, rank/embedding features, and MT-evaluation metrics."""

import math
import re
from array import array
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from qrerank import _native, features
from qrerank.cli import main
from qrerank.config import RunConfig
from qrerank.errors import DataError
from qrerank.features import (
    SIM_MEASURES,
    SIM_NGRAM_ORDERS,
    Example,
    embedding_pair,
    load_embeddings,
    load_stopwords,
    mte_vector,
    ptk_feature,
    rank_feature,
    similarity_vector,
    tokenize,
)
from qrerank.kernels import KernelConfig
from qrerank.pipeline import build_examples, load_corpus
from qrerank.rellink import rel_link
from qrerank.treebank import SyntaxTree, parse_bracketed

from conftest import (
    make_rng,
    python_engine_vector,
    sim_named,
    write_corpus,
    write_jsonl,
)
from oracles import gst_tiled_bruteforce, lcs_bruteforce, ptk_bruteforce


class TestTokenize:
    def test_stopwords_and_punctuation(self):
        out = tokenize("How do I get a visa?", {"how", "do", "i", "a"})
        assert list(out) == ["get", "visa"]

    def test_empty_text(self):
        assert list(tokenize("")) == []

    def test_case_folded(self):
        assert list(tokenize("VISA Visa visa")) == ["visa"] * 3

    def test_digits_kept_underscore_split(self):
        assert list(tokenize("visa_2016 costs 100USD")) == \
            ["visa", "2016", "costs", "100usd"]

    def test_unicode_words(self):
        assert list(tokenize("Köln ist schön")) == ["köln", "ist", "schön"]

    def test_deterministic(self):
        text = "Can my wife visit Qatar on my visa?"
        assert tokenize(text) == tokenize(text)

    def test_stopwords_case_folded(self):
        stop = frozenset({"STRASSE", "The"})
        assert list(tokenize("The Straße is long", stop)) == ["is", "long"]
        assert list(tokenize("The Straße is long", set(stop))) == \
            ["is", "long"]

    def test_stopwords_folded_once_per_set(self):
        stop = frozenset({"Visa", "QATAR"})
        tokenize("visa for qatar", stop)
        before = features._folded.cache_info()
        assert list(tokenize("Visa for Qatar", stop)) == ["for"]
        after = features._folded.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_a_tuple_of_non_empty_tokens(self):
        assert tokenize("_ visa -- __ Qatar ?! _x_") == ("visa", "qatar", "x")


# The measures are checked through similarity_vector's n = 1 values, on texts
# of one-letter words, so that its words are the letters given (the unigram
# fixture of conftest); these are the measures of the letter sequences and of
# their sets and counts.

class TestSetMeasures:
    def test_jaccard_identity(self, unigram):
        assert unigram("ab", "ab")["jaccard"] == 1.0

    def test_jaccard_third(self, unigram):
        assert unigram("ab", "bc")["jaccard"] == pytest.approx(1 / 3)

    def test_jaccard_disjoint_and_empty(self, unigram):
        assert unigram("a", "b")["jaccard"] == 0.0
        assert unigram("", "")["jaccard"] == 0.0

    def test_containment_subset(self, unigram):
        assert unigram("ab", "abc")["containment"] == 1.0

    def test_containment_two_thirds(self, unigram):
        assert unigram("abc", "bcd")["containment"] == pytest.approx(2 / 3)

    def test_containment_empty_a(self, unigram):
        assert unigram("", "a")["containment"] == 0.0

    def test_containment_is_directed(self, unigram):
        assert unigram("a", "ab")["containment"] == 1.0
        assert unigram("ab", "a")["containment"] == 0.5

    def test_cosine_identity(self, unigram):
        assert unigram("aab", "aab")["cosine"] == pytest.approx(1.0)

    def test_cosine_disjoint_or_empty(self, unigram):
        assert unigram("a", "b")["cosine"] == 0.0
        assert unigram("", "b")["cosine"] == 0.0

    def test_cosine_hand_value(self, unigram):
        assert unigram("ab", "a")["cosine"] == pytest.approx(1 / math.sqrt(2))


class TestLCS:
    def test_identity(self, unigram):
        assert unigram("ab", "ab")["lcs"] == 1.0

    def test_hand_value(self, unigram):
        assert unigram("abcde", "ace")["lcs"] == pytest.approx(0.6)

    def test_disjoint_and_empty(self, unigram):
        assert unigram("a", "b")["lcs"] == 0.0
        assert unigram("", "a")["lcs"] == 0.0

    def test_matches_bruteforce(self, unigram):
        rng = make_rng(301)
        alphabet = list("abc")
        for _ in range(300):
            a = [alphabet[k] for k in rng.integers(0, 3, rng.integers(0, 8))]
            b = [alphabet[k] for k in rng.integers(0, 3, rng.integers(0, 8))]
            expected = (lcs_bruteforce(a, b) / max(len(a), len(b))
                        if a and b else 0.0)
            assert unigram(a, b)["lcs"] == pytest.approx(expected, abs=1e-12)


class TestGST:
    def test_identity(self, unigram):
        assert unigram("abcd", "abcd", 1)["gst"] == 1.0

    def test_hand_tiling(self, unigram):
        assert unigram("abcd", "bcda", 2)["gst"] == pytest.approx(0.75)

    def test_disjoint_and_empty(self, unigram):
        assert unigram("ab", "cd", 1)["gst"] == 0.0
        assert unigram("", "ab", 1)["gst"] == 0.0

    def test_min_match_validated(self):
        with pytest.raises(DataError, match="gst_min_match must be >= 1"):
            similarity_vector("a b", "a b", gst_min_match=0)
        for bad in (1.0, True, "2"):
            with pytest.raises(DataError, match="must be an integer"):
                similarity_vector("a b", "a b", gst_min_match=bad)

    def test_matches_bruteforce(self, unigram):
        rng = make_rng(302)
        alphabet = list("ab")
        for min_match in (1, 2):
            for _ in range(200):
                a = [alphabet[k] for k in rng.integers(0, 2, rng.integers(1, 8))]
                b = [alphabet[k] for k in rng.integers(0, 2, rng.integers(1, 8))]
                expected = 2 * gst_tiled_bruteforce(a, b, min_match) / (len(a) + len(b))
                assert unigram(a, b, min_match)["gst"] == \
                    pytest.approx(expected, abs=1e-12)


def random_seq(rng, alphabet_size, length):
    return ["abc"[k] for k in rng.integers(0, alphabet_size, length)]


class TestLCSBitParallel:
    """Exact agreement with the oracle where the bit masks span several
    64-bit words and where few symbols make ties everywhere."""

    @pytest.mark.parametrize("alphabet_size", [1, 2, 3])
    def test_long_side_against_oracle(self, alphabet_size, unigram):
        rng = make_rng(310 + alphabet_size)
        for _ in range(40):
            short = random_seq(rng, alphabet_size, rng.integers(1, 9))
            long = random_seq(rng, alphabet_size, rng.integers(65, 140))
            length = lcs_bruteforce(short, long)
            assert unigram(short, long)["lcs"] == length / len(long)
            assert unigram(long, short)["lcs"] == length / len(long)

    @pytest.mark.parametrize("alphabet_size", [1, 2, 3])
    def test_both_long_against_dp(self, alphabet_size, unigram):
        rng = make_rng(320 + alphabet_size)
        for _ in range(10):
            a = random_seq(rng, alphabet_size, rng.integers(65, 130))
            b = random_seq(rng, alphabet_size, rng.integers(65, 130))
            assert unigram(a, b)["lcs"] == ref_lcs_norm(a, b)


class TestGSTIndexed:
    @pytest.mark.parametrize("alphabet_size", [1, 2, 3])
    @pytest.mark.parametrize("min_match", [1, 2, 3])
    def test_against_oracle(self, alphabet_size, min_match, unigram):
        rng = make_rng(330 + 3 * alphabet_size + min_match)
        for _ in range(8):
            a = random_seq(rng, alphabet_size, rng.integers(1, 90))
            b = random_seq(rng, alphabet_size, rng.integers(65, 90))
            for x, y in ((a, b), (b, a)):
                expected = (2.0 * gst_tiled_bruteforce(x, y, min_match)
                            / (len(x) + len(y)))
                assert unigram(x, y, min_match)["gst"] == expected

    def test_repeated_tiles_of_equal_length(self, unigram):
        # every "ab" of a tiles once with one "ab" of b, in row-major order
        a = list("ab" * 40)
        b = list("abx" * 30)
        expected = 2.0 * gst_tiled_bruteforce(a, b, 2) / (len(a) + len(b))
        assert unigram(a, b, 2)["gst"] == expected == 2.0 * 60 / 170


# independent reference implementations for the 20-value fixture ------------

def ref_ngram_seq(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def ref_lcs_norm(a, b):
    if not a or not b:
        return 0.0

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    a, b = tuple(a), tuple(b)
    return rec(0, 0) / max(len(a), len(b))


class TestSimilarityVector:
    QO = "how to get visa for qatar"
    QS = "visa for qatar how long"
    QO_TOKENS = ["how", "to", "get", "visa", "for", "qatar"]
    QS_TOKENS = ["visa", "for", "qatar", "how", "long"]

    def test_names_and_order(self):
        # n-major over SIM_NGRAM_ORDERS, measure-minor over SIM_MEASURES:
        # "a b" against "a b c d" gives each order and measure its own value
        fv = similarity_vector("a b", "a b c d")
        assert type(fv) is array and fv.typecode == "d" and len(fv) == 20
        assert SIM_NGRAM_ORDERS == (1, 2, 3, 4)
        assert SIM_MEASURES == ("gst", "lcs", "jaccard", "containment",
                                "cosine")
        assert fv[:5].tolist() == pytest.approx(
            [2 / 3, 1 / 2, 1 / 2, 1.0, 1 / math.sqrt(2)])
        assert fv[5:10].tolist() == pytest.approx(
            [1 / 2, 1 / 3, 1 / 3, 1.0, 1 / math.sqrt(3)])
        assert fv[10:].tolist() == [0.0] * 10

    def test_identical_texts_all_ones(self):
        fv = similarity_vector("can my wife visit qatar",
                               "can my wife visit qatar")
        np.testing.assert_allclose(fv, np.ones(20))

    def test_disjoint_texts_all_zeros(self):
        fv = similarity_vector("alpha beta gamma delta",
                               "one two three four")
        np.testing.assert_allclose(fv, np.zeros(20))

    def test_matches_reference_implementations(self):
        fv = similarity_vector(self.QO, self.QS)
        got = sim_named(fv)
        for n in (1, 2, 3, 4):
            seq_a = ref_ngram_seq(self.QO_TOKENS, n)
            seq_b = ref_ngram_seq(self.QS_TOKENS, n)
            set_a, set_b = set(seq_a), set(seq_b)
            cnt_a, cnt_b = Counter(seq_a), Counter(seq_b)
            if seq_a and seq_b:
                exp_gst = 2 * gst_tiled_bruteforce(seq_a, seq_b, 1) / (
                    len(seq_a) + len(seq_b))
            else:
                exp_gst = 0.0
            exp = {
                "gst": exp_gst,
                "lcs": ref_lcs_norm(seq_a, seq_b),
                "jaccard": (len(set_a & set_b) / len(set_a | set_b)
                            if set_a or set_b else 0.0),
                "containment": (len(set_a & set_b) / len(set_a)
                                if set_a else 0.0),
                "cosine": (
                    sum(cnt_a[g] * cnt_b[g] for g in cnt_a)
                    / (math.sqrt(sum(v * v for v in cnt_a.values()))
                       * math.sqrt(sum(v * v for v in cnt_b.values())))
                    if cnt_a and cnt_b else 0.0),
            }
            for measure, value in exp.items():
                assert got[f"sim_n{n}_{measure}"] == pytest.approx(
                    value, abs=1e-9), (n, measure)

    def test_frozen_spot_values(self):
        got = sim_named(similarity_vector(self.QO, self.QS))
        assert got["sim_n1_jaccard"] == pytest.approx(4 / 7, abs=1e-12)
        assert got["sim_n1_containment"] == pytest.approx(4 / 6, abs=1e-12)
        assert got["sim_n1_lcs"] == pytest.approx(0.5, abs=1e-12)
        assert got["sim_n1_gst"] == pytest.approx(8 / 11, abs=1e-12)
        assert got["sim_n1_cosine"] == pytest.approx(4 / math.sqrt(30), abs=1e-12)
        assert got["sim_n2_jaccard"] == pytest.approx(2 / 7, abs=1e-12)
        assert got["sim_n2_cosine"] == pytest.approx(2 / math.sqrt(20), abs=1e-12)
        assert got["sim_n3_containment"] == pytest.approx(0.25, abs=1e-12)
        for measure in ("gst", "lcs", "jaccard", "containment", "cosine"):
            assert got[f"sim_n4_{measure}"] == 0.0

    def test_stopwords_applied(self):
        fv = similarity_vector("the visa", "the permit", frozenset({"the"}))
        np.testing.assert_allclose(fv, np.zeros(20))


# golden values of similarity_vector, computed with the quadratic LCS / GST
# code these replaced; a change in any bit fails
_LONG_A = " ".join("abc"[(i * i * 7 + 3 * i) % 11 % 3] for i in range(80))
_LONG_B = " ".join("abc"[(i * i * 5 + i) % 13 % 3] for i in range(70))
GOLDEN_SIM_CASES = [
    # repeated tokens
    ("the visa visa the visa costs visa visa",
     "visa the visa visa costs the visa", dict()),
    # under 4 tokens: the 3- and 4-gram blocks are empty
    ("visa fee", "Visa fee now", dict()),
    # the first text is empty after stopwords
    ("How do I?", "how do I get a visa",
     dict(stopwords=frozenset({"how", "do", "i"}))),
    # a stopword config, with a mixed-case entry, and gst_min_match 2
    ("Can my wife visit Qatar on my visa?",
     "Is it possible for my wife to visit Qatar with my work visa",
     dict(stopwords=frozenset({"My", "on", "is", "it", "for", "to", "with"}),
          gst_min_match=2)),
    # 80 and 70 tokens over three words: many ties, masks over 64 bits
    (_LONG_A, _LONG_B, dict(gst_min_match=2)),
    # case folding of non-ASCII words
    ("Köln Visa visa KÖLN köln visa", "köln visa Köln", dict()),
]
GOLDEN_SIM_HEX = [
    ['0x1.ddddddddddddep-1', '0x1.4000000000000p-1',
     '0x1.0000000000000p+0', '0x1.0000000000000p+0',
     '0x1.fdf6d63f3981bp-1', '0x1.89d89d89d89d9p-1',
     '0x1.b6db6db6db6dbp-2', '0x1.5555555555555p-1',
     '0x1.999999999999ap-1', '0x1.b4a293c1d954fp-1',
     '0x1.745d1745d1746p-2', '0x1.5555555555555p-3',
     '0x1.c71c71c71c71cp-3', '0x1.5555555555555p-2',
     '0x1.75e9746a0b098p-2', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
     '0x0.0p+0', '0x0.0p+0'],
    ['0x1.999999999999ap-1', '0x1.5555555555555p-1',
     '0x1.5555555555555p-1', '0x1.0000000000000p+0',
     '0x1.a20bd700c2c3dp-1', '0x1.5555555555555p-1',
     '0x1.0000000000000p-1', '0x1.0000000000000p-1',
     '0x1.0000000000000p+0', '0x1.6a09e667f3bccp-1', '0x0.0p+0',
     '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
     '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
    ['0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
     '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
     '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
     '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
    ['0x1.1745d1745d174p-1', '0x1.5555555555555p-1',
     '0x1.2492492492492p-1', '0x1.999999999999ap-1',
     '0x1.75e9746a0b098p-1', '0x1.c71c71c71c71cp-2',
     '0x1.999999999999ap-2', '0x1.2492492492492p-2',
     '0x1.0000000000000p-1', '0x1.c9f25c5bfedd9p-2', '0x0.0p+0',
     '0x1.0000000000000p-2', '0x1.5555555555555p-3',
     '0x1.5555555555555p-2', '0x1.279a74590331dp-2', '0x0.0p+0',
     '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
    ['0x1.17e4b17e4b17ep-1', '0x1.4000000000000p-1',
     '0x1.5555555555555p-1', '0x1.0000000000000p+0',
     '0x1.ad279eb9eb8a5p-1', '0x1.759f22983759fp-2',
     '0x1.84dc5abbf309cp-2', '0x1.8000000000000p-2',
     '0x1.8000000000000p-1', '0x1.392047b35819ap-1',
     '0x1.269349a4d2693p-2', '0x1.3b13b13b13b14p-2',
     '0x1.d89d89d89d89ep-3', '0x1.b6db6db6db6dbp-2',
     '0x1.c8e6bad72bb24p-2', '0x1.8e38e38e38e39p-3',
     '0x1.c427e567109f9p-3', '0x1.5555555555555p-3',
     '0x1.3333333333333p-2', '0x1.4a4aacf01e899p-2'],
    ['0x1.5555555555555p-1', '0x1.0000000000000p-1',
     '0x1.0000000000000p+0', '0x1.0000000000000p+0',
     '0x1.e5b9d136c6d96p-1', '0x1.2492492492492p-1',
     '0x1.999999999999ap-2', '0x1.0000000000000p-1',
     '0x1.0000000000000p-1', '0x1.9a8365810363ep-1', '0x0.0p+0',
     '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0',
     '0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'],
]


class TestSimilarityGolden:
    @pytest.mark.parametrize("case", range(len(GOLDEN_SIM_CASES)))
    def test_bit_identical(self, case):
        qo, qs, cfg = GOLDEN_SIM_CASES[case]
        fv = similarity_vector(qo, qs, **cfg)
        assert [float(v).hex() for v in fv] == GOLDEN_SIM_HEX[case]

    def test_memo_keeps_configs_apart(self):
        # the same texts under alternating configs, twice over
        for _ in range(2):
            for case in (3, 0, 3, 2):
                qo, qs, cfg = GOLDEN_SIM_CASES[case]
                plain = [float(v).hex() for v in
                         similarity_vector(qo, qs)]
                fv = similarity_vector(qo, qs, **cfg)
                assert [float(v).hex() for v in fv] == \
                    GOLDEN_SIM_HEX[case]
                if cfg.get("stopwords"):
                    assert plain != GOLDEN_SIM_HEX[case]

    def test_plain_set_of_stopwords_accepted(self):
        qo, qs, cfg = GOLDEN_SIM_CASES[3]
        fv = similarity_vector(qo, qs, set(cfg["stopwords"]),
                               cfg["gst_min_match"])
        assert [float(v).hex() for v in fv] == GOLDEN_SIM_HEX[3]


# the two similarity engines ------------------------------------------------

@pytest.fixture
def native():
    engine = _native.load()
    if engine is None:
        pytest.skip("the native engine is unavailable on this machine")
    return engine


def _engine_cases():
    """(alphabet size, tokens of a, tokens of b, gst_min_match, stopwords)
    for the engine parity tests: the edges first, then seeded draws."""
    cases = [(3, 0, 0, 1, 0), (3, 0, 17, 2, 0), (3, 17, 0, 1, 0),
             (1, 300, 300, 1, 0), (2, 300, 65, 4, 0), (1, 4, 3, 1, 0),
             (1000, 300, 280, 1, 0), (5, 40, 40, 3, 2)]
    rng = make_rng(700)
    for _ in range(40):
        cases.append((int(rng.choice([1, 2, 3, 8, 60, 1000])),
                      int(rng.choice([rng.integers(0, 5),
                                      rng.integers(0, 40),
                                      rng.integers(0, 301)])),
                      int(rng.choice([rng.integers(0, 5),
                                      rng.integers(0, 40),
                                      rng.integers(0, 301)])),
                      int(rng.integers(1, 5)),
                      int(rng.integers(0, 3))))
    return cases


ENGINE_CASES = _engine_cases()


def _case_texts(case):
    alphabet, len_a, len_b, min_match, n_stop = ENGINE_CASES[case]
    rng = make_rng(800 + case)
    a, b = ([f"W{k}" if k % 2 else f"w{k}"
             for k in rng.integers(0, alphabet, length)]
            for length in (len_a, len_b))
    # mixed-case stopword entries, folded as the tokens are
    stopwords = frozenset(f"W{k}" for k in range(n_stop))
    return " ".join(a), " ".join(b), dict(stopwords=stopwords,
                                          gst_min_match=min_match)


def _bits(fv):
    return [v.hex() for v in fv.tolist()]


class TestSimilarityEngines:
    """The native engine against the Python one: the same counts and the
    same bits, on heavy repeats (small alphabets), mostly distinct tokens
    (large ones), 0 to 300 tokens a side (LCS masks of several 64-bit
    words), every gst_min_match from 1 to 4, and stopwords."""

    @pytest.mark.parametrize("case", range(len(ENGINE_CASES)))
    def test_same_counts_and_vector(self, native, monkeypatch, case):
        qo, qs, cfg = _case_texts(case)
        a = tokenize(qo, cfg["stopwords"])
        b = tokenize(qs, cfg["stopwords"])
        counts = features._python_counts(a, b, cfg["gst_min_match"])
        assert features._native_counts(native, a, b, cfg["gst_min_match"]) \
            == counts
        fv = similarity_vector(qo, qs, **cfg)
        assert _bits(fv) == _bits(python_engine_vector(monkeypatch, qo, qs,
                                                        **cfg))
        assert type(fv) is array and len(fv) == 20

    @pytest.mark.parametrize("case", range(len(GOLDEN_SIM_CASES)))
    def test_python_engine_golden(self, monkeypatch, case):
        qo, qs, cfg = GOLDEN_SIM_CASES[case]
        assert _bits(python_engine_vector(monkeypatch, qo, qs, **cfg)) == \
            GOLDEN_SIM_HEX[case]

    def test_empty_sides_count_nothing(self, native):
        for a, b in (((), ()), (("x", "y"), ()), ((), ("x",))):
            counts = features._native_counts(native, a, b, 1)
            assert counts == features._python_counts(a, b, 1)
            assert counts[0::10] == counts[1::10] == counts[2::10] == [0] * 4
        assert similarity_vector("", "").tolist() == [0.0] * 20

    def test_declined_call_falls_back(self, native, monkeypatch):
        # the engine reports running out of memory: the Python engine runs
        monkeypatch.setattr(_native, "load", lambda: native._replace(
            similarity=lambda *args: 1))
        for (qo, qs, cfg), golden in zip(GOLDEN_SIM_CASES, GOLDEN_SIM_HEX):
            assert _bits(similarity_vector(qo, qs, **cfg)) == golden


def _bench_shaped_corpus(path, queries=12, candidates=10):
    """Task B records shaped like a benchmark corpus: three sentences of
    about ten words per question from a Zipfian vocabulary, each query's
    topic words reused often by its relevant candidates and seldom by the
    others."""
    rng = make_rng(900)
    vocab = [f"w{k}" for k in range(400)]
    weights = 1.0 / np.arange(1, len(vocab) + 1) ** 1.1
    weights /= weights.sum()

    def question(topic, rate):
        words = [str(rng.choice(topic)) if rng.random() < rate
                 else str(rng.choice(vocab, p=weights))
                 for _ in range(int(rng.integers(27, 37)))]
        return ". ".join(" ".join(words[k:k + 10]).capitalize()
                         for k in range(0, len(words), 10)) + "?"

    rows = []
    for q in range(queries):
        topic = [f"topic{q}_{k}" for k in range(4)]
        qo = question(topic, 0.3)
        for rank in range(1, candidates + 1):
            relevant = rank % 3 == 1
            rows.append({"query_id": f"q{q}", "candidate_id": f"q{q}_c{rank}",
                         "original_rank": rank, "qo_text": qo,
                         "qs_text": question(topic, 0.3 if relevant else 0.05),
                         "gold_label": "Relevant" if relevant
                         else "Irrelevant"})
    write_jsonl(path, rows)


def test_examples_file_identical_on_both_engines(native, monkeypatch,
                                                 tmp_path):
    corpus = tmp_path / "train.jsonl"
    _bench_shaped_corpus(corpus)
    out = {}
    for engine in ("native", "python"):
        if engine == "python":
            monkeypatch.setattr(_native, "load", lambda: None)
        out[engine] = tmp_path / f"{engine}.ex"
        assert main(["featurize", "--corpus", str(corpus),
                     "--out", str(out[engine])]) == 0
    assert out["native"].read_bytes() == out["python"].read_bytes()


@pytest.mark.parametrize("engine", ["native", "python"])
def test_build_examples_logs_pairs_seconds_and_engine(monkeypatch, caplog,
                                                      tmp_path, engine):
    if engine == "python":
        monkeypatch.setattr(_native, "load", lambda: None)
    elif _native.load() is None:
        pytest.skip("the native engine is unavailable on this machine")
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, n_queries=3, per_query=4)
    records = load_corpus(corpus, "B")
    with caplog.at_level("INFO", logger="qrerank.pipeline"):
        build_examples(records, RunConfig())
        build_examples(records, RunConfig(
            kernel=KernelConfig(use_sim=False, use_rank=True),
            use_sim_features=False))
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("build_examples")]
    assert len(lines) == 1
    assert re.fullmatch(r"build_examples: 12 pairs, \d+\.\d{3} s in the "
                        rf"similarities, {engine} engine", lines[0])


class TestPTKFeature:
    def _linked_pair(self, qo, qs):
        mo, ms = f"(ROOT {qo})", f"(ROOT {qs})"
        return rel_link(mo, ms), rel_link(ms, mo)

    def test_identical_questions_give_one(self):
        q = "(S (NP (NN visa)) (VP (VB expired)))"
        first, second = self._linked_pair(q, q)
        assert first == second
        assert ptk_feature(first, second, KernelConfig()) == pytest.approx(1.0)

    def test_disjoint_trees_give_zero(self):
        a = "(X1 (Y1 t1))"
        b = "(X2 (Y2 t2))"
        cfg = KernelConfig()
        assert ptk_feature(a, b, cfg) == 0.0

    def test_matches_oracle_after_normalization(self):
        a = "(S (NP (NN visa)) (VP (VB get)))"
        b = "(S (NP (NN visa) (NN work)))"
        cfg = KernelConfig(lam=0.4, mu=0.4)
        expected = ptk_bruteforce(a, b, 0.4, 0.4) / math.sqrt(
            ptk_bruteforce(a, a, 0.4, 0.4) * ptk_bruteforce(b, b, 0.4, 0.4))
        assert ptk_feature(a, b, cfg) == pytest.approx(expected, abs=1e-9)

    def test_missing_tree_rejected(self):
        with pytest.raises(DataError):
            ptk_feature(None, "(A a)", KernelConfig())

    @pytest.mark.parametrize("bad", [
        parse_bracketed("(A a)"), SyntaxTree("A"), "A"],
        ids=["tree", "leaf", "token"])
    def test_a_tree_that_is_not_text_rejected(self, bad):
        for pair in ((bad, "(A a)"), ("(A a)", bad)):
            with pytest.raises(DataError):
                ptk_feature(*pair, KernelConfig())


class TestRankFeature:
    def test_inverse_values(self):
        assert rank_feature(1, "INVERSE") == 1.0
        assert rank_feature(4, "INVERSE") == 0.25

    def test_as_is(self):
        assert rank_feature(7, "AS_IS") == 7.0

    def test_inverse_strictly_decreasing(self):
        values = [rank_feature(p, "INVERSE") for p in range(1, 31)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_position_validated(self):
        with pytest.raises(DataError):
            rank_feature(0, "INVERSE")

    def test_mode_validated(self):
        with pytest.raises(DataError):
            rank_feature(1, "UPSIDE_DOWN")

    @pytest.mark.parametrize("mode", ["AS_IS", "INVERSE"])
    def test_a_position_beyond_a_double_rejected(self, mode):
        assert rank_feature(2 ** 1023, mode) in (2.0 ** 1023, 2.0 ** -1023)
        with pytest.raises(DataError, match="^rank position is too large "
                                            "for a double$"):
            rank_feature(10 ** 400, mode)


class TestEmbeddingPair:
    def test_concatenation(self):
        out = embedding_pair(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0, 4.0])

    def test_zero_vectors(self):
        out = embedding_pair(np.zeros(3), np.zeros(3))
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_order_matters(self):
        u, v = np.array([1.0]), np.array([2.0])
        assert not np.array_equal(embedding_pair(u, v), embedding_pair(v, u))

    def test_mismatch_rejected(self):
        with pytest.raises(DataError):
            embedding_pair(np.zeros(2), np.zeros(3))
        with pytest.raises(DataError):
            embedding_pair(None, np.zeros(2))


# mte_vector's seven measures, in their places
MTE_LAYOUT = ("mte_bleu", "mte_ter_noshift", "mte_meteor_lite", "mte_nist",
              "mte_precision", "mte_recall", "mte_length_ratio")


class TestMTEVector:
    def seq(self, *tokens):
        return tokens

    def test_identity_pair(self):
        fv = mte_vector(self.seq("a", "b", "c"), self.seq("a", "b", "c"))
        got = dict(zip(MTE_LAYOUT, fv, strict=True))
        assert got["mte_bleu"] == pytest.approx(1.0)
        assert got["mte_ter_noshift"] == 0.0
        assert got["mte_precision"] == 1.0
        assert got["mte_recall"] == 1.0
        assert got["mte_length_ratio"] == 1.0
        assert got["mte_nist"] == pytest.approx(math.log2(3.0))
        # identical sentences still pay the tiny fragmentation penalty
        assert got["mte_meteor_lite"] == pytest.approx(1.0 - 0.5 / 27)

    def test_disjoint_pair(self):
        fv = mte_vector(self.seq("a", "b", "c"), self.seq("x", "y", "z"))
        got = dict(zip(MTE_LAYOUT, fv, strict=True))
        assert got["mte_bleu"] == 0.0
        assert got["mte_ter_noshift"] == 1.0
        assert got["mte_meteor_lite"] == 0.0
        assert got["mte_nist"] == 0.0
        assert got["mte_precision"] == 0.0
        assert got["mte_recall"] == 0.0

    def test_hand_computed_pair(self):
        # candidate [a,b,c] vs reference [a,b,d]
        fv = mte_vector(self.seq("a", "b", "c"), self.seq("a", "b", "d"))
        got = dict(zip(MTE_LAYOUT, fv, strict=True))
        assert got["mte_precision"] == pytest.approx(2 / 3)
        assert got["mte_recall"] == pytest.approx(2 / 3)
        assert got["mte_ter_noshift"] == pytest.approx(1 / 3)
        # BLEU: p1=2/3 raw; smoothed p2=(1+1)/(2+1), p3=(0+1)/(1+1),
        # p4=(0+1)/(0+1); BP=1
        expected_bleu = (2 / 3 * 2 / 3 * 1 / 2 * 1) ** 0.25
        assert got["mte_bleu"] == pytest.approx(expected_bleu, abs=1e-12)
        # meteor: m=2 matches in 1 chunk; Fmean(2/3, 2/3)=2/3
        assert got["mte_meteor_lite"] == pytest.approx(
            (2 / 3) * (1 - 0.5 * (1 / 2) ** 3), abs=1e-12)
        # NIST: unigrams a,b matched, info=log2(3) each, over 3 cand unigrams;
        # the matched bigram (a,b) carries info log2(1/1)=0
        assert got["mte_nist"] == pytest.approx(2 * math.log2(3.0) / 3, abs=1e-12)

    def test_brevity_penalty_applies(self):
        short = mte_vector(self.seq("a", "b"), self.seq("a", "b", "c", "d"))
        got = dict(zip(MTE_LAYOUT, short, strict=True))
        # p1 = 1, higher orders smoothed; BP = exp(1 - 4/2)
        assert got["mte_bleu"] < math.exp(-1.0) + 1e-9
        assert got["mte_length_ratio"] == 0.5

    def test_ter_caps_at_one(self):
        fv = mte_vector(self.seq(*"abcdefgh"), self.seq("x"))
        got = dict(zip(MTE_LAYOUT, fv, strict=True))
        assert got["mte_ter_noshift"] == 1.0

    def test_empty_comment_rejected(self):
        with pytest.raises(DataError, match="comment"):
            mte_vector(self.seq("a"), ())

    def test_empty_question_is_all_zero_but_ratio(self):
        fv = mte_vector((), self.seq("a", "b"))
        got = dict(zip(MTE_LAYOUT, fv, strict=True))
        assert got["mte_bleu"] == 0.0
        assert got["mte_precision"] == 0.0
        assert got["mte_length_ratio"] == 0.0
        assert got["mte_ter_noshift"] == 1.0

    def test_golden_bits(self):
        # repeated words and n-grams up to 5 shared; any change of a bit fails
        question = tokenize("How can I renew my visa in Qatar, and can my "
                            "wife renew hers in Qatar too?")
        comment = tokenize("You can renew the visa in Qatar at the "
                           "immigration office; my wife did renew hers "
                           "there in Qatar")
        assert [v.hex() for v in mte_vector(question, comment)] == [
            '0x1.7c4780c33485cp-3', '0x1.0d79435e50d79p-1',
            '0x1.04f961ff5eaa9p-1', '0x1.2aa920bede283p+1',
            '0x1.4b4b4b4b4b4b5p-1', '0x1.286bca1af286cp-1',
            '0x1.ca1af286bca1bp-1']


class TestPlainFloatVectors:
    """Example vecs and embedding pairs are ``array('d')``, whatever real
    sequence they were given as, and numpy reads them without a copy."""

    def example(self, **kwargs):
        return Example(query_id="q", candidate_id="c", label=1,
                       original_rank=1, **kwargs)

    @pytest.mark.parametrize("values", [
        [0.5, 2, np.float32(0.25)],
        np.array([0.5, 2.0, 0.25]),
        np.array([0.5, 9.0, 2.0, 9.0, 0.25])[::2],
        np.array([1, 4, 2, 8], dtype=np.int64)[[0, 2, 1]] / [2, 1, 16],
        array("d", [0.5, 2.0, 0.25]),
    ], ids=["list", "ndarray", "strided-view", "int-quotient", "array"])
    def test_any_real_sequence_becomes_an_array(self, values):
        pair = embedding_pair(values, values)
        e = self.example(vec=values)
        for vec in (pair, e.vec):
            assert type(vec) is array and vec.typecode == "d"
        assert e.vec.tolist() == [0.5, 2.0, 0.25]
        assert pair.tolist() == [0.5, 2.0, 0.25] * 2

    def test_one_example_class(self):
        import qrerank
        from qrerank import kernels
        assert kernels.Example is Example is qrerank.Example

    def test_an_array_is_kept_and_read_without_a_copy(self):
        vec = array("d", [1.0, 2.0])
        e = self.example(vec=vec)
        assert e.vec is vec
        assert np.shares_memory(np.asarray(e.vec), np.frombuffer(vec))

    @pytest.mark.parametrize("vec", [
        [[1.0, 2.0]], np.zeros((2, 2)), np.float64(1.0), 3.0, "abc",
        {"a": 1.0},
    ], ids=["nested-list", "2-d", "numpy-scalar", "scalar", "string",
            "mapping"])
    def test_not_1d_rejected(self, vec):
        with pytest.raises(DataError, match="^example vec must be a 1-d "
                                            "array$"):
            self.example(vec=vec)
        with pytest.raises(DataError, match="^embedding must be a 1-d "
                                            "vector$"):
            embedding_pair(vec, [1.0])

    @pytest.mark.parametrize("item", [True, np.bool_(False), "1", None,
                                      1j])
    def test_non_real_item_rejected(self, item):
        with pytest.raises(DataError, match="^example vec item .* is not a "
                                            "real number$"):
            self.example(vec=[1.0, item])
        with pytest.raises(DataError, match="^embedding item .* is not a "
                                            "real number$"):
            embedding_pair([1.0, 2.0], [1.0, item])

    def test_integer_beyond_a_double_rejected(self):
        with pytest.raises(DataError, match="too large for a double"):
            self.example(vec=[1.0, 10 ** 400])
        with pytest.raises(DataError, match="embedding holds an integer too "
                                            "large for a double"):
            embedding_pair([10 ** 400], [1.0])

    @pytest.mark.parametrize("field", ["query_id", "candidate_id"])
    def test_non_string_ids_rejected(self, field):
        kwargs = {"query_id": "q", "candidate_id": "c", field: 5}
        with pytest.raises(DataError, match=f"example {field} must be a "
                                            "string, got 5"):
            Example(label=1, original_rank=1, **kwargs)

    def test_embeddings_are_arrays(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("q1\t0.5 1.5\n", encoding="utf-8")
        table = load_embeddings(path)
        pair = embedding_pair(table["q1"], [2, 3])
        assert type(table["q1"]) is array and type(pair) is array
        assert pair.tolist() == [0.5, 1.5, 2.0, 3.0]


class TestExternalFiles:
    def test_stopword_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("The\n\na\nOF\n", encoding="utf-8")
        # kept as written: each consumer folds them as it folds its tokens
        assert load_stopwords(path) == frozenset({"The", "a", "OF"})

    def test_stopword_file_comments(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# English stopwords\nThe\n#\n  # note\nof\n",
                        encoding="utf-8")
        assert load_stopwords(path) == frozenset({"The", "of"})

    def test_embedding_file(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("q1\t0.5 1.5\nq2\t-1 2\n", encoding="utf-8")
        table = load_embeddings(path)
        np.testing.assert_array_equal(table["q1"], [0.5, 1.5])
        np.testing.assert_array_equal(table["q2"], [-1.0, 2.0])

    @pytest.mark.parametrize("content,pattern", [
        ("q1\t1 2\nq1\t3 4\n", "duplicate"),
        ("q1\t1 2\nq2\t1 2 3\n", "dimension"),
        ("q1\t1 x\n", "bad number"),
        ("q1 1 2\n", "TAB"),
        ("", "empty"),
    ])
    def test_embedding_file_errors(self, tmp_path, content, pattern):
        path = tmp_path / "emb.tsv"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(DataError, match=pattern):
            load_embeddings(path)
