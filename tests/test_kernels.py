"""Tree kernels against brute-force enumeration oracles, plus the pair kernel,
vector kernels, Gram assembly, the Gram cache file, and the native engine
(tree kernels, combined-kernel rows): bit for bit and byte for byte against
the Python engine, its build cache and its fallback."""

import gc
import hashlib
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qrerank import _native, kernels
from qrerank.errors import DataError, NumericalError
from qrerank.kernels import (
    Example,
    KernelConfig,
    config_fingerprint,
    gram_matrix,
    kernel_matrix,
    load_gram,
    load_gram_lower,
    normalize_kernel,
    ptk,
    save_gram,
    stk,
    write_gram,
)
from qrerank.treebank import SyntaxTree, to_bracketed, tokens

from conftest import make_examples, make_rng, random_small_tree, random_tree
from oracles import ptk_bruteforce, stk_bruteforce, subtree_table


class TestSTK:
    def test_no_shared_production_is_zero(self):
        assert stk("(S (A a))", "(S (B b))", 1.0) == 0.0

    def test_self_kernel_counts_fragments(self):
        T = "(S (A a) (B b))"
        assert stk(T, T, 1.0) == pytest.approx(6.0, abs=1e-12)

    def test_decay_weighted_self_kernel(self):
        T = "(S (A a) (B b))"
        # the S production contributes 0.4·1.4², the two preterminals 0.4 each
        assert stk(T, T, 0.4) == pytest.approx(1.584, abs=1e-12)

    def test_matches_bruteforce_on_random_trees(self):
        rng = make_rng(101)
        trees = [to_bracketed(random_small_tree(rng, max_nodes=8))
                 for _ in range(60)]
        for lam in (1.0, 0.4):
            for i in range(len(trees)):
                t1 = trees[i]
                t2 = trees[(i + 1) % len(trees)]
                assert stk(t1, t2, lam) == pytest.approx(
                    stk_bruteforce(t1, t2, lam), abs=1e-9)
                assert stk(t1, t1, lam) == pytest.approx(
                    stk_bruteforce(t1, t1, lam), abs=1e-9)

    def test_exact_symmetry(self):
        rng = make_rng(19)
        for _ in range(50):
            t1 = to_bracketed(random_small_tree(rng, max_nodes=8))
            t2 = to_bracketed(random_small_tree(rng, max_nodes=8))
            assert stk(t1, t2, 0.4) == stk(t2, t1, 0.4)

    def test_lambda_validated(self):
        T = "(S (A a))"
        with pytest.raises(DataError):
            stk(T, T, 0.0)
        with pytest.raises(DataError):
            stk(T, T, 1.5)


class TestPTK:
    def test_label_mismatch_is_zero(self):
        assert ptk("(X a)", "(Y b)", 1.0, 1.0) == 0.0
        # only the leaves match: one childless pair, μλ²
        assert ptk("(X a)", "(Y a)", 0.4, 0.5) == pytest.approx(0.08)

    def test_single_node_base_case(self):
        # the leaves: μλ² = 0.08; the roots, a 1×1 child block:
        # μ(λ² + λ²·0.08) = 0.0864
        assert ptk("(X a)", "(X a)", 0.4, 0.5) == pytest.approx(0.1664)
        assert ptk("(X a)", "(X b)", 0.4, 0.5) == pytest.approx(0.5 * 0.16)

    def test_preterminal_self_kernel(self):
        A = "(A a)"
        # fragments: a alone, A alone, (A a)
        assert ptk(A, A, 1.0, 1.0) == pytest.approx(3.0)

    def test_matches_bruteforce_on_random_trees(self):
        rng = make_rng(202)
        trees = [to_bracketed(random_small_tree(rng, max_nodes=8))
                 for _ in range(60)]
        for lam, mu in ((1.0, 1.0), (0.4, 0.4), (0.7, 0.3)):
            for i in range(len(trees)):
                t1 = trees[i]
                t2 = trees[(i + 1) % len(trees)]
                assert ptk(t1, t2, lam, mu) == pytest.approx(
                    ptk_bruteforce(t1, t2, lam, mu), abs=1e-9)
                assert ptk(t1, t1, lam, mu) == pytest.approx(
                    ptk_bruteforce(t1, t1, lam, mu), abs=1e-9)

    def test_exact_symmetry(self):
        rng = make_rng(23)
        for _ in range(50):
            t1 = to_bracketed(random_small_tree(rng, max_nodes=8))
            t2 = to_bracketed(random_small_tree(rng, max_nodes=8))
            assert ptk(t1, t2, 0.4, 0.4) == ptk(t2, t1, 0.4, 0.4)

    def test_parameters_validated(self):
        T = "(A a)"
        with pytest.raises(DataError):
            ptk(T, T, 0.0, 0.4)
        with pytest.raises(DataError):
            ptk(T, T, 0.4, 1.0001)


class TestLabelIdentityInvariance:
    def test_consistent_relabeling_preserves_kernels(self):
        # tags are ordinary label text: renaming labels bijectively on both
        # trees cannot change either kernel value
        rng = make_rng(31)
        def prefix(text):
            toks = tokens(text)
            return " ".join("REL-" + tok if prev == "(" else tok
                            for prev, tok in zip(["", *toks], toks))

        for _ in range(20):
            t1 = to_bracketed(random_small_tree(rng, max_nodes=8))
            t2 = to_bracketed(random_small_tree(rng, max_nodes=8))
            assert stk(prefix(t1), prefix(t2), 0.4) == pytest.approx(
                stk(t1, t2, 0.4), abs=1e-12)
            assert ptk(prefix(t1), prefix(t2), 0.4, 0.4) == pytest.approx(
                ptk(t1, t2, 0.4, 0.4), abs=1e-12)

    def test_rel_marks_do_change_matching(self):
        plain = "(S (NP (NN visa)))"
        marked = "(S (REL-NP (NN visa)))"
        assert stk(plain, marked, 1.0) < stk(plain, plain, 1.0)


class TestNormalizeKernel:
    def test_self_normalization_is_one(self):
        assert normalize_kernel(3.7, 3.7, 3.7) == pytest.approx(1.0)

    def test_arithmetic_identity(self):
        assert normalize_kernel(2.0, 4.0, 4.0) == pytest.approx(0.5)

    def test_an_underflowing_product_divides_as_ieee(self):
        # 1e-300 · 1e-300 rounds to 0: k / 0 is inf, 0 / 0 is nan
        assert normalize_kernel(1e-300, 1e-300, 1e-300) == math.inf
        assert math.isnan(normalize_kernel(0.0, 1e-300, 1e-300))

    def test_degenerate_self_kernel_rejected(self):
        with pytest.raises(NumericalError, match="degenerate self-kernel"):
            normalize_kernel(1.0, 0.0, 2.0)
        with pytest.raises(NumericalError):
            normalize_kernel(1.0, 2.0, -1.0)

    def test_normalized_stk_in_unit_interval(self):
        rng = make_rng(37)
        done = 0
        while done < 40:
            t1 = to_bracketed(random_small_tree(rng, max_nodes=8))
            t2 = to_bracketed(random_small_tree(rng, max_nodes=8))
            k = normalize_kernel(stk(t1, t2, 0.4), stk(t1, t1, 0.4),
                                 stk(t2, t2, 0.4))
            assert 0.0 <= k <= 1.0 + 1e-12
            done += 1


def example_with_trees(first, second, qid="q1", cid="c1", rank=1):
    return Example(query_id=qid, candidate_id=cid, label=1,
                   original_rank=rank, tree_first=first, tree_second=second)


def vec_example(v, cid="a"):
    return Example(query_id="q", candidate_id=cid, label=1, original_rank=1,
                   vec=np.asarray(v, dtype=np.float64))


def cell(e_i, e_j, cfg):
    """The combined kernel of one example pair: a cell of their Gram."""
    return gram_matrix([e_i, e_j], cfg)[0, 1]


class TestPairTK:
    def test_self_similarity_is_two_when_normalized(self):
        e = example_with_trees("(S (A a) (B b))", "(S (B b))")
        cfg = KernelConfig(use_tk=True, use_sim=False, tk_kind="STK")
        assert cell(e, e, cfg) == pytest.approx(2.0, abs=1e-12)

    def test_symmetry_on_random_examples(self):
        rng = make_rng(41)
        cfg = KernelConfig(use_tk=True, use_sim=False, tk_kind="PTK")
        ex = make_examples(rng, 8)
        for i in range(len(ex)):
            for j in range(i, len(ex)):
                assert cell(ex[i], ex[j], cfg) == cell(ex[j], ex[i], cfg)

    def test_unnormalized_equals_oracle_sum(self):
        first_i = "(S (A a) (B b))"
        second_i = "(S (B b) (A a))"
        first_j = "(S (A a) (A a))"
        second_j = "(S (B b))"
        e_i = example_with_trees(first_i, second_i)
        e_j = example_with_trees(first_j, second_j, cid="c2")
        cfg = KernelConfig(use_tk=True, use_sim=False, tk_kind="STK",
                           lam=1.0, normalize_tk=False)
        expected = (stk_bruteforce(first_i, first_j, 1.0)
                    + stk_bruteforce(second_i, second_j, 1.0))
        assert cell(e_i, e_j, cfg) == pytest.approx(expected, abs=1e-9)

    def test_missing_trees_rejected(self):
        e = Example(query_id="q", candidate_id="c", label=1, original_rank=1,
                    vec=np.zeros(3))
        cfg = KernelConfig(use_tk=True, use_sim=False)
        with pytest.raises(DataError, match="tree"):
            cell(e, e, cfg)


# trees the kernels refuse: the walkable view of a tree, a bare leaf of it,
# and a bare token, which the bracketed grammar holds as no tree
NOT_TEXT = [SyntaxTree("S", (SyntaxTree("A", (SyntaxTree("a"),)),)),
            SyntaxTree("X")]
NOT_A_TREE = [*NOT_TEXT, "X"]


class TestTextIsTheOnlyTree:
    TREE = "(S (A a) (B b))"

    @pytest.mark.parametrize("bad", NOT_A_TREE, ids=["tree", "leaf", "token"])
    def test_ptk_and_stk_refuse_it(self, bad):
        for f in (ptk, stk):
            for pair in ((bad, self.TREE), (self.TREE, bad)):
                with pytest.raises(DataError):
                    f(*pair)

    @pytest.mark.parametrize("bad", NOT_TEXT, ids=["tree", "leaf"])
    def test_a_matrix_names_the_example_holding_a_tree_object(self, bad):
        ex = [example_with_trees(self.TREE, self.TREE),
              example_with_trees(self.TREE, bad, cid="c2")]
        cfg = KernelConfig(use_tk=True, use_sim=False)
        message = re.escape("example (q1, c2) holds a SyntaxTree tree, not "
                            "bracketed text")
        with pytest.raises(DataError, match=message):
            gram_matrix(ex, cfg)
        with pytest.raises(DataError, match=message):
            kernel_matrix(ex[:1], ex, cfg)

    def test_a_bare_token_is_a_grammar_error(self):
        ex = [example_with_trees(self.TREE, "X")]
        with pytest.raises(DataError, match=re.escape(
                "expected '(' to open a tree (byte offset 0)")):
            gram_matrix(ex, KernelConfig(use_tk=True, use_sim=False))


class TestRBF:
    def test_zero_distance(self):
        v = np.array([0.3, -1.2, 4.0])
        assert cell(vec_example(v), vec_example(v, "b"),
                    KernelConfig(gamma=0.7)) == pytest.approx(1.0)

    def test_scalar_value(self):
        assert cell(vec_example([0.0]), vec_example([1.0], "b"),
                    KernelConfig(gamma=1.0)) == pytest.approx(math.exp(-1.0))

    def test_monotone_in_distance(self):
        u = vec_example(np.zeros(2))
        values = [cell(u, vec_example([d, 0.0], "b"), KernelConfig(gamma=0.5))
                  for d in (0.0, 0.5, 1.0, 2.0)]
        assert values == sorted(values, reverse=True)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DataError, match="dimension"):
            cell(vec_example(np.zeros(2)), vec_example(np.zeros(3), "b"),
                 KernelConfig(gamma=1.0))

    def test_gamma_validated(self):
        # exp(-inf * 0) is NaN: an infinite gamma puts NaN on the diagonal
        for gamma in (0.0, math.inf, math.nan):
            with pytest.raises(DataError, match="gamma"):
                cell(vec_example(np.zeros(2)), vec_example(np.zeros(2), "b"),
                     KernelConfig(gamma=gamma))


class TestCombinedKernel:
    def test_rank_only_linear(self):
        e_i = Example(query_id="q", candidate_id="a", label=1,
                      original_rank=2)
        e_j = Example(query_id="q", candidate_id="b", label=-1,
                      original_rank=4)
        cfg = KernelConfig(use_sim=False, use_rank=True, rank_kernel="LINEAR")
        assert cell(e_i, e_j, cfg) == 0.125
        as_is = KernelConfig(use_sim=False, use_rank=True, rank_mode="AS_IS")
        assert cell(e_i, e_j, as_is) == 8.0

    def test_sim_only_identical_vectors(self):
        v = np.array([0.1, 0.9, 0.5])
        e_i = Example(query_id="q", candidate_id="a", label=1,
                      original_rank=1, vec=v)
        e_j = Example(query_id="q", candidate_id="b", label=1,
                      original_rank=2, vec=v.copy())
        assert cell(e_i, e_j, KernelConfig()) == pytest.approx(1.0)

    def test_additivity_of_blocks(self):
        rng = make_rng(53)
        ex = make_examples(rng, 3)
        full = KernelConfig(use_sim=True, use_tk=True, use_rank=True,
                            rank_kernel="LINEAR", tk_kind="PTK")
        parts = [
            KernelConfig(use_sim=True, use_tk=False, use_rank=False),
            KernelConfig(use_sim=False, use_tk=True, use_rank=False,
                         tk_kind="PTK"),
            KernelConfig(use_sim=False, use_tk=False, use_rank=True,
                         rank_kernel="LINEAR"),
        ]
        G_full = gram_matrix(ex, full)
        G_sum = sum(gram_matrix(ex, p) for p in parts)
        np.testing.assert_allclose(G_full, G_sum, atol=1e-9)

    def test_missing_enabled_block_is_named(self):
        e = Example(query_id="q", candidate_id="a", label=1, original_rank=1)
        cfg = KernelConfig(use_rank=True)
        with pytest.raises(DataError, match="similarity block"):
            cell(e, e, cfg)

    def test_explicit_gamma_respected(self):
        e_i = Example(query_id="q", candidate_id="a", label=1,
                      original_rank=1, vec=np.array([0.0]))
        e_j = Example(query_id="q", candidate_id="b", label=1,
                      original_rank=2, vec=np.array([1.0]))
        cfg = KernelConfig(gamma=2.0)
        assert cell(e_i, e_j, cfg) == pytest.approx(math.exp(-2.0))


class TestRankMode:
    """The kernel computes the rank feature from each example's
    ``original_rank`` under its ``rank_mode``, so one examples file serves
    either mode."""

    @pytest.mark.parametrize("mode,feature", [
        ("AS_IS", float), ("INVERSE", lambda rank: 1.0 / rank)])
    def test_a_rank_only_gram_is_the_product_of_the_features(
            self, tmp_path, mode, feature):
        from qrerank.pipeline import read_examples, save_examples

        path = tmp_path / "examples.jsonl"
        save_examples(path, make_examples(make_rng(71), 12, with_trees=False))
        ex = read_examples(path)
        r = np.array([feature(e.original_rank) for e in ex])
        assert len(set(r.tolist())) > 1
        cfg = KernelConfig(use_sim=False, use_rank=True, rank_mode=mode)
        assert gram_matrix(ex, cfg).tobytes() == np.outer(r, r).tobytes()
        assert kernel_matrix(ex[:3], ex, cfg).tobytes() == \
            np.outer(r[:3], r).tobytes()


class TestGramMatrix:
    def test_single_example(self):
        rng = make_rng(61)
        ex = make_examples(rng, 1)
        G = gram_matrix(ex, KernelConfig())
        assert G.shape == (1, 1)
        assert G[0, 0] == pytest.approx(1.0)

    def test_exact_symmetry(self):
        rng = make_rng(67)
        ex = make_examples(rng, 10)
        cfg = KernelConfig(use_sim=True, use_tk=True, use_rank=True)
        G = gram_matrix(ex, cfg)
        assert np.array_equal(G, G.T)

    @pytest.mark.parametrize("cfg", [
        KernelConfig(use_sim=True, use_tk=False, use_rank=False),
        KernelConfig(use_sim=False, use_tk=True, use_rank=False, tk_kind="STK"),
        KernelConfig(use_sim=False, use_tk=True, use_rank=False, tk_kind="PTK"),
        KernelConfig(use_sim=False, use_tk=False, use_rank=True,
                     rank_kernel="LINEAR"),
        KernelConfig(use_sim=True, use_tk=True, use_rank=True,
                     rank_kernel="RBF"),
    ])
    def test_positive_semidefinite(self, cfg):
        rng = make_rng(71)
        ex = make_examples(rng, 20)
        G = gram_matrix(ex, cfg)
        min_eig = np.linalg.eigvalsh(G).min()
        assert min_eig >= -1e-8 * np.linalg.norm(G)

    def test_empty_list_rejected(self):
        with pytest.raises(DataError):
            gram_matrix([], KernelConfig())

    def test_rectangular_matches_square(self):
        rng = make_rng(73)
        ex = make_examples(rng, 6)
        cfg = KernelConfig(use_sim=True, use_tk=True, use_rank=True)
        G = gram_matrix(ex, cfg)
        K = kernel_matrix(ex[:2], ex, cfg)
        np.testing.assert_allclose(K, G[:2], atol=1e-12)


# 1.0 and 0.5 as a Gram file writes them
ONE, HALF = "3ff0000000000000", "3fe0000000000000"


class TestGramFile:
    def test_round_trip(self, tmp_path):
        rng = make_rng(79)
        ex = make_examples(rng, 7, with_trees=False)
        cfg = KernelConfig()
        G = gram_matrix(ex, cfg)
        fp = config_fingerprint(cfg)
        path = tmp_path / "gram.txt"
        save_gram(path, G, fp)
        G2, fp2 = load_gram(path)
        assert fp2 == fp
        np.testing.assert_array_equal(G, G2)

    def test_not_a_gram_file(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("hello\n", encoding="utf-8")
        with pytest.raises(DataError, match="not a gram cache"):
            load_gram(path)

    def test_truncated_file_rejected(self, tmp_path):
        rng = make_rng(83)
        ex = make_examples(rng, 4, with_trees=False)
        G = gram_matrix(ex, KernelConfig())
        path = tmp_path / "gram.txt"
        save_gram(path, G, "fp")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="rows"):
            load_gram(path)

    def test_saved_text(self, tmp_path):
        G = np.array([[1.0, 0.1, -0.0],
                      [0.1, 1.0 / 3.0, 5e-324],
                      [-0.0, 5e-324, 2.5e300]])
        path = tmp_path / "gram.txt"
        save_gram(path, G, "fp")
        assert path.read_text(encoding="utf-8") == (
            "# qrerank-gram v2\n# fingerprint: fp\n# n: 3\n"
            "3ff0000000000000\n"
            "3fb999999999999a 3fd5555555555555\n"
            "8000000000000000 0000000000000001 7e4ddd4baa009303\n")
        G2, _ = load_gram(path)
        assert G2.tobytes() == G.tobytes()

    def test_random_bit_patterns_round_trip_exactly(self, tmp_path):
        # 101,475 cells: random finite bits, 2,000 of them subnormals of
        # either sign, and both zeros
        rng = make_rng(29)
        n = 450
        bits = rng.integers(0, 2 ** 64, size=n * (n + 1) // 2, dtype=np.uint64)
        bits[:2000] &= np.uint64(0x800F_FFFF_FFFF_FFFF)      # subnormals
        bits[2000:2002] = [0, 2 ** 63]                       # +0.0, -0.0
        cells = bits.view(np.float64)
        cells[~np.isfinite(cells)] = 1.5
        G = np.zeros((n, n))
        G[np.tril_indices(n)] = cells
        upper = np.triu_indices(n, 1)
        G[upper] = G.T[upper]
        path = tmp_path / "gram.txt"
        save_gram(path, G, "fp")
        G2, _ = load_gram(path)
        assert G2.tobytes() == G.tobytes()
        rows = path.read_text(encoding="utf-8").splitlines()[3:]
        assert rows[2] == " ".join(struct.pack(">d", v).hex()
                                   for v in G[2, :3].tolist())

    def test_v1_file_rejected(self, tmp_path):
        path = tmp_path / "gram.txt"
        path.write_text("# qrerank-gram v1\n# fingerprint: fp\n# n: 1\n1\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match="not a gram cache file"):
            load_gram(path)

    @pytest.mark.parametrize("rows,message", [
        ([ONE, f"{HALF} 3fe000000000000x", f"{ONE} {ONE} {ONE}"],
         "bad number '3fe000000000000x' in row 1"),
        ([ONE, f"{HALF} {ONE} {ONE}", f"{ONE} {ONE}"],
         "row 1 has 3 entries, expected 2"),
        ([ONE, f"{HALF} 7ff0000000000000", f"{ONE} {ONE} {ONE}"],
         "gram contains non-finite values"),
        ([ONE, HALF, f"{ONE} {ONE} {ONE} {ONE}"],
         "row 1 has 1 entries, expected 2"),
        ([ONE, f"{HALF} 3FE0000000000000", f"{ONE} {ONE} {ONE}"],
         "bad number '3FE0000000000000' in row 1"),
        ([ONE, f"{HALF}\t{ONE}", f"{ONE} {ONE} {ONE}"],
         "bad separator '\\t' in row 1"),
    ])
    def test_malformed_rows_named(self, tmp_path, rows, message):
        path = tmp_path / "gram.txt"
        path.write_text("# qrerank-gram v2\n# fingerprint: fp\n# n: 3\n"
                        + "\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            load_gram(path)

    def test_a_last_row_ending_in_a_space_is_named(self, tmp_path):
        # the size is right, so the row is read on to its end: there is none
        path = tmp_path / "gram.txt"
        path.write_text("# qrerank-gram v2\n# fingerprint: fp\n# n: 2\n"
                        f"{ONE}\n{HALF} {ONE} ", encoding="utf-8")
        for read in (load_gram, load_gram_lower):
            with pytest.raises(DataError, match=re.escape(
                    f"{path}: row 1 does not end in a newline")):
                read(path)

    @pytest.mark.parametrize("size", ["+1", "01", " 1", "1 ", "\u0661"])
    def test_size_header_is_ascii_digits_only(self, tmp_path, size):
        # int() reads each of these as 1; the writer writes only "1"
        path = tmp_path / "gram.txt"
        path.write_text(f"# qrerank-gram v2\n# fingerprint: fp\n# n: {size}\n"
                        f"{ONE}\n", encoding="utf-8")
        for read in (load_gram, load_gram_lower):
            with pytest.raises(DataError, match=re.escape(
                    f"{path}: bad size header")):
                read(path)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_matrix_refused(self, tmp_path, bad):
        G = np.ones((3, 3))
        G[2, 1] = bad
        with pytest.raises(NumericalError, match=re.escape(
                f"save_gram: non-finite kernel value {bad} at cell (2, 1)")):
            save_gram(tmp_path / "gram.txt", G, "fp")

    def test_only_the_lower_triangle_is_written(self, tmp_path):
        G = np.array([[1.0, math.nan], [0.5, 2.0]])
        save_gram(tmp_path / "gram.txt", G, "fp")
        assert load_gram(tmp_path / "gram.txt")[0].tolist() == [[1.0, 0.5],
                                                                [0.5, 2.0]]

    def test_larger_than_one_chunk(self, tmp_path):
        G = np.arange(400.0).reshape(20, 20) / 7.0
        G = G + G.T
        save_gram(tmp_path / "gram.txt", G, "fp")
        rows = tmp_path.joinpath("gram.txt").read_text().splitlines()[3:]
        assert rows == [" ".join(struct.pack(">d", v).hex()
                                 for v in G[i, :i + 1].tolist())
                        for i in range(20)]
        assert load_gram(tmp_path / "gram.txt")[0].tobytes() == G.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 57])
@pytest.mark.parametrize("seed", range(10))
def test_seeded_gram_files_round_trip(tmp_path, seed, n):
    # random finite bit patterns, subnormals and both zeros among them
    rng = make_rng(seed)
    tril = np.tril_indices(n)
    cells = rng.integers(0, 2 ** 64, size=len(tril[0]),
                         dtype=np.uint64).view(np.float64)
    cells[~np.isfinite(cells)] = -0.0
    G = np.empty((n, n))
    G[tril] = G.T[tril] = cells
    save_gram(tmp_path / "g.gram", G, "fp")
    T, fp = load_gram_lower(tmp_path / "g.gram")
    assert (T.tobytes(), fp) == (G[tril].tobytes(), "fp")
    assert load_gram(tmp_path / "g.gram")[0].tobytes() == G.tobytes()


def gram_file_mutations(rng, data: bytes):
    """Corruptions of the Gram file ``data`` of a 6×6 matrix, drawn from
    ``rng``."""
    body = data.index(b"# n: 6\n") + len(b"# n: 6\n")
    yield data[:rng.integers(len(data))]                     # truncated
    pos = rng.integers(body, len(data))                     # a non-hex byte
    nonhex = [b for b in range(256) if b not in b"0123456789abcdef \n"]
    yield data[:pos] + bytes([rng.choice(nonhex)]) + data[pos + 1:]
    yield data + rng.bytes(int(rng.integers(1, 40)))         # trailing bytes
    for n in (b"1000000", b"-1", b"six", b"", b"5", b"7", b"2" * 40):
        yield data.replace(b"# n: 6\n", b"# n: " + n + b"\n")
    # non-ASCII fingerprint bytes, led by a continuation byte with no lead
    # byte, which is never UTF-8
    odd = rng.integers(0x80, 0x100, int(rng.integers(1, 9)), dtype=np.uint8)
    odd[0] &= 0xBF
    at = data.index(b"# fingerprint: ") + len(b"# fingerprint: ") + 9
    yield data[:at] + odd.tobytes() + data[at:]


@pytest.mark.parametrize("seed", range(40))
def test_load_gram_fuzz_raises_only_data_error(tmp_path, seed):
    rng = make_rng(seed)
    x = rng.normal(size=(6, 3))
    path = tmp_path / "gram.txt"
    save_gram(path, x @ x.T, "f" * 64)
    for bad in gram_file_mutations(rng, path.read_bytes()):
        path.write_bytes(bad)
        for read in (load_gram, load_gram_lower):
            with pytest.raises(DataError):
                read(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteKernels:
    """A kernel value that overflows is a NumericalError naming its cell,
    not an inf in the Gram file, and numpy warns of nothing on the way."""

    @staticmethod
    def examples(big):
        return [Example(query_id="q", candidate_id=f"c{k}", label=1,
                        original_rank=1, vec=np.array(v))
                for k, v in enumerate(([1.0, 1.0], [1.0, 1.0], big))]

    def test_gram_matrix_names_the_first_cell(self):
        # the first in file order: the lower triangle, row-major
        cfg = KernelConfig(vec_kernel="LINEAR")
        with pytest.raises(NumericalError, match=re.escape(
                "gram_matrix: non-finite kernel value inf at cell (2, 0)")):
            gram_matrix(self.examples([1e308, 1e308]), cfg)
        with pytest.raises(NumericalError, match=re.escape(
                "gram_matrix: non-finite kernel value inf at cell (2, 2)")):
            gram_matrix(self.examples([1e200, 1e200]), cfg)

    def test_kernel_matrix_names_the_first_cell(self):
        cfg = KernelConfig(vec_kernel="LINEAR")
        ex = self.examples([1e200, 1e200])
        with pytest.raises(NumericalError, match=re.escape(
                "kernel_matrix: non-finite kernel value inf at cell (1, 2)")):
            kernel_matrix(ex[1:], ex, cfg)

    def test_rbf_underflows_to_zero_without_error(self):
        G = gram_matrix(self.examples([1e200, 1e200]), KernelConfig())
        assert G[0, 2] == G[2, 0] == 0.0 and G[2, 2] == 1.0

    def test_normalizing_by_self_kernels_whose_product_underflows(self):
        # PTK self-kernels near 1e-300: their product rounds to 0, so the
        # normalized kernel is inf, as IEEE division by zero gives it
        ex = [example_with_trees("(S (A a))", "(S (B b) (A a))",
                                 cid=f"c{k}") for k in range(2)]
        cfg = KernelConfig(use_sim=False, use_tk=True, lam=1e-100,
                           mu=1e-100)
        with pytest.raises(NumericalError, match=re.escape(
                "gram_matrix: non-finite kernel value inf at cell (0, 0)")):
            gram_matrix(ex, cfg)

    def test_a_self_kernel_that_underflows_to_zero_is_degenerate(self):
        # μλ² = 1e-600 rounds to 0, so every PTK self-kernel is 0
        ex = [example_with_trees("(S (A a))", "(S (B b))", cid=f"c{k}")
              for k in range(2)]
        cfg = KernelConfig(use_sim=False, use_tk=True, lam=1e-200,
                           mu=1e-200)
        message = re.escape("degenerate self-kernel (k_xx=0.0, k_yy=0.0): "
                            "cannot normalize")
        with pytest.raises(NumericalError, match=message):
            gram_matrix(ex, cfg)
        with pytest.raises(NumericalError, match=message):
            kernel_matrix(ex[1:], ex, cfg)


# PTK and STK, each normalized and not, and the LINEAR and RBF kernels on
# both the vector and the rank block
PROPERTY_CONFIGS = {
    "ptk-norm": KernelConfig(use_tk=True, use_rank=True),
    "ptk-raw": KernelConfig(use_tk=True, normalize_tk=False,
                            vec_kernel="LINEAR", use_rank=True,
                            rank_kernel="RBF"),
    "stk-norm": KernelConfig(use_tk=True, tk_kind="STK", vec_kernel="LINEAR",
                             use_rank=True, rank_kernel="RBF", gamma=0.7),
    "stk-raw": KernelConfig(use_tk=True, tk_kind="STK", normalize_tk=False,
                            use_rank=True),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("cfg", PROPERTY_CONFIGS.values(),
                         ids=PROPERTY_CONFIGS.keys())
class TestGramProperties:
    """The invariants a Gram row relies on, taking row i against columns
    0..i and mirroring it: each cell has the bits of its pair in either
    order, whatever the examples' order."""

    def test_both_triangles_are_the_kernel_matrix(self, cfg, seed):
        ex = make_examples(make_rng(seed), 9)
        assert gram_matrix(ex, cfg).tobytes() == \
            kernel_matrix(ex, ex, cfg).tobytes()

    def test_permutation_equivariant(self, cfg, seed):
        rng = make_rng(seed)
        ex = make_examples(rng, 9)
        G = gram_matrix(ex, cfg)
        perm = rng.permutation(len(ex))
        assert gram_matrix([ex[k] for k in perm], cfg).tobytes() == \
            G[perm][:, perm].tobytes()

    def test_rows_are_independent(self, cfg, seed):
        # a row only reads the state the call prepared before the first
        # row, so permuting the rows permutes the matrix's rows, bit for bit
        rng = make_rng(seed)
        ex = make_examples(rng, 12)
        rows, cols = ex[3:], ex[:6]
        K = kernel_matrix(rows, cols, cfg)
        perm = rng.permutation(len(rows))
        assert kernel_matrix([rows[k] for k in perm], cols, cfg).tobytes() \
            == K[perm].tobytes()


class TestStreamedGram:
    """``write_gram`` computes and writes the Gram file a row at a time:
    the bytes of ``save_gram`` of ``gram_matrix``, and on any error no
    file, or the file that was there, at its path."""

    @pytest.mark.parametrize("cfg", [
        KernelConfig(use_rank=True),
        KernelConfig(use_tk=True, tk_kind="STK", vec_kernel="LINEAR",
                     use_rank=True, rank_kernel="RBF"),
    ], ids=["sim-rank", "stk-sim-rank"])
    def test_the_bytes_of_save_gram(self, tmp_path, cfg):
        ex = make_examples(make_rng(89), 30)
        save_gram(tmp_path / "a.gram", gram_matrix(ex, cfg),
                  config_fingerprint(cfg))
        write_gram(tmp_path / "b.gram", ex, cfg)
        assert (tmp_path / "b.gram").read_bytes() == \
            (tmp_path / "a.gram").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.gram",
                                                             "b.gram"]

    def failed(self, tmp_path, write, error, message):
        """Run ``write`` on a path that holds an older file; it must raise
        ``error`` and leave that file, and nothing else, in place."""
        path = tmp_path / "g.gram"
        path.write_bytes(b"older")
        with pytest.raises(error, match=message):
            write(path)
        assert path.read_bytes() == b"older"
        assert [p.name for p in tmp_path.iterdir()] == ["g.gram"]

    def test_a_non_finite_last_row(self, tmp_path):
        ex = TestNonFiniteKernels.examples([1e308, 1e308])
        cfg = KernelConfig(vec_kernel="LINEAR")
        self.failed(tmp_path, lambda path: write_gram(path, ex, cfg),
                    NumericalError, re.escape(
                        "write_gram: non-finite kernel value inf at cell "
                        "(2, 0)"))
        G = np.ones((3, 3))
        G[2, 2] = math.inf
        self.failed(tmp_path, lambda path: save_gram(path, G, "fp"),
                    NumericalError, re.escape("at cell (2, 2)"))

    def test_every_log_line_names_write_gram(self, monkeypatch, tmp_path,
                                             caplog):
        monkeypatch.setattr(kernels, "_PROGRESS_AFTER_S", 0.0)
        ex = make_examples(make_rng(97), 3)
        with caplog.at_level("INFO", logger="qrerank.kernels"):
            write_gram(tmp_path / "g.gram", ex, KernelConfig(use_tk=True))
        lines = [r.getMessage() for r in caplog.records]
        assert [line.split(",")[0] for line in lines] == [
            "write_gram: 1 of 3 rows", "write_gram: 2 of 3 rows",
            "write_gram: 3 of 3 rows", "write_gram: 12 tree pairs",
            "write_gram: n 3"]

    def test_a_missing_block(self, tmp_path):
        ex = make_examples(make_rng(97), 4, with_trees=False)
        self.failed(tmp_path, lambda path: write_gram(
                        path, ex, KernelConfig(use_tk=True)),
                    DataError, "missing its REL-linked tree pair")

    def test_an_unwritable_path(self, tmp_path):
        ex = make_examples(make_rng(97), 4, with_trees=False)
        (tmp_path / "dir").mkdir()
        with pytest.raises(IsADirectoryError):
            write_gram(tmp_path / "dir", ex, KernelConfig())
        assert [p.name for p in tmp_path.iterdir()] == ["dir"]
        assert list((tmp_path / "dir").iterdir()) == []
        with pytest.raises(FileNotFoundError):
            write_gram(tmp_path / "none" / "g.gram", ex, KernelConfig())


def gram_progress(caplog, n):
    """The progress lines of a Gram of n examples, logged with no delay."""
    ex = make_examples(make_rng(101), n, with_trees=False)
    with caplog.at_level("INFO", logger="qrerank.kernels"):
        gram_matrix(ex, KernelConfig(use_rank=True))
    return [r.getMessage() for r in caplog.records]


class TestGramProgress:
    def test_at_most_ten_lines_one_per_tenth_of_the_cells(self, monkeypatch,
                                                            caplog):
        monkeypatch.setattr(kernels, "_PROGRESS_AFTER_S", 0.0)
        lines = gram_progress(caplog, 40)
        assert len(lines) == 10
        cells = 40 * 41 // 2
        rows = []
        for tenth, line in enumerate(lines, start=1):
            match = re.fullmatch(r"gram_matrix: (\d+) of 40 rows, "
                                 r"\d+\.\d s, ETA (\d+\.\d) s", line)
            assert match, line
            rows.append(int(match[1]))
            # the row that completes this tenth of the cells
            r = rows[-1]
            assert 10 * r * (r + 1) // 2 >= tenth * cells
            assert 10 * (r - 1) * r // 2 < tenth * cells
        assert rows[-1] == 40 and match[2] == "0.0"

    def test_fewer_rows_than_tenths(self, monkeypatch, caplog):
        monkeypatch.setattr(kernels, "_PROGRESS_AFTER_S", 0.0)
        lines = gram_progress(caplog, 3)
        assert [line.split(",")[0] for line in lines] == [
            "gram_matrix: 1 of 3 rows", "gram_matrix: 2 of 3 rows",
            "gram_matrix: 3 of 3 rows"]

    def test_a_quick_gram_logs_none(self, caplog):
        assert gram_progress(caplog, 40) == []

    def test_kernel_matrix_one_line_per_tenth_of_the_rows(self, monkeypatch,
                                                          caplog):
        monkeypatch.setattr(kernels, "_PROGRESS_AFTER_S", 0.0)
        ex = make_examples(make_rng(101), 32, with_trees=False)
        with caplog.at_level("INFO", logger="qrerank.kernels"):
            kernel_matrix(ex[:25], ex[25:], KernelConfig(use_rank=True))
        rows = []
        for line in (r.getMessage() for r in caplog.records):
            match = re.fullmatch(r"kernel_matrix: (\d+) of 25 rows, "
                                 r"\d+\.\d s, ETA \d+\.\d s", line)
            assert match, line
            rows.append(int(match[1]))
        # every row has 7 cells, so row r ends the tenth k where r >= 2.5·k
        assert rows == [3, 5, 8, 10, 13, 15, 18, 20, 23, 25]


@pytest.mark.parametrize("engine", ["native", "python"])
@pytest.mark.parametrize("kind", ["PTK", "STK"])
def test_kernel_matrix_memory_per_row_is_bounded(monkeypatch, kind, engine):
    # each call compiles its rows' and columns' trees into a table of its
    # own and drops it, with each row's Δ memo, before it returns: a memo or
    # table kept across the eight calls would keep growing (by 25–35 KB a
    # call here)
    if engine == "python":
        monkeypatch.setattr(_native, "load", lambda: None)
    ex = make_examples(make_rng(107), 80)
    cols = ex[:16]
    cfg = KernelConfig(use_tk=True, use_rank=True, tk_kind=kind)
    kernel_matrix(ex[16:17], cols, cfg)     # load the engine untraced
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for k in range(8):
            kernel_matrix(ex[16 + 8 * k:24 + 8 * k], cols, cfg)
        gc.collect()    # also empties the interpreter's free lists
        kept, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert kept < 32 * 1024
    assert peak / 8 < 32 * 1024     # per row of one call


def test_load_gram_temporaries_are_bounded(tmp_path):
    # beyond the triangle or the matrix it returns, each reader holds one
    # row's temporaries at a time: no n×n bool (1.44 MB here), no other
    # n×n temporary, and load_gram no triangle (5.8 MB)
    n = 1200
    x = make_rng(103).normal(size=(n, 3))
    save_gram(tmp_path / "g.gram", x @ x.T, "fp")
    for read in (load_gram_lower, load_gram):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            G, _ = read(tmp_path / "g.gram")
            extra = (tracemalloc.get_traced_memory()[1] - base
                     - memoryview(G).nbytes)
        finally:
            tracemalloc.stop()
        assert extra < 640 * 1024 < n * n // 2


class TestConfigFingerprint:
    def test_stable(self):
        cfg = KernelConfig()
        assert config_fingerprint(cfg) == config_fingerprint(KernelConfig())

    def test_sensitive_to_every_field(self):
        base = config_fingerprint(KernelConfig())
        variants = [
            KernelConfig(lam=0.5),
            KernelConfig(mu=0.3),
            KernelConfig(gamma=1.0),
            KernelConfig(tk_kind="STK"),
            KernelConfig(rank_mode="AS_IS"),
            KernelConfig(rank_kernel="RBF"),
            KernelConfig(vec_kernel="LINEAR"),
            KernelConfig(normalize_tk=False),
            KernelConfig(use_tk=True),
            KernelConfig(use_rank=True),
        ]
        prints = {config_fingerprint(v) for v in variants}
        assert base not in prints
        assert len(prints) == len(variants)


class TestExampleValidation:
    def test_bad_label_rejected(self):
        with pytest.raises(DataError):
            Example(query_id="q", candidate_id="c", label=0, original_rank=1)

    def test_bad_rank_rejected(self):
        with pytest.raises(DataError):
            Example(query_id="q", candidate_id="c", label=1, original_rank=0)

    @pytest.mark.parametrize("label", [True, 1.0, "1", np.int64(1)])
    def test_non_int_label_rejected(self, label):
        with pytest.raises(DataError, match="label"):
            Example(query_id="q", candidate_id="c", label=label,
                    original_rank=1)

    @pytest.mark.parametrize("rank", [True, 1.0, "1", np.int64(1)])
    def test_non_int_rank_rejected(self, rank):
        with pytest.raises(DataError, match="original_rank"):
            Example(query_id="q", candidate_id="c", label=1,
                    original_rank=rank)

    def test_empty_vec_rejected(self):
        with pytest.raises(DataError, match="example vec is empty"):
            Example(query_id="q", candidate_id="c", label=1, original_rank=1,
                    vec=np.zeros(0))

    def test_non_finite_vec_rejected(self):
        with pytest.raises(DataError):
            Example(query_id="q", candidate_id="c", label=1, original_rank=1,
                    vec=np.array([1.0, np.nan]))


# ---------------------------------------------------------------------------
# the fast paths of the compiled engine: oracles, golden values, deep trees
# ---------------------------------------------------------------------------

# tree pairs that drive each branch of the PTK Δ loop
BRANCH_PAIRS = {
    # parse-shaped trees: 1×1, general and all-zero child blocks mixed
    "parse": ("(S (NP (DT the) (NN visa)) (VP (VB renew) (NP (DT the) "
              "(NN permit))) (. ?))",
              "(S (NP (NN visa)) (VP (VB get) (NP (DT a) (NN visa) (PP (IN in) "
              "(NP (NN qatar))))) (. ?))"),
    # unary chains: every internal match is a 1×1 block
    "chain": ("(A (B (C (D (E x)))))", "(A (B (C (D (E y)))))"),
    # the S pair's children all differ: an all-zero 2×2 block
    "zero_block": ("(S (X a) (Y b))", "(S (Z a) (W b))"),
    # leaf tokens equal to internal labels pair with internal nodes
    "leaf_label": ("(NP (NN NP) (NP dog))", "(NP (NP NN) (NN dog) (NP NP))"),
    # nodes with 5 and 6 children
    "wide": ("(S (A a) (B b) (A c) (C d) (B e) (D f))",
             "(S (B b) (A a) (C d) (A a) (B e))"),
    # a repeated-label chain against a shorter one: 1×1 blocks whose child
    # pair is an internal node against a leaf
    "repeated_chain": ("(A (A (A (A a))))", "(A (A (A a)))"),
}
PARAMS = [(1.0, 1.0), (0.4, 0.4), (0.9, 0.2)]


class TestFastPathOracles:
    @pytest.mark.parametrize("name", sorted(BRANCH_PAIRS))
    @pytest.mark.parametrize("lam,mu", PARAMS)
    def test_ptk_matches_bruteforce(self, name, lam, mu):
        a, b = BRANCH_PAIRS[name]
        for t1, t2 in ((a, b), (a, a), (b, b)):
            assert ptk(t1, t2, lam, mu) == pytest.approx(
                ptk_bruteforce(t1, t2, lam, mu), rel=1e-12, abs=1e-12)
        assert ptk(a, b, lam, mu) == ptk(b, a, lam, mu)

    @pytest.mark.parametrize("name", sorted(BRANCH_PAIRS))
    @pytest.mark.parametrize("lam", [1.0, 0.4])
    def test_stk_matches_bruteforce(self, name, lam):
        a, b = BRANCH_PAIRS[name]
        for t1, t2 in ((a, b), (a, a), (b, b)):
            assert stk(t1, t2, lam) == pytest.approx(
                stk_bruteforce(t1, t2, lam), rel=1e-12, abs=1e-12)

    def test_random_wide_and_unary_trees_match_bruteforce(self):
        # a root with 5 or 6 children, each a unary chain of 0 to 2 nodes
        # over a leaf; "A" is both a token and a label
        rng = make_rng(307)

        def chain(depth):
            node = str(rng.choice(["a", "b", "A"]))
            for _ in range(depth):
                node = f"({rng.choice(['A', 'B'])} {node})"
            return node

        def wide():
            return "(S " + " ".join(chain(int(rng.integers(0, 3)))
                                    for _ in range(rng.integers(5, 7))) + ")"

        for _ in range(10):
            t1, t2 = wide(), wide()
            for lam, mu in PARAMS:
                assert ptk(t1, t2, lam, mu) == pytest.approx(
                    ptk_bruteforce(t1, t2, lam, mu), rel=1e-12, abs=1e-12)


def H(text):
    return float.fromhex(text)


# Values computed by the per-pair evaluation that predates tree compilation;
# the compiled engine must reproduce them bit for bit.
PTK = {
    ("parse", 0.4, 0.4): H("0x1.697473351b5c7p+0"),
    ("parse", 1.0, 1.0): H("0x1.6200000000000p+7"),
    ("parse", 0.9, 0.2): H("0x1.f19c8a2e5316ap+1"),
    ("chain", 0.4, 0.4): H("0x1.594c4885f819fp-2"),
    ("chain", 1.0, 1.0): H("0x1.e000000000000p+3"),
    ("chain", 0.9, 0.2): H("0x1.dbc2adc420176p-1"),
    ("zero_block", 0.4, 0.4): H("0x1.89374bc6a7efcp-3"),
    ("zero_block", 1.0, 1.0): H("0x1.8000000000000p+1"),
    ("zero_block", 0.9, 0.2): H("0x1.f1a9fbe76c8b6p-2"),
    ("leaf_label", 0.4, 0.4): H("0x1.f606f8dcbbfe8p-1"),
    ("leaf_label", 1.0, 1.0): H("0x1.5000000000000p+4"),
    ("leaf_label", 0.9, 0.2): H("0x1.4846e6bf494f1p+1"),
    ("wide", 0.4, 0.4): H("0x1.04d4a63f77632p+0"),
    ("wide", 1.0, 1.0): H("0x1.d800000000000p+6"),
    ("wide", 0.9, 0.2): H("0x1.6f8139f385683p+1"),
}
STK = {
    ("parse", 0.4): H("0x1.3126e978d4fdfp+1"),
    ("parse", 1.0): H("0x1.0000000000000p+3"),
    ("chain", 0.4): H("0x1.1de69ad42c3cap+1"),
    ("chain", 1.0): H("0x1.4000000000000p+3"),
    ("zero_block", 0.4): H("0x0.0p+0"),
    ("zero_block", 1.0): H("0x0.0p+0"),
    ("leaf_label", 0.4): H("0x0.0p+0"),
    ("leaf_label", 1.0): H("0x0.0p+0"),
    ("wide", 0.4): H("0x1.0000000000000p+1"),
    ("wide", 1.0): H("0x1.4000000000000p+2"),
}
GRAM_PTK = [
    [H("0x1.0000000000000p+2"), H("0x1.8b2fe3c7f8186p+1"),
     H("0x1.3c023103a5618p+0")],
    [H("0x1.8b2fe3c7f8186p+1"), H("0x1.a000000000000p+1"),
     H("0x1.241607d3753ccp+0")],
    [H("0x1.3c023103a5618p+0"), H("0x1.241607d3753ccp+0"),
     H("0x1.8e38e38e38e39p+1")],
]
KMAT_PTK = [
    [H("0x1.0a833e3c1bcf9p+0"), H("0x1.06acdbae500c2p+0"),
     H("0x1.6e9f59ecd1c31p+1")],
    [H("0x1.0000000000000p+2"), H("0x1.8b2fe3c7f8186p+1"),
     H("0x1.3c023103a5618p+0")],
]
GRAM_STK = [
    [H("0x1.c41acdb443e2fp+6"), H("0x1.6b2b020c49ba6p+3"),
     H("0x0.0p+0")],
    [H("0x1.6b2b020c49ba6p+3"), H("0x1.12a07c4fc71c7p+8"),
     H("0x0.0p+0")],
    [H("0x0.0p+0"), H("0x0.0p+0"),
     H("0x1.4b3ea0ba1f4b2p+4")],
]
KMAT_STK = [
    [H("0x0.0p+0"), H("0x0.0p+0"),
     H("0x1.049c779a6b50bp+3")],
    [H("0x1.c41acdb443e2fp+6"), H("0x1.6b2b020c49ba6p+3"),
     H("0x0.0p+0")],
]

# Further configurations, computed by the per-cell evaluation that predates
# row-wise evaluation; the row-wise code must reproduce them bit for bit.
GRAM_LINEAR_VEC = [
    [H("0x1.1000000000000p+2"), H("0x1.9e7a353392cf6p+1"),
     H("0x1.5555555555555p+0")],
    [H("0x1.9e7a353392cf6p+1"), H("0x1.aa00000000000p+1"),
     H("0x1.32aaaaaaaaaabp+0")],
    [H("0x1.5555555555555p+0"), H("0x1.32aaaaaaaaaabp+0"),
     H("0x1.9638e38e38e39p+1")],
]
KMAT_LINEAR_VEC = [
    [H("0x1.2000000000000p+0"), H("0x1.1c00000000000p+0"),
     H("0x1.7de9ab586c7a0p+1")],
    [H("0x1.1000000000000p+2"), H("0x1.9e7a353392cf6p+1"),
     H("0x1.5555555555555p+0")],
]
GRAM_RBF_RANK = [
    [H("0x1.0000000000000p+2"), H("0x1.34836ce60431ap+1"),
     H("0x1.894174f0851cfp+0")],
    [H("0x1.34836ce60431ap+1"), H("0x1.0000000000000p+2"),
     H("0x1.ed723c5e5af90p+0")],
    [H("0x1.894174f0851cfp+0"), H("0x1.ed723c5e5af90p+0"),
     H("0x1.0000000000000p+2")],
]
KMAT_RBF_RANK = [
    [H("0x1.492adee408eeap+0"), H("0x1.c2be4548a7cb6p+0"),
     H("0x1.5b6093701b5e0p+1")],
    [H("0x1.0000000000000p+2"), H("0x1.34836ce60431ap+1"),
     H("0x1.894174f0851cfp+0")],
]
GRAM_SIM = [
    [H("0x1.0000000000000p+0"), H("0x1.f2d6ba5195242p-1"),
     H("0x1.cd59b75ca0185p-1")],
    [H("0x1.f2d6ba5195242p-1"), H("0x1.0000000000000p+0"),
     H("0x1.f2d6ba5195242p-1")],
    [H("0x1.cd59b75ca0185p-1"), H("0x1.f2d6ba5195242p-1"),
     H("0x1.0000000000000p+0")],
]
KMAT_SIM = [
    [H("0x1.95067c78379f2p-1"), H("0x1.cd59b75ca0185p-1"),
     H("0x1.f2d6ba5195242p-1")],
    [H("0x1.0000000000000p+0"), H("0x1.f2d6ba5195242p-1"),
     H("0x1.cd59b75ca0185p-1")],
]
GRAM_RANK_RBF = [
    [H("0x1.0000000000000p+0"), H("0x1.8ebef9eac820bp-1"),
     H("0x1.4848cbbe4955ap-1")],
    [H("0x1.8ebef9eac820bp-1"), H("0x1.0000000000000p+0"),
     H("0x1.f1f936ca50d7dp-1")],
    [H("0x1.4848cbbe4955ap-1"), H("0x1.f1f936ca50d7dp-1"),
     H("0x1.0000000000000p+0")],
]
KMAT_RANK_RBF = [
    [H("0x1.23ba930c1568bp-1"), H("0x1.e0fabfbc702a4p-1"),
     H("0x1.fc74ee53f0c60p-1")],
    [H("0x1.0000000000000p+0"), H("0x1.8ebef9eac820bp-1"),
     H("0x1.4848cbbe4955ap-1")],
]


def golden_examples():
    trees = [s for pair in BRANCH_PAIRS.values() for s in pair]
    return [Example(query_id=f"q{k // 2}", candidate_id=f"c{k}",
                    label=1 - 2 * (k % 2), original_rank=k + 1,
                    vec=np.array([0.25 * k, 0.5, 1.0 - 0.125 * k]),
                    tree_first=trees[k],
                    tree_second=trees[9 - k])
            for k in range(4)]


GOLDEN_CONFIGS = {
    "PTK": KernelConfig(use_tk=True, use_rank=True),
    "STK": KernelConfig(use_tk=True, tk_kind="STK", lam=0.9,
                        normalize_tk=False, use_sim=False),
    "LINEAR_VEC": KernelConfig(vec_kernel="LINEAR", use_tk=True,
                               use_rank=True),
    "RBF_RANK": KernelConfig(gamma=0.7, use_tk=True, tk_kind="STK",
                             use_rank=True, rank_kernel="RBF"),
    "SIM": KernelConfig(),
    "RANK_RBF": KernelConfig(use_sim=False, use_rank=True,
                             rank_kernel="RBF"),
}


class TestGoldenValues:
    @pytest.mark.parametrize("key", sorted(PTK))
    def test_ptk(self, key):
        name, lam, mu = key
        a, b = BRANCH_PAIRS[name]
        assert ptk(a, b, lam, mu) == PTK[key]

    @pytest.mark.parametrize("key", sorted(STK))
    def test_stk(self, key):
        name, lam = key
        a, b = BRANCH_PAIRS[name]
        assert stk(a, b, lam) == STK[key]

    @pytest.mark.parametrize("kind,gram,kmat", [
        ("PTK", GRAM_PTK, KMAT_PTK),
        ("STK", GRAM_STK, KMAT_STK),
        ("LINEAR_VEC", GRAM_LINEAR_VEC, KMAT_LINEAR_VEC),
        ("RBF_RANK", GRAM_RBF_RANK, KMAT_RBF_RANK),
        ("SIM", GRAM_SIM, KMAT_SIM),
        ("RANK_RBF", GRAM_RANK_RBF, KMAT_RANK_RBF),
    ])
    def test_gram_and_kernel_matrix(self, kind, gram, kmat):
        ex = golden_examples()
        cfg = GOLDEN_CONFIGS[kind]
        assert gram_matrix(ex[:3], cfg).tolist() == gram
        assert kernel_matrix(ex[3:] + ex[:1], ex[:3], cfg).tolist() == kmat


def vector_examples(n=300, dim=20, seed=404):
    """Examples with dense SemEval-sized vectors and rank features only."""
    rng = np.random.default_rng(seed)
    vecs = rng.random((n, dim))
    ranks = rng.integers(1, 11, size=n)
    return [Example(query_id=f"q{k // 10}", candidate_id=f"c{k}",
                    label=1 - 2 * (k % 2), original_rank=int(ranks[k]),
                    vec=vecs[k])
            for k in range(n)]


def squared_distance(u, v):
    """Σ_k (u_k − v_k)², summed left to right from 0.0: the fixed order of
    both engines."""
    total = 0.0
    for a, b in zip(u, v):
        total += (a - b) * (a - b)
    return total


def per_cell_gram(examples, gamma):
    """RBF-vec + LINEAR-rank Gram in the per-cell form: one fixed-order
    squared distance and one ``math.exp`` per cell, the sim block added to
    0.0 before the rank block. The reference the row-wise code must equal
    bit for bit."""
    n = len(examples)
    G = np.empty((n, n))
    for i, e_i in enumerate(examples):
        for j in range(i, n):
            e_j = examples[j]
            total = 0.0
            total += math.exp(-gamma * squared_distance(e_i.vec, e_j.vec))
            total += (1.0 / e_i.original_rank) * (1.0 / e_j.original_rank)
            G[i, j] = G[j, i] = total
    return G


# sha256 of gram_matrix(vector_examples(), KernelConfig(use_rank=True))
# .tobytes(), recorded with the per-cell code; no BLAS computes it, so it
# holds on any machine.
GRAM_300_SHA256 = ("9326ed26e70df1877a4b9f3533a28211"
                   "33ed16a912101b73f0f9629926f9e46e")

ONE_CELL_CONFIGS = [
    KernelConfig(use_tk=True, use_rank=True),
    KernelConfig(vec_kernel="LINEAR", use_tk=True, tk_kind="STK",
                 use_rank=True),
    KernelConfig(gamma=0.7, use_rank=True, rank_kernel="RBF"),
    KernelConfig(),
    KernelConfig(use_sim=False, use_rank=True, rank_kernel="RBF"),
    KernelConfig(use_sim=False, use_tk=True, normalize_tk=False),
]


class TestRowWiseKernel:
    def test_gram_of_300_vectors_matches_per_cell_form(self):
        ex = vector_examples()
        G = gram_matrix(ex, KernelConfig(use_rank=True))
        assert G.tobytes() == per_cell_gram(ex, 1.0 / 20).tobytes()

    def test_gram_of_300_vectors_digest(self):
        ex = vector_examples()
        G = gram_matrix(ex, KernelConfig(use_rank=True))
        assert hashlib.sha256(G.tobytes()).hexdigest() == GRAM_300_SHA256

    @pytest.mark.parametrize("cfg", ONE_CELL_CONFIGS)
    def test_combined_kernel_is_the_matrix_cell(self, cfg):
        rng = make_rng(89)
        ex = make_examples(rng, 5)
        G = gram_matrix(ex, cfg)
        for i, e_i in enumerate(ex):
            for j, e_j in enumerate(ex):
                assert cell(e_i, e_j, cfg) == G[i, j]
        assert kernel_matrix(ex[3:], ex, cfg).tobytes() == G[3:].tobytes()

    def test_rbf_is_the_one_cell_form(self):
        rng = make_rng(97)
        u, v = rng.normal(size=20), rng.normal(size=20)
        value = cell(vec_example(u), vec_example(v, "b"),
                     KernelConfig(gamma=0.3))
        assert value == math.exp(-0.3 * squared_distance(u, v))


def checked_examples(dims=(4, 4, 4, 4), no_vec=(), huge_rank=()):
    return [Example(query_id="q", candidate_id=f"c{k}", label=1,
                    original_rank=10 ** 400 if k in huge_rank else k + 1,
                    vec=None if k in no_vec else np.full(dim, 0.5))
            for k, dim in enumerate(dims)]


NO_VEC = "similarity block enabled but example (q, c{}) has no feature vector"
HUGE_RANK = ("rank block enabled but example (q, c{}): rank position is "
             "too large for a double")
DIMS = "feature vectors disagree in dimension: ({},) vs ({},)"


class TestStackedChecks:
    """The checks run on whole blocks before any row; each message is the
    one the per-cell code raised for the same input."""

    CFG = KernelConfig(use_rank=True)

    @pytest.mark.parametrize("fault,message", [
        ({"no_vec": (2,)}, NO_VEC.format(2)),
        ({"huge_rank": (2,)}, HUGE_RANK.format(2)),
        ({"dims": (4, 4, 5, 4)}, DIMS.format(4, 5)),
    ])
    def test_gram_matrix(self, fault, message):
        ex = checked_examples(**fault)
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            gram_matrix(ex, self.CFG)

    @pytest.mark.parametrize("fault,message", [
        ({"no_vec": (3,)}, NO_VEC.format(3)),      # a later column
        ({"no_vec": (1,)}, NO_VEC.format(1)),      # a later row
        ({"huge_rank": (3,)}, HUGE_RANK.format(3)),
        ({"huge_rank": (1,)}, HUGE_RANK.format(1)),
        ({"dims": (4, 4, 4, 5)}, DIMS.format(4, 5)),
        ({"dims": (4, 5, 4, 4)}, DIMS.format(5, 4)),
        ({"dims": (3, 3, 4, 4)}, DIMS.format(3, 4)),   # rows vs columns
    ])
    def test_kernel_matrix(self, fault, message):
        ex = checked_examples(**fault)
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            kernel_matrix(ex[:2], ex[2:], self.CFG)

    def test_unused_blocks_are_not_checked(self):
        ragged = checked_examples(dims=(4, 5, 6))
        rank_only = KernelConfig(use_sim=False, use_rank=True)
        assert gram_matrix(ragged, rank_only).shape == (3, 3)
        huge = checked_examples(huge_rank=(0, 1, 2, 3))
        K = kernel_matrix(huge[:1], huge, KernelConfig())
        assert K.shape == (1, 4)

def deep_chain(depth, leaf="x"):
    """The text of a unary chain N{depth-1} → … → N0 → leaf."""
    return wrapped_chain(depth, leaf)


class TestDeepTrees:
    DEPTH = 1200

    def test_ptk_and_stk_on_a_deep_chain(self):
        tree = deep_chain(self.DEPTH)
        lam, mu = 0.4, 0.4
        # distinct labels: only same-depth nodes match, each Δ a 1×1 block
        d_ptk = [mu * lam * lam]
        d_stk = [lam]
        for _ in range(self.DEPTH - 1):
            d_ptk.append(mu * (lam * lam + lam * lam * d_ptk[-1]))
            d_stk.append(lam * (1.0 + d_stk[-1]))
        d_ptk.append(mu * (lam * lam + lam * lam * d_ptk[-1]))
        assert ptk(tree, tree, lam, mu) == pytest.approx(math.fsum(d_ptk),
                                                         rel=1e-12)
        assert stk(tree, tree, lam) == pytest.approx(math.fsum(d_stk),
                                                     rel=1e-12)
        other = deep_chain(self.DEPTH, leaf="y")
        assert ptk(tree, other, lam, mu) == ptk(other, tree, lam, mu)

    def test_gram_on_deep_chains(self):
        ex = [example_with_trees(deep_chain(self.DEPTH, leaf),
                                 deep_chain(self.DEPTH // 2, leaf),
                                 cid=f"c{leaf}") for leaf in ("x", "y")]
        G = gram_matrix(ex, KernelConfig(use_tk=True, use_sim=False))
        assert np.array_equal(G, G.T)
        assert G[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert 0.0 < G[0, 1] < 2.0


# Trees that share subtrees with each other and repeat identical subtrees
# inside one tree, so that the hash-consed engine meets subtree counts above
# 1, Δ memo hits across trees and columns, and repeated child blocks.
NP_VISA = "(NP (DT the) (NN visa))"
VP_GET = f"(VP (VB get) {NP_VISA})"
PP_QATAR = "(PP (IN in) (NP (NN qatar)))"
SHARED_TEXTS = [
    f"(S {NP_VISA} {VP_GET} (. ?))",
    f"(S {NP_VISA} {NP_VISA} {VP_GET} {PP_QATAR})",
    f"(S (NP {NP_VISA} {PP_QATAR}) (VP (VB renew) {NP_VISA}) (. ?))",
    f"(S {VP_GET} {VP_GET})",
    # a node of 40 children drawn from four subtrees
    "(S " + " ".join([NP_VISA, "(A a)", PP_QATAR, "(A a)", "(B b)"] * 8)
    + ")",
]


def wrapped_chain(depth, base):
    """The text of ``base`` under a unary chain N{depth-1} → … → N0."""
    return ("".join(f"(N{k} " for k in reversed(range(depth))) + base
            + ")" * depth)


def shared_forest():
    trees = list(SHARED_TEXTS)
    trees += [wrapped_chain(1200, NP_VISA), wrapped_chain(600, PP_QATAR)]
    pairs = [(0, 1), (2, 3), (4, 0), (5, 1), (0, 6), (3, 4), (1, 1)]
    return trees, [example_with_trees(trees[a], trees[b], cid=f"c{k}")
                   for k, (a, b) in enumerate(pairs)]


def fresh_reference(trees, examples, cfg):
    """cell(e_i, e_j): the tree-block cell from one fresh public ``ptk`` or
    ``stk`` call per distinct tree pair, normalized by hand."""
    index = {id(tree): k for k, tree in enumerate(trees)}
    values = {}

    def tk(a, b):
        key = (index[id(a)], index[id(b)])
        if key not in values:
            values[key] = (stk(a, b, cfg.lam) if cfg.tk_kind == "STK"
                           else ptk(a, b, cfg.lam, cfg.mu))
        return values[key]

    def cell(e_i, e_j):
        total = []
        for a, b in ((e_i.tree_first, e_j.tree_first),
                     (e_i.tree_second, e_j.tree_second)):
            k = tk(a, b)
            if cfg.normalize_tk:
                k = k / math.sqrt(tk(a, a) * tk(b, b))
            total.append(k)
        return 0.0 + (total[0] + total[1])

    return cell


def hex_matrix(M):
    return [[float.hex(v) for v in row] for row in M.tolist()]


def complete_tree(width, depth):
    """The text of the tree whose every leaf is "a" and every inner node
    "N" with ``width`` children."""
    tree = "a"
    for _ in range(depth):
        tree = "(N " + " ".join([tree] * width) + ")"
    return tree


def expanded_sum(kind, t1, t2, lam, mu):
    """math.fsum of each matched subtree pair's Δ repeated c1·c2 times, the
    Δ values taken from a Python-engine evaluation's memo."""
    sub = kernels._Subtrees()
    a, b = sub.compile(t1), sub.compile(t2)
    memo = {}
    kernels._tree_pair(kind, a, b, lam, mu, sub, memo)
    key = sub.labels if kind == "PTK" else sub.prods
    buckets = kernels._buckets(sub.forest, b)
    return math.fsum(memo[s1, s2]
                     for s1, c1 in kernels._nodes(sub.forest, a)
                     for s2, c2 in buckets.get(key[s1], ())
                     for _ in range(c1 * c2))


class TestSharedSubtrees:
    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("lam,mu", [(0.4, 0.4), (0.9, 0.2), (1.0, 1.0)])
    @pytest.mark.parametrize("kind", ["PTK", "STK"])
    def test_matrices_equal_fresh_per_pair_calls(self, kind, lam, mu,
                                                 normalize):
        trees, ex = shared_forest()
        cfg = KernelConfig(use_tk=True, use_sim=False, tk_kind=kind, lam=lam,
                           mu=mu, normalize_tk=normalize)
        cell = fresh_reference(trees, ex, cfg)
        assert hex_matrix(gram_matrix(ex, cfg)) == [
            [float.hex(cell(a, b)) for b in ex] for a in ex]
        rows, cols = [ex[1], ex[3], ex[6], ex[0]], [ex[0], ex[2], ex[4]]
        assert hex_matrix(kernel_matrix(rows, cols, cfg)) == [
            [float.hex(cell(a, b)) for b in cols] for a in rows]

    @pytest.mark.parametrize("lam,mu", PARAMS)
    def test_small_forest_matches_oracles(self, lam, mu):
        trees = ["(S (A a) (A a) (B b))", "(S (A a) (B b))",
                 "(A (A a) (A a))", "(S (B (A a)) (A a))"]
        ex = [example_with_trees(trees[k], trees[(k + 1) % 4], cid=f"c{k}")
              for k in range(4)]
        for kind, oracle in (("PTK", lambda a, b: ptk_bruteforce(
                a, b, lam, mu)), ("STK", lambda a, b: stk_bruteforce(
                a, b, lam))):
            cfg = KernelConfig(use_tk=True, use_sim=False, tk_kind=kind,
                               lam=lam, mu=mu, normalize_tk=False)
            G = gram_matrix(ex, cfg)
            for i, a in enumerate(ex):
                for j, b in enumerate(ex):
                    expected = (oracle(a.tree_first, b.tree_first)
                                + oracle(a.tree_second, b.tree_second))
                    assert G[i, j] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("lam,mu", [(0.4, 0.4), (0.9, 0.2), (1.0, 1.0),
                                        (0.05, 1.0)])
    @pytest.mark.parametrize("kind", ["PTK", "STK"])
    def test_repeated_subtrees_sum_as_their_expanded_terms(self, kind, lam,
                                                           mu):
        # a Δ met c1·c2 times enters the sum as c1·c2's power-of-two parts
        trees, _ = shared_forest()
        pairs = [(complete_tree(w, d), complete_tree(w, d))
                 for w, d in ((2, 5), (3, 4), (7, 2), (13, 1))]
        pairs += [(complete_tree(3, 3), complete_tree(2, 4)),
                  (trees[4], trees[4]), (trees[5], trees[0])]
        f = ptk if kind == "PTK" else stk
        for a, b in pairs:
            value = f(a, b, lam, mu) if kind == "PTK" else f(a, b, lam)
            assert float.hex(value) == float.hex(
                expanded_sum(kind, a, b, lam, mu))

    @pytest.mark.parametrize("copies", [2, 3])
    def test_a_repeated_finite_delta_whose_sum_overflows_raises(self, copies):
        # this λ puts Δ of the depth-11 subtrees at 1.5·2^1022: finite, but
        # their copies² pairs sum past the largest double (one term 4·Δ, or
        # the two terms Δ and 8·Δ)
        tree = "(R " + " ".join([complete_tree(2, 11)] * copies) + ")"
        with pytest.raises(OverflowError, match="intermediate overflow"):
            stk(tree, tree, 0.9045936108323791)

    def test_nothing_is_kept_between_calls(self):
        trees, ex = shared_forest()
        for lam in (0.4, 0.9, 0.4):
            cfg = KernelConfig(use_tk=True, use_sim=False, lam=lam)
            cell = fresh_reference(trees, ex, cfg)
            assert hex_matrix(gram_matrix(ex, cfg)) == [
                [float.hex(cell(a, b)) for b in ex] for a in ex]

    def test_work_is_logged(self, caplog):
        trees, ex = shared_forest()
        cfg = KernelConfig(use_tk=True, use_sim=False)
        with caplog.at_level("INFO", logger="qrerank.kernels"):
            gram_matrix(ex[:4], cfg)
            kernel_matrix(ex[:2], ex[2:5], cfg)
            gram_matrix(golden_examples(), KernelConfig())   # no trees
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2
        counts = [[int(x) for x in re.findall(r"\d+", m)] for m in messages]
        # 4·3 off-diagonal pairs and 2·4 self-kernels; 2·2·3 pairs and
        # 2·(2 + 3) self-kernels
        assert messages[0].startswith("gram_matrix: 20 tree pairs, ")
        assert messages[1].startswith("kernel_matrix: 22 tree pairs, ")
        # the tree blocks, as (row example, column examples): each
        # example's self-kernels, then each row against its columns
        selfs = [(i, [i]) for i in range(5)]
        gram = selfs[:4] + [(i, range(i)) for i in range(4)]
        scoring = selfs + [(i, range(2, 5)) for i in range(2)]
        for (_, subtrees, deltas, dp_runs), called, blocks in zip(
                counts, (ex[:4], ex[:5]), (gram, scoring)):
            texts = [t for e in called for t in (e.tree_first, e.tree_second)]
            _, labels, _, kids, forests = subtree_table(texts)
            # the distinct subtrees of the call's trees, rows and columns
            assert subtrees == len(labels)
            # per block, the distinct PTK-matched subtree pairs, and those
            # whose child lists are both non-empty and not both of length
            # 1, which run the DP
            nodes = [f[2:2 + f[0]] for f in forests]
            matched = [{(s1, s2) for j in cols for t in (0, 1)
                        for s1 in nodes[2 * i + t] for s2 in nodes[2 * j + t]
                        if labels[s1] == labels[s2]} for i, cols in blocks]
            assert deltas == sum(map(len, matched))
            assert dp_runs == len([
                (s1, s2) for pairs in matched for s1, s2 in pairs
                if kids[s1] and kids[s2]
                and (len(kids[s1]), len(kids[s2])) != (1, 1)])
            assert 0 < dp_runs < deltas

    def test_the_table_is_the_post_order_walk_of_the_trees(self):
        # the ids, keys and packed trees do not depend on the text's
        # spacing: as to_bracketed spaces it or not
        rng = make_rng(23)
        trees, _ = shared_forest()
        trees += [to_bracketed(random_tree(rng)) for _ in range(30)]
        trees += [to_bracketed(random_small_tree(rng)) for _ in range(30)]
        names, labels, prods, kids, forests = subtree_table(trees)
        for form in (lambda tree: tree,
                     lambda tree: f" {tree}\n"
                     .replace(" (", "\t(").replace(")", " ) ")):
            sub = kernels._Subtrees()
            at = [sub.compile(form(tree)) for tree in trees]
            assert list(sub.names) == names
            assert sub.labels.tolist() == labels
            assert sub.prods.tolist() == prods
            assert [tuple(sub.kid_ids[a:b]) for a, b in
                    zip(sub.kid_off, sub.kid_off[1:])] == kids
            assert [sub.forest[a:b].tolist() for a, b in
                    zip(at, [*at[1:], len(sub.forest)])] == forests


# ---------------------------------------------------------------------------
# the two engines: the classes above run on the default engine (the native
# one wherever it builds); their subclasses here rerun them on the Python
# engine, and the native engine is checked against it bit for bit
# ---------------------------------------------------------------------------

@pytest.fixture
def python_engine(monkeypatch):
    """Every kernel call in the test uses the Python engine."""
    monkeypatch.setattr(_native, "load", lambda: None)


@pytest.fixture
def native_engine():
    if _native.load() is None:
        pytest.skip("the native engine does not build or load here")


@pytest.mark.usefixtures("python_engine")
class TestGoldenValuesPython(TestGoldenValues):
    pass


@pytest.mark.usefixtures("python_engine")
class TestFastPathOraclesPython(TestFastPathOracles):
    pass


@pytest.mark.usefixtures("python_engine")
class TestDeepTreesPython(TestDeepTrees):
    pass


@pytest.mark.usefixtures("python_engine")
class TestSharedSubtreesPython(TestSharedSubtrees):
    pass


@pytest.mark.usefixtures("python_engine")
class TestGramFilePython(TestGramFile):
    """The Gram file needs no native engine: its round trips, RBF cells
    included, where none loads."""


@pytest.mark.usefixtures("python_engine")
class TestNonFiniteKernelsPython(TestNonFiniteKernels):
    pass


@pytest.mark.usefixtures("python_engine")
class TestGramPropertiesPython(TestGramProperties):
    pass


@pytest.mark.usefixtures("python_engine")
class TestStreamedGramPython(TestStreamedGram):
    pass


def random_forest(seed=5):
    """Examples over trees that share subtrees with each other and repeat
    them inside one tree, plus a node of 40 children and a 1,200-deep
    chain."""
    rng = make_rng(seed)
    pool = [random_tree(rng, max_depth=3, max_branch=3) for _ in range(6)]

    def tree():
        kids = [pool[rng.integers(len(pool))] if rng.random() < 0.6
                else random_tree(rng, max_depth=3, max_branch=3)
                for _ in range(rng.integers(1, 5))]
        return to_bracketed(SyntaxTree(str(rng.choice(["S", "NP", "VP"])),
                                       tuple(kids)))

    trees = [tree() for _ in range(10)]
    trees += [SHARED_TEXTS[4], wrapped_chain(1200, NP_VISA)]
    return [example_with_trees(trees[k], trees[(3 * k + 1) % len(trees)],
                               cid=f"c{k}") for k in range(len(trees))]


def both_engines(monkeypatch, compute):
    """compute() on the native engine, then on the Python engine."""
    native = compute()
    with monkeypatch.context() as m:
        m.setattr(_native, "load", lambda: None)
        return native, compute()


@pytest.mark.usefixtures("native_engine")
class TestNativeEngine:
    @pytest.mark.parametrize("normalize", [True, False])
    # (0.7, 0.3): the only pair here where (μλ)λ and μ(λλ) differ
    @pytest.mark.parametrize("lam,mu", [(0.4, 0.4), (0.9, 0.2), (1.0, 1.0),
                                        (0.05, 1.0), (0.7, 0.3)])
    @pytest.mark.parametrize("kind", ["PTK", "STK"])
    def test_matrices_equal_the_python_engine(self, monkeypatch, kind, lam,
                                              mu, normalize):
        ex = random_forest()
        cfg = KernelConfig(use_tk=True, use_sim=False, tk_kind=kind, lam=lam,
                           mu=mu, normalize_tk=normalize)
        native, python = both_engines(monkeypatch, lambda: (
            hex_matrix(gram_matrix(ex, cfg)),
            hex_matrix(kernel_matrix(ex[::3], ex[1::2], cfg))))
        assert native == python

    def test_random_pairs_equal_the_python_engine(self, monkeypatch):
        rng = make_rng(61)
        pairs = [(to_bracketed(random_small_tree(rng)),
                  to_bracketed(random_small_tree(rng))) for _ in range(200)]
        native, python = both_engines(monkeypatch, lambda: [
            float.hex(f(a, b, *p)) for a, b in pairs
            for f, p in ((ptk, (0.4, 0.4)), (ptk, (1.0, 1.0)),
                         (stk, (0.9,)))])
        assert native == python

    # (3, 10): 88,573 nodes, whose deepest shared subtrees pair up 3^18
    # times; adding each Δ once per pair ran out of memory (Python) or
    # took 25 s (native)
    @pytest.mark.parametrize("width,depth", [(2, 9), (2, 10), (2, 11),
                                             (3, 6), (3, 7), (3, 10)])
    def test_overflowing_kernels_equal_the_python_engine(self, monkeypatch,
                                                         width, depth):
        # λ = μ = 1 on a complete tree of identical subtrees: finite, then
        # inf (a Δ overflows), then nan (inf − inf in PTK's DP)
        tree = complete_tree(width, depth)
        native, python = both_engines(monkeypatch, lambda: [
            float.hex(stk(tree, tree, 1.0)),
            float.hex(ptk(tree, tree, 1.0, 1.0))])
        assert native == python

    @pytest.mark.parametrize("kind,call", [("PTK", "gram_matrix"),
                                           ("STK", "gram_matrix"),
                                           ("PTK", "kernel_matrix")])
    def test_log_names_the_engine(self, monkeypatch, caplog, kind, call):
        ex = random_forest()[:4]
        cfg = KernelConfig(use_tk=True, use_sim=False, tk_kind=kind)
        with caplog.at_level("INFO", logger="qrerank.kernels"):
            both_engines(monkeypatch, lambda: gram_matrix(ex, cfg)
                         if call == "gram_matrix"
                         else kernel_matrix(ex[:2], ex[1:], cfg))
        native, python = [r.getMessage() for r in caplog.records]
        assert native.startswith(f"{call}: ")
        assert native.endswith(", native engine")
        assert python.endswith(", python engine")
        # the same tree pairs, subtrees, Δ values and DP runs
        assert (native.removesuffix(", native engine")
                == python.removesuffix(", python engine"))
        dp_runs = int(re.search(r"(\d+) child-block DP runs", native)[1])
        assert (dp_runs > 0) == (kind == "PTK")


def fresh_loader(monkeypatch, tmp_path):
    """Make the loader one that has not run yet in this process, with an
    empty cache directory of its own; returns that directory."""
    monkeypatch.setattr(_native, "_engine", _native._UNTRIED)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "qrerank"


def warnings_of(caplog):
    return [r.getMessage() for r in caplog.records
            if r.levelname == "WARNING"]


@pytest.mark.usefixtures("native_engine")
class TestBuildAndFallback:
    def test_without_a_compiler_one_warning_and_the_same_bits(
            self, monkeypatch, tmp_path, caplog):
        ex = random_forest()[:5]
        cfg = KernelConfig(use_tk=True, use_sim=False)
        native = hex_matrix(gram_matrix(ex, cfg))
        fresh_loader(monkeypatch, tmp_path)
        monkeypatch.setenv("PATH", str(tmp_path))     # no cc, no gcc
        with caplog.at_level("INFO"):
            first = hex_matrix(gram_matrix(ex, cfg))
            again = hex_matrix(kernel_matrix(ex[:2], ex, cfg))
        assert warnings_of(caplog) == [
            "native engine unavailable (no C compiler: neither "
            "cc nor gcc is on PATH); using the Python engine"]
        assert first == native
        assert again == [row[:] for row in native[:2]]
        assert all(m.endswith("python engine") for m in
                   (r.getMessage() for r in caplog.records
                    if r.levelname == "INFO"))

    def test_compiler_error_is_named(self, monkeypatch, tmp_path, caplog):
        cache = fresh_loader(monkeypatch, tmp_path)
        broken = tmp_path / "_tk.c"
        broken.write_text("int qrerank_tree_block(void) { return }\n")
        monkeypatch.setattr(_native, "SOURCE", broken)
        with caplog.at_level("WARNING"):
            assert _native.load() is None
        message, = warnings_of(caplog)
        assert "failed: " in message and "error" in message
        assert list(cache.iterdir()) == []          # no temporary left

    def test_load_error_is_named(self, monkeypatch, tmp_path, caplog):
        fresh_loader(monkeypatch, tmp_path)
        library = _native._library()
        library.write_bytes(b"not a shared library")
        with caplog.at_level("WARNING"):
            assert _native.load() is None
        message, = warnings_of(caplog)
        assert message.startswith(
            f"native engine unavailable (cannot load {library}: ")

    def test_a_second_process_loads_the_cached_library(self, tmp_path):
        cache = tmp_path / "cache"
        probe = ("from qrerank import _native; "
                 "print(_native.load() is not None)")
        src = str(Path(_native.__file__).parent.parent)
        env = dict(os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=src)

        def run(**extra):
            done = subprocess.run([sys.executable, "-c", probe],
                                  env=dict(env, **extra), capture_output=True,
                                  text=True, check=True)
            return done.stdout.strip()

        assert run() == "True"
        library, = (cache / "qrerank").iterdir()
        assert (cache / "qrerank").stat().st_mode & 0o777 == 0o700
        before = library.stat()
        empty = tmp_path / "bin"
        empty.mkdir()
        assert run(PATH=str(empty)) == "True"         # no compiler needed
        after = library.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                     before.st_mtime_ns)


# ---------------------------------------------------------------------------
# the native rows against the Python engine's, and the Gram files of both
# engines
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("native_engine")
class TestNativeGramWriter:
    """The native engine's Gram rows, every block of them: bit for bit the
    Python engine's, so the files and the matrices read back are the
    same."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bench_shaped_gram_files_are_byte_identical(
            self, monkeypatch, tmp_path, seed):
        # 300 examples of 20 similarities in [0, 1] and the inverse rank
        # of 10 candidates, RBF + linear rank, as the taskB-sim workload
        rng = make_rng(seed)
        ex = [Example(query_id=f"q{k // 10}", candidate_id=f"c{k}", label=1,
                      original_rank=k % 10 + 1, vec=rng.uniform(size=20))
              for k in range(300)]
        cfgs = [KernelConfig(use_rank=True),
                KernelConfig(use_rank=True, rank_kernel="RBF", gamma=0.7)]

        def run():
            out = []
            for cfg in cfgs:
                path = tmp_path / f"{len(out)}-{_native.load() is None}.gram"
                save_gram(path, gram_matrix(ex, cfg), config_fingerprint(cfg))
                G, _ = load_gram(path)
                out += [path.read_bytes(), G.tobytes(),
                        kernel_matrix(ex[:40], ex, cfg).tobytes()]
            return out

        native, python = both_engines(monkeypatch, run)
        assert native == python

    @pytest.mark.parametrize("cfg", ONE_CELL_CONFIGS)
    def test_write_gram_files_are_byte_identical(self, monkeypatch,
                                                 tmp_path, cfg):
        ex = make_examples(make_rng(83), 24)

        def run():
            path = tmp_path / f"{_native.load() is None}.gram"
            write_gram(path, ex, cfg)
            return path.read_bytes()

        native, python = both_engines(monkeypatch, run)
        assert native == python

    def test_exp_is_math_exp(self):
        # RBF cells over squared distances from 0 to past the point where
        # exp underflows to 0 (about 745): each libm's exp of its
        # fixed-order sum, the function math.exp calls
        rng = make_rng(23)
        vecs = rng.normal(size=(200, 4)) * rng.uniform(0.0, 12.0, (200, 1))
        ex = [vec_example(v, f"c{k}") for k, v in enumerate(vecs)]
        G = gram_matrix(ex, KernelConfig(gamma=1.0))
        assert G.min() == 0.0
        assert G.tobytes() == np.array(
            [[math.exp(-1.0 * squared_distance(u, v)) for v in vecs]
             for u in vecs]).tobytes()

    def test_log_lines(self, monkeypatch, tmp_path, caplog):
        G = np.arange(9.0).reshape(3, 3) / 3.0
        path = tmp_path / "g.gram"
        with caplog.at_level("INFO", logger="qrerank.kernels"):
            both_engines(monkeypatch,
                         lambda: (save_gram(path, G, "fp"), load_gram(path)))
        size = path.stat().st_size
        lines = [re.sub(r"\d+\.\d{3} s", "S s", r.getMessage())
                 for r in caplog.records]
        assert lines == [f"save_gram: n 3, {size} bytes, S s",
                         f"load_gram: n 3, {size} bytes, S s"] * 2
