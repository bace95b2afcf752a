"""Tree kernels against brute-force enumeration oracles, plus the pair kernel,
vector kernels, Gram assembly, the Gram cache file, and the native engine
(tree kernels, exponentials, Gram file writer): bit for bit and byte for byte
against the Python engine, its build cache and its fallback."""

import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qrerank import _native, kernels
from qrerank.errors import DataError, NumericalError
from qrerank.kernels import (
    Example,
    KernelConfig,
    combined_kernel,
    config_fingerprint,
    gram_matrix,
    kernel_matrix,
    load_gram,
    normalize_kernel,
    pair_tk,
    ptk,
    rbf,
    save_gram,
    stk,
)
from qrerank.treebank import SyntaxTree, parse_bracketed

from conftest import make_examples, make_rng, random_small_tree, random_tree
from oracles import ptk_bruteforce, stk_bruteforce


def t(s):
    return parse_bracketed(s)


class TestSTK:
    def test_no_shared_production_is_zero(self):
        assert stk(t("(S (A a))"), t("(S (B b))"), 1.0) == 0.0

    def test_self_kernel_counts_fragments(self):
        T = t("(S (A a) (B b))")
        assert stk(T, T, 1.0) == pytest.approx(6.0, abs=1e-12)

    def test_decay_weighted_self_kernel(self):
        T = t("(S (A a) (B b))")
        # the S production contributes 0.4·1.4², the two preterminals 0.4 each
        assert stk(T, T, 0.4) == pytest.approx(1.584, abs=1e-12)

    def test_matches_bruteforce_on_random_trees(self):
        rng = make_rng(101)
        trees = [random_small_tree(rng, max_nodes=8) for _ in range(60)]
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
            t1 = random_small_tree(rng, max_nodes=8)
            t2 = random_small_tree(rng, max_nodes=8)
            assert stk(t1, t2, 0.4) == stk(t2, t1, 0.4)

    def test_lambda_validated(self):
        T = t("(S (A a))")
        with pytest.raises(DataError):
            stk(T, T, 0.0)
        with pytest.raises(DataError):
            stk(T, T, 1.5)


class TestPTK:
    def test_label_mismatch_is_zero(self):
        assert ptk(SyntaxTree("X"), SyntaxTree("Y"), 1.0, 1.0) == 0.0

    def test_single_node_base_case(self):
        assert ptk(SyntaxTree("X"), SyntaxTree("X"), 1.0, 1.0) == pytest.approx(1.0)
        assert ptk(SyntaxTree("X"), SyntaxTree("X"), 0.4, 0.5) == pytest.approx(
            0.5 * 0.4 * 0.4)

    def test_preterminal_self_kernel(self):
        A = t("(A a)")
        # fragments: a alone, A alone, (A a)
        assert ptk(A, A, 1.0, 1.0) == pytest.approx(3.0)

    def test_matches_bruteforce_on_random_trees(self):
        rng = make_rng(202)
        trees = [random_small_tree(rng, max_nodes=8) for _ in range(60)]
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
            t1 = random_small_tree(rng, max_nodes=8)
            t2 = random_small_tree(rng, max_nodes=8)
            assert ptk(t1, t2, 0.4, 0.4) == ptk(t2, t1, 0.4, 0.4)

    def test_parameters_validated(self):
        T = t("(A a)")
        with pytest.raises(DataError):
            ptk(T, T, 0.0, 0.4)
        with pytest.raises(DataError):
            ptk(T, T, 0.4, 1.0001)


class TestLabelIdentityInvariance:
    def test_consistent_relabeling_preserves_kernels(self):
        # tags are ordinary label text: renaming labels bijectively on both
        # trees cannot change either kernel value
        rng = make_rng(31)
        prefix = lambda node: SyntaxTree(
            "REL-" + node.label, tuple(prefix(c) for c in node.children))
        for _ in range(20):
            t1 = random_small_tree(rng, max_nodes=8)
            t2 = random_small_tree(rng, max_nodes=8)
            assert stk(prefix(t1), prefix(t2), 0.4) == pytest.approx(
                stk(t1, t2, 0.4), abs=1e-12)
            assert ptk(prefix(t1), prefix(t2), 0.4, 0.4) == pytest.approx(
                ptk(t1, t2, 0.4, 0.4), abs=1e-12)

    def test_rel_marks_do_change_matching(self):
        plain = t("(S (NP (NN visa)))")
        marked = t("(S (REL-NP (NN visa)))")
        assert stk(plain, marked, 1.0) < stk(plain, plain, 1.0)


class TestNormalizeKernel:
    def test_self_normalization_is_one(self):
        assert normalize_kernel(3.7, 3.7, 3.7) == pytest.approx(1.0)

    def test_arithmetic_identity(self):
        assert normalize_kernel(2.0, 4.0, 4.0) == pytest.approx(0.5)

    def test_degenerate_self_kernel_rejected(self):
        with pytest.raises(NumericalError, match="degenerate self-kernel"):
            normalize_kernel(1.0, 0.0, 2.0)
        with pytest.raises(NumericalError):
            normalize_kernel(1.0, 2.0, -1.0)

    def test_normalized_stk_in_unit_interval(self):
        rng = make_rng(37)
        done = 0
        while done < 40:
            t1 = random_small_tree(rng, max_nodes=8)
            t2 = random_small_tree(rng, max_nodes=8)
            if t1.is_leaf or t2.is_leaf:
                continue  # a bare leaf has no productions: self-kernel 0
            k = normalize_kernel(stk(t1, t2, 0.4), stk(t1, t1, 0.4),
                                 stk(t2, t2, 0.4))
            assert 0.0 <= k <= 1.0 + 1e-12
            done += 1


def example_with_trees(first, second, qid="q1", cid="c1", rank=1):
    return Example(query_id=qid, candidate_id=cid, label=1,
                   original_rank=rank, tree_first=first, tree_second=second)


class TestPairTK:
    def test_self_similarity_is_two_when_normalized(self):
        e = example_with_trees(t("(S (A a) (B b))"), t("(S (B b))"))
        cfg = KernelConfig(use_tk=True, use_sim=False, tk_kind="STK")
        assert pair_tk(e, e, cfg) == pytest.approx(2.0, abs=1e-12)

    def test_symmetry_on_random_examples(self):
        rng = make_rng(41)
        cfg = KernelConfig(use_tk=True, use_sim=False, tk_kind="PTK")
        ex = make_examples(rng, 8)
        for i in range(len(ex)):
            for j in range(i, len(ex)):
                assert pair_tk(ex[i], ex[j], cfg) == pair_tk(ex[j], ex[i], cfg)

    def test_unnormalized_equals_oracle_sum(self):
        first_i = t("(S (A a) (B b))")
        second_i = t("(S (B b) (A a))")
        first_j = t("(S (A a) (A a))")
        second_j = t("(S (B b))")
        e_i = example_with_trees(first_i, second_i)
        e_j = example_with_trees(first_j, second_j, cid="c2")
        cfg = KernelConfig(use_tk=True, use_sim=False, tk_kind="STK",
                           lam=1.0, normalize_tk=False)
        expected = (stk_bruteforce(first_i, first_j, 1.0)
                    + stk_bruteforce(second_i, second_j, 1.0))
        assert pair_tk(e_i, e_j, cfg) == pytest.approx(expected, abs=1e-9)

    def test_missing_trees_rejected(self):
        e = Example(query_id="q", candidate_id="c", label=1, original_rank=1,
                    vec=np.zeros(3))
        cfg = KernelConfig(use_tk=True, use_sim=False)
        with pytest.raises(DataError, match="tree"):
            pair_tk(e, e, cfg)


class TestRBF:
    def test_zero_distance(self):
        v = np.array([0.3, -1.2, 4.0])
        assert rbf(v, v, 0.7) == pytest.approx(1.0)

    def test_scalar_value(self):
        assert rbf(np.array([0.0]), np.array([1.0]), 1.0) == pytest.approx(
            math.exp(-1.0))

    def test_monotone_in_distance(self):
        u = np.zeros(2)
        values = [rbf(u, np.array([d, 0.0]), 0.5) for d in (0.0, 0.5, 1.0, 2.0)]
        assert values == sorted(values, reverse=True)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DataError, match="dimension"):
            rbf(np.zeros(2), np.zeros(3), 1.0)

    def test_gamma_validated(self):
        # exp(-inf * 0) is NaN: an infinite gamma puts NaN on the diagonal
        for gamma in (0.0, math.inf, math.nan):
            with pytest.raises(DataError, match="gamma"):
                rbf(np.zeros(2), np.zeros(2), gamma)


class TestCombinedKernel:
    def test_rank_only_linear(self):
        e_i = Example(query_id="q", candidate_id="a", label=1,
                      original_rank=2, rank_value=0.5)
        e_j = Example(query_id="q", candidate_id="b", label=-1,
                      original_rank=4, rank_value=0.25)
        cfg = KernelConfig(use_sim=False, use_rank=True, rank_kernel="LINEAR")
        assert combined_kernel(e_i, e_j, cfg) == pytest.approx(0.125)

    def test_sim_only_identical_vectors(self):
        v = np.array([0.1, 0.9, 0.5])
        e_i = Example(query_id="q", candidate_id="a", label=1,
                      original_rank=1, vec=v)
        e_j = Example(query_id="q", candidate_id="b", label=1,
                      original_rank=2, vec=v.copy())
        assert combined_kernel(e_i, e_j, KernelConfig()) == pytest.approx(1.0)

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
        e = Example(query_id="q", candidate_id="a", label=1, original_rank=1,
                    vec=np.zeros(2))
        cfg = KernelConfig(use_sim=False, use_rank=True)
        with pytest.raises(DataError, match="rank block"):
            combined_kernel(e, e, cfg)

    def test_explicit_gamma_respected(self):
        e_i = Example(query_id="q", candidate_id="a", label=1,
                      original_rank=1, vec=np.array([0.0]))
        e_j = Example(query_id="q", candidate_id="b", label=1,
                      original_rank=2, vec=np.array([1.0]))
        cfg = KernelConfig(gamma=2.0)
        assert combined_kernel(e_i, e_j, cfg) == pytest.approx(math.exp(-2.0))


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
            "# qrerank-gram v1\n# fingerprint: fp\n# n: 3\n"
            "1\n"
            "0.10000000000000001 0.33333333333333331\n"
            "-0 4.9406564584124654e-324 2.5000000000000001e+300\n")
        G2, _ = load_gram(path)
        assert G2.tobytes() == G.tobytes()

    @pytest.mark.parametrize("rows,message", [
        (["1", "0.5 x", "1 1 1"], "bad number 'x' in row 1"),
        (["1", "0.5 1 2", "1 1 1"], "row 1 has 3 entries, expected 2"),
        (["1", "0.5 inf", "1 1 1"], "gram contains non-finite values"),
    ])
    def test_malformed_rows_named(self, tmp_path, rows, message):
        path = tmp_path / "gram.txt"
        path.write_text("# qrerank-gram v1\n# fingerprint: fp\n# n: 3\n"
                        + "\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(message)):
            load_gram(path)

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

    def test_larger_than_one_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kernels, "_CHUNK", 64)
        G = np.arange(400.0).reshape(20, 20) / 7.0
        save_gram(tmp_path / "gram.txt", G, "fp")
        rows = tmp_path.joinpath("gram.txt").read_text().splitlines()[3:]
        assert rows == [" ".join("%.17g" % v for v in G[i, :i + 1])
                        for i in range(20)]


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
        cfg = KernelConfig(vec_kernel="LINEAR")
        with pytest.raises(NumericalError, match=re.escape(
                "gram_matrix: non-finite kernel value inf at cell (0, 2)")):
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
        a, b = (t(s) for s in BRANCH_PAIRS[name])
        for t1, t2 in ((a, b), (a, a), (b, b)):
            assert ptk(t1, t2, lam, mu) == pytest.approx(
                ptk_bruteforce(t1, t2, lam, mu), rel=1e-12, abs=1e-12)
        assert ptk(a, b, lam, mu) == ptk(b, a, lam, mu)

    @pytest.mark.parametrize("name", sorted(BRANCH_PAIRS))
    @pytest.mark.parametrize("lam", [1.0, 0.4])
    def test_stk_matches_bruteforce(self, name, lam):
        a, b = (t(s) for s in BRANCH_PAIRS[name])
        for t1, t2 in ((a, b), (a, a), (b, b)):
            assert stk(t1, t2, lam) == pytest.approx(
                stk_bruteforce(t1, t2, lam), rel=1e-12, abs=1e-12)

    def test_random_wide_and_unary_trees_match_bruteforce(self):
        # a root with 5 or 6 children, each a unary chain of 0 to 2 nodes
        # over a leaf; "A" is both a token and a label
        rng = make_rng(307)

        def chain(depth):
            node = SyntaxTree(str(rng.choice(["a", "b", "A"])))
            for _ in range(depth):
                node = SyntaxTree(str(rng.choice(["A", "B"])), (node,))
            return node

        def wide():
            return SyntaxTree("S", tuple(chain(int(rng.integers(0, 3)))
                                         for _ in range(rng.integers(5, 7))))

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
                    rank_value=1.0 / (k + 1), tree_first=t(trees[k]),
                    tree_second=t(trees[9 - k]))
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
        a, b = (t(s) for s in BRANCH_PAIRS[name])
        assert ptk(a, b, lam, mu) == PTK[key]

    @pytest.mark.parametrize("key", sorted(STK))
    def test_stk(self, key):
        name, lam = key
        a, b = (t(s) for s in BRANCH_PAIRS[name])
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
                    vec=vecs[k], rank_value=1.0 / int(ranks[k]))
            for k in range(n)]


def per_cell_gram(examples, gamma):
    """RBF-vec + LINEAR-rank Gram in the per-cell form: one ``np.dot`` and
    one ``math.exp`` per cell, the sim block added to 0.0 before the rank
    block. The reference the row-wise code must equal bit for bit."""
    n = len(examples)
    G = np.empty((n, n))
    for i, e_i in enumerate(examples):
        for j in range(i, n):
            e_j = examples[j]
            d = e_i.vec - e_j.vec
            total = 0.0
            total += math.exp(-gamma * float(np.dot(d, d)))
            total += e_i.rank_value * e_j.rank_value
            G[i, j] = G[j, i] = total
    return G


# sha256 of gram_matrix(vector_examples(), KernelConfig(use_rank=True))
# .tobytes(), recorded with the per-cell code.
GRAM_300_SHA256 = ("45f496c5e24fe6cc3da9641d5a5a5e00"
                   "d207183bbcfe9131bc2345a3b07e6d3a")

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
        reference = per_cell_gram(ex, 1.0 / 20).tobytes()
        if hashlib.sha256(reference).hexdigest() != GRAM_300_SHA256:
            pytest.skip("this BLAS sums a 20-term dot product in another "
                        "order than the one the digest was recorded with")
        G = gram_matrix(ex, KernelConfig(use_rank=True))
        assert hashlib.sha256(G.tobytes()).hexdigest() == GRAM_300_SHA256

    @pytest.mark.parametrize("cfg", ONE_CELL_CONFIGS)
    def test_combined_kernel_is_the_matrix_cell(self, cfg):
        rng = make_rng(89)
        ex = make_examples(rng, 5)
        G = gram_matrix(ex, cfg)
        for i, e_i in enumerate(ex):
            for j, e_j in enumerate(ex):
                assert combined_kernel(e_i, e_j, cfg) == G[i, j]
        assert kernel_matrix(ex[3:], ex, cfg).tobytes() == G[3:].tobytes()

    def test_rbf_is_the_one_cell_form(self):
        rng = make_rng(97)
        u, v = rng.normal(size=20), rng.normal(size=20)
        d = u - v
        assert rbf(u, v, 0.3) == math.exp(-0.3 * float(np.dot(d, d)))


def checked_examples(dims=(4, 4, 4, 4), no_vec=(), no_rank=()):
    return [Example(query_id="q", candidate_id=f"c{k}", label=1,
                    original_rank=k + 1,
                    vec=None if k in no_vec else np.full(dim, 0.5),
                    rank_value=None if k in no_rank else 1.0 / (k + 1))
            for k, dim in enumerate(dims)]


NO_VEC = "similarity block enabled but example (q, c{}) has no feature vector"
NO_RANK = "rank block enabled but example (q, c{}) has no rank feature"
DIMS = "feature vectors disagree in dimension: ({},) vs ({},)"


class TestStackedChecks:
    """The checks run on whole blocks before any row; each message is the
    one the per-cell code raised for the same input."""

    CFG = KernelConfig(use_rank=True)

    @pytest.mark.parametrize("fault,message", [
        ({"no_vec": (2,)}, NO_VEC.format(2)),
        ({"no_rank": (2,)}, NO_RANK.format(2)),
        ({"dims": (4, 4, 5, 4)}, DIMS.format(4, 5)),
    ])
    def test_gram_matrix(self, fault, message):
        ex = checked_examples(**fault)
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            gram_matrix(ex, self.CFG)

    @pytest.mark.parametrize("fault,message", [
        ({"no_vec": (3,)}, NO_VEC.format(3)),      # a later column
        ({"no_vec": (1,)}, NO_VEC.format(1)),      # a later row
        ({"no_rank": (3,)}, NO_RANK.format(3)),
        ({"no_rank": (1,)}, NO_RANK.format(1)),
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
        unranked = checked_examples(no_rank=(0, 1, 2, 3))
        K = kernel_matrix(unranked[:1], unranked, KernelConfig())
        assert K.shape == (1, 4)

def deep_chain(depth, leaf="x"):
    """A unary chain N{depth-1} → … → N0 → leaf, built without recursion."""
    tree = SyntaxTree(leaf)
    for k in range(depth):
        tree = SyntaxTree(f"N{k}", (tree,))
    return tree


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
    """``base`` under a unary chain N{depth-1} → … → N0, without recursion."""
    tree = t(base)
    for k in range(depth):
        tree = SyntaxTree(f"N{k}", (tree,))
    return tree


def shared_forest():
    trees = [t(s) for s in SHARED_TEXTS]
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
    """Every leaf "a", every inner node "N" with ``width`` children."""
    tree = SyntaxTree("a")
    for _ in range(depth):
        tree = SyntaxTree("N", (tree,) * width)
    return tree


def expanded_sum(kind, t1, t2, lam, mu):
    """math.fsum of each matched subtree pair's Δ repeated c1·c2 times, the
    Δ values taken from a Python-engine evaluation's memo."""
    sub = kernels._Subtrees()
    a, b = sub.compile(t1), sub.compile(t2)
    memo = {}
    if kind == "PTK":
        kernels._ptk(a, b, lam, mu, sub, memo, {})
    else:
        kernels._stk(a, b, lam, sub, memo)
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
        texts = ["(S (A a) (A a) (B b))", "(S (A a) (B b))",
                 "(A (A a) (A a))", "(S (B (A a)) (A a))"]
        trees = [t(s) for s in texts]
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
        tree = SyntaxTree("R", (complete_tree(2, 11),) * copies)
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
        for pairs, subtrees, deltas, dp_runs in counts:
            assert 0 < dp_runs < deltas and 0 < subtrees


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
    pass


@pytest.mark.usefixtures("python_engine")
class TestNonFiniteKernelsPython(TestNonFiniteKernels):
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
        return SyntaxTree(str(rng.choice(["S", "NP", "VP"])), tuple(kids))

    trees = [tree() for _ in range(10)]
    trees += [t(SHARED_TEXTS[4]), wrapped_chain(1200, NP_VISA)]
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
        pairs = [(random_small_tree(rng), random_small_tree(rng))
                 for _ in range(200)]
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

    def test_log_names_the_engine(self, monkeypatch, caplog):
        ex = random_forest()[:4]
        cfg = KernelConfig(use_tk=True, use_sim=False)
        with caplog.at_level("INFO", logger="qrerank.kernels"):
            both_engines(monkeypatch, lambda: gram_matrix(ex, cfg))
        native, python = [r.getMessage() for r in caplog.records]
        assert native.endswith(", native engine")
        assert python.endswith(", python engine")
        # the same pairs and subtrees; the Python engine caches child
        # blocks, so it runs fewer DPs
        assert native.split(",")[:2] == python.split(",")[:2]


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
# the native exponentials and Gram file writer against the Python code
# ---------------------------------------------------------------------------

def native_g17(tmp_path, values):
    """The native writer's text of each value: the values are laid out
    row-major as the lower triangle of a square matrix and saved."""
    values = np.asarray(values, dtype=np.float64)
    m = math.isqrt(2 * len(values)) + 1
    G = np.zeros((m, m))
    cells = np.zeros(m * (m + 1) // 2)
    cells[:len(values)] = values
    G[np.tril_indices(m)] = cells
    save_gram(tmp_path / "values.gram", G, "fp")
    body = (tmp_path / "values.gram").read_bytes().split(b"\n", 3)[3]
    return body.decode("ascii").split()[:len(values)]


def dyadic_ties(rng, count):
    """Values t / 2^e whose exact decimal expansion has 18 significant
    digits, the last a 5: the 17-digit rounding is a tie."""
    from decimal import Decimal
    ties = []
    while len(ties) < count:
        e = int(rng.integers(1, 60))
        t = int(rng.integers(1, 2 ** 53)) | 1
        v = math.ldexp(float(t), -e)
        if len(Decimal(v).as_tuple().digits) == 18:
            ties.append(v)
    return ties


@pytest.mark.usefixtures("native_engine")
class TestNativeGramWriter:
    def test_writer_prints_what_python_prints(self, tmp_path):
        rng = make_rng(17)
        bits = rng.integers(0, 2 ** 64, size=500_000, dtype=np.uint64)
        # exponents of 1e-12 .. 1e17 and a random sign: the integer path
        near = (rng.integers(0x3d7, 0x439, size=500_000, dtype=np.uint64)
                << np.uint64(52)) | (bits & np.uint64(2 ** 52 - 1)) | (
            bits & np.uint64(2 ** 63))
        values = [v for v in np.concatenate([bits, near]).view(np.float64)
                  .tolist() if math.isfinite(v)]
        for k in range(-324, 309):
            p = float(f"1e{k}")
            values += [p, -p, math.nextafter(p, 0.0), math.nextafter(p, 2 * p)]
        values += dyadic_ties(rng, 2_000)
        values += [float(x) + 0.5 for x in rng.integers(2 ** 40, 2 ** 52, 200)]
        values += [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                   2.225073858507201e-308, 1.7e308, -1.7976931348623157e308,
                   1e-11, math.nextafter(1e-11, 0.0), 1e17,
                   math.nextafter(1e17, 0.0), 1e-7, 1e-5, 1e-4, 1e16, 0.1,
                   1.0 / 3.0, 123456789012345678.0]
        assert len(values) > 1_000_000
        assert native_g17(tmp_path, values) == ["%.17g" % v for v in values]

    def test_writer_falls_back_in_a_comma_locale(self, tmp_path):
        import locale
        G = np.array([[0.5, 2e-12], [2e-12, 1e300]])
        save_gram(tmp_path / "a.gram", G, "fp")
        saved = locale.setlocale(locale.LC_NUMERIC)
        for name in ("de_DE.UTF-8", "fr_FR.UTF-8", "ru_RU.UTF-8"):
            try:
                locale.setlocale(locale.LC_NUMERIC, name)
                break
            except locale.Error:
                continue
        else:
            pytest.skip("no locale with a decimal comma is installed")
        try:
            save_gram(tmp_path / "b.gram", G, "fp")
        finally:
            locale.setlocale(locale.LC_NUMERIC, saved)
        assert (tmp_path / "b.gram").read_bytes() == \
            (tmp_path / "a.gram").read_bytes()

    def test_writer_fallback_rewrites_the_rows(self, tmp_path, monkeypatch):
        # the native writer declines after its first chunk, as it would in
        # a locale whose decimal point is not '.': the rows it wrote are
        # truncated and the Python writer writes them all again
        G = np.arange(400.0).reshape(20, 20) / 7.0
        save_gram(tmp_path / "a.gram", G, "fp")
        engine = _native.load()
        calls = []

        def first_chunk_only(*args):
            calls.append(args)
            return engine.format_gram(*args) if len(calls) == 1 else -1

        monkeypatch.setattr(kernels, "_CHUNK", 64)
        monkeypatch.setattr(_native, "load", lambda: engine._replace(
            format_gram=first_chunk_only))
        save_gram(tmp_path / "b.gram", G, "fp")
        assert len(calls) == 2
        assert (tmp_path / "b.gram").read_bytes() == \
            (tmp_path / "a.gram").read_bytes()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bench_shaped_gram_files_are_byte_identical(
            self, monkeypatch, tmp_path, seed, caplog):
        # 300 examples of 20 similarities in [0, 1] and the inverse rank
        # of 10 candidates, RBF + linear rank, as the taskB-sim workload
        rng = make_rng(seed)
        ex = [Example(query_id=f"q{k // 10}", candidate_id=f"c{k}", label=1,
                      original_rank=k % 10 + 1, vec=rng.uniform(size=20),
                      rank_value=1.0 / (k % 10 + 1)) for k in range(300)]
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

        with caplog.at_level("INFO", logger="qrerank.kernels"):
            native, python = both_engines(monkeypatch, run)
        assert native == python
        engines = [r.getMessage().rsplit(", ", 1)[1] for r in caplog.records
                   if r.getMessage().startswith("save_gram")]
        assert engines == ["native engine"] * 2 + ["python engine"] * 2

    def test_log_lines(self, monkeypatch, tmp_path, caplog):
        G = np.arange(9.0).reshape(3, 3) / 3.0
        path = tmp_path / "g.gram"
        with caplog.at_level("INFO", logger="qrerank.kernels"):
            both_engines(monkeypatch,
                         lambda: (save_gram(path, G, "fp"), load_gram(path)))
        size = path.stat().st_size
        lines = [re.sub(r"\d+\.\d{3} s", "S s", r.getMessage())
                 for r in caplog.records]
        assert lines == [
            f"save_gram: n 3, {size} bytes, S s, native engine",
            f"load_gram: n 3, {size} bytes, S s",
            f"save_gram: n 3, {size} bytes, S s, python engine",
            f"load_gram: n 3, {size} bytes, S s"]

    def test_exp_is_math_exp(self):
        rng = make_rng(23)
        x = np.concatenate([-rng.exponential(30.0, 200_000),
                            rng.uniform(-746.0, 709.7, 200_000),
                            [0.0, -0.0, -math.inf, math.nan, 709.78, -745.2,
                             -745.13, -708.4, 1e-300, -1e-300]])
        assert kernels._exp(x).tobytes() == \
            np.array([math.exp(v) for v in x.tolist()]).tobytes()

    def test_exp_overflow_raises_as_math_exp(self, monkeypatch):
        x = np.array([0.0, 710.0])
        native, python = both_engines(monkeypatch, lambda: repr(
            pytest.raises(OverflowError, kernels._exp, x).value))
        assert native == python == repr(OverflowError("math range error"))
