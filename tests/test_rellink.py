"""Lexical REL-linking of phrase nodes between question trees, as text."""

import pytest

from qrerank.config import DEFAULT_PHRASE_LABELS
from qrerank.errors import DataError
from qrerank.features import load_stopwords
from qrerank.rellink import RelConfig, rel_link
from qrerank.treebank import (
    SyntaxTree,
    TreeParseError,
    parse_bracketed,
    to_bracketed,
    tokens,
)

from conftest import NONTERMINALS, TOKENS, make_rng, random_tree
from oracles import rel_link_tree


def leaves(text):
    toks = tokens(text)
    return [t for p, t in zip(toks, toks[1:]) if p != "(" and t not in "()"]


class TestMarking:
    def test_shared_noun_marks_np(self):
        x = "(S (NP (DT the) (NN visa)) (VP (VB expired)))"
        y = "(S (NP (PRP i)) (VP (VB need) (NP (DT a) (NN visa))))"
        assert rel_link(x, y) == \
            "(S (REL-NP (DT the) (NN visa)) (VP (VB expired)))"

    def test_no_overlap_returns_equal_tree(self):
        x = "(S (NP (DT the) (NN cat)) (VP (VBD sat)))"
        assert rel_link(x, "(S (NP (NN visa)))") == x

    def test_unmarked_subtrees_are_written_unchanged(self):
        x = "(S (NP (NN visa)) (VP (VB eat) (NP (NN food))))"
        y = "(S (NP (NN visa)))"
        assert rel_link(x, y) == \
            "(S (REL-NP (NN visa)) (VP (VB eat) (NP (NN food))))"
        assert rel_link(x, "(S (NP (NN cat)))") == x

    def test_asymmetry(self):
        x = "(S (NP (NN visa)))"
        y = "(S (VP (VB get) (NP (NN visa))))"
        assert rel_link(x, y) == "(S (REL-NP (NN visa)))"
        # y's VP also yields "visa" via its NP child, so both get marked
        assert rel_link(y, x) == "(S (REL-VP (VB get) (REL-NP (NN visa))))"

    def test_only_phrase_labels_marked(self):
        x = "(S (NP (NN visa)) (ADJP (JJ visa)))"
        assert rel_link(x, "(S (NP (NN visa)))") == \
            "(S (REL-NP (NN visa)) (ADJP (JJ visa)))"

    def test_preterminals_not_marked(self):
        # NN is not in the phrase set, so only the NP above it changes
        assert rel_link("(NP (NN visa))", "(NP (NN visa))") == \
            "(REL-NP (NN visa))"

    def test_case_folding_default(self):
        assert rel_link("(S (NP (NN Visa)))", "(S (NP (NN VISA)))") == \
            "(S (REL-NP (NN Visa)))"

    def test_case_sensitive_mode(self):
        cfg = RelConfig(case_insensitive=False)
        x = "(S (NP (NN Visa)))"
        assert rel_link(x, "(S (NP (NN visa)))", cfg) == x

    def test_stopwords_do_not_link(self):
        x = "(S (NP (DT the) (NN cat)))"
        assert rel_link(x, "(S (NP (DT the) (NN visa)))",
                        stopwords=frozenset({"the"})) == x

    @pytest.mark.parametrize("case_insensitive", [False, True])
    def test_stopwords_from_a_file_compare_as_written(self, tmp_path,
                                                       case_insensitive):
        # a stopword file's words are not folded for a case-sensitive link
        path = tmp_path / "stop.txt"
        path.write_text("NASA\n", encoding="utf-8")
        x = "(S (NP (NNP NASA)) (VP (VBZ launches)))"
        y = "(S (NP (NNP NASA)) (VP (VBD failed)))"
        cfg = RelConfig(case_insensitive=case_insensitive)
        for stopwords in (load_stopwords(path), frozenset({"NASA"})):
            assert rel_link(x, y, cfg, stopwords) == x
        cfg = RelConfig(case_insensitive=False)
        assert rel_link(x, y, cfg, frozenset({"nasa"})) == \
            "(S (REL-NP (NNP NASA)) (VP (VBZ launches)))"

    def test_min_shared_tokens_threshold(self):
        x = "(S (NP (NN visa) (NN work)))"
        y = "(S (NP (NN visa) (NN fees)))"
        assert rel_link(x, y, RelConfig(min_shared_tokens=1)) == \
            "(S (REL-NP (NN visa) (NN work)))"
        assert rel_link(x, y, RelConfig(min_shared_tokens=2)) == x

    def test_distinct_tokens_counted_once(self):
        # "visa" twice in the yield is still one distinct shared token
        x = "(S (NP (NN visa) (NN visa)))"
        assert rel_link(x, "(S (NP (NN visa)))",
                        RelConfig(min_shared_tokens=2)) == x

    def test_custom_phrase_labels(self):
        cfg = RelConfig(phrase_labels=frozenset({"ADJP"}))
        x = "(S (NP (NN visa)) (ADJP (JJ visa)))"
        assert rel_link(x, "(S (NP (NN visa)))", cfg) == \
            "(S (NP (NN visa)) (REL-ADJP (JJ visa)))"

    def test_macro_roots_pass_through(self):
        x = "(ROOT (S (NP (NN visa))) (S (NP (NN fees))))"
        y = "(ROOT (S (NP (NN visa))))"
        assert rel_link(x, y) == \
            "(ROOT (S (REL-NP (NN visa))) (S (NP (NN fees))))"


class TestValidation:
    def test_double_linking_rejected(self):
        y = "(S (NP (NN visa)))"
        once = rel_link("(S (NP (NN visa)))", y)
        with pytest.raises(DataError,
                           match="^tree already carries a 'REL-' label: "
                                 "'REL-NP'$"):
            rel_link(once, y)

    def test_the_first_rel_label_in_post_order_is_named(self):
        with pytest.raises(DataError, match="'REL-NP'$"):
            rel_link("(REL-S (A (REL-NP x)))", "(S y)")

    def test_rel_leaf_token_is_fine(self):
        # a surface token that happens to start with REL- is not a label
        x = "(S (NP (NN REL-ATED)))"
        assert rel_link(x, "(S (NP (NN nothing)))") == x

    def test_malformed_trees_raise_the_grammar_errors(self):
        with pytest.raises(TreeParseError, match="missing '\\)'"):
            rel_link("(S (NP x)", "(S x)")
        with pytest.raises(TreeParseError, match="trailing content"):
            rel_link("(S x)", "(S x) y")

    def test_min_shared_tokens_validated(self):
        with pytest.raises(DataError):
            RelConfig(min_shared_tokens=0)


def random_config(rng):
    """A REL config drawn at random, phrase labels, threshold 1-3 and case
    folding, and stopwords (in mixed case) drawn with it."""
    labels = [label for label in NONTERMINALS if rng.random() < 0.5]
    stop = [t.upper() if rng.random() < 0.5 else t
            for t in TOKENS if rng.random() < 0.2]
    return RelConfig(phrase_labels=frozenset(labels),
                     min_shared_tokens=int(rng.integers(1, 4)),
                     case_insensitive=bool(rng.random() < 0.5)), \
        frozenset(stop)


def random_case(rng, tree):
    """``tree`` with about a third of its leaves upper-cased."""
    if tree.is_leaf:
        return SyntaxTree(tree.label.upper() if rng.random() < 0.3
                          else tree.label)
    return SyntaxTree(tree.label,
                      tuple(random_case(rng, c) for c in tree.children))


class TestOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_text_linking_equals_linking_the_tree_objects(self, seed):
        rng = make_rng(seed)
        for _ in range(200):
            cfg, stopwords = (
                random_config(rng) if rng.random() < 0.8
                else (RelConfig(phrase_labels=DEFAULT_PHRASE_LABELS),
                      frozenset()))
            x, y = (random_case(rng, random_tree(rng, max_depth=6,
                                                 max_branch=4))
                    for _ in range(2))
            if rng.random() < 0.3:
                y = SyntaxTree("ROOT", (y, random_tree(rng, max_depth=4)))
            x, y = to_bracketed(x), to_bracketed(y)
            assert rel_link(x, y, cfg, stopwords) == \
                rel_link_tree(x, y, cfg, stopwords)

    @pytest.mark.parametrize("seed", range(3))
    def test_a_rel_label_raises_the_oracle_error(self, seed):
        rng = make_rng(seed)
        for _ in range(50):
            x = to_bracketed(random_tree(rng, max_depth=5, max_branch=3))
            toks = tokens(x)
            labels = [k for k, p in enumerate(toks[:-1], 1) if p == "("]
            for k in labels:
                if rng.random() < 0.3:
                    toks[k] = "REL-" + toks[k]
            bad = " ".join(toks)
            if "REL-" not in bad:
                continue
            with pytest.raises(DataError) as want:
                rel_link_tree(bad, x, RelConfig())
            with pytest.raises(DataError) as got:
                rel_link(bad, x)
            assert str(got.value) == str(want.value)


class TestProperties:
    def test_spacing_of_the_input_does_not_matter(self):
        x = " (S\t(NP  (NN visa))\n(VP (VB go)))  "
        y = "(S (NP (NN visa)))"
        assert rel_link(x, y) == rel_link(to_bracketed(parse_bracketed(x)), y)
        assert rel_link(x, y) == "(S (REL-NP (NN visa)) (VP (VB go)))"

    def test_structure_preserved(self):
        rng = make_rng(5)
        for _ in range(100):
            x = to_bracketed(random_tree(rng, max_depth=5, max_branch=3))
            y = to_bracketed(random_tree(rng, max_depth=5, max_branch=3))
            out = rel_link(x, y)
            assert out.replace("REL-", "") == x
            assert leaves(out) == leaves(x)

    def test_growing_y_never_unmarks(self):
        # adding text to y can only add REL marks, never remove them
        rng = make_rng(9)
        for _ in range(50):
            x = to_bracketed(random_tree(rng, max_depth=5, max_branch=3))
            y_small = to_bracketed(random_tree(rng, max_depth=4, max_branch=2))
            y_big = (f"(ROOT {y_small} "
                     f"{to_bracketed(random_tree(rng, max_depth=4))})")
            out_small = tokens(rel_link(x, y_small))
            out_big = tokens(rel_link(x, y_big))
            for a, b in zip(out_small, out_big):
                if a.startswith("REL-"):
                    assert b == a


class TestDeterminism:
    def test_repeatable(self):
        x = "(S (NP (NN visa) (NN work)) (VP (VB get) (NP (NN visa))))"
        y = "(S (VP (VB need) (NP (NN work) (NN visa))))"
        assert rel_link(x, y) == rel_link(x, y)


class TestDeepTrees:
    DEPTH = 1200

    def chain(self, token, labels=("NP0", "NP1")):
        return ("".join(f"({labels[k % 2]} " for k in range(self.DEPTH))
                + token + ")" * self.DEPTH)

    def test_deep_chain_links_every_phrase(self):
        cfg = RelConfig(phrase_labels=frozenset({"NP0"}))
        out = rel_link(self.chain("Visa"), "(S (NN visa))", cfg)
        assert out == self.chain("Visa", ("REL-NP0", "NP1"))

    def test_deep_chain_without_match_is_equal(self):
        x = self.chain("visa")
        out = rel_link(x, self.chain("permit"),
                       RelConfig(phrase_labels=frozenset({"NP0", "NP1"})))
        assert out == x

    def test_rel_label_deep_down_rejected(self):
        x = ("".join(f"(NP{k % 2} " for k in range(self.DEPTH)) + "(REL-NP x)"
             + ")" * self.DEPTH)
        with pytest.raises(DataError, match="REL-NP"):
            rel_link(x, "(S x)")
