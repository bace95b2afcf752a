"""Lexical REL-linking of phrase nodes between question trees."""

import pytest

from qrerank.errors import DataError
from qrerank.rellink import RelConfig, rel_link
from qrerank.treebank import macro_tree, parse_bracketed, to_bracketed

from conftest import make_rng, random_tree


def t(s):
    return parse_bracketed(s)


class TestMarking:
    def test_shared_noun_marks_np(self):
        x = t("(S (NP (DT the) (NN visa)) (VP (VB expired)))")
        y = t("(S (NP (PRP i)) (VP (VB need) (NP (DT a) (NN visa))))")
        out = rel_link(x, y)
        assert to_bracketed(out) == "(S (REL-NP (DT the) (NN visa)) (VP (VB expired)))"

    def test_no_overlap_returns_equal_tree(self):
        x = t("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")
        y = t("(S (NP (NN visa)))")
        assert rel_link(x, y) == x

    def test_unmarked_subtrees_are_shared_not_copied(self):
        x = t("(S (NP (NN visa)) (VP (VB eat) (NP (NN food))))")
        y = t("(S (NP (NN visa)))")
        out = rel_link(x, y)
        assert to_bracketed(out) == \
            "(S (REL-NP (NN visa)) (VP (VB eat) (NP (NN food))))"
        assert out.children[1] is x.children[1]
        assert out.children[0].children[0] is x.children[0].children[0]
        assert rel_link(x, t("(S (NP (NN cat)))")) is x

    def test_asymmetry(self):
        x = t("(S (NP (NN visa)))")
        y = t("(S (VP (VB get) (NP (NN visa))))")
        out_x = rel_link(x, y)
        out_y = rel_link(y, x)
        assert to_bracketed(out_x) == "(S (REL-NP (NN visa)))"
        # y's VP also yields "visa" via its NP child, so both get marked
        assert to_bracketed(out_y) == "(S (REL-VP (VB get) (REL-NP (NN visa))))"

    def test_only_phrase_labels_marked(self):
        x = t("(S (NP (NN visa)) (ADJP (JJ visa)))")
        y = t("(S (NP (NN visa)))")
        out = rel_link(x, y)
        assert to_bracketed(out) == "(S (REL-NP (NN visa)) (ADJP (JJ visa)))"

    def test_preterminals_not_marked(self):
        # NN is not in the phrase set, so only the NP above it changes
        x = t("(NP (NN visa))")
        y = t("(NP (NN visa))")
        assert to_bracketed(rel_link(x, y)) == "(REL-NP (NN visa))"

    def test_case_folding_default(self):
        x = t("(S (NP (NN Visa)))")
        y = t("(S (NP (NN VISA)))")
        assert to_bracketed(rel_link(x, y)) == "(S (REL-NP (NN Visa)))"

    def test_case_sensitive_mode(self):
        cfg = RelConfig(case_insensitive=False)
        x = t("(S (NP (NN Visa)))")
        y = t("(S (NP (NN visa)))")
        assert rel_link(x, y, cfg) == x

    def test_stopwords_do_not_link(self):
        cfg = RelConfig(stopwords=frozenset({"the"}))
        x = t("(S (NP (DT the) (NN cat)))")
        y = t("(S (NP (DT the) (NN visa)))")
        assert rel_link(x, y, cfg) == x

    def test_min_shared_tokens_threshold(self):
        x = t("(S (NP (NN visa) (NN work)))")
        y = t("(S (NP (NN visa) (NN fees)))")
        assert to_bracketed(rel_link(x, y, RelConfig(min_shared_tokens=1))) == \
            "(S (REL-NP (NN visa) (NN work)))"
        assert rel_link(x, y, RelConfig(min_shared_tokens=2)) == x

    def test_distinct_tokens_counted_once(self):
        # "visa" twice in the yield is still one distinct shared token
        x = t("(S (NP (NN visa) (NN visa)))")
        y = t("(S (NP (NN visa)))")
        assert rel_link(x, y, RelConfig(min_shared_tokens=2)) == x

    def test_custom_phrase_labels(self):
        cfg = RelConfig(phrase_labels=frozenset({"ADJP"}))
        x = t("(S (NP (NN visa)) (ADJP (JJ visa)))")
        y = t("(S (NP (NN visa)))")
        out = rel_link(x, y, cfg)
        assert to_bracketed(out) == "(S (NP (NN visa)) (REL-ADJP (JJ visa)))"

    def test_macro_roots_pass_through(self):
        x = macro_tree([t("(S (NP (NN visa)))"), t("(S (NP (NN fees)))")])
        y = macro_tree([t("(S (NP (NN visa)))")])
        out = rel_link(x, y)
        assert out.label == "ROOT"
        assert to_bracketed(out.children[0]) == "(S (REL-NP (NN visa)))"
        assert to_bracketed(out.children[1]) == "(S (NP (NN fees)))"


class TestValidation:
    def test_double_linking_rejected(self):
        x = t("(S (NP (NN visa)))")
        y = t("(S (NP (NN visa)))")
        once = rel_link(x, y)
        with pytest.raises(DataError):
            rel_link(once, y)

    def test_rel_leaf_token_is_fine(self):
        # a surface token that happens to start with REL- is not a label
        x = t("(S (NP (NN REL-ATED)))")
        y = t("(S (NP (NN nothing)))")
        assert rel_link(x, y) == x

    def test_min_shared_tokens_validated(self):
        with pytest.raises(DataError):
            RelConfig(min_shared_tokens=0)


class TestProperties:
    def test_input_tree_never_mutated(self):
        x = t("(S (NP (NN visa)))")
        before = to_bracketed(x)
        rel_link(x, t("(S (NP (NN visa)))"))
        assert to_bracketed(x) == before

    def test_structure_preserved(self):
        rng = make_rng(5)
        strip = lambda s: s.replace("REL-", "")
        for _ in range(100):
            x = random_tree(rng, max_depth=5, max_branch=3)
            y = random_tree(rng, max_depth=5, max_branch=3)
            out = rel_link(x, y)
            assert strip(to_bracketed(out)) == to_bracketed(x)
            assert out.leaves() == x.leaves()

    def test_growing_y_never_unmarks(self):
        # adding text to y can only add REL marks, never remove them
        rng = make_rng(9)
        for _ in range(50):
            x = random_tree(rng, max_depth=5, max_branch=3)
            y_small = random_tree(rng, max_depth=4, max_branch=2)
            y_big = macro_tree([y_small, random_tree(rng, max_depth=4, max_branch=3)])
            out_small = rel_link(x, y_small)
            out_big = rel_link(x, y_big)
            for a, b in zip(out_small.iter_nodes(), out_big.iter_nodes()):
                if a.label.startswith("REL-"):
                    assert b.label == a.label


class TestDeterminism:
    def test_repeatable(self):
        x = t("(S (NP (NN visa) (NN work)) (VP (VB get) (NP (NN visa))))")
        y = t("(S (VP (VB need) (NP (NN work) (NN visa))))")
        assert rel_link(x, y) == rel_link(x, y)


class TestDeepTrees:
    DEPTH = 1200

    def chain(self, token):
        return t("".join(f"(NP{k % 2} " for k in range(self.DEPTH)) + token
                 + ")" * self.DEPTH)

    def test_deep_chain_links_every_phrase(self):
        cfg = RelConfig(phrase_labels=frozenset({"NP0"}))
        out = rel_link(self.chain("Visa"), t("(S (NN visa))"), cfg)
        labels = [n.label for n in out.iter_nodes()]
        assert labels[0] == "Visa"
        assert labels[1:] == [
            ("REL-NP0" if k % 2 == 0 else "NP1")
            for k in reversed(range(self.DEPTH))]

    def test_deep_chain_without_match_is_equal(self):
        x = self.chain("visa")
        out = rel_link(x, self.chain("permit"),
                       RelConfig(phrase_labels=frozenset({"NP0", "NP1"})))
        assert to_bracketed(out) == to_bracketed(x)
        assert out == x

    def test_rel_label_deep_down_rejected(self):
        x = t("".join(f"(NP{k % 2} " for k in range(self.DEPTH)) + "(REL-NP x)"
              + ")" * self.DEPTH)
        with pytest.raises(DataError, match="REL-NP"):
            rel_link(x, t("(S x)"))
