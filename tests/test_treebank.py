"""Tree parsing, serialization round-trips, and macro-tree assembly."""

import pytest

from qrerank.errors import DataError
from qrerank.treebank import (
    SyntaxTree,
    TreeParseError,
    macro_tree,
    parse_bracketed,
    to_bracketed,
)

from conftest import make_rng, random_tree


class TestParse:
    def test_flat_tree(self):
        t = parse_bracketed("(S (A a) (B b))")
        assert t.label == "S"
        assert [c.label for c in t.children] == ["A", "B"]
        assert t.children[0].children[0].label == "a"
        assert t.children[0].children[0].is_leaf

    def test_whitespace_insensitive(self):
        a = parse_bracketed("(S (A a) (B b))")
        b = parse_bracketed("  (S(A a)\t(B\n b) ) ")
        assert a == b

    def test_labels_kept_verbatim(self):
        t = parse_bracketed("(NP-SBJ (-LRB- -LRB-) (NN x))")
        assert t.label == "NP-SBJ"
        assert t.children[0].label == "-LRB-"
        assert t.children[0].children[0].label == "-LRB-"

    def test_unicode_tokens(self):
        t = parse_bracketed("(S (NN café) (NN 北京))")
        assert t.leaves() == ["café", "北京"]

    @pytest.mark.parametrize(
        "bad",
        [
            "(S (A a)",          # missing close
            "(S (A a)))",        # extra close -> trailing garbage
            "( (A a))",          # empty label
            "(S)",               # no children
            "",                  # empty input
            "S (A a)",           # no opening paren
            "(S (A a)) (B b)",   # two trees on one line
        ],
    )
    def test_malformed_input_raises(self, bad):
        with pytest.raises(TreeParseError):
            parse_bracketed(bad)

    def test_error_names_byte_offset(self):
        try:
            parse_bracketed("(S (A a)")
        except TreeParseError as exc:
            assert exc.offset == 8
            assert "byte offset 8" in str(exc)
        else:
            pytest.fail("expected a parse error")

    def test_byte_offset_counts_utf8_bytes(self):
        # é is two bytes in UTF-8, so the char at index 7 sits at byte 8
        try:
            parse_bracketed("(S (A é)")
        except TreeParseError as exc:
            assert exc.offset == 9
        else:
            pytest.fail("expected a parse error")


class TestSerialize:
    def test_canonical_form(self):
        t = parse_bracketed(" (S  (A a)   (B b) )")
        assert to_bracketed(t) == "(S (A a) (B b))"

    def test_round_trip_random_trees(self):
        rng = make_rng(7)
        for _ in range(200):
            t = random_tree(rng, max_depth=6, max_branch=4)
            assert parse_bracketed(to_bracketed(t)) == t

    def test_serialization_is_deterministic(self):
        t = parse_bracketed("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")
        assert to_bracketed(t) == to_bracketed(t)


class TestDeepNesting:
    DEPTH = 1200

    def chain_text(self):
        return ("".join(f"(N{k} " for k in range(self.DEPTH)) + "x"
                + ")" * self.DEPTH)

    def test_deep_chain_round_trips(self):
        text = self.chain_text()
        tree = parse_bracketed(text)
        labels = [node.label for node in tree.iter_nodes()]
        assert labels == ["x"] + [f"N{k}" for k in reversed(range(self.DEPTH))]
        assert to_bracketed(tree) == text

    def test_deep_chain_built_in_code_serializes(self):
        tree = SyntaxTree("x")
        for k in reversed(range(self.DEPTH)):
            tree = SyntaxTree(f"N{k}", (tree,))
        assert to_bracketed(tree) == self.chain_text()

    def test_deep_chain_equality_and_hash(self):
        a = parse_bracketed(self.chain_text())
        b = parse_bracketed(self.chain_text())
        assert a is not b
        assert a == b and not (a != b)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        other = parse_bracketed(self.chain_text().replace(" x)", " y)", 1))
        assert a != other
        shorter = a.children[0]
        assert a != shorter and shorter != a

    def test_deep_chain_repr(self):
        tree = parse_bracketed(self.chain_text())
        text = repr(tree)
        assert text.startswith("SyntaxTree(label='N0', children=(SyntaxTree("
                               "label='N1', children=(")
        assert text.endswith("SyntaxTree(label='x', children=()),))"
                             + ",))" * (self.DEPTH - 1))

    def test_deep_unbalanced_input_names_offset(self):
        text = self.chain_text()[:-1]
        with pytest.raises(TreeParseError, match="missing '\\)'") as info:
            parse_bracketed(text)
        assert info.value.offset == len(text)


class TestMacroTree:
    def test_joins_under_fresh_root(self):
        s1 = parse_bracketed("(S (A a))")
        s2 = parse_bracketed("(S (B b))")
        m = macro_tree([s1, s2])
        assert m.label == "ROOT"
        assert m.children == (s1, s2)
        assert len(list(m.iter_nodes())) == \
            len(list(s1.iter_nodes())) + len(list(s2.iter_nodes())) + 1

    def test_single_sentence_still_wrapped(self):
        s = parse_bracketed("(S (A a))")
        m = macro_tree([s])
        assert m.label == "ROOT" and m.children == (s,)

    def test_custom_root_label(self):
        s = parse_bracketed("(S (A a))")
        assert macro_tree([s], root_label="TOP").label == "TOP"

    def test_empty_list_rejected(self):
        with pytest.raises(DataError):
            macro_tree([])


class TestDataclassSemantics:
    """The iterative ==, hash() and repr() agree with what a frozen
    dataclass generates, on shallow trees."""

    def test_repr_matches_dataclass_form(self):
        tree = parse_bracketed("(S (NP (DT the) (NN 'cat')) (VP (VBD sat)))")
        leaf = "SyntaxTree(label={!r}, children=())".format
        node = "SyntaxTree(label={!r}, children=({}))".format
        expected = node("S", ", ".join([
            node("NP", ", ".join([node("DT", leaf("the") + ","),
                                  node("NN", leaf("'cat'") + ",")])),
            node("VP", node("VBD", leaf("sat") + ",") + ","),
        ]))
        assert repr(tree) == expected

    def test_equal_random_trees_hash_equal(self):
        rng = make_rng(41)
        trees = [random_tree(rng, max_depth=4, max_branch=3)
                 for _ in range(100)]
        for a in trees:
            b = parse_bracketed(to_bracketed(a))
            assert a == b and hash(a) == hash(b)
        for a, b in zip(trees, trees[1:]):
            assert (a == b) == (to_bracketed(a) == to_bracketed(b))

    def test_other_types_compare_unequal(self):
        assert SyntaxTree("x") != "x"
        assert SyntaxTree("x").__eq__(("x", ())) is NotImplemented
