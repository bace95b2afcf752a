"""Tree parsing and serialization round-trips."""

import json
import re
import sys

import pytest

from qrerank import kernels
from qrerank.errors import DataError
from qrerank.pipeline import read_examples
from qrerank.treebank import (
    SyntaxTree,
    TreeParseError,
    parse_bracketed,
    to_bracketed,
    tokens,
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
        assert to_bracketed(a) == to_bracketed(b) == "(S (A a) (B b))"

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
            text = to_bracketed(random_tree(rng, max_depth=6, max_branch=4))
            assert to_bracketed(parse_bracketed(text)) == text

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

    def test_deep_unbalanced_input_names_offset(self):
        text = self.chain_text()[:-1]
        with pytest.raises(TreeParseError, match="missing '\\)'") as info:
            parse_bracketed(text)
        assert info.value.offset == len(text)


class TestDataclassSemantics:
    """A tree is a walkable view that compares by identity: trees compare
    by their text."""

    def test_trees_of_one_text_are_distinct_views(self):
        a, b = (parse_bracketed("(S (A a) (B b))") for _ in range(2))
        assert a != b and a == a and len({a, b}) == 2
        assert to_bracketed(a) == to_bracketed(b)

    def test_other_types_compare_unequal(self):
        assert SyntaxTree("x") != "x"
        assert SyntaxTree("x").__eq__(("x", ())) is NotImplemented


class TestLabels:
    @pytest.mark.parametrize("label", ["a b", "(", "NP)", "x y", "\x1c"])
    def test_a_label_with_whitespace_or_a_parenthesis_is_refused(self, label):
        # to_bracketed could not write such a node as text that reads back
        with pytest.raises(DataError, match="whitespace or a parenthesis"):
            SyntaxTree(label)

    @pytest.mark.parametrize("label", ["", None])
    def test_an_empty_label_is_refused(self, label):
        with pytest.raises(DataError, match="non-empty string"):
            SyntaxTree(label)


# the three readers of bracketed trees: each returns, or raises
# TreeParseError (the examples reader: DataError naming the file and line)
def _parse(text):
    parse_bracketed(text)


def _compile(text):
    kernels._Subtrees().compile(text)


def _read(text, path):
    record = {"query_id": "q1", "candidate_id": "c1", "label": 1,
              "original_rank": 1, "vec": None,
              "tree_first": text, "tree_second": None}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    read_examples(path)


FIXTURE_TREES = [
    "(S (A a) (B b))",
    "(S (NP (DT the) (NN cat)) (VP (VBD sat)))",
    "(NP-SBJ (-LRB- -LRB-) (NN x))",
    # multi-byte labels and tokens ahead of whatever a mutation breaks
    "(S (NN café) (NN 北京) (VP (VB 走) (NP (NN ünïcödé))))",
    " (S(A a)\t(B\n b) ) ",
    "(ROOT (S (WHADVP (WRB How)) (REL-VP (MD can) (NP (PRP I)))))",
]
# characters str.isspace accepts beyond ASCII: a file separator, an em
# space, a next-line
UNICODE_SPACES = ["\x1c", "\u2003", "\x85"]


def mutants(rng, text):
    """Seeded corruptions of one bracketed tree."""
    def at(chars):
        spots = [i for i, c in enumerate(text) if c in chars]
        return spots[int(rng.integers(len(spots)))]

    i = at("()")
    yield text[:i] + text[i + 1:]                       # a parenthesis dropped
    yield text[:i] + text[i] + text[i:]                 # ... or doubled
    i = at("(")
    j = i + 1 + len(text[i + 1:]) - len(text[i + 1:].lstrip())
    k = j + len(re.match(r"[^\s()]*", text[j:]).group())
    yield text[:j] + text[k:]                           # a label emptied
    yield text[:i + 1] + ")" + text[i + 1:]             # "()"
    yield text + rng.choice([" x", " (X x)", ")", " ("])    # trailing
    yield text[:int(rng.integers(len(text)))]           # truncated
    space = UNICODE_SPACES[int(rng.integers(len(UNICODE_SPACES)))]
    i = int(rng.integers(len(text) + 1))
    yield text[:i] + space + text[i:]                   # a space anywhere
    yield text.replace(" ", space)                      # every space
    yield space + text + space


@pytest.mark.parametrize("seed", range(6))
def test_the_three_readers_agree_on_acceptance_and_errors(seed, tmp_path):
    rng = make_rng(seed)
    texts = ["", " ", "\u2003", "x", "()", "(S)", ")"]
    for tree in FIXTURE_TREES:
        texts.append(tree)
        for _ in range(5):
            texts.extend(mutants(rng, tree))
    path = tmp_path / "one.examples"
    messages = set()
    for text in texts:
        outcomes = []
        for read in (_parse, _compile, lambda t: _read(t, path)):
            try:
                read(text)
                outcomes.append("ok")
            except TreeParseError as exc:
                outcomes.append((str(exc), exc.offset))
            except DataError as exc:    # the reader names the file and line
                prefix = f"{path}:1: "
                assert str(exc).startswith(prefix), str(exc)
                offset = int(re.search(r"byte offset (\d+)\)$",
                                       str(exc)).group(1))
                outcomes.append((str(exc)[len(prefix):], offset))
        assert outcomes[0] == outcomes[1] == outcomes[2], (text, outcomes)
        if outcomes[0] == "ok":
            # the text and the parsed tree's text compile to the same forest
            a, b = kernels._Subtrees(), kernels._Subtrees()
            a.compile(text)
            b.compile(to_bracketed(parse_bracketed(text)))
            assert (a.forest, a.labels, a.prods, a.kid_ids, a.names) == \
                (b.forest, b.labels, b.prods, b.kid_ids, b.names)
        else:
            message, offset = outcomes[0]
            messages.add(message.rsplit(" (byte offset", 1)[0])
            # the offset counts UTF-8 bytes up to the offending token
            assert 0 <= offset <= len(text.encode("utf-8"))
    assert messages == {"expected '(' to open a tree", "empty node label",
                        "node has a label but no children",
                        "unbalanced parentheses: missing ')'",
                        "trailing content after tree"}


def test_the_token_pattern_splits_on_exactly_str_isspace():
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = "".join(c for c in everything if c.isspace())
    assert "".join(re.findall(r"\s", everything)) == spaces
    # so every other character is part of an atom
    assert tokens(f"(S{spaces}(A{spaces}é\u200b\x1b){spaces})") == \
        ["(", "S", "(", "A", "é\u200b\x1b", ")", ")"]


@pytest.mark.parametrize("text,offset", [
    ("(S (A é)", 9),        # é is two bytes
    ("(北 (A a)) x", 12),    # 北 is three
    ("(S \ud800", 6),       # a lone surrogate, which JSON may carry: three
])
def test_offsets_count_utf8_bytes(text, offset):
    with pytest.raises(TreeParseError) as info:
        tokens(text)
    assert info.value.offset == offset
