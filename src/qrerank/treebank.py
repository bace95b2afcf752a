"""Constituency trees: the bracketed grammar, parsing and serialization.

Trees arrive as bracketed strings, one per line, in the classic treebank
style::

    (S (NP (DT the) (NN cat)) (VP (VBD sat)))

A node is either internal (a label plus one or more children) or a leaf
(a surface token). Labels and tokens are kept verbatim: no unescaping of
``-LRB-``/``-RRB-``, no case mangling, no stripping of functional tags.
Text is the one tree that any computation takes: the pipeline and the
kernels read the checked tokens (:func:`tokens`). :func:`parse_bracketed`
builds the walkable :class:`SyntaxTree` view for callers that walk trees,
and :func:`to_bracketed` writes it back as text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

from .errors import DataError


class TreeParseError(DataError):
    """Raised for malformed bracketed trees; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


# one token of a bracketed tree and the whitespace before it: a parenthesis
# or an atom, a node's label or a leaf's token. ``\s`` matches exactly the
# characters ``str.isspace`` accepts, so every other character is part of a
# token and ``findall`` skips nothing but whitespace.
_TOKEN = re.compile(r"\s*([()]|[^\s()]+)")
_ATOM = re.compile(r"[^\s()]+")


@dataclass(frozen=True, eq=False, repr=False)
class SyntaxTree:
    """An immutable ordered tree. A leaf is a node with no children.

    For internal nodes ``label`` is the nonterminal symbol; for leaves it is
    the surface token itself. A label is one atom of the bracketed form, with
    no whitespace or parenthesis, so that :func:`to_bracketed` writes every
    tree as the text that reads back to it. It is a walkable view of the
    text, for callers that walk trees (:func:`.pipeline.load_examples`):
    no kernel takes it, and it compares by identity; compare trees by their
    :func:`to_bracketed` text.
    """

    label: str
    children: tuple["SyntaxTree", ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise DataError("tree node label must be a non-empty string")
        if not _ATOM.fullmatch(self.label):
            raise DataError(f"tree node label {self.label!r} holds whitespace "
                            f"or a parenthesis")

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> list[str]:
        """Surface tokens in left-to-right order."""
        out: list[str] = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node.label)
            else:
                stack.extend(reversed(node.children))
        return out

    def iter_nodes(self) -> Iterator["SyntaxTree"]:
        """All nodes in post-order (children before parents)."""
        stack: list[tuple[SyntaxTree, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded or node.is_leaf:
                yield node
            else:
                stack.append((node, True))
                for child in reversed(node.children):
                    stack.append((child, False))


def tokens(text: str) -> list[str]:
    """The tokens of one bracketed tree, checked against its grammar.

    This is the grammar of every reader of bracketed trees:
    :func:`parse_bracketed`, the examples reader and the kernels' compiler
    all walk the list it returns. The whole string must be one tree,
    ``"(" label child+ ")"``, a child being a token or a tree, with
    whitespace anywhere between tokens. In the list each ``"("`` is
    followed by its node's label; every other atom is a leaf. An empty
    label, a childless node, a missing ``")"`` and content after the tree
    raise :class:`TreeParseError` naming the byte offset of the first token
    that breaks the grammar (the end of ``text`` if none is left).
    """
    toks = _TOKEN.findall(text)
    if not toks or toks[0] != "(":
        raise _error(text, 0, "expected '(' to open a tree")
    depth = 0
    for k, tok in enumerate(toks):
        if k and toks[k - 1] == "(":        # tok is the node's label
            if tok == "(" or tok == ")":
                raise _error(text, k, "empty node label")
        elif tok == "(":
            depth += 1
        elif tok == ")":
            if toks[k - 2] == "(":
                raise _error(text, k, "node has a label but no children")
            depth -= 1
            if not depth and k + 1 < len(toks):
                raise _error(text, k + 1, "trailing content after tree")
    if toks[-1] == "(":
        raise _error(text, len(toks), "empty node label")
    if depth:
        raise _error(text, len(toks), "unbalanced parentheses: missing ')'")
    return toks


def _error(text: str, k: int, message: str) -> TreeParseError:
    """The :class:`TreeParseError` at the k-th token of ``text``, or at its
    end if it has k tokens."""
    for j, match in enumerate(_TOKEN.finditer(text)):
        if j == k:
            index = match.start(1)
            break
    else:
        index = len(text)
    # a lone surrogate (JSON's "\ud800") counts as the three bytes it takes
    # in a UTF-8 encoder that lets it through
    return TreeParseError(message,
                          len(text[:index].encode("utf-8", "surrogatepass")))


def parse_bracketed(text: str) -> SyntaxTree:
    """Parse one bracketed tree from ``text``.

    The whole string must be a single well-formed bracketed expression
    (surrounding whitespace is fine); :func:`tokens` defines the grammar and
    its errors, each a :class:`TreeParseError` naming the byte offset of the
    offending token.
    """
    # open nodes, innermost last, each with the children read so far; an
    # explicit stack, so that nesting depth is bounded by memory alone
    stack: list[tuple[str, list[SyntaxTree]]] = []
    toks = iter(tokens(text))
    for tok in toks:
        if tok == "(":
            stack.append((next(toks), []))
        elif tok == ")":
            label, children = stack.pop()
            node = SyntaxTree(label, tuple(children))
            if not stack:
                return node
            stack[-1][1].append(node)
        else:
            stack[-1][1].append(SyntaxTree(tok))


def to_bracketed(tree: SyntaxTree) -> str:
    """Serialize back to single-space bracketed form.

    ``to_bracketed(parse_bracketed(s))`` is ``s`` in single-space form, and
    reads back to a tree of the same labels and shape. (A bare leaf
    serializes to its token alone, which is not itself a bracketed
    expression.) Iterative, so any depth serializes.
    """
    out: list[str] = []
    stack: list[SyntaxTree | str] = [tree]     # a str is literal output
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item.is_leaf:
            out.append(item.label)
        else:
            out.append(f"({item.label}")
            stack.append(")")
            for child in reversed(item.children):
                stack.append(child)
                stack.append(" ")
    return "".join(out)
