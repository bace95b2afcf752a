"""Constituency trees: parsing, serialization, and macro-tree assembly.

Trees arrive as bracketed strings, one per line, in the classic treebank
style::

    (S (NP (DT the) (NN cat)) (VP (VBD sat)))

A node is either internal (a label plus one or more children) or a leaf
(a surface token). Labels and tokens are kept verbatim: no unescaping of
``-LRB-``/``-RRB-``, no case mangling, no stripping of functional tags.
Multi-sentence questions are joined under a single artificial root so that
downstream tree kernels see one tree per question.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import DataError


class TreeParseError(DataError):
    """Raised for malformed bracketed trees; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True, eq=False, repr=False)
class SyntaxTree:
    """An immutable ordered tree. A leaf is a node with no children.

    For internal nodes ``label`` is the nonterminal symbol; for leaves it is
    the surface token itself. Equality, hashing and ``repr`` compare and
    print ``(label, children)`` as a dataclass would, but walk the tree with
    an explicit stack, so any depth works.
    """

    label: str
    children: tuple["SyntaxTree", ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.label:
            raise DataError("tree node label must be a non-empty string")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (a.__class__ is not b.__class__ or a.label != b.label
                    or len(a.children) != len(b.children)):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self):
        # ``hashes`` holds the hash of every node whose parent is not
        # visited yet, children in order at its top
        hashes: list[int] = []
        for node in self.iter_nodes():
            k = len(hashes) - len(node.children)
            child_hashes = tuple(hashes[k:])
            del hashes[k:]
            hashes.append(hash((node.label, child_hashes)))
        return hashes[0]

    def __repr__(self):
        out: list[str] = []
        stack: list[SyntaxTree | str] = [self]     # a str is literal output
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            out.append(f"{item.__class__.__qualname__}(label={item.label!r}, "
                       f"children=(")
            stack.append(",))" if len(item.children) == 1 else "))")
            for i, child in enumerate(reversed(item.children)):
                if i:
                    stack.append(", ")
                stack.append(child)
        return "".join(out)

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


def _byte_offset(text: str, index: int) -> int:
    return len(text[:index].encode("utf-8"))


def parse_bracketed(text: str) -> SyntaxTree:
    """Parse one bracketed tree from ``text``.

    The whole string must be a single well-formed bracketed expression
    (surrounding whitespace is fine). Unbalanced parentheses, empty labels,
    childless groups and trailing garbage raise :class:`TreeParseError`
    naming the byte offset of the offending character.
    """
    n = len(text)

    def skip_ws(j: int) -> int:
        while j < n and text[j].isspace():
            j += 1
        return j

    def read_atom(j: int) -> tuple[str, int]:
        k = j
        while k < n and not text[k].isspace() and text[k] not in "()":
            k += 1
        return text[j:k], k

    i = skip_ws(0)
    if i >= n or text[i] != "(":
        raise TreeParseError("expected '(' to open a tree", _byte_offset(text, i))
    # open nodes, innermost last, each with the children read so far; an
    # explicit stack, so that nesting depth is bounded by memory alone
    stack: list[tuple[str, list[SyntaxTree]]] = []
    while True:
        # invariant: text[i] == "("
        i = skip_ws(i + 1)
        label, i = read_atom(i)
        if not label:
            raise TreeParseError("empty node label", _byte_offset(text, i))
        stack.append((label, []))
        while True:
            i = skip_ws(i)
            if i >= n:
                raise TreeParseError("unbalanced parentheses: missing ')'",
                                     _byte_offset(text, i))
            ch = text[i]
            if ch == "(":
                break
            if ch == ")":
                label, children = stack.pop()
                if not children:
                    raise TreeParseError("node has a label but no children",
                                         _byte_offset(text, i))
                node = SyntaxTree(label, tuple(children))
                i += 1
                if not stack:
                    i = skip_ws(i)
                    if i != n:
                        raise TreeParseError("trailing content after tree",
                                             _byte_offset(text, i))
                    return node
                stack[-1][1].append(node)
            else:
                token, i = read_atom(i)
                stack[-1][1].append(SyntaxTree(token))


def to_bracketed(tree: SyntaxTree) -> str:
    """Serialize back to single-space bracketed form.

    ``parse_bracketed(to_bracketed(t)) == t`` for any tree whose root is
    internal. (A bare leaf serializes to its token alone, which is not
    itself a bracketed expression.) Iterative, so any depth serializes.
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


def macro_tree(trees: list[SyntaxTree], root_label: str = "ROOT") -> SyntaxTree:
    """Join per-sentence parses under one artificial root node.

    Questions frequently span several sentences; the kernels expect a single
    tree per question, so the sentence parses become the ordered children of
    a fresh ``root_label`` node. Raises :class:`DataError` on an empty list.
    """
    if not trees:
        raise DataError("macro_tree requires at least one sentence tree")
    return SyntaxTree(root_label, tuple(trees))
