"""Relational linking between two question trees.

Given a pair of questions, the tree of one is enriched with respect to the
other: every phrase-level node (NP, VP, PP by default) whose yield shares
enough content words with the other question's text gets its label prefixed
with ``REL-``. The marked trees let a tree kernel reward matching structure
that is *about the same words* more than coincidental structural overlap.

The operation is asymmetric by design: linking x against y marks x only.
"""

from __future__ import annotations

import operator

from .config import RelConfig
from .errors import DataError
from .treebank import SyntaxTree

REL_PREFIX = "REL-"


def rel_link(x: SyntaxTree, y: SyntaxTree, cfg: RelConfig = RelConfig()) -> SyntaxTree:
    """Return a copy of ``x`` with REL- prefixes on lexically linked phrases.

    A non-leaf node of ``x`` whose label is in ``cfg.phrase_labels`` is marked
    when its leaf yield shares at least ``cfg.min_shared_tokens`` distinct
    non-stopword tokens with the full yield of ``y``. ``x`` must not already
    contain REL- labels (re-linking an enriched tree would stack prefixes).

    The copy is built bottom-up without recursion, so any depth links: a
    node's shared tokens are the union of its children's. A subtree with
    no mark in it is not copied but shared with ``x`` (trees are
    immutable), so the linked trees of one parse share its unmarked
    subtrees.
    """
    fold = str.casefold if cfg.case_insensitive else str
    stop = {fold(s) for s in cfg.stopwords}
    y_tokens = {t for t in map(fold, y.leaves()) if t not in stop}
    empty: frozenset[str] = frozenset()

    # ``done`` holds (copy, tokens shared with y) of every node whose parent
    # is not visited yet, children in order at its top
    done: list[tuple[SyntaxTree, frozenset[str] | set[str]]] = []
    for node in x.iter_nodes():
        if node.is_leaf:
            token = fold(node.label)
            done.append((node, {token} if token in y_tokens else empty))
            continue
        label = node.label
        if label.startswith(REL_PREFIX):
            raise DataError(
                f"tree already carries a {REL_PREFIX!r} label: {label!r}")
        k = len(done) - len(node.children)
        parts = done[k:]
        del done[k:]
        found = [s for _, s in parts if s]
        shared = (empty if not found else found[0] if len(found) == 1
                  else set().union(*found))
        if label in cfg.phrase_labels and len(shared) >= cfg.min_shared_tokens:
            label = REL_PREFIX + label
        kids = tuple(c for c, _ in parts)
        if label is node.label and all(map(operator.is_, kids, node.children)):
            copy = node         # nothing marked below: share the subtree
        else:
            copy = SyntaxTree(label, kids)
        done.append((copy, shared))
    return done[0][0]
