"""Relational linking between two question trees.

Given a pair of questions, the tree of one is enriched with respect to the
other: every phrase-level node (NP, VP, PP by default) whose yield shares
enough content words with the other question's text gets its label prefixed
with ``REL-``. The marked trees let a tree kernel reward matching structure
that is *about the same words* more than coincidental structural overlap.

The operation is asymmetric by design: linking x against y marks x only.
Trees are bracketed text, linked in one pass over their checked tokens
(:func:`.treebank.tokens`) with no tree object built.
"""

from __future__ import annotations

from .config import RelConfig
from .errors import DataError
from .treebank import tokens

REL_PREFIX = "REL-"


def rel_link(x: str, y: str, cfg: RelConfig = RelConfig(),
             stopwords: frozenset[str] | set[str] = frozenset()) -> str:
    """Return the bracketed tree ``x`` with REL- prefixes on lexically
    linked phrases, in single-space form.

    A non-leaf node of ``x`` whose label is in ``cfg.phrase_labels`` is marked
    when its leaf yield shares at least ``cfg.min_shared_tokens`` distinct
    tokens not in ``stopwords`` with the full yield of ``y``; the stopwords
    are compared case-folded when ``cfg.case_insensitive``, as written
    otherwise, as the tokens are. ``x`` must not already contain REL- labels
    (re-linking an enriched tree would stack prefixes).
    """
    return _link(tokens(x), tokens(y), cfg, _excluded(cfg, stopwords))


def _excluded(cfg: RelConfig, stopwords) -> frozenset[str]:
    """``stopwords`` as :func:`_link` compares them under ``cfg``:
    case-folded when ``cfg.case_insensitive``, as written otherwise."""
    fold = str.casefold if cfg.case_insensitive else str
    return frozenset(map(fold, stopwords))


def _link(x: list[str], y: list[str], cfg: RelConfig,
          excluded: frozenset[str]) -> str:
    """:func:`rel_link` of the checked tokens of x against those of y, in
    one pass over x's: a node's shared tokens are the leaves of y that it
    holds, found between its ``(`` and its ``)``. ``excluded`` is
    :func:`_excluded` of the stopwords, which a caller linking many pairs
    folds once."""
    fold = str.casefold if cfg.case_insensitive else str
    linkable = {fold(t) for p, t in zip(y, y[1:])
                if p != "(" and t != "(" and t != ")"} - excluded
    need = cfg.min_shared_tokens
    out: list[str] = []     # " (label", " token" and ")" pieces
    found: list[str] = []   # the linkable leaves read so far, folded
    opened: list[tuple[str, int, int]] = []  # label, piece, len(found) at (
    toks_iter = iter(x)
    for tok in toks_iter:
        if tok == "(":
            label = next(toks_iter)
            opened.append((label, len(out), len(found)))
            out.append(" (" + label)
        elif tok == ")":
            label, piece, start = opened.pop()
            if label.startswith(REL_PREFIX):
                raise DataError(
                    f"tree already carries a {REL_PREFIX!r} label: {label!r}")
            if label in cfg.phrase_labels and len(set(found[start:])) >= need:
                out[piece] = " (" + REL_PREFIX + label
            out.append(")")
        else:
            out.append(" " + tok)
            if fold(tok) in linkable:
                found.append(fold(tok))
    return "".join(out)[1:]
