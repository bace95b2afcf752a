"""Independent brute-force oracles used to validate the fast implementations.

Everything here is deliberately naive: exponential enumeration with canonical
string keys, itertools over index subsets, direct formula evaluation. None of
it imports the production kernel/similarity/linking code paths. The tree
oracles take bracketed text, as the kernels and linking do, and walk the
tree objects ``parse_bracketed`` makes of it.
"""

import itertools
from collections import Counter, defaultdict

from qrerank.errors import DataError
from qrerank.treebank import SyntaxTree, parse_bracketed, to_bracketed


# ---------------------------------------------------------------------------
# subset-tree enumeration (for stk)
# ---------------------------------------------------------------------------

def _subset_fragments_at(node, memo):
    """All grammar-rule-complete fragments rooted at ``node``.

    Returns a list of (canonical_string, production_count). Every child slot
    of an included node is kept: a child either stops (appears as a bare
    label) or expands its own full production, recursively.
    """
    key = id(node)
    if key in memo:
        return memo[key]
    options_per_child = []
    for child in node.children:
        opts = [(child.label, 0)]
        if child.children:
            opts = opts + _subset_fragments_at(child, memo)
        options_per_child.append(opts)
    out = []
    for combo in itertools.product(*options_per_child):
        body = " ".join(s for s, _ in combo)
        out.append((f"({node.label} {body})", 1 + sum(p for _, p in combo)))
    memo[key] = out
    return out


def _subset_fragment_counts(tree):
    counts = Counter()
    prods = {}
    memo = {}
    for node in tree.iter_nodes():
        if node.children:
            for canon, nprod in _subset_fragments_at(node, memo):
                counts[canon] += 1
                prods[canon] = nprod
    return counts, prods


def stk_bruteforce(t1, t2, lam):
    """Subset-tree kernel of two bracketed trees by exhaustive fragment
    enumeration.

    K = sum over shared fragments f of count1(f) * count2(f) * lam^{prods(f)}.
    """
    c1, p1 = _subset_fragment_counts(parse_bracketed(t1))
    c2, _ = _subset_fragment_counts(parse_bracketed(t2))
    return sum(c1[f] * c2[f] * lam ** p1[f] for f in c1.keys() & c2.keys())


# ---------------------------------------------------------------------------
# partial-tree enumeration (for ptk)
# ---------------------------------------------------------------------------

def _nonempty_subsequences(n):
    for size in range(1, n + 1):
        yield from itertools.combinations(range(n), size)


def _partial_fragments_at(node, lam, memo):
    """All partial-tree fragments rooted at ``node``.

    Returns a list of (canonical_string, node_count, weight) where the weight
    is lam^{sum of child-subsequence spans}, counting span 1 for a node kept
    without children. At every kept node any (possibly empty) subsequence of
    its children may be kept.
    """
    key = id(node)
    if key in memo:
        return memo[key]
    out = [(node.label, 1, lam)]
    kids = node.children
    for idxs in _nonempty_subsequences(len(kids)):
        span = idxs[-1] - idxs[0] + 1
        child_options = [_partial_fragments_at(kids[i], lam, memo) for i in idxs]
        for combo in itertools.product(*child_options):
            body = " ".join(c for c, _, _ in combo)
            canon = f"({node.label} {body})"
            nnodes = 1 + sum(k for _, k, _ in combo)
            weight = lam ** span
            for _, _, w in combo:
                weight *= w
            out.append((canon, nnodes, weight))
    memo[key] = out
    return out


def _partial_fragment_weights(tree, lam):
    weights = defaultdict(float)
    nnodes = {}
    memo = {}
    for node in tree.iter_nodes():
        for canon, nn, w in _partial_fragments_at(node, lam, memo):
            weights[canon] += w
            nnodes[canon] = nn
    return weights, nnodes


def ptk_bruteforce(t1, t2, lam, mu):
    """Partial-tree kernel of two bracketed trees by exhaustive fragment
    enumeration.

    K = sum over shared fragment shapes f of w1(f) * w2(f) * mu^{nodes(f)}.
    """
    w1, n1 = _partial_fragment_weights(parse_bracketed(t1), lam)
    w2, _ = _partial_fragment_weights(parse_bracketed(t2), lam)
    return sum(w1[f] * w2[f] * mu ** n1[f] for f in w1.keys() & w2.keys())


def subtree_table(trees):
    """The hash-consing table the kernels compile ``trees`` (bracketed
    text) into, one tree after another, by a walk over each tree's nodes in
    post-order: each subtree's id is the order of first occurrence of its
    (label id, child ids), each label or production key the order of its
    first use (a node's label when the node is visited, its production
    when a new subtree is interned). Returns the key of each name id, the label id,
    production id (-1 for a leaf) and child ids of each subtree id, and per
    tree its packed layout: n, k, its distinct subtree ids, their node
    counts, its keys in ascending order, each key's bucket end, then the
    bucket ids and counts."""
    names, index, labels, prods, kids = {}, {}, [], [], []
    forests = []
    for tree in trees:
        done, counts = [], Counter()
        for node in parse_bracketed(tree).iter_nodes():
            k = len(done) - len(node.children)
            ids = tuple(done[k:])
            label = names.setdefault(node.label, len(names))
            if (label, ids) not in index:
                index[label, ids] = len(labels)
                labels.append(label)
                prods.append(names.setdefault(
                    (label, tuple(labels[i] for i in ids)), len(names))
                    if ids else -1)
                kids.append(ids)
            done[k:] = [index[label, ids]]
            counts[done[-1]] += 1
        nodes = sorted(counts)
        buckets = defaultdict(list)
        for s in nodes:
            buckets[labels[s]].append(s)
            if prods[s] >= 0:
                buckets[prods[s]].append(s)
        keys = sorted(buckets)
        members = [s for key in keys for s in buckets[key]]
        ends = list(itertools.accumulate(len(buckets[key]) for key in keys))
        forests.append([len(nodes), len(keys), *nodes,
                        *(counts[s] for s in nodes), *keys, *ends, *members,
                        *(counts[s] for s in members)])
    return list(names), labels, prods, kids, forests


# ---------------------------------------------------------------------------
# sequence similarity oracles
# ---------------------------------------------------------------------------

def lcs_bruteforce(a, b):
    """Length of the longest common subsequence by subset enumeration."""
    a, b = list(a), list(b)
    if len(a) > len(b):
        a, b = b, a

    def is_subseq(sub, seq):
        it = iter(seq)
        return all(x in it for x in sub)

    best = 0
    for size in range(len(a), 0, -1):
        for combo in itertools.combinations(a, size):
            if is_subseq(combo, b):
                return size
    return best


def gst_tiled_bruteforce(a, b, min_match=1):
    """Total tiled length of greedy string tiling, via naive substring search.

    Repeatedly find the longest common contiguous run of unmarked elements
    (scanning all start pairs), mark every non-overlapping occurrence of that
    length, stop when the longest run falls below ``min_match``.
    """
    a, b = list(a), list(b)
    marked_a = [False] * len(a)
    marked_b = [False] * len(b)
    tiled = 0
    while True:
        best = 0
        matches = []
        for i in range(len(a)):
            for j in range(len(b)):
                k = 0
                while (i + k < len(a) and j + k < len(b)
                       and not marked_a[i + k] and not marked_b[j + k]
                       and a[i + k] == b[j + k]):
                    k += 1
                if k > best:
                    best = k
                    matches = [(i, j)]
                elif k == best and k > 0:
                    matches.append((i, j))
        if best < min_match or best == 0:
            break
        for i, j in matches:
            if any(marked_a[i:i + best]) or any(marked_b[j:j + best]):
                continue
            for k in range(best):
                marked_a[i + k] = True
                marked_b[j + k] = True
            tiled += best
    return tiled


# ---------------------------------------------------------------------------
# REL linking over tree objects
# ---------------------------------------------------------------------------

def rel_link_tree(x, y, cfg, stopwords=frozenset()):
    """REL linking of the bracketed tree ``x`` against ``y``, on the tree
    objects ``parse_bracketed`` makes: the text of a copy of ``x`` in which
    each node whose label is in ``cfg.phrase_labels`` gets the ``REL-``
    prefix when its leaves share at least ``cfg.min_shared_tokens``
    distinct tokens (folded, ``stopwords`` removed) with the leaves of
    ``y``. A ``REL-`` label in ``x`` raises :class:`DataError` at the first
    such node in post-order. Built bottom-up without recursion: a node's
    shared tokens are the union of its children's."""
    fold = str.casefold if cfg.case_insensitive else str
    stop = {fold(s) for s in stopwords}
    y_tokens = {t for t in map(fold, parse_bracketed(y).leaves())
                if t not in stop}
    # (copy, tokens shared with y) of every node whose parent is not
    # visited yet, children in order at its top
    done = []
    for node in parse_bracketed(x).iter_nodes():
        if node.is_leaf:
            token = fold(node.label)
            done.append((node, {token} & y_tokens))
            continue
        if node.label.startswith("REL-"):
            raise DataError(
                f"tree already carries a 'REL-' label: {node.label!r}")
        k = len(done) - len(node.children)
        parts = done[k:]
        del done[k:]
        shared = set().union(*(s for _, s in parts))
        label = node.label
        if label in cfg.phrase_labels and len(shared) >= cfg.min_shared_tokens:
            label = "REL-" + label
        done.append((SyntaxTree(label, tuple(c for c, _ in parts)), shared))
    return to_bracketed(done[0][0])
