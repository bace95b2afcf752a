"""Seeded generator of SemEval-2016-shaped corpora in the qrerank JSONL schema.

A corpus is a list of query groups. Every query has one original question
(``qo``) shown to all of its candidates, and each candidate has its own forum
question (``qs``); task D candidates also carry a comment. Questions are
generated together with their constituency parses, one parse per sentence,
so the text is exactly the leaf yield of the trees.

Words come from a fixed synthetic vocabulary, drawn with Zipfian weights per
part of speech. A query has a few topic words; relevant candidates reuse them
often and irrelevant ones seldom, so the similarity features and the REL links
carry real signal. The search rank is the relevance order blurred by noise.

The vocabulary does not depend on the seed; every other choice comes from
``random.Random`` seeded with the seed and part number, so they always give
byte-identical files.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

_ONSETS = ("b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s",
           "t", "v", "z", "br", "st", "tr", "pl", "gr", "sh")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_CLOSED = {
    "DT": ("the", "a", "this", "that", "my", "your", "some", "any", "every"),
    "IN": ("in", "on", "for", "with", "about", "from", "to", "at", "of", "by"),
    "PRP": ("i", "you", "we", "they", "he", "she", "it"),
    "MD": ("can", "should", "will", "would", "could", "must", "may"),
    "WRB": ("how", "where", "when", "why"),
}
_OPEN_SIZES = {"NN": 1500, "VB": 500, "JJ": 300}
_ZIPF_S = 1.1

TASK_LABELS = {
    "B": ("PerfectMatch", "Relevant", "Irrelevant"),
    "D": ("Direct", "Related", "Irrelevant"),
}


def _synthetic_words(count: int, salt: int) -> tuple[str, ...]:
    """``count`` distinct pronounceable words, the same on every call."""
    rng = random.Random(salt)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                       for _ in range(rng.randint(2, 3)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return tuple(words)


class _Vocabulary:
    """Per-tag word lists with Zipfian sampling weights."""

    def __init__(self):
        self.words = dict(_CLOSED)
        pool = iter(_synthetic_words(sum(_OPEN_SIZES.values()), 1000))
        for tag, size in _OPEN_SIZES.items():
            self.words[tag] = tuple(next(pool) for _ in range(size))
        self.cum = {
            tag: list(accumulate(1.0 / (r ** _ZIPF_S)
                                 for r in range(1, len(words) + 1)))
            for tag, words in self.words.items()
        }

    def draw(self, rng: random.Random, tag: str) -> str:
        cum = self.cum[tag]
        return self.words[tag][bisect_left(cum, rng.random() * cum[-1])]


VOCAB = _Vocabulary()


@dataclass(frozen=True)
class Scale:
    """Size and shape of one generated split pair."""

    task: str
    train_queries: int
    test_queries: int
    candidates: int          # per query: 10 for task B, 30 for task D
    relevant: int            # relevant candidates per query
    sentences: int           # sentences per question
    sentence_nodes: tuple[int, int]   # parse tree size of one, inclusive
    with_trees: bool         # write the parses into the corpus


class _Writer:
    """Grows one question's sentences, words and bracketed parses."""

    def __init__(self, rng: random.Random, topic: dict[str, list[str]],
                 topic_rate: float):
        self.rng = rng
        self.topic = topic
        self.topic_rate = topic_rate
        self.tokens: list[str] = []

    def word(self, tag: str) -> str:
        if tag in self.topic and self.rng.random() < self.topic_rate:
            token = self.rng.choice(self.topic[tag])
        else:
            token = VOCAB.draw(self.rng, tag)
        self.tokens.append(token)
        return f"({tag} {token})"

    def np(self, depth: int) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.12:
            return f"(NP {self.word('PRP')})"
        parts = [self.word("DT")] if roll < 0.75 else []
        if rng.random() < 0.4:
            parts.append(self.word("JJ"))
        parts.append(self.word("NN"))
        if rng.random() < 0.25:
            parts.append(self.word("NN"))
        head = f"(NP {' '.join(parts)})"
        if depth < 2 and rng.random() < 0.35:
            return f"(NP {head} {self.pp(depth + 1)})"
        return head

    def pp(self, depth: int) -> str:
        return f"(PP {self.word('IN')} {self.np(depth)})"

    def vp(self, depth: int) -> str:
        rng = self.rng
        if depth == 0 and rng.random() < 0.3:
            return f"(VP {self.word('MD')} {self.vp(depth + 1)})"
        parts = [self.word("VB"), self.np(depth + 1)]
        if rng.random() < 0.5:
            parts.append(self.pp(depth + 1))
        return f"(VP {' '.join(parts)})"

    def sentence(self) -> str:
        if self.rng.random() < 0.35:
            body = (f"(SBARQ (WHADVP {self.word('WRB')}) "
                    f"(SQ {self.np(0)} {self.vp(0)})")
        else:
            body = f"(S {self.np(0)} {self.vp(0)}"
        self.tokens.append("?")
        return body + " (. ?))"


def _question(rng, scale: Scale, topic, topic_rate) -> tuple[str, list[str]]:
    """``scale.sentences`` sentences, each parse with a node count in
    ``scale.sentence_nodes``; drafts of other sizes are thrown away.

    Holding the shape of every question this close keeps the tree-kernel
    cost of a corpus steady from seed to seed: with 2-4 sentences of any
    size, the PTK time of one tree against ten others spread by 0.34 of its
    median between trees, and by 0.06 with three sentences of 31-33 nodes.
    """
    lo, hi = scale.sentence_nodes
    tokens: list[str] = []
    trees: list[str] = []
    while len(trees) < scale.sentences:
        writer = _Writer(rng, topic, topic_rate)
        tree = writer.sentence()
        if lo <= tree.count("(") + len(writer.tokens) <= hi:
            trees.append(tree)
            tokens.extend(writer.tokens)
    return " ".join(tokens), trees


def _comment(rng, topic, topic_rate) -> str:
    writer = _Writer(rng, topic, topic_rate)
    for _ in range(rng.randint(2, 4)):
        writer.sentence()
    return " ".join(t for t in writer.tokens if t != "?")


def _topic(rng) -> dict[str, list[str]]:
    return {tag: [VOCAB.draw(rng, tag) for _ in range(count)]
            for tag, count in (("NN", 4), ("VB", 2), ("JJ", 2))}


def _query_records(rng, scale: Scale, qid: str) -> list[dict]:
    topic = _topic(rng)
    qo_text, qo_trees = _question(rng, scale, topic, 0.6)
    relevant_label, partial_label, irrelevant_label = TASK_LABELS[scale.task]
    flags = [True] * scale.relevant + \
        [False] * (scale.candidates - scale.relevant)
    rng.shuffle(flags)
    candidates = []
    for c, relevant in enumerate(flags):
        # irrelevant candidates borrow another topic and touch this one rarely
        own = topic if relevant else _topic(rng)
        mix = own if relevant else {tag: own[tag] + topic[tag][:1]
                                    for tag in own}
        qs_text, qs_trees = _question(rng, scale, mix, 0.5)
        label = irrelevant_label
        if relevant:
            label = relevant_label if rng.random() < 0.3 else partial_label
        record = {"candidate_id": f"{qid}_c{c}", "qs_text": qs_text,
                  "qs_trees": qs_trees, "gold_label": label,
                  "_order": (1.0 if relevant else 0.0) + rng.gauss(0.0, 0.6)}
        if scale.task == "D":
            record["comment_text"] = _comment(rng, own, 0.4)
        candidates.append(record)
    ranked = sorted(candidates, key=lambda r: -r.pop("_order"))
    out = []
    for rank, cand in enumerate(ranked, start=1):
        record = {"query_id": qid, "candidate_id": cand["candidate_id"],
                  "original_rank": rank, "qo_text": qo_text,
                  "qs_text": cand["qs_text"], "gold_label": cand["gold_label"]}
        if scale.with_trees:
            record["qo_trees"] = qo_trees
            record["qs_trees"] = cand["qs_trees"]
        if "comment_text" in cand:
            record["comment_text"] = cand["comment_text"]
        out.append(record)
    return out


def generate(scale: Scale, seed: int, part: int = 0) -> dict[str, list[dict]]:
    """Train and test records for ``scale``; the same seed and part give the
    same records."""
    rng = random.Random(f"{seed}/{part}")
    splits = {}
    for split, queries in (("train", scale.train_queries),
                           ("test", scale.test_queries)):
        records = []
        for q in range(queries):
            records.extend(_query_records(rng, scale, f"{split}{q}"))
        splits[split] = records
    return splits


def to_jsonl(records: list[dict]) -> bytes:
    return "".join(json.dumps(r, separators=(",", ":")) + "\n"
                   for r in records).encode("utf-8")


def baseline_tsv(records: list[dict]) -> bytes:
    """Predictions in search-rank order, in the ``write_predictions`` format.

    This is the retrieval baseline the reranker is tested against.
    """
    relevant = set(TASK_LABELS["B"][:2]) | set(TASK_LABELS["D"][:2])
    lines = []
    for r in sorted(records, key=lambda r: (r["query_id"], r["original_rank"])):
        gold = "true" if r["gold_label"] in relevant else "false"
        lines.append(f"{r['query_id']}\t{r['candidate_id']}\t"
                     f"{r['original_rank']}\t{-float(r['original_rank'])!r}\t"
                     f"{gold}")
    return ("\n".join(lines) + "\n").encode("utf-8")
