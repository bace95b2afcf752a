"""Spans recorded around qrerank's public functions, from outside the package.

``Tracer.install`` replaces each traced function, in every loaded ``qrerank``
module that holds it, by a wrapper. Two kinds of wrapper exist:

* a *span* records name, start, end, parent span and run id; it is used for
  stage-level functions, which run a handful of times per stage;
* an *aggregate* only adds to a call count and a total time; it is used for
  the functions called once per tree pair, record or parse, where a span per
  call would cost more than the work it measures.

Spans stay in memory and are written once, at exit. A function re-entered
through its own wrapper (recursion) is timed once, at the outermost call.
Calls nest strictly in one thread, so each wrapper adds its duration to the
frame of the wrapper it was called from; a span's self time is its duration
minus that child time.
"""

from __future__ import annotations

import json
import re
import sys
import time

_ATOM = re.compile(r"[^\s()]+")


def _count_nodes(args, counters):
    # every node of a bracketed tree has exactly one atom: its label or token
    counters["treebank.nodes_parsed"] += len(_ATOM.findall(args[0]))


def _count_self_kernel(args, counters):
    if args[0] is args[1]:
        counters["kernels.self_kernel_calls"] += 1


# module -> functions recorded as spans
SPANS = {
    "kernels": ("gram_matrix", "kernel_matrix", "save_gram", "load_gram"),
    "svm": ("train_smo", "save_model", "load_model"),
    "pipeline": ("load_corpus", "build_examples", "save_examples",
                 "load_examples", "score_examples"),
    "rankeval": ("evaluate", "randomization_test", "write_predictions",
                 "read_predictions"),
}
# module -> {function: hook or None}; a hook counts work from the arguments
# after the call's own time is taken, and its cost is kept out of every
# reported time.
AGGREGATES = {
    "kernels": {"ptk": _count_self_kernel, "stk": _count_self_kernel},
    "features": {"similarity_vector": None},
    "rellink": {"rel_link": None},
    "treebank": {"parse_bracketed": _count_nodes, "to_bracketed": None},
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.aggregates: dict[str, list] = {}   # name -> [calls, self_s]
        self.counters: dict[str, int] = {"treebank.nodes_parsed": 0,
                                         "kernels.self_kernel_calls": 0}
        # open frames: [span id or None, time of the wrapped calls inside]
        self._stack: list[list] = []
        self._active: set[str] = set()
        self._next_id = 0

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if name in self._active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = next((f[0] for f in reversed(self._stack)
                           if f[0] is not None), None)
            frame = [span_id, 0.0]
            self._stack.append(frame)
            self._active.add(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._active.discard(name)
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append({"id": span_id, "name": name,
                                   "start": start, "end": end,
                                   "parent": parent, "run": self.run_id,
                                   "child_s": frame[1]})
        return wrapper

    def aggregate(self, name: str, fn, hook=None):
        entry = self.aggregates.setdefault(name, [0, 0.0])
        counters = self.counters

        def wrapper(*args, **kwargs):
            if name in self._active:
                return fn(*args, **kwargs)
            frame = [None, 0.0]
            self._stack.append(frame)
            self._active.add(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if hook is not None:
                    hook(args, counters)
                self._active.discard(name)
                self._stack.pop()
                entry[0] += 1
                entry[1] += end - start - frame[1]
                if self._stack:
                    self._stack[-1][1] += time.perf_counter() - start
        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a qrerank module binds it."""
        import qrerank  # noqa: F401  (loads every submodule)
        modules = [m for key, m in sys.modules.items()
                   if key == "qrerank" or key.startswith("qrerank.")]
        for module, names in SPANS.items():
            for name in names:
                self._replace(modules, module, name,
                              lambda label, fn: self.span(label, fn))
        for module, hooks in AGGREGATES.items():
            for name, hook in hooks.items():
                self._replace(modules, module, name,
                              lambda label, fn, h=hook:
                              self.aggregate(label, fn, h))

    @staticmethod
    def _replace(modules, module, name, make) -> None:
        original = getattr(sys.modules[f"qrerank.{module}"], name)
        wrapper = make(f"{module}.{name}", original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "aggregates": {k: {"calls": v[0], "self_s": v[1]}
                                      for k, v in self.aggregates.items()},
                       "counters": self.counters}, fh)


def self_time(span: dict) -> float:
    """A span's duration minus the wrapped calls made inside it."""
    return span["end"] - span["start"] - span["child_s"]


def summarize(traces: list[dict]) -> dict[str, dict]:
    """Per-name totals over span files: calls, self time and, for spans,
    total (inclusive) time."""
    out: dict[str, dict] = {}
    for trace in traces:
        for s in trace["spans"]:
            e = out.setdefault(s["name"], {"calls": 0, "self_s": 0.0,
                                           "total_s": 0.0})
            e["calls"] += 1
            e["self_s"] += self_time(s)
            e["total_s"] += s["end"] - s["start"]
        for name, agg in trace["aggregates"].items():
            e = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                      "total_s": 0.0})
            e["calls"] += agg["calls"]
            e["self_s"] += agg["self_s"]
            e["total_s"] += agg["self_s"]
    return out
