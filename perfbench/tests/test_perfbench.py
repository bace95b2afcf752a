"""Self-tests of the benchmark: generator, output checks, span arithmetic.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import corpus  # noqa: E402
from tracing import Tracer, self_time, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from qrerank.cli import build_run_config  # noqa: E402
from qrerank.kernels import Example, save_gram  # noqa: E402
from qrerank.treebank import parse_bracketed  # noqa: E402

SMALL_B = corpus.Scale(task="B", train_queries=2, test_queries=2,
                       candidates=10, relevant=4, sentences=3,
                       sentence_nodes=(31, 33), with_trees=True)
SMALL_D = corpus.Scale(task="D", train_queries=1, test_queries=1,
                       candidates=30, relevant=6, sentences=2,
                       sentence_nodes=(20, 40), with_trees=True)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scale", [SMALL_B, SMALL_D])
def test_same_seed_gives_identical_bytes(scale):
    a, b = corpus.generate(scale, 11), corpus.generate(scale, 11)
    for split in ("train", "test"):
        assert corpus.to_jsonl(a[split]) == corpus.to_jsonl(b[split])
    assert corpus.baseline_tsv(a["test"]) == corpus.baseline_tsv(b["test"])


def test_other_seed_gives_other_corpus():
    a, b = corpus.generate(SMALL_B, 1), corpus.generate(SMALL_B, 2)
    assert corpus.to_jsonl(a["train"]) != corpus.to_jsonl(b["train"])


@pytest.mark.parametrize("scale", [SMALL_B, SMALL_D])
def test_corpus_shape(scale):
    records = corpus.generate(scale, 5)["train"]
    assert len(records) == scale.train_queries * scale.candidates
    relevant, _, irrelevant = corpus.TASK_LABELS[scale.task]
    for q in range(scale.train_queries):
        group = [r for r in records if r["query_id"] == f"train{q}"]
        assert sorted(r["original_rank"] for r in group) == \
            list(range(1, scale.candidates + 1))
        assert sum(r["gold_label"] != irrelevant for r in group) == \
            scale.relevant
        # the query's question and its parses repeat across its candidates
        assert len({tuple(r["qo_trees"]) for r in group}) == 1
        for r in group:
            assert len(r["qs_trees"]) == scale.sentences
            lo, hi = scale.sentence_nodes
            assert all(lo <= len(_atoms(t)) <= hi for t in r["qs_trees"])
            leaves = [t.leaves() for t in map(parse_bracketed, r["qs_trees"])]
            assert r["qs_text"] == " ".join(w for ws in leaves for w in ws)
            assert ("comment_text" in r) == (scale.task == "D")


def _atoms(bracketed):
    return bracketed.replace("(", " ").replace(")", " ").split()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_is_valid_and_matches_its_corpus(name):
    w = WORKLOADS[name]
    cfg = build_run_config({k: {"true": True}.get(v, v) for k, v in w.config})
    assert cfg.task == w.scale.task
    assert cfg.kernel.use_tk == w.scale.with_trees


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _good_gram(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 3))
    path = tmp_path / "g.gram"
    save_gram(path, x @ x.T, "f" * 64)
    return path


def test_check_gram_accepts_a_good_gram(tmp_path):
    assert checks.check_gram(_good_gram(tmp_path), 4) == []


@pytest.mark.parametrize("corrupt", [
    lambda lines: lines[:-1],                                    # lost row
    lambda lines: lines[:-1] + [lines[-1].rsplit(" ", 1)[0]],   # short row
    lambda lines: lines[:-1] + [lines[-1].rsplit(" ", 1)[0] + " nan"],
    lambda lines: lines[:-1] + [lines[-1].rsplit(" ", 1)[0] + " x1"],
])
def test_check_gram_rejects_a_corrupted_gram(tmp_path, corrupt):
    path = _good_gram(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(corrupt(lines)) + "\n")
    assert checks.check_gram(path, 4)


def test_check_gram_rejects_a_wrong_size(tmp_path):
    assert checks.check_gram(_good_gram(tmp_path), 5)


def _predictions(tmp_path, rows):
    path = tmp_path / "p.tsv"
    path.write_text("".join("\t".join(map(str, r)) + "\n" for r in rows))
    return path


RECORDS = [{"query_id": "q", "candidate_id": c} for c in ("a", "b", "c")]
GOOD = [("q", "a", 1, 0.5, "true"), ("q", "b", 2, 0.1, "false"),
        ("q", "c", 3, -0.2, "true")]


def test_check_predictions_accepts_good_predictions(tmp_path):
    assert checks.check_predictions(_predictions(tmp_path, GOOD),
                                    RECORDS) == []


@pytest.mark.parametrize("rows", [
    GOOD[:2],                                           # missing candidate
    GOOD + [("q", "a", 4, 0.5, "true")],                # listed twice
    GOOD[:2] + [("q", "c", 5, -0.2, "true")],           # ranks not 1..n
    GOOD[:2] + [("q", "c", 3, "nan", "true")],          # non-finite score
    GOOD[:2] + [("q", "c", 3, -0.2)],                   # missing field
])
def test_check_predictions_rejects_corrupted_predictions(tmp_path, rows):
    assert checks.check_predictions(_predictions(tmp_path, rows), RECORDS)


def test_check_evaluate_compares_with_recomputation(tmp_path):
    path = _predictions(tmp_path, GOOD)
    # AP of (rel, non, rel) is (1 + 2/3) / 2
    good = "MAP: 83.3333\nAvgRec: 100.0000\nMRR: 100.0000\n"
    assert checks.check_evaluate(good, path, 3) == []
    assert checks.check_evaluate(good.replace("83.3333", "83.3334"), path, 3)
    assert checks.check_evaluate("MAP: 83.3333\n", path, 3)


def test_matched_node_pairs_counts_label_and_production_pairs():
    t1 = parse_bracketed("(S (NP (DT a) (NN b)) (VP (VB c)))")
    t2 = parse_bracketed("(S (NP (DT a) (NN d)))")

    def ex(t):
        return Example(query_id="q", candidate_id=str(id(t)), label=1,
                       original_rank=1, tree_first=t, tree_second=t)

    def brute(x, y, key):
        return sum(key(a) is not None and key(a) == key(b)
                   for a in x.iter_nodes() for b in y.iter_nodes())

    train, test = [ex(t1), ex(t2)], [ex(t2)]
    for kind, key in (("PTK", checks._label), ("STK", checks._production)):
        pairs = [(t1, t1), (t1, t2), (t2, t2),      # gram cells
                 (t1, t1), (t2, t2),                # gram self-kernels
                 (t2, t1),                          # test x support 0
                 (t2, t2), (t1, t1)]                # test and support selfs
        want = 2 * sum(brute(x, y, key) for x, y in pairs)
        assert checks.matched_node_pairs(train, test, (0,), kind) == want


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_the_wrapped_calls_inside():
    span = {"id": 0, "name": "s", "start": 1.0, "end": 11.0, "parent": None,
            "run": "r", "child_s": 3.5}
    assert self_time(span) == 10.0 - 3.5


def test_tracer_nests_spans_and_aggregates_calls():
    tracer = Tracer("run")

    def leaf(x, y):
        return x

    traced_leaf = tracer.aggregate("m.leaf", leaf,
                                   hook=_count_same)

    def outer():
        return [traced_leaf(1, 1), traced_leaf(1, 2)]

    def recursive(n):
        return 0 if n == 0 else 1 + traced_recursive(n - 1)

    traced_recursive = tracer.span("m.recursive", recursive)
    top = tracer.span("m.top", lambda: (outer(), traced_recursive(3)))
    top()
    names = {s["name"]: s for s in tracer.spans}
    assert set(names) == {"m.top", "m.recursive"}     # recursion: one span
    assert names["m.recursive"]["parent"] == names["m.top"]["id"]
    # top's child time is its nested span and its aggregated calls
    assert names["m.top"]["child_s"] >= (names["m.recursive"]["end"]
                                         - names["m.recursive"]["start"])
    assert names["m.top"]["child_s"] > tracer.aggregates["m.leaf"][1]
    assert self_time(names["m.top"]) >= 0.0
    assert tracer.aggregates["m.leaf"][0] == 2
    assert tracer.counters["same"] == 1
    trace = {"spans": tracer.spans, "counters": tracer.counters,
             "aggregates": {"m.leaf": {"calls": 2, "self_s": 0.25}}}
    totals = summarize([trace])
    assert totals["m.leaf"] == {"calls": 2, "self_s": 0.25, "total_s": 0.25}
    assert totals["m.top"]["calls"] == 1


def _count_same(args, counters):
    counters["same"] = counters.get("same", 0) + (args[0] == args[1])


# ---------------------------------------------------------------------------
# stage launcher and reference-speed times
# ---------------------------------------------------------------------------

def test_stage_launcher_keeps_the_exit_code_and_writes_its_peak(tmp_path):
    import os
    import subprocess
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    peak = tmp_path / "peak"
    ok = subprocess.run([sys.executable, str(BENCH / "stage.py"), str(peak),
                         "--help"], env=env, capture_output=True)
    assert ok.returncode == 0 and int(peak.read_text()) > 0
    bad = subprocess.run([sys.executable, str(BENCH / "stage.py"), str(peak),
                          "gram", "--examples", str(tmp_path / "none"),
                          "--out", str(tmp_path / "g")],
                         env=env, capture_output=True)
    assert bad.returncode == 2


def test_end_to_end_reports_reference_speed_medians():
    import run
    passes = [{"pipeline_s": 9.0, "pipeline_ref_s": p, "rss_mb": rss,
               "stage_ref_s": {"gram": g}}
              for p, g, rss in ((5.0, 2.0, 30.0), (7.0, 1.0, 40.0),
                                (6.0, 3.0, 35.0))]
    metrics = run._end_to_end(passes, [0.3, 0.1, 0.2, 0.4])
    assert metrics == {"pipeline_s": (6.0, "s"), "gram_s": (2.0, "s"),
                       "setup_s": (0.25, "s"), "peak_rss_mb": (40.0, "MB")}
