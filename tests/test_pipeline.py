"""Corpus loading, featurization, and the end-to-end experiment."""

import json
import re
from dataclasses import fields
from typing import get_type_hints

import numpy as np
import pytest

from qrerank.config import RelConfig, _int_fields
from qrerank.errors import DataError
from qrerank.features import FeatureConfig
from qrerank.kernels import Example, KernelConfig, gram_matrix
from qrerank.pipeline import (
    CorpusRecord,
    RunConfig,
    build_examples,
    class_counts,
    gold_binary,
    load_corpus,
    load_examples,
    load_labels,
    make_groups,
    rank_baseline_groups,
    run_experiment,
    save_examples,
    score_examples,
    task_cutoff,
)
from qrerank.rankeval import rerank
from qrerank.svm import TrainConfig, TrainedModel, train_smo
from qrerank.treebank import to_bracketed

from conftest import corpus_row, write_corpus, write_jsonl


class TestGoldBinary:
    @pytest.mark.parametrize("label,task,expected", [
        ("PerfectMatch", "B", 1),
        ("Relevant", "B", 1),
        ("Irrelevant", "B", -1),
        ("Direct", "D", 1),
        ("Related", "D", 1),
        ("Irrelevant", "D", -1),
    ])
    def test_mapping(self, label, task, expected):
        assert gold_binary(label, task) == expected

    def test_wrong_task_label_rejected(self):
        with pytest.raises(DataError, match="Direct"):
            gold_binary("Direct", "B")
        with pytest.raises(DataError, match="PerfectMatch"):
            gold_binary("PerfectMatch", "D")

    def test_unknown_task_rejected(self):
        with pytest.raises(DataError, match="task"):
            gold_binary("Relevant", "X")

    def test_task_cutoffs(self):
        assert task_cutoff("B") == 10
        assert task_cutoff("D") == 30


class TestLoadCorpus:
    def test_loads_valid_corpus(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rows = write_corpus(path, n_queries=2, per_query=3)
        records = load_corpus(path, "B")
        assert len(records) == len(rows) == 6
        assert records[0].query_id == "q0"
        assert records[0].original_rank == 1
        assert {r.query_id for r in records} == {"q0", "q1"}

    def test_class_counts(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, n_queries=3, per_query=5, relevant_ranks=(2, 4))
        records = load_corpus(path, "B")
        assert class_counts(records, "B") == (6, 9)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        row = corpus_row("q1", 1, relevant=True)
        path.write_text("\n" + json.dumps(row) + "\n\n", encoding="utf-8")
        assert len(load_corpus(path, "B")) == 1

    def test_empty_corpus_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(DataError, match="empty corpus"):
            load_corpus(path, "B")

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(corpus_row("q1", 1, True)) +
                        "\n{broken\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2"):
            load_corpus(path, "B")

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(DataError, match="JSON object"):
            load_corpus(path, "B")

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        row = corpus_row("q1", 1, True)
        del row["qs_text"]
        write_jsonl(path, [row])
        with pytest.raises(DataError, match="missing fields.*qs_text"):
            load_corpus(path, "B")

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        row = corpus_row("q1", 1, True)
        row["surprise"] = 1
        write_jsonl(path, [row])
        with pytest.raises(DataError, match="unknown fields.*surprise"):
            load_corpus(path, "B")

    @pytest.mark.parametrize("bad_rank", ["3", 3.0, True, None])
    def test_bad_rank_type_rejected(self, tmp_path, bad_rank):
        path = tmp_path / "corpus.jsonl"
        row = corpus_row("q1", 1, True)
        row["original_rank"] = bad_rank
        write_jsonl(path, [row])
        with pytest.raises(DataError, match="original_rank"):
            load_corpus(path, "B")

    def test_rank_range_is_task_specific(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        row = corpus_row("q1", 1, True, task="D")
        row["original_rank"] = 17
        row["candidate_id"] = "q1_c17"
        write_jsonl(path, [row])
        assert load_corpus(path, "D")[0].original_rank == 17

        row_b = corpus_row("q1", 1, True)
        row_b["original_rank"] = 11
        write_jsonl(path, [row_b])
        with pytest.raises(DataError, match="range 1..10"):
            load_corpus(path, "B")

        row_d = corpus_row("q1", 1, True, task="D")
        row_d["original_rank"] = 31
        write_jsonl(path, [row_d])
        with pytest.raises(DataError, match="range 1..30"):
            load_corpus(path, "D")

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        row = corpus_row("q1", 1, True)
        row["gold_label"] = "Direct"
        write_jsonl(path, [row])
        with pytest.raises(DataError, match="Direct"):
            load_corpus(path, "B")

    def test_duplicate_pair_names_both_lines(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        row = corpus_row("q1", 1, True)
        other = dict(corpus_row("q1", 2, False), candidate_id=row["candidate_id"])
        write_jsonl(path, [row, other])
        with pytest.raises(DataError, match=r":2.*first seen at line 1"):
            load_corpus(path, "B")

    def test_rank_collision_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        row = corpus_row("q1", 3, True)
        other = dict(corpus_row("q1", 3, False), candidate_id="q1_other")
        write_jsonl(path, [row, other])
        with pytest.raises(DataError, match="two candidates at rank 3"):
            load_corpus(path, "B")

    def test_comment_text_only_for_task_d(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        row = corpus_row("q1", 1, True, with_comments=True)
        write_jsonl(path, [row])
        with pytest.raises(DataError, match="task D"):
            load_corpus(path, "B")

        row_d = corpus_row("q1", 1, True, task="D", with_comments=True)
        write_jsonl(path, [row_d])
        assert load_corpus(path, "D")[0].comment_text.endswith("indeed")

    def test_trees_must_be_string_lists(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        row = corpus_row("q1", 1, True)
        row["qo_trees"] = "(S (A a))"
        write_jsonl(path, [row])
        with pytest.raises(DataError, match="qo_trees"):
            load_corpus(path, "B")


class TestRunConfigValidation:
    def test_defaults_are_valid(self):
        cfg = RunConfig()
        assert cfg.task == "B"
        assert cfg.kernel.use_sim

    def test_bad_task(self):
        with pytest.raises(DataError, match="task"):
            RunConfig(task="C")

    def test_bad_rank_mode_and_mte_side(self):
        with pytest.raises(DataError, match="rank_mode"):
            RunConfig(rank_mode="UPSIDE_DOWN")
        with pytest.raises(DataError, match="mte_side"):
            RunConfig(task="D", use_mte=True, mte_side="both")

    def test_mte_requires_task_d(self):
        with pytest.raises(DataError, match="task D"):
            RunConfig(task="B", use_mte=True)

    def test_embeddings_require_path(self):
        with pytest.raises(DataError, match="embedding_path"):
            RunConfig(use_embeddings=True)

    def test_extras_require_sim_kernel_block(self):
        rank_only = KernelConfig(use_sim=False, use_rank=True)
        with pytest.raises(DataError, match="feature-vector block"):
            RunConfig(kernel=rank_only, use_ptk_feature=True)

    def test_sim_block_needs_some_family(self):
        with pytest.raises(DataError, match="family"):
            RunConfig(use_sim_features=False)

    def test_rank_only_config_ignores_default_sim_toggle(self):
        cfg = RunConfig(kernel=KernelConfig(use_sim=False, use_rank=True))
        assert cfg.use_sim_features  # harmless: no vec block is built

    @pytest.mark.parametrize("cls,name", [
        (RelConfig, "min_shared_tokens"), (TrainConfig, "max_passes"),
        (TrainConfig, "seed"), (RunConfig, "gst_min_match"),
        (RunConfig, "seed"), (FeatureConfig, "gst_min_match"),
    ])
    @pytest.mark.parametrize("bad", [1.5, 2.0, True, "2"])
    def test_an_int_field_refuses_a_non_integer(self, cls, name, bad):
        with pytest.raises(DataError, match=re.escape(
                f"{name} must be an integer, got {bad!r}")):
            cls(**{name: bad})

    @pytest.mark.parametrize("cls", [RelConfig, KernelConfig, TrainConfig,
                                     RunConfig, FeatureConfig])
    def test_the_int_fields_are_those_annotated_int(self, cls):
        hints = get_type_hints(cls)
        assert _int_fields(cls) == tuple(
            f.name for f in fields(cls) if hints[f.name] is int)


class TestBuildExamples:
    def records(self, tmp_path, **kwargs):
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, n_queries=2, per_query=4, relevant_ranks=(2,),
                     **kwargs)
        return load_corpus(path, kwargs.get("task", "B"))

    def test_sim_only_has_twenty_features(self, tmp_path):
        examples = build_examples(self.records(tmp_path), RunConfig())
        assert len(examples) == 8
        for e in examples:
            assert len(e.vec) == 20
            assert e.vec_names[0] == "sim_n1_gst"
            assert e.vec_names[-1] == "sim_n4_cosine"
            assert e.tree_first is None and e.tree_second is None

    def test_relevant_candidates_maximize_similarities(self, tmp_path):
        examples = build_examples(self.records(tmp_path), RunConfig())
        for e in examples:
            if e.label > 0:
                np.testing.assert_allclose(e.vec, 1.0)
            else:
                np.testing.assert_allclose(e.vec, 0.0)

    def test_rank_feature_modes(self, tmp_path):
        records = self.records(tmp_path)
        inverse = build_examples(records, RunConfig(rank_mode="INVERSE"))
        asis = build_examples(records, RunConfig(rank_mode="AS_IS"))
        for e_inv, e_as, r in zip(inverse, asis, records):
            assert e_inv.rank_value == pytest.approx(1.0 / r.original_rank)
            assert e_as.rank_value == pytest.approx(float(r.original_rank))

    def test_ptk_feature_appends_dimension(self, tmp_path):
        records = self.records(tmp_path, with_trees=True)
        cfg = RunConfig(use_ptk_feature=True)
        examples = build_examples(records, cfg)
        for e in examples:
            assert len(e.vec) == 21
            assert e.vec_names[-1] == "tree_pair_sim"
            if e.label > 0:
                # identical texts and trees: both REL-linked trees coincide
                assert e.vec[-1] == pytest.approx(1.0, abs=1e-12)

    def test_trees_built_and_rel_linked(self, tmp_path):
        records = self.records(tmp_path, with_trees=True)
        cfg = RunConfig(kernel=KernelConfig(use_tk=True))
        examples = build_examples(records, cfg)
        for e in examples:
            assert e.tree_first is not None and e.tree_second is not None
            assert e.tree_first.label == "ROOT"
            marked = "REL-" in to_bracketed(e.tree_first)
            assert marked == (e.label > 0)

    def test_missing_trees_error_names_record(self, tmp_path):
        records = self.records(tmp_path)  # no trees in corpus
        cfg = RunConfig(kernel=KernelConfig(use_tk=True))
        with pytest.raises(DataError, match=r"record \('q0', 'q0_c1'\)"):
            build_examples(records, cfg)

    def test_embeddings_concatenated(self, tmp_path):
        records = self.records(tmp_path)
        emb_path = tmp_path / "emb.tsv"
        lines = []
        ids = {r.query_id for r in records} | \
            {r.candidate_id for r in records}
        for i, name in enumerate(sorted(ids)):
            lines.append(f"{name}\t{i}.0\t{-float(i)}\t0.5")
        emb_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = RunConfig(use_embeddings=True, embedding_path=str(emb_path))
        examples = build_examples(records, cfg)
        for e in examples:
            assert len(e.vec) == 26  # 20 sims + 2*3 embedding values
            assert e.vec_names[20] == "emb_qo_0"
            assert e.vec_names[23] == "emb_qs_0"

    def test_missing_embedding_id_names_record(self, tmp_path):
        records = self.records(tmp_path)
        emb_path = tmp_path / "emb.tsv"
        emb_path.write_text("q0\t1.0\t2.0\n", encoding="utf-8")
        cfg = RunConfig(use_embeddings=True, embedding_path=str(emb_path))
        with pytest.raises(DataError, match="embedding id"):
            build_examples(records, cfg)

    def test_mte_block_for_task_d(self, tmp_path):
        records = self.records(tmp_path, task="D", with_comments=True)
        cfg = RunConfig(task="D", use_mte=True)
        examples = build_examples(records, cfg)
        for e in examples:
            assert len(e.vec) == 27  # 20 sims + 7 MTE values
            assert e.vec_names[20] == "mte_bleu"
            assert e.vec_names[-1] == "mte_length_ratio"

    def test_embedding_and_mte_without_sims(self, tmp_path):
        # dimension arithmetic: 2·d + 7 with the similarity family off
        records = self.records(tmp_path, task="D", with_comments=True)
        emb_path = tmp_path / "emb.tsv"
        ids = sorted({r.query_id for r in records} |
                     {r.candidate_id for r in records})
        emb_path.write_text(
            "\n".join(f"{name}\t0.1\t0.2\t0.3" for name in ids) + "\n",
            encoding="utf-8")
        cfg = RunConfig(task="D", use_sim_features=False, use_mte=True,
                        use_embeddings=True, embedding_path=str(emb_path))
        examples = build_examples(records, cfg)
        for e in examples:
            assert len(e.vec) == 2 * 3 + 7

    def test_mte_needs_comment_text(self, tmp_path):
        records = self.records(tmp_path, task="D")  # no comments
        cfg = RunConfig(task="D", use_mte=True)
        with pytest.raises(DataError, match="comment_text is required"):
            build_examples(records, cfg)

    def test_sim_vectors_independent_of_order_and_config_sequence(
            self, tmp_path):
        # query texts recur across candidates, and the similarity profiles
        # of texts are memoized; no vector may depend on what came before
        rows = []
        for q in range(3):
            for rank in range(1, 5):
                row = corpus_row(f"q{q}", rank, relevant=rank == 2)
                row["qo_text"] = f"How do I renew the the passport {q} ?"
                row["qs_text"] = ("how to renew a passport the fast way"
                                  if rank % 2 else f"the passport {rank} is "
                                  f"the passport of the {q}")
                rows.append(row)
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, rows)
        records = load_corpus(path, "B")
        stop = tmp_path / "stop.txt"
        stop.write_text("the\nHow\nto\n", encoding="utf-8")
        configs = [RunConfig(), RunConfig(stopword_path=str(stop))]

        def vec_bytes(record_order, config_order):
            out = {}
            for r in record_order:
                for c in config_order:
                    (e,) = build_examples([r], configs[c])
                    out[(r.candidate_id, c)] = e.vec.tobytes()
            return out

        forward = {}
        for c in (0, 1):
            for e, r in zip(build_examples(records, configs[c]), records):
                forward[(r.candidate_id, c)] = e.vec.tobytes()
        assert vec_bytes(reversed(records), (1, 0)) == forward
        assert vec_bytes(records, (0, 1)) == forward
        assert any(forward[(r.candidate_id, 0)] != forward[(r.candidate_id, 1)]
                   for r in records)

    def test_tokenless_comment_names_record(self, tmp_path):
        row = corpus_row("q1", 1, True, task="D")
        row["comment_text"] = "!!! ???"
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [row])
        records = load_corpus(path, "D")
        cfg = RunConfig(task="D", use_mte=True)
        with pytest.raises(DataError, match=r"record \('q1',.*empty comment"):
            build_examples(records, cfg)

    def test_stopwords_feed_similarities_and_rel_links(self, tmp_path):
        stop_path = tmp_path / "stop.txt"
        stop_path.write_text("the\n", encoding="utf-8")
        row = corpus_row("q1", 1, True)
        row.update(
            qo_text="the visa", qs_text="visa",
            qo_trees=["(S (NP (DT the) (NN visa)))"],
            qs_trees=["(S (NP (DT the) (NN application)))"],
        )
        write_jsonl(tmp_path / "corpus.jsonl", [row])
        records = load_corpus(tmp_path / "corpus.jsonl", "B")

        plain = build_examples(records, RunConfig(
            kernel=KernelConfig(use_tk=True)))
        filtered = build_examples(records, RunConfig(
            kernel=KernelConfig(use_tk=True), stopword_path=str(stop_path)))

        names = list(plain[0].vec_names)
        jac = names.index("sim_n1_jaccard")
        assert plain[0].vec[jac] == pytest.approx(0.5)
        assert filtered[0].vec[jac] == pytest.approx(1.0)
        # "the" alone linked the qs NP; with it stopped, no phrase matches qo
        assert "REL-" in to_bracketed(plain[0].tree_second)
        assert "REL-" not in to_bracketed(filtered[0].tree_second)

    def test_deterministic(self, tmp_path):
        records = self.records(tmp_path)
        a = build_examples(records, RunConfig())
        b = build_examples(records, RunConfig())
        for e_a, e_b in zip(a, b):
            assert np.array_equal(e_a.vec, e_b.vec)
            assert e_a.rank_value == e_b.rank_value


# one save_examples line, pinned byte for byte: the 20 similarities of a
# partly overlapping pair, its INVERSE rank value and both REL-linked trees
GOLDEN_RECORD = CorpusRecord(
    query_id="q7", candidate_id="q7_c3", original_rank=3,
    qo_text="How can I renew my visa in Qatar?",
    qs_text="Renew the visa in Qatar quickly",
    gold_label="Relevant",
    qo_trees=("(S (WHADVP (WRB How)) (VP (MD can) (NP (PRP I)) (VP (VB renew)"
              " (NP (PRP$ my) (NN visa)) (PP (IN in) (NP (NNP Qatar))))))",),
    qs_trees=("(S (VP (VB Renew) (NP (DT the) (NN visa)) (PP (IN in)"
              " (NP (NNP Qatar))) (ADVP (RB quickly))))",))
GOLDEN_LINE = (
    '{"query_id": "q7", "candidate_id": "q7_c3", "label": 1, '
    '"original_rank": 3, "vec": [0.5714285714285714, 0.5, 0.4, 0.5, '
    '0.5773502691896258, 0.3333333333333333, 0.2857142857142857, 0.2, '
    '0.2857142857142857, 0.33806170189140655, 0.2, 0.16666666666666666, '
    '0.1111111111111111, 0.16666666666666666, 0.20412414523193154, 0.0, '
    '0.0, 0.0, 0.0, 0.0], "vec_names": ["sim_n1_gst", "sim_n1_lcs", '
    '"sim_n1_jaccard", "sim_n1_containment", "sim_n1_cosine", '
    '"sim_n2_gst", "sim_n2_lcs", "sim_n2_jaccard", "sim_n2_containment", '
    '"sim_n2_cosine", "sim_n3_gst", "sim_n3_lcs", "sim_n3_jaccard", '
    '"sim_n3_containment", "sim_n3_cosine", "sim_n4_gst", "sim_n4_lcs", '
    '"sim_n4_jaccard", "sim_n4_containment", "sim_n4_cosine"], '
    '"rank_value": 0.3333333333333333, "tree_first": "(ROOT (S (WHADVP '
    '(WRB How)) (REL-VP (MD can) (NP (PRP I)) (REL-VP (VB renew) (REL-NP '
    '(PRP$ my) (NN visa)) (REL-PP (IN in) (REL-NP (NNP Qatar)))))))", '
    '"tree_second": "(ROOT (S (REL-VP (VB Renew) (REL-NP (DT the) (NN '
    'visa)) (REL-PP (IN in) (REL-NP (NNP Qatar))) (ADVP (RB '
    'quickly)))))"}\n')


class TestExampleFiles:
    def test_saved_line_is_pinned(self, tmp_path):
        cfg = RunConfig(kernel=KernelConfig(use_tk=True, use_rank=True))
        path = tmp_path / "examples.jsonl"
        save_examples(path, build_examples([GOLDEN_RECORD], cfg))
        assert path.read_bytes() == GOLDEN_LINE.encode("utf-8")
        # and it reads back to the same line
        save_examples(path, load_examples(path))
        assert path.read_bytes() == GOLDEN_LINE.encode("utf-8")

    def test_round_trip(self, tmp_path):
        write_corpus(tmp_path / "corpus.jsonl", n_queries=2, per_query=3,
                     with_trees=True)
        records = load_corpus(tmp_path / "corpus.jsonl", "B")
        cfg = RunConfig(kernel=KernelConfig(use_tk=True, use_rank=True))
        examples = build_examples(records, cfg)
        path = tmp_path / "examples.jsonl"
        save_examples(path, examples)
        loaded = load_examples(path)
        assert len(loaded) == len(examples)
        for orig, back in zip(examples, loaded):
            assert back.query_id == orig.query_id
            assert back.candidate_id == orig.candidate_id
            assert back.label == orig.label
            assert back.original_rank == orig.original_rank
            assert np.array_equal(back.vec, orig.vec)
            assert back.vec_names == orig.vec_names
            assert back.rank_value == orig.rank_value
            assert to_bracketed(back.tree_first) == \
                to_bracketed(orig.tree_first)
            assert to_bracketed(back.tree_second) == \
                to_bracketed(orig.tree_second)

    def test_none_blocks_round_trip(self, tmp_path):
        example = Example(query_id="q1", candidate_id="c1", label=1,
                          original_rank=2, rank_value=0.5)
        path = tmp_path / "examples.jsonl"
        save_examples(path, [example])
        loaded = load_examples(path)[0]
        assert loaded.vec is None
        assert loaded.tree_first is None

    def test_load_labels_reads_no_tree_and_no_vector(self, tmp_path):
        record = {"query_id": "q1", "candidate_id": "c1", "label": 1,
                  "original_rank": 1, "vec": ["x"], "rank_value": None,
                  "tree_first": "(S", "tree_second": None}
        path = tmp_path / "examples.jsonl"
        path.write_text(json.dumps(record) + "\n\n"
                        + json.dumps({"label": -1}) + "\n", encoding="utf-8")
        assert load_labels(path) == [1, -1]

    def test_load_labels_agrees_with_load_examples(self, tmp_path):
        path = tmp_path / "examples.jsonl"
        write_corpus(tmp_path / "corpus.jsonl", n_queries=2, per_query=4,
                     relevant_ranks=(2,))
        save_examples(path, build_examples(
            load_corpus(tmp_path / "corpus.jsonl", "B"), RunConfig()))
        assert load_labels(path) == [e.label for e in load_examples(path)]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "examples.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="empty example file"):
            load_examples(path)

    def test_load_labels_rejects_a_file_of_blank_lines(self, tmp_path):
        path = tmp_path / "examples.jsonl"
        path.write_text("\n \n", encoding="utf-8")
        with pytest.raises(DataError, match="empty example file"):
            load_labels(path)

    def test_corrupt_line_named(self, tmp_path):
        path = tmp_path / "examples.jsonl"
        path.write_text("{\n", encoding="utf-8")
        with pytest.raises(DataError, match=":1"):
            load_examples(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "examples.jsonl"
        path.write_text(json.dumps({"query_id": "q1"}) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=":1.*missing field"):
            load_examples(path)

    @pytest.mark.parametrize("field", ["label", "original_rank"])
    def test_bool_label_or_rank_named_with_line(self, tmp_path, field):
        record = {"query_id": "q1", "candidate_id": "c1", "label": 1,
                  "original_rank": 1, "vec": None, "rank_value": None,
                  "tree_first": None, "tree_second": None}
        path = tmp_path / "examples.jsonl"
        path.write_text(json.dumps(record) + "\n"
                        + json.dumps({**record, field: True}) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=f"examples.jsonl:2: .*{field}"):
            load_examples(path)

    @pytest.mark.parametrize("field,value", [
        ("vec_names", 5), ("vec_names", ["a", 1]), ("tree_first", 5),
        ("tree_second", ["(S x)"]),
    ])
    def test_bad_names_or_trees_named_with_line(self, tmp_path, field, value):
        record = {"query_id": "q1", "candidate_id": "c1", "label": 1,
                  "original_rank": 1, "vec": [0.5, 1.0],
                  "vec_names": ["a", "b"], "rank_value": None,
                  "tree_first": "(S x)", "tree_second": "(S y)"}
        path = tmp_path / "examples.jsonl"
        path.write_text(json.dumps(record) + "\n"
                        + json.dumps({**record, field: value}) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=f"examples.jsonl:2: .*{field}"):
            load_examples(path)


class TestGroupsAndScoring:
    def build(self, tmp_path):
        write_corpus(tmp_path / "corpus.jsonl", n_queries=3, per_query=4,
                     relevant_ranks=(2,))
        records = load_corpus(tmp_path / "corpus.jsonl", "B")
        return build_examples(records, RunConfig())

    def test_make_groups_preserves_order(self, tmp_path):
        examples = self.build(tmp_path)
        groups = make_groups(examples)
        assert [g.query_id for g in groups] == ["q0", "q1", "q2"]
        assert all(len(g.candidates) == 4 for g in groups)
        assert groups[0].candidates[0].score is None

    def test_make_groups_attaches_scores(self, tmp_path):
        examples = self.build(tmp_path)
        scores = np.arange(len(examples), dtype=float)
        groups = make_groups(examples, scores)
        assert groups[0].candidates[3].score == 3.0

    def test_score_count_mismatch_rejected(self, tmp_path):
        examples = self.build(tmp_path)
        with pytest.raises(DataError, match="scores for"):
            make_groups(examples, [1.0])

    def test_rank_baseline_orders_by_original_rank(self, tmp_path):
        examples = self.build(tmp_path)
        shuffled = examples[::-1]
        for group in rank_baseline_groups(shuffled):
            ranks = [c.original_rank for c in group.candidates]
            assert ranks == sorted(ranks)

    def test_inverse_rank_scores_reproduce_original_order(self, tmp_path):
        examples = self.build(tmp_path)
        scores = [e.rank_value for e in examples]
        for group in make_groups(examples, scores):
            expected = [c.candidate_id for c in sorted(
                group.candidates, key=lambda c: c.original_rank)]
            assert rerank(group) == expected

    def test_score_examples_rejects_short_train_list(self, tmp_path):
        examples = self.build(tmp_path)
        model = TrainedModel(support_indices=(0, 11),
                             dual_coefs=np.array([1.0, -1.0]), bias=0.0)
        with pytest.raises(DataError, match="at least 12 .* but 11 were"):
            score_examples(examples, model, examples[:11], RunConfig().kernel)

    def test_score_examples_without_supports_gives_the_bias(self, tmp_path):
        examples = self.build(tmp_path)
        model = TrainedModel(support_indices=(), dual_coefs=np.zeros(0),
                             bias=0.25)
        scores = score_examples(examples, model, [], RunConfig().kernel)
        assert scores.tolist() == [0.25] * len(examples)

    def test_score_examples_matches_manual_kernel_sum(self, tmp_path):
        examples = self.build(tmp_path)
        cfg = RunConfig()
        gram = np.array([[gram_matrix([a, b], cfg.kernel)[0, 1]
                          for b in examples] for a in examples])
        model = train_smo(gram, [e.label for e in examples], TrainConfig())
        scores = score_examples(examples, model, examples, cfg.kernel)
        for i, e in enumerate(examples):
            manual = sum(
                coef * gram_matrix([examples[s], e], cfg.kernel)[0, 1]
                for s, coef in zip(model.support_indices, model.dual_coefs)
            ) + model.bias
            assert scores[i] == pytest.approx(manual, abs=1e-12)


class TestRunExperiment:
    def test_perfect_features_give_map_100(self, tmp_path):
        train = tmp_path / "train.jsonl"
        test = tmp_path / "test.jsonl"
        write_corpus(train, n_queries=6, per_query=5, relevant_ranks=(2, 4))
        write_corpus(test, n_queries=4, per_query=5, relevant_ranks=(3, 5))
        out = run_experiment(train, test, RunConfig(), tmp_path / "out")

        assert out["metrics"]["MAP"] == pytest.approx(100.0)
        assert out["metrics"]["AvgRec"] == pytest.approx(100.0)
        assert out["metrics"]["MRR"] == pytest.approx(100.0)

        report = (tmp_path / "out" / "report.txt").read_text()
        assert "MAP: 100.0000" in report
        assert f"config_fingerprint: {out['fingerprint']}" in report
        assert "seed: 0" in report

        predictions = (tmp_path / "out" / "predictions.tsv").read_text()
        assert len(predictions.strip().splitlines()) == 20

    def test_same_seed_byte_identical_predictions(self, tmp_path):
        train = tmp_path / "train.jsonl"
        test = tmp_path / "test.jsonl"
        write_corpus(train, n_queries=5, per_query=5)
        write_corpus(test, n_queries=3, per_query=5)
        cfg = RunConfig(seed=7)
        run_experiment(train, test, cfg, tmp_path / "a")
        run_experiment(train, test, cfg, tmp_path / "b")
        a = (tmp_path / "a" / "predictions.tsv").read_bytes()
        b = (tmp_path / "b" / "predictions.tsv").read_bytes()
        assert a == b

    def test_rank_only_kernel_runs_end_to_end(self, tmp_path):
        train = tmp_path / "train.jsonl"
        test = tmp_path / "test.jsonl"
        write_corpus(train, n_queries=5, per_query=5)
        write_corpus(test, n_queries=3, per_query=5)
        cfg = RunConfig(kernel=KernelConfig(use_sim=False, use_rank=True))
        out = run_experiment(train, test, cfg, tmp_path / "out")
        assert set(out["metrics"]) == {"MAP", "AvgRec", "MRR"}
