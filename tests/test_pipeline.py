"""Corpus loading, featurization, examples files, scoring, and an
experiment run through the CLI stages."""

import json
import re
from dataclasses import fields
from functools import partial
from typing import get_type_hints

import numpy as np
import pytest

from qrerank.cli import main
from qrerank.config import RelConfig, RunConfig, _int_fields
from qrerank.errors import DataError
from qrerank.features import (
    mte_vector,
    ptk_feature,
    rank_feature,
    similarity_vector,
    tokenize,
)
from qrerank.kernels import (
    Example,
    KernelConfig,
    config_fingerprint,
    gram_matrix,
)
from qrerank.pipeline import (
    CorpusRecord,
    build_examples,
    class_counts,
    gold_binary,
    load_corpus,
    load_examples,
    load_labels,
    make_groups,
    read_examples,
    save_examples,
    score_examples,
)
from qrerank.rankeval import (
    QueryGroup,
    read_predictions,
    reranked_candidates,
    write_predictions,
)
from qrerank.svm import TrainConfig, TrainedModel, load_model, train_smo
from qrerank import pipeline
from qrerank.treebank import SyntaxTree, parse_bracketed, to_bracketed, tokens

from conftest import (
    SIM_LAYOUT,
    corpus_row,
    lower,
    make_examples,
    make_rng,
    run_chain,
    write_corpus,
    write_jsonl,
)


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

    def test_repeated_key_named_with_line(self, tmp_path):
        # json would keep the last value, and read the pair as relevant
        path = tmp_path / "corpus.jsonl"
        row = json.dumps(corpus_row("q1", 2, False))
        assert row.count('"gold_label": "Irrelevant"') == 1
        path.write_text(json.dumps(corpus_row("q1", 1, True)) + "\n"
                        + row[:-1] + ', "gold_label": "PerfectMatch"}\n',
                        encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_corpus(path, "B")
        assert str(info.value) == f"{path}:2: repeated key 'gold_label'"

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

    NON_EMPTY = "must be a non-empty string"
    NO_TAB = "must be non-empty, with no tab, CR or LF, got "
    OPTIONAL = "must be a non-empty string or null"
    TREES = "must be a list of bracketed tree strings"

    @pytest.mark.parametrize("key,value,message", [
        ("query_id", 5, f"field 'query_id' {NON_EMPTY}"),
        ("query_id", None, f"field 'query_id' {NON_EMPTY}"),
        ("query_id", "", f"field 'query_id' {NON_EMPTY}"),
        ("query_id", "q\t1", f"query_id {NO_TAB}'q\\t1'"),
        ("candidate_id", ["c"], f"field 'candidate_id' {NON_EMPTY}"),
        ("candidate_id", "", f"field 'candidate_id' {NON_EMPTY}"),
        ("candidate_id", "c\n1", f"candidate_id {NO_TAB}'c\\n1'"),
        ("original_rank", "3", "field 'original_rank' must be an integer"),
        ("original_rank", 3.0, "field 'original_rank' must be an integer"),
        ("original_rank", True, "field 'original_rank' must be an integer"),
        ("original_rank", 0, "field 'original_rank' must be >= 1, got 0"),
        ("original_rank", -2, "field 'original_rank' must be >= 1, got -2"),
        ("qo_text", 5, "field 'qo_text' must be a string"),
        ("qs_text", None, "field 'qs_text' must be a string"),
        ("gold_label", 1, "field 'gold_label' must be a string"),
        ("comment_text", "", f"field 'comment_text' {OPTIONAL}"),
        ("qo_embedding_id", 7, f"field 'qo_embedding_id' {OPTIONAL}"),
        ("qs_embedding_id", "", f"field 'qs_embedding_id' {OPTIONAL}"),
        ("qo_trees", "(S (A a))", f"field 'qo_trees' {TREES}"),
        ("qo_trees", [1], f"field 'qo_trees' {TREES}"),
        ("qs_trees", ["(S (A a))", ""], f"field 'qs_trees' {TREES}"),
        ("qs_trees", {}, f"field 'qs_trees' {TREES}"),
    ])
    def test_a_record_checks_its_own_fields(self, tmp_path, key, value,
                                            message):
        # the one validator: a corpus line and a record built through the
        # API are refused with the same message
        row = dict(corpus_row("q1", 1, True, task="D"), **{key: value})
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [corpus_row("q0", 1, True, task="D"), row])
        with pytest.raises(DataError) as from_line:
            load_corpus(path, "D")
        assert str(from_line.value) == f"{path}:2: {message}"
        with pytest.raises(DataError) as from_api:
            CorpusRecord(**row)
        assert str(from_api.value) == message

    def test_a_record_keeps_its_trees_as_a_tuple(self):
        required = dict(query_id="q1", candidate_id="c1", original_rank=1,
                        qo_text="a", qs_text="b", gold_label="Relevant")
        record = CorpusRecord(**required, qo_trees=["(S (A a))"],
                              qs_trees=[])
        assert record.qo_trees == ("(S (A a))",)
        assert record.qs_trees is None


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
            KernelConfig(rank_mode="UPSIDE_DOWN")
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

    @pytest.mark.parametrize("label", ["", "A B", "A\tB", "(A", "A)",
                                       "\u2003"])
    def test_a_root_label_must_be_one_atom(self, label):
        with pytest.raises(DataError, match=re.escape(
                f"macro_root_label must be a non-empty label with no "
                f"whitespace or parenthesis, got {label!r}")):
            RunConfig(macro_root_label=label)

    def test_rank_only_config_ignores_default_sim_toggle(self):
        cfg = RunConfig(kernel=KernelConfig(use_sim=False, use_rank=True))
        assert cfg.use_sim_features  # harmless: no vec block is built

    @pytest.mark.parametrize("cls,name", [
        (RelConfig, "min_shared_tokens"), (TrainConfig, "max_passes"),
        (RunConfig, "gst_min_match"),
        # the similarities check the argument the run config passes them
        pytest.param(partial(similarity_vector, "a b", "a b"),
                     "gst_min_match", id="similarity_vector-gst_min_match"),
    ])
    @pytest.mark.parametrize("bad", [1.5, 2.0, True, "2"])
    def test_an_int_field_refuses_a_non_integer(self, cls, name, bad):
        with pytest.raises(DataError, match=re.escape(
                f"{name} must be an integer, got {bad!r}")):
            cls(**{name: bad})

    @pytest.mark.parametrize("cls", [RelConfig, KernelConfig, TrainConfig,
                                     RunConfig])
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
        records = self.records(tmp_path)
        examples = build_examples(records, RunConfig())
        assert len(examples) == 8
        for e, r in zip(examples, records):
            assert e.vec == similarity_vector(r.qo_text, r.qs_text)
            assert len(e.vec) == 20
            assert e.tree_first is None and e.tree_second is None

    def test_relevant_candidates_maximize_similarities(self, tmp_path):
        examples = build_examples(self.records(tmp_path), RunConfig())
        for e in examples:
            if e.label > 0:
                np.testing.assert_allclose(e.vec, 1.0)
            else:
                np.testing.assert_allclose(e.vec, 0.0)

    def test_rank_feature_modes(self, tmp_path):
        # the kernel computes the rank feature: either mode writes one file
        records = self.records(tmp_path)
        paths = []
        for mode in ("INVERSE", "AS_IS"):
            paths.append(tmp_path / f"{mode}.jsonl")
            save_examples(paths[-1], build_examples(records, RunConfig(
                kernel=KernelConfig(use_rank=True, rank_mode=mode))))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        for line, r in zip(paths[0].read_text().splitlines(), records):
            assert json.loads(line)["original_rank"] == r.original_rank
            assert "rank_value" not in json.loads(line)

    def test_ptk_feature_appends_dimension(self, tmp_path):
        records = self.records(tmp_path, with_trees=True)
        cfg = RunConfig(use_ptk_feature=True)
        examples = build_examples(records, cfg)
        for e, r in zip(examples, records):
            assert len(e.vec) == 21
            assert e.vec[:20] == similarity_vector(r.qo_text, r.qs_text)
            assert e.vec[20] == ptk_feature(e.tree_first, e.tree_second,
                                            cfg.kernel)
            if e.label > 0:
                # identical texts and trees: both REL-linked trees coincide
                assert e.vec[-1] == pytest.approx(1.0, abs=1e-12)

    def test_trees_built_and_rel_linked(self, tmp_path):
        records = self.records(tmp_path, with_trees=True)
        cfg = RunConfig(kernel=KernelConfig(use_tk=True))
        examples = build_examples(records, cfg)
        for e in examples:
            assert isinstance(e.tree_first, str)
            assert isinstance(e.tree_second, str)
            assert e.tree_first.startswith("(ROOT (")
            marked = "REL-" in e.tree_first
            assert marked == (e.label > 0)

    def test_each_distinct_sentence_is_parsed_once(self, tmp_path,
                                                   monkeypatch):
        records = self.records(tmp_path, with_trees=True)
        cfg = RunConfig(kernel=KernelConfig(use_tk=True, use_rank=True))
        # one call per record: no tree is shared between the calls
        alone = tmp_path / "alone.examples"
        save_examples(alone, [e for r in records
                              for e in build_examples([r], cfg)])
        parsed = []
        check = pipeline.tokens
        monkeypatch.setattr(pipeline, "tokens",
                            lambda text: parsed.append(text) or check(text))
        together = tmp_path / "together.examples"
        save_examples(together, build_examples(records, cfg))
        sentences = {s for r in records for s in (*r.qo_trees, *r.qs_trees)}
        assert sorted(parsed) == sorted(sentences) and len(sentences) == 2
        assert together.read_bytes() == alone.read_bytes()

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
        row = {name: [float(i), -float(i), 0.5]
               for i, name in enumerate(sorted(ids))}
        for e, r in zip(examples, records):
            assert len(e.vec) == 26  # 20 sims + 2*3 embedding values
            assert e.vec[:20] == similarity_vector(r.qo_text, r.qs_text)
            assert e.vec[20:23].tolist() == row[r.query_id]
            assert e.vec[23:].tolist() == row[r.candidate_id]

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
        for e, r in zip(examples, records):
            assert len(e.vec) == 27  # 20 sims + 7 MTE values
            assert e.vec[:20] == similarity_vector(r.qo_text, r.qs_text)
            assert e.vec[20:] == mte_vector(tokenize(r.qo_text),
                                            tokenize(r.comment_text))

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
        for e, r in zip(examples, records):
            assert len(e.vec) == 2 * 3 + 7
            assert e.vec[:6].tolist() == [0.1, 0.2, 0.3] * 2
            assert e.vec[6:] == mte_vector(tokenize(r.qo_text),
                                           tokenize(r.comment_text))

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

        jac = SIM_LAYOUT.index("sim_n1_jaccard")
        assert plain[0].vec[jac] == pytest.approx(0.5)
        assert filtered[0].vec[jac] == pytest.approx(1.0)
        # "the" alone linked the qs NP; with it stopped, no phrase matches qo
        assert "REL-" in plain[0].tree_second
        assert "REL-" not in filtered[0].tree_second

    def test_deterministic(self, tmp_path):
        records = self.records(tmp_path)
        a = build_examples(records, RunConfig())
        b = build_examples(records, RunConfig())
        for e_a, e_b in zip(a, b):
            assert np.array_equal(e_a.vec, e_b.vec)
            assert e_a.original_rank == e_b.original_rank


class TestMacroTree:
    """``featurize`` joins a side's sentence trees under one root, as the
    text ``(ROOT s1 s2 ...)`` in single-space form."""

    def trees(self, qo_trees, qs_trees=("(X (Y nothing))",), **cfg):
        record = CorpusRecord(
            query_id="q1", candidate_id="c1", original_rank=1, qo_text="a",
            qs_text="b", gold_label="Relevant", qo_trees=qo_trees,
            qs_trees=qs_trees)
        e, = build_examples([record], RunConfig(
            kernel=KernelConfig(use_tk=True), **cfg))
        return e.tree_first, e.tree_second

    def test_joins_under_fresh_root(self):
        first, second = self.trees(["(S  (A a))", "(S\t(B b))"])
        assert first == "(ROOT (S (A a)) (S (B b)))"
        assert second == "(ROOT (X (Y nothing)))"

    def test_single_sentence_still_wrapped(self):
        assert self.trees(["(S (A a))"])[0] == "(ROOT (S (A a)))"

    def test_custom_root_label(self):
        first, second = self.trees(["(S (A a))"], macro_root_label="TOP")
        assert first == "(TOP (S (A a)))" and second.startswith("(TOP (")

    def test_empty_list_rejected(self):
        with pytest.raises(DataError, match=r"record \('q1', 'c1'\): "
                           r"qo_text parse trees are required"):
            self.trees(None)

    def test_a_root_in_the_phrase_labels_links(self):
        first, second = self.trees(
            ["(S (A visa))"], ["(S (B visa))"],
            rel=RelConfig(phrase_labels=frozenset({"ROOT", "A"})))
        assert first == "(REL-ROOT (S (REL-A visa)))"
        assert second == "(REL-ROOT (S (B visa)))"

    def test_a_rel_label_in_a_sentence_is_refused(self):
        with pytest.raises(DataError, match="^tree already carries a 'REL-' "
                           "label: 'REL-NP'$"):
            self.trees(["(S (REL-NP (NN visa)))"])

    def test_a_malformed_sentence_names_record_and_offset(self):
        with pytest.raises(DataError, match=re.escape(
                "record ('q1', 'c1'): unbalanced parentheses: missing ')' "
                "(byte offset 8)")):
            self.trees(["(S (A a)"])


# one save_examples line, pinned byte for byte: the 20 similarities of a
# partly overlapping pair, its search rank and both REL-linked trees
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
    '0.0, 0.0, 0.0, 0.0], '
    '"tree_first": "(ROOT (S (WHADVP (WRB How)) (REL-VP (MD can) '
    '(NP (PRP I)) (REL-VP (VB renew) (REL-NP '
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
        save_examples(path, read_examples(path))
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
            assert to_bracketed(back.tree_first) == orig.tree_first
            assert to_bracketed(back.tree_second) == orig.tree_second

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_round_trip_with_trees(self, tmp_path, seed):
        path, again = tmp_path / "examples.jsonl", tmp_path / "again.jsonl"
        save_examples(path, make_examples(make_rng(seed), 12))
        texts = read_examples(path)
        assert all(isinstance(e.tree_first, str)
                   and isinstance(e.tree_second, str) for e in texts)
        save_examples(again, texts)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_load_examples_trees_walk_as_the_text_read(self, tmp_path,
                                                       seed):
        # what the benchmark's checks read: load_examples' trees walk with
        # iter_nodes and leaves, and write back as read_examples' text
        path = tmp_path / "examples.jsonl"
        save_examples(path, make_examples(make_rng(seed), 12))
        for text, walked in zip(read_examples(path), load_examples(path)):
            for key in ("tree_first", "tree_second"):
                tree, toks = getattr(walked, key), tokens(getattr(text, key))
                assert to_bracketed(tree) == getattr(text, key)
                # one node per atom, post-order: a node after its children
                nodes = list(tree.iter_nodes())
                assert len(nodes) == len([t for t in toks if t not in "()"])
                assert nodes[-1] is tree
                assert tree.leaves() == [
                    t for p, t in zip(toks, toks[1:])
                    if p != "(" and t not in "()"]

    @pytest.mark.parametrize("bad", [
        parse_bracketed("(S (A a))"), SyntaxTree("S")], ids=["tree", "leaf"])
    @pytest.mark.parametrize("key", ["tree_first", "tree_second"])
    def test_save_refuses_a_tree_that_is_not_text(self, tmp_path, bad, key):
        example = Example(query_id="q1", candidate_id="c1", label=1,
                          original_rank=1, tree_first="(S x)",
                          tree_second="(S y)")
        setattr(example, key, bad)
        path = tmp_path / "examples.jsonl"
        path.write_bytes(b"older")
        with pytest.raises(DataError, match=re.escape(
                "example (q1, c1) holds a SyntaxTree tree, not bracketed "
                "text")):
            save_examples(path, [example])
        assert path.read_bytes() == b"older"

    def test_read_keeps_a_tree_as_its_text(self, tmp_path):
        record = {"query_id": "q1", "candidate_id": "c1", "label": 1,
                  "original_rank": 1, "vec": None,
                  "tree_first": " (S  (A a)\t(B b)) ", "tree_second": None}
        path = tmp_path / "examples.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert read_examples(path)[0].tree_first == " (S  (A a)\t(B b)) "
        assert to_bracketed(load_examples(path)[0].tree_first) == \
            "(S (A a) (B b))"

    @pytest.mark.parametrize("tree", ["(S x", "x", "(S ()"])
    def test_without_trees_a_tree_is_neither_checked_nor_kept(self, tmp_path,
                                                              tree):
        record = {"query_id": "q1", "candidate_id": "c1", "label": 1,
                  "original_rank": 1, "vec": [0.5],
                  "tree_first": tree, "tree_second": "(S y)"}
        path = tmp_path / "examples.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        [e] = read_examples(path, trees=False)
        assert e.tree_first is None and e.tree_second is None
        assert e.vec.tolist() == [0.5]
        with pytest.raises(DataError, match="byte offset"):
            read_examples(path)

    @pytest.mark.parametrize("tree", [["(S x)"], 1, {"t": "(S x)"}])
    def test_without_trees_a_tree_is_still_a_string_or_null(self, tmp_path,
                                                            tree):
        record = {"query_id": "q1", "candidate_id": "c1", "label": 1,
                  "original_rank": 1, "vec": None,
                  "tree_first": None, "tree_second": tree}
        path = tmp_path / "examples.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(
                f"{path}:1: field 'tree_second' must be a bracketed tree "
                f"or null")):
            read_examples(path, trees=False)

    @pytest.mark.parametrize("reader", [read_examples, load_examples])
    @pytest.mark.parametrize("tree,message", [
        ("(S x", "unbalanced parentheses: missing ')' (byte offset 4)"),
        ("(é (A a)) b", "trailing content after tree (byte offset 11)"),
        ("(S ()", "empty node label (byte offset 4)"),
    ])
    def test_a_malformed_tree_is_named_with_file_line_and_offset(
            self, tmp_path, reader, tree, message):
        record = {"query_id": "q1", "candidate_id": "c1", "label": 1,
                  "original_rank": 1, "vec": None,
                  "tree_first": "(S x)", "tree_second": "(S y)"}
        path = tmp_path / "examples.jsonl"
        path.write_text(json.dumps(record) + "\n"
                        + json.dumps({**record, "tree_second": tree}) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError) as info:
            reader(path)
        assert str(info.value) == f"{path}:2: {message}"

    def assert_reads_as_without(self, tmp_path, key, value):
        """A line holding ``key`` after ``vec``, as earlier versions wrote
        it, reads to the examples and labels of the line without it, and
        saves as that line."""
        record = {"query_id": "q1", "candidate_id": "c1", "label": 1,
                  "original_rank": 1, "vec": [0.5, 1.0],
                  "tree_first": "(S x)", "tree_second": "(S y)"}
        items = list(record.items())
        old = dict(items[:5] + [(key, value)] + items[5:])
        plain, older = tmp_path / "plain.jsonl", tmp_path / "older.jsonl"
        plain.write_text(json.dumps(record) + "\n", encoding="utf-8")
        older.write_text(json.dumps(old) + "\n", encoding="utf-8")
        assert read_examples(older) == read_examples(plain)
        assert load_labels(older) == load_labels(plain)
        save_examples(tmp_path / "again.jsonl", read_examples(older))
        assert (tmp_path / "again.jsonl").read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("length", [0, 1, 20, 26])
    def test_a_line_with_vec_names_reads_as_without(self, tmp_path, length):
        # files written before records dropped the names, whatever the
        # names' length
        self.assert_reads_as_without(tmp_path, "vec_names",
                                     [f"f{i}" for i in range(length)])

    @pytest.mark.parametrize("value", [0.3333333333333333, 3.0, None])
    def test_a_line_with_a_rank_value_reads_as_without(self, tmp_path,
                                                       value):
        # files written before the kernel computed the rank feature
        self.assert_reads_as_without(tmp_path, "rank_value", value)

    def test_none_blocks_round_trip(self, tmp_path):
        example = Example(query_id="q1", candidate_id="c1", label=1,
                          original_rank=2)
        path = tmp_path / "examples.jsonl"
        save_examples(path, [example])
        loaded = load_examples(path)[0]
        assert loaded.vec is None
        assert loaded.tree_first is None

    def test_load_labels_reads_no_tree_and_no_vector(self, tmp_path):
        record = {"query_id": "q1", "candidate_id": "c1", "label": 1,
                  "original_rank": 1, "vec": ["x"],
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

    @pytest.mark.parametrize("reader", [read_examples, load_examples,
                                        load_labels])
    def test_repeated_key_named_with_line(self, tmp_path, reader):
        record = {"query_id": "q1", "candidate_id": "c1", "label": -1,
                  "original_rank": 1, "vec": [0.5],
                  "tree_first": None, "tree_second": None}
        path = tmp_path / "examples.jsonl"
        path.write_text(json.dumps(record) + "\n"
                        + json.dumps(record)[:-1] + ', "label": 1}\n',
                        encoding="utf-8")
        with pytest.raises(DataError) as info:
            reader(path)
        assert str(info.value) == f"{path}:2: repeated key 'label'"

    def test_a_repeated_key_in_a_nested_object_is_refused(self, tmp_path):
        path = tmp_path / "examples.jsonl"
        path.write_text('{"vec": {"a": 1, "a": 2}}\n', encoding="utf-8")
        with pytest.raises(DataError, match=":1: repeated key 'a'$"):
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
                  "original_rank": 1, "vec": None,
                  "tree_first": None, "tree_second": None}
        path = tmp_path / "examples.jsonl"
        path.write_text(json.dumps(record) + "\n"
                        + json.dumps({**record, field: True}) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match=f"examples.jsonl:2: .*{field}"):
            load_examples(path)

    @pytest.mark.parametrize("field,value", [
        ("vec", 5), ("vec", ["a", 1]), ("tree_first", 5),
        ("tree_second", ["(S x)"]),
    ])
    def test_bad_names_or_trees_named_with_line(self, tmp_path, field, value):
        record = {"query_id": "q1", "candidate_id": "c1", "label": 1,
                  "original_rank": 1, "vec": [0.5, 1.0],
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
        groups = make_groups(examples, [0.0] * len(examples))
        assert [g.query_id for g in groups] == ["q0", "q1", "q2"]
        assert all(len(g.candidates) == 4 for g in groups)
        assert [c.candidate_id for c in groups[0].candidates] == \
            [f"q0_c{rank}" for rank in range(1, 5)]

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
        # the search-engine baseline: scored by INVERSE rank, a shuffled
        # stream is written, and read back, in the search order
        shuffled = self.build(tmp_path)[::-1]
        path = tmp_path / "baseline.tsv"
        write_predictions(path, [
            QueryGroup(g.query_id, reranked_candidates(g)) for g in
            make_groups(shuffled, [rank_feature(e.original_rank, "INVERSE")
                                   for e in shuffled])])
        for group in read_predictions(path):
            assert [c.candidate_id for c in group.candidates] == \
                [f"{group.query_id}_c{rank}" for rank in range(1, 5)]

    def test_inverse_rank_scores_reproduce_original_order(self, tmp_path):
        examples = self.build(tmp_path)
        scores = [rank_feature(e.original_rank, "INVERSE") for e in examples]
        for group in make_groups(examples, scores):
            expected = [c.candidate_id for c in sorted(
                group.candidates, key=lambda c: c.original_rank)]
            assert [c.candidate_id for c in reranked_candidates(group)] == \
                expected

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
        model = train_smo(lower(gram), [e.label for e in examples],
                          TrainConfig())
        scores = score_examples(examples, model, examples, cfg.kernel)
        for i, e in enumerate(examples):
            manual = sum(
                coef * gram_matrix([examples[s], e], cfg.kernel)[0, 1]
                for s, coef in zip(model.support_indices, model.dual_coefs)
            ) + model.bias
            assert scores[i] == pytest.approx(manual, abs=1e-12)


class TestRunExperiment:
    """Experiments run through the CLI stages, each reading the files the
    stages before it wrote."""

    def test_perfect_features_give_map_100(self, tmp_path, capsys):
        train = tmp_path / "train.jsonl"
        test = tmp_path / "test.jsonl"
        write_corpus(train, n_queries=6, per_query=5, relevant_ranks=(2, 4))
        write_corpus(test, n_queries=4, per_query=5, relevant_ranks=(3, 5))
        chain = run_chain(train, test, tmp_path / "out")
        capsys.readouterr()
        assert main(["evaluate", "--predictions", str(chain.predictions),
                     "--k", "10"]) == 0
        assert capsys.readouterr().out == \
            "MAP: 100.0000\nAvgRec: 100.0000\nMRR: 100.0000\n"

        assert load_model(chain.model).kernel_fingerprint == \
            config_fingerprint(RunConfig().kernel)
        predictions = chain.predictions.read_text(encoding="utf-8")
        assert len(predictions.strip().splitlines()) == 20

    def test_rerun_gives_byte_identical_predictions(self, tmp_path):
        train = tmp_path / "train.jsonl"
        test = tmp_path / "test.jsonl"
        write_corpus(train, n_queries=5, per_query=5)
        write_corpus(test, n_queries=3, per_query=5)
        a = run_chain(train, test, tmp_path / "a")
        b = run_chain(train, test, tmp_path / "b")
        assert a.predictions.read_bytes() == b.predictions.read_bytes()

    def test_rank_only_kernel_runs_end_to_end(self, tmp_path, capsys):
        train = tmp_path / "train.jsonl"
        test = tmp_path / "test.jsonl"
        write_corpus(train, n_queries=5, per_query=5)
        write_corpus(test, n_queries=3, per_query=5)
        chain = run_chain(train, test, tmp_path / "out",
                          ["--no-use-sim", "--use-rank"])
        capsys.readouterr()
        assert main(["evaluate", "--predictions",
                     str(chain.predictions)]) == 0
        assert [line.split(": ")[0] for line in
                capsys.readouterr().out.splitlines()] == \
            ["MAP", "AvgRec", "MRR"]
