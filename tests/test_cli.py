"""Command-line interface: config layering, subcommands, exit codes."""

import errno
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from qrerank import _native, cli, kernels
from qrerank.cli import (
    build_run_config,
    main,
    parse_config_file,
    resolve_stopword_path,
)
from qrerank.config import KernelConfig, RunConfig, TrainConfig
from qrerank.errors import DataError, NumericalError
from qrerank.kernels import (
    Example,
    config_fingerprint,
    gram_matrix,
    save_gram,
)
from qrerank.pipeline import (
    load_examples,
    make_groups,
    read_examples,
    save_examples,
    score_examples,
)
from qrerank.rankeval import (
    QueryGroup,
    reranked_candidates,
    write_predictions,
)
from qrerank.svm import TrainedModel, load_model, save_model
from qrerank.treebank import SyntaxTree, to_bracketed

from conftest import (
    corpus_row,
    lower,
    make_examples,
    make_rng,
    random_tree,
    run_chain,
    write_corpus,
    write_jsonl,
)


class TestConfigFile:
    def test_parses_flat_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment configuration\n"
            "task = D\n"
            "use_mte = true\n"
            "kernel.tk_kind = STK\n"
            "kernel.lam = 0.7\n"
            "kernel.gamma = none\n"
            "rel.phrase_labels = NP, VP\n"
            "train.C = 2.5\n",
            encoding="utf-8")
        settings = parse_config_file(path)
        assert settings["task"] == "D"
        assert settings["use_mte"] is True
        assert settings["kernel.lam"] == 0.7
        assert settings["kernel.gamma"] is None
        assert settings["rel.phrase_labels"] == frozenset({"NP", "VP"})
        assert settings["train.C"] == 2.5

    def test_quoted_values_unwrapped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text('macro_root_label = "TOP"\n', encoding="utf-8")
        assert parse_config_file(path)["macro_root_label"] == "TOP"

    def test_unknown_key_named_with_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("task = B\nsvm_c = 1.0\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2.*svm_c"):
            parse_config_file(path)

    def test_bad_value_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("kernel.lam = soft\n", encoding="utf-8")
        with pytest.raises(DataError, match="kernel.lam"):
            parse_config_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("task = B\ntask = D\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate"):
            parse_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n", encoding="utf-8")
        with pytest.raises(DataError, match="key = value"):
            parse_config_file(path)

    def test_readme_example_sets_every_key_to_its_default(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.delenv(cli.ENV_STOPWORD_DIR, raising=False)
        readme = (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8")
        path = tmp_path / "experiment.cfg"
        path.write_text(readme.split("# experiment.cfg\n")[1].split("```")[0],
                        encoding="utf-8")
        settings = parse_config_file(path)
        parsers, _ = cli.config_schema()
        assert set(settings) == set(parsers)
        assert build_run_config(settings) == RunConfig(
            stopword_path="english.txt", embedding_path="embeddings.tsv")


class TestBuildRunConfig:
    def test_nested_assembly(self):
        cfg = build_run_config({
            "task": "D",
            "kernel.tk_kind": "STK",
            "kernel.lam": 0.9,
            "rel.min_shared_tokens": 2,
            "train.C": 0.5,
        })
        assert cfg.task == "D"
        assert cfg.kernel.tk_kind == "STK"
        assert cfg.kernel.lam == 0.9
        assert cfg.rel.min_shared_tokens == 2
        assert cfg.train.C == 0.5

    def test_defaults_without_settings(self):
        cfg = build_run_config({})
        assert cfg.task == "B"
        assert cfg.kernel.tk_kind == "PTK"

    def test_unknown_key_rejected(self):
        with pytest.raises(DataError, match="unknown config keys"):
            build_run_config({"kernel.warp": 9})

    def test_invalid_field_value_surfaces_as_data_error(self):
        with pytest.raises(DataError):
            build_run_config({"kernel.lam": 1.5})


class TestStopwordResolution:
    def test_absolute_path_untouched(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("the\n", encoding="utf-8")
        assert resolve_stopword_path(str(path)) == str(path)

    def test_existing_relative_path_untouched(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "stop.txt").write_text("the\n", encoding="utf-8")
        assert resolve_stopword_path("stop.txt") == "stop.txt"

    def test_env_dir_fallback(self, tmp_path, monkeypatch):
        stop_dir = tmp_path / "stopwords"
        stop_dir.mkdir()
        (stop_dir / "english.txt").write_text("the\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.ENV_STOPWORD_DIR, str(stop_dir))
        assert resolve_stopword_path("english.txt") == \
            str(stop_dir / "english.txt")

    def test_unresolvable_path_returned_verbatim(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.ENV_STOPWORD_DIR, raising=False)
        assert resolve_stopword_path("nowhere.txt") == "nowhere.txt"

    def test_none_passes_through(self):
        assert resolve_stopword_path(None) is None


@pytest.fixture
def corpora(tmp_path):
    train = tmp_path / "train.jsonl"
    test = tmp_path / "test.jsonl"
    write_corpus(train, n_queries=5, per_query=5, relevant_ranks=(2, 4))
    write_corpus(test, n_queries=3, per_query=5, relevant_ranks=(3, 5))
    return train, test


class TestSubcommandFlow:
    def test_full_pipeline(self, corpora, tmp_path, capsys):
        chain = run_chain(*corpora, tmp_path)
        assert main(["evaluate", "--predictions", str(chain.predictions),
                     "--k", "10"]) == 0

        out = capsys.readouterr().out
        assert "MAP: 100.0000" in out
        assert "MRR: 100.0000" in out

    def test_sigtest_identical_predictions(self, corpora, tmp_path, capsys):
        pred = run_chain(*corpora, tmp_path).predictions
        capsys.readouterr()

        assert main(["sigtest", "--predictions-a", str(pred),
                     "--predictions-b", str(pred),
                     "--resamples", "1000"]) == 0
        out = capsys.readouterr().out
        assert "p_value: 1.000000" in out

    def test_sigtest_prints_the_map_evaluate_prints(self, tmp_path, capsys):
        # 12 queries whose exact mean AP is a tie at 4 decimals, 56.71875:
        # its exactly rounded sum, as evaluate takes it, prints 56.7187, and
        # numpy's pairwise order of additions 56.7188
        golds = ["000100", "01", "0000010000", "1000", "1100", "00000100",
                 "0010", "100", "1000", "0001100101", "1010000", "000010"]
        pred = tmp_path / "pred.tsv"
        pred.write_text("".join(
            f"q{q:02d}\tc{k}\t{k}\t0.0\t{'true' if g == '1' else 'false'}\n"
            for q, gold in enumerate(golds) for k, g in enumerate(gold, 1)),
            encoding="utf-8")
        assert main(["evaluate", "--predictions", str(pred)]) == 0
        assert "MAP: 56.7187\n" in capsys.readouterr().out
        assert main(["sigtest", "--predictions-a", str(pred),
                     "--predictions-b", str(pred)]) == 0
        out = capsys.readouterr().out
        assert "MAP a: 56.7187\nMAP b: 56.7187\n" in out

    def test_flags_override_config_file(self, corpora, tmp_path):
        train, _ = corpora
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("kernel.rank_mode = AS_IS\n", encoding="utf-8")
        examples = tmp_path / "train.ex"
        assert main(["featurize", "--corpus", str(train), "--out",
                     str(examples)]) == 0
        rank_only = ["gram", "--examples", str(examples), "--config",
                     str(cfg_file), "--use-rank", "--no-use-sim"]
        gram_a = tmp_path / "a.gram"
        gram_b = tmp_path / "b.gram"
        assert main([*rank_only, "--out", str(gram_a)]) == 0
        assert main([*rank_only, "--out", str(gram_b),
                     "--rank-mode", "INVERSE"]) == 0
        # the second example is at rank 2: its rank-only self-kernel is r²
        assert kernels.load_gram(gram_a)[0][1, 1] == 4.0    # AS_IS, the file
        assert kernels.load_gram(gram_b)[0][1, 1] == 0.25   # flag wins

    def test_gamma_none_flag_overrides_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("kernel.gamma = 0.5\n", encoding="utf-8")
        parser = cli.build_parser()
        base = ["gram", "--examples", "t.ex", "--out", "t.gram", "--config",
                str(cfg_file)]
        args = parser.parse_args(base)
        assert cli.config_from_args(args).kernel.gamma == 0.5
        args = parser.parse_args([*base, "--gamma", "none"])
        assert cli.config_from_args(args).kernel.gamma is None


def write_tree_corpus(path, rng, n_queries, per_query=5):
    """A task-B corpus of random parse trees, each text the words of its
    tree, so that the candidates' features and scores differ."""
    rows = []
    for qi in range(n_queries):
        qo = random_tree(rng, max_depth=4, max_branch=3)
        for rank in range(1, per_query + 1):
            qs = random_tree(rng, max_depth=4, max_branch=3)
            rows.append({
                "query_id": f"q{qi}", "candidate_id": f"q{qi}_c{rank}",
                "original_rank": rank,
                "qo_text": " ".join(qo.leaves()),
                "qs_text": " ".join(qs.leaves()),
                "gold_label": "Relevant" if rng.random() < 0.4
                else "Irrelevant",
                "qo_trees": [to_bracketed(qo)],
                "qs_trees": [to_bracketed(qs)]})
    write_jsonl(path, rows)


class TestRerankOrder:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("tk_kind", ["PTK", "STK"])
    def test_predictions_do_not_depend_on_candidate_order(self, tk_kind,
                                                          seed, tmp_path):
        corpus_rng = make_rng(0)
        train = tmp_path / "train.jsonl"
        test = tmp_path / "test.jsonl"
        write_tree_corpus(train, corpus_rng, n_queries=6)
        write_tree_corpus(test, corpus_rng, n_queries=4)
        flags = ["--use-tk", "--tk-kind", tk_kind, "--use-rank"]
        chain = run_chain(train, test, tmp_path, flags)

        # shuffle the candidates within each query of the test examples
        by_query: dict[str, list[str]] = {}
        for line in chain.test_examples.read_text(
                encoding="utf-8").splitlines(keepends=True):
            by_query.setdefault(json.loads(line)["query_id"], []).append(line)
        rng = make_rng(seed)
        shuffled = [group[i] for group in by_query.values()
                    for i in rng.permutation(len(group))]
        assert shuffled != [line for group in by_query.values()
                            for line in group]
        shuffled_examples = tmp_path / "shuffled.examples"
        shuffled_examples.write_text("".join(shuffled), encoding="utf-8")

        predictions = tmp_path / "shuffled.tsv"
        assert main(["rerank", "--model", str(chain.model),
                     "--train-examples", str(chain.train_examples),
                     "--test-examples", str(shuffled_examples),
                     "--out", str(predictions), *flags]) == 0
        assert predictions.read_bytes() == chain.predictions.read_bytes()


class TestExitCodes:
    def test_usage_error_is_1(self):
        assert main(["no-such-command"]) == 1
        assert main(["featurize"]) == 1  # missing required flags
        assert main([]) == 1

    def test_help_is_0(self, capsys):
        assert main(["--help"]) == 0
        assert "featurize" in capsys.readouterr().out

    def test_missing_file_is_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        code = main(["featurize", "--corpus", str(missing),
                     "--out", str(tmp_path / "out.ex")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no mkfifo")
    def test_a_gram_that_is_not_a_regular_file_is_2(self, tmp_path, capsys):
        # a FIFO with no writer: opening it would block, so it is not opened
        fifo, examples = tmp_path / "train.gram", tmp_path / "train.ex"
        os.mkfifo(fifo)
        write_jsonl(examples, [{"label": 1}])
        assert main(["train", "--gram", str(fifo), "--examples",
                     str(examples), "--out", str(tmp_path / "m.txt")]) == 2
        assert capsys.readouterr().err == \
            f"error: {fifo}: not a regular file\n"

    def test_bad_corpus_is_2(self, tmp_path, capsys):
        corpus = tmp_path / "bad.jsonl"
        corpus.write_text("{\"query_id\": \"q\"}\n", encoding="utf-8")
        code = main(["featurize", "--corpus", str(corpus),
                     "--out", str(tmp_path / "out.ex")])
        assert code == 2
        assert "missing fields" in capsys.readouterr().err

    def test_bad_config_value_is_2(self, corpora, tmp_path, capsys):
        train, _ = corpora
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("kernel.lam = 2.0\n", encoding="utf-8")
        code = main(["featurize", "--corpus", str(train),
                     "--out", str(tmp_path / "o.ex"),
                     "--config", str(cfg_file)])
        assert code == 2

    def test_numerical_error_is_3(self, monkeypatch, tmp_path, capsys):
        def unstable(args):
            raise NumericalError("synthetic instability")

        monkeypatch.setattr(cli, "_cmd_evaluate", unstable)
        code = main(["evaluate", "--predictions", str(tmp_path / "x.tsv")])
        assert code == 3
        assert "numerical error" in capsys.readouterr().err

    def test_empty_feature_vector_is_2(self, corpora, tmp_path, capsys):
        train, _ = corpora
        train_ex = tmp_path / "train.ex"
        main(["featurize", "--corpus", str(train), "--out", str(train_ex)])
        rows = [json.loads(line) for line in
                train_ex.read_text(encoding="utf-8").splitlines()]
        for row in rows:
            row["vec"] = []
        write_jsonl(train_ex, rows)
        capsys.readouterr()
        code = main(["gram", "--examples", str(train_ex),
                     "--out", str(tmp_path / "g.gram")])
        assert code == 2
        assert (f"error: {train_ex}:1: example vec is empty"
                in capsys.readouterr().err)

    def test_a_ptk_feature_whose_self_kernels_underflow_is_2(self, tmp_path,
                                                              capsys):
        # at λ = μ = 1e-100 the self-kernels are near 1e-300: their product
        # rounds to 0, and the feature, inf, is refused as a vec value
        corpus, out = tmp_path / "c.jsonl", tmp_path / "c.ex"
        write_corpus(corpus, n_queries=1, per_query=2, with_trees=True)
        code = main(["featurize", "--corpus", str(corpus), "--out", str(out),
                     "--use-ptk-feature", "--lam", "1e-100", "--mu", "1e-100"])
        assert code == 2
        assert "error: example vec contains non-finite values\n" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field,bad,message", [
        ("vec", lambda v: ["x"] + v[1:],
         "example vec item 'x' is not a real number"),
        ("vec", lambda v: "abc", "example vec must be a 1-d array"),
        ("vec", lambda v: {"a": 1}, "example vec must be a 1-d array"),
        ("original_rank", lambda v: "x",
         "original_rank must be an integer >= 1, got 'x'"),
        ("vec", lambda v: [True] + v[1:],
         "example vec item True is not a real number"),
        ("original_rank", lambda v: True,
         "original_rank must be an integer >= 1, got True"),
        ("query_id", lambda v: 5, "example query_id must be a string, got 5"),
    ], ids=["vec-string-item", "vec-string", "vec-object", "rank-string",
            "vec-bool-item", "rank-bool", "query-id-int"])
    def test_malformed_examples_file_is_2(self, field, bad, message, corpora,
                                          tmp_path, capsys):
        train_ex = tmp_path / "train.ex"
        main(["featurize", "--corpus", str(corpora[0]), "--out", str(train_ex)])
        rows = [json.loads(line) for line in
                train_ex.read_text(encoding="utf-8").splitlines()]
        rows[1][field] = bad(rows[1]["vec"])
        write_jsonl(train_ex, rows)
        capsys.readouterr()
        gram = tmp_path / "g.gram"
        code = main(["gram", "--examples", str(train_ex), "--out", str(gram)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {train_ex}:2: {message}\n" in err
        assert "Traceback" not in err
        assert not gram.exists()

    def test_non_finite_gram_is_3_and_writes_no_file(self, corpora, tmp_path,
                                                     capsys):
        """Run as its own process, where a numpy warning would reach
        stderr: the exit-3 message must be all that is printed there, after
        the one line naming why the Python engine runs where the native one
        is unavailable (every Gram row is an engine call)."""
        train, _ = corpora
        train_ex = tmp_path / "train.ex"
        main(["featurize", "--corpus", str(train), "--out", str(train_ex)])
        rows = [json.loads(line) for line in
                train_ex.read_text(encoding="utf-8").splitlines()]
        for row in rows:
            row["vec"] = [1e200, 1e200]
        write_jsonl(train_ex, rows)
        capsys.readouterr()
        gram = tmp_path / "g.gram"
        done = subprocess.run(
            [sys.executable, "-m", "qrerank.cli", "gram", "--examples",
             str(train_ex), "--vec-kernel", "LINEAR", "--out", str(gram)],
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
            capture_output=True, text=True)
        assert done.returncode == 3
        lines = done.stderr.splitlines()
        if _native.load() is None:
            assert lines.pop(0).startswith(
                "WARNING qrerank._native: native engine unavailable (")
        assert lines == ["numerical error: write_gram: non-finite kernel "
                         "value inf at cell (0, 0)"]
        assert not gram.exists()

    @pytest.mark.parametrize("engine", ["native", "python"])
    @pytest.mark.parametrize("stage", ["gram", "rerank"])
    def test_a_tree_kernel_sum_that_overflows_is_3(self, tmp_path, stage,
                                                   engine):
        """Run as its own process, so that a traceback would reach stderr.
        Δ of the depth-11 subtrees is 1.5·2^1022 at this λ: finite, but the
        exact sum of a tree's kernel with itself overflows."""
        if engine == "native" and _native.load() is None:
            pytest.skip("the native engine does not build or load here")
        half = "a"
        for _ in range(11):
            half = f"(N {half} {half})"
        tree = f"(R {half} {half})"
        examples, out = tmp_path / "ex.jsonl", tmp_path / f"{stage}.out"
        save_examples(examples, [
            Example("q1", f"c{k}", 1 - 2 * k, k + 1, tree_first=tree,
                    tree_second=tree) for k in range(2)])
        flags = ["--use-tk", "--no-use-sim", "--tk-kind", "STK", "--lam",
                 "0.9045936108323791", "--no-normalize-tk", "--out", str(out)]
        if stage == "gram":
            argv = ["gram", "--examples", str(examples), *flags]
        else:
            model = tmp_path / "model.txt"
            save_model(model, TrainedModel((0,), [1.0], 0.0))
            argv = ["rerank", "--model", str(model), "--train-examples",
                    str(examples), "--test-examples", str(examples), *flags]
        prelude = ("from qrerank import _native; _native._engine = None; "
                   if engine == "python" else "")
        done = subprocess.run(
            [sys.executable, "-c", f"import sys; {prelude}from qrerank.cli "
             "import main; sys.exit(main(sys.argv[1:]))", *argv],
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
            capture_output=True, text=True)
        assert done.returncode == 3, done.stderr
        assert "Traceback" not in done.stderr
        errors = [line for line in done.stderr.splitlines()
                  if line.startswith("numerical error:")]
        assert errors == ["numerical error: intermediate overflow in a tree "
                          "kernel's exact sum"]
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--gamma", "--tol", "--smo-eps"])
    def test_infinite_gamma_or_solver_tolerance_is_2(self, flag, corpora,
                                                     tmp_path, capsys):
        train_ex = tmp_path / "train.ex"
        gram = tmp_path / "g.gram"
        main(["featurize", "--corpus", str(corpora[0]), "--out", str(train_ex)])
        main(["gram", "--examples", str(train_ex), "--out", str(gram)])
        stage = {"--gamma": ["gram", "--examples", str(train_ex)],
                 "--tol": ["train", "--gram", str(gram),
                           "--examples", str(train_ex)]}
        stage["--smo-eps"] = stage["--tol"]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([*stage[flag], "--out", str(out), flag, "inf"]) == 2
        assert "must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--svm-c", "inf"], ["--c-scale-neg", "inf"],
        ["--svm-c", "1e200", "--c-scale-pos", "1e200"]],
        ids=["C", "c-scale-neg", "overflow"])
    def test_a_non_finite_box_bound_is_2(self, flags, corpora, tmp_path,
                                         capsys):
        train_ex = tmp_path / "train.ex"
        gram = tmp_path / "g.gram"
        main(["featurize", "--corpus", str(corpora[0]), "--out", str(train_ex)])
        main(["gram", "--examples", str(train_ex), "--out", str(gram)])
        model = tmp_path / "model.txt"
        capsys.readouterr()
        assert main(["train", "--gram", str(gram), "--examples", str(train_ex),
                     "--out", str(model), *flags]) == 2
        assert "must be positive and finite" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("stage", ["sigtest"])
    def test_negative_seed_is_2(self, stage, tmp_path, capsys):
        # numpy would raise its own ValueError
        pred = tmp_path / "p.tsv"
        pred.write_text("q1\tc1\t1\t0.5\ttrue\nq1\tc2\t2\t0.25\tfalse\n",
                        encoding="utf-8")
        capsys.readouterr()
        assert main([stage, "--predictions-a", str(pred), "--predictions-b",
                     str(pred), "--resamples", "1000", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0, got -1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("line,message", [
        (b'{"label": 0}', "2: example label must be +1 or -1, got 0"),
        (b'{"label": true}', "2: example label must be +1 or -1, got True"),
        (b'{"query_id": "q1"}', "2: missing field 'label'"),
        (b"[1, -1]", "2: record must be a JSON object"),
        (b'{"label": "\xff"}', " not valid UTF-8"),
    ], ids=["bad-label", "bool-label", "no-label", "non-object", "non-utf8"])
    def test_train_refuses_a_bad_examples_line_with_2(
            self, line, message, corpora, tmp_path, capsys):
        train_ex = tmp_path / "train.ex"
        gram = tmp_path / "g.gram"
        main(["featurize", "--corpus", str(corpora[0]), "--out", str(train_ex)])
        main(["gram", "--examples", str(train_ex), "--out", str(gram)])
        lines = train_ex.read_bytes().splitlines()
        lines[1] = line
        train_ex.write_bytes(b"\n".join(lines) + b"\n")
        model = tmp_path / "m.txt"
        capsys.readouterr()
        code = main(["train", "--gram", str(gram), "--examples", str(train_ex),
                     "--out", str(model)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {train_ex}:{message}")
        assert "Traceback" not in err
        assert not model.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_gram_entry_beyond_half_the_largest_double_trains_as_is(
            self, tmp_path, capsys):
        # train solves on the file's triangle as it is stored, which no
        # symmetrizing step, (G + G.T) / 2, turns into inf at (0, 0)
        G = np.eye(4)
        G[0, 0] = 1.5e308
        gram = tmp_path / "g.gram"
        examples = tmp_path / "train.ex"
        model = tmp_path / "m.txt"
        save_gram(gram, G, config_fingerprint(KernelConfig()))
        write_jsonl(examples, [{"label": label} for label in (1, -1, 1, -1)])
        code = main(["train", "--gram", str(gram), "--examples", str(examples),
                     "--out", str(model)])
        assert code == 0
        expected = hashlib.sha256(lower(G).tobytes() + bytes([1, 255, 1, 255])
                                  + repr(astuple(TrainConfig())).encode())
        assert (load_model(model).training_checksum
                == expected.hexdigest())

    def test_strict_rerank_fingerprint_mismatch_is_2(self, corpora, tmp_path,
                                                     capsys):
        chain = run_chain(*corpora, tmp_path)
        capsys.readouterr()
        code = main(["rerank", "--model", str(chain.model),
                     "--train-examples", str(chain.train_examples),
                     "--test-examples", str(chain.test_examples),
                     "--out", str(tmp_path / "p.tsv"),
                     "--strict", "--gamma", "0.25"])
        assert code == 2
        assert "fingerprint" in capsys.readouterr().err

    def test_strict_rerank_refuses_another_rank_mode(self, corpora, tmp_path,
                                                     capsys):
        # one examples file serves both rank modes: the kernel fingerprint
        # is what tells a model of one from a run under the other
        chain = run_chain(*corpora, tmp_path,
                          ["--use-rank", "--rank-mode", "AS_IS"])
        rerank = ["rerank", "--model", str(chain.model),
                  "--train-examples", str(chain.train_examples),
                  "--test-examples", str(chain.test_examples),
                  "--out", str(tmp_path / "p.tsv"), "--strict", "--use-rank"]
        capsys.readouterr()
        assert main(rerank) == 2
        assert "fingerprint" in capsys.readouterr().err
        assert main([*rerank, "--rank-mode", "AS_IS"]) == 0

    @pytest.mark.parametrize("stage", ["gram", "rerank"])
    def test_a_rank_beyond_a_double_is_2(self, stage, corpora, tmp_path,
                                         capsys):
        chain = run_chain(*corpora, tmp_path, ["--use-rank"])
        argv = {"gram": ["gram", "--examples", str(chain.train_examples),
                         "--out", str(tmp_path / "g.gram")],
                "rerank": ["rerank", "--model", str(chain.model),
                           "--train-examples", str(chain.train_examples),
                           "--test-examples", str(chain.test_examples),
                           "--out", str(tmp_path / "p.tsv")]}[stage]
        path = chain.train_examples if stage == "gram" else \
            chain.test_examples
        rows = [json.loads(line) for line in
                path.read_text(encoding="utf-8").splitlines()]
        rows[1]["original_rank"] = 10 ** 400     # read, but beyond a double
        write_jsonl(path, rows)
        capsys.readouterr()
        assert main([*argv, "--use-rank"]) == 2
        err = capsys.readouterr().err
        assert ("error: rank block enabled but example (q0, q0_c2): rank "
                "position is too large for a double\n") in err
        assert "Traceback" not in err
        assert main(argv) == 0          # a run without the rank block

    def rerank_with_edited_model(self, pattern, repl, corpora, tmp_path,
                                 capsys):
        """Run the chain, apply ``re.sub(pattern, repl)`` to the model file
        and rerank again: assert exit 2 with no predictions written, and
        return the model's path and stderr."""
        chain = run_chain(*corpora, tmp_path)
        model = chain.model
        model.write_text(re.sub(pattern, repl,
                                model.read_text(encoding="utf-8"),
                                flags=re.M), encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "p.tsv"
        code = main(["rerank", "--model", str(model),
                     "--train-examples", str(chain.train_examples),
                     "--test-examples", str(chain.test_examples),
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()
        return model, capsys.readouterr().err

    def test_non_finite_model_coefficient_is_2(self, corpora, tmp_path,
                                               capsys):
        model, err = self.rerank_with_edited_model(
            r"^dual_coefs: \S+", "dual_coefs: nan", corpora, tmp_path, capsys)
        assert f"error: {model}: dual_coefs must be finite" in err

    def test_repeated_support_index_in_model_is_2(self, corpora, tmp_path,
                                                  capsys):
        # the second support index becomes a copy of the first, which
        # score_examples would count twice
        model, err = self.rerank_with_edited_model(
            r"^(support_indices: (\S+)) \S+", r"\1 \2", corpora, tmp_path,
            capsys)
        assert f"error: {model}: repeated support index" in err

    def test_short_train_examples_file_is_2(self, corpora, tmp_path, capsys):
        chain = run_chain(*corpora, tmp_path)
        # the training examples up to, not including, the one at the
        # model's largest support index
        needed = max(load_model(chain.model).support_indices) + 1
        short = tmp_path / "short.examples"
        short.write_text("".join(chain.train_examples.read_text(
            encoding="utf-8").splitlines(keepends=True)[:needed - 1]),
            encoding="utf-8")
        capsys.readouterr()
        code = main(["rerank", "--model", str(chain.model),
                     "--train-examples", str(short),
                     "--test-examples", str(chain.test_examples),
                     "--out", str(tmp_path / "p.tsv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"at least {needed} training examples" in err
        assert f"{needed - 1} were given" in err


class TestIdsThePredictionsFileCannotHold:
    """An id with a tab, CR or LF would write a predictions line that
    ``evaluate`` cannot read back: ``featurize`` refuses it in the corpus,
    and ``rerank`` in an examples file before it opens its output."""

    @pytest.mark.parametrize("char", ["\t", "\r", "\n"])
    @pytest.mark.parametrize("key", ["query_id", "candidate_id"])
    def test_featurize_refuses_it_naming_the_line(self, tmp_path, capsys,
                                                  key, char):
        corpus = tmp_path / "train.jsonl"
        rows = write_corpus(corpus, n_queries=1, per_query=4)
        rows[2][key] += char + "X"
        write_jsonl(corpus, rows)
        out = tmp_path / "train.ex"
        assert main(["featurize", "--corpus", str(corpus),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert (f"error: {corpus}:3: {key} must be non-empty, with no tab, "
                f"CR or LF, got {rows[2][key]!r}\n") in err
        assert not out.exists()

    @pytest.mark.parametrize("char", ["\t", "\r", "\n"])
    @pytest.mark.parametrize("key", ["query_id", "candidate_id"])
    def test_rerank_refuses_it_before_writing(self, corpora, tmp_path, capsys,
                                              key, char):
        chain = run_chain(*corpora, tmp_path)
        rows = [json.loads(line) for line in
                chain.test_examples.read_text(encoding="utf-8").splitlines()]
        rows[4][key] = "c" + char + "X"
        write_jsonl(chain.test_examples, rows)
        out = tmp_path / "bad.tsv"
        assert main(["rerank", "--model", str(chain.model),
                     "--train-examples", str(chain.train_examples),
                     "--test-examples", str(chain.test_examples),
                     "--out", str(out)]) == 2
        assert (f"{key} must be non-empty, with no tab, CR or LF, got "
                f"{'c' + char + 'X'!r}\n") in capsys.readouterr().err
        assert not out.exists()


class TestStopwordsAsWritten:
    """A stopword file's words are kept as written and folded where they
    are compared, so a case-sensitive REL link leaves a stopword as the
    file spells it unlinked."""

    X = "(S (NP (NNP NASA)) (VP (VBZ launches)))"
    Y = "(S (NP (NNP NASA)) (VP (VBD failed)))"

    @pytest.mark.parametrize("case_flag,word,linked", [
        ("--no-case-insensitive", "NASA", False),
        ("--no-case-insensitive", "nasa", True),
        ("--case-insensitive", "NASA", False),
        ("--case-insensitive", "nasa", False),
    ])
    def test_featurize(self, tmp_path, case_flag, word, linked):
        corpus, stop = tmp_path / "corpus.jsonl", tmp_path / "stop.txt"
        write_jsonl(corpus, [{**corpus_row("q1", 1, True),
                              "qo_trees": [self.X], "qs_trees": [self.Y]}])
        stop.write_text(f"{word}\n", encoding="utf-8")
        out = tmp_path / "out.examples"
        assert main(["featurize", "--corpus", str(corpus), "--out", str(out),
                     "--use-tk", "--stopwords", str(stop), case_flag]) == 0
        record = json.loads(out.read_text(encoding="utf-8"))
        np_ = "(REL-NP (NNP NASA))" if linked else "(NP (NNP NASA))"
        assert record["tree_first"] == f"(ROOT (S {np_} (VP (VBZ launches))))"
        assert record["tree_second"] == f"(ROOT (S {np_} (VP (VBD failed))))"


class TestRepeatedKeys:
    """A JSONL line with a repeated key exits 2, naming its file and line,
    where json would silently keep the last value."""

    def test_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        line = json.dumps(corpus_row("q1", 1, False))
        corpus.write_text(line[:-1] + ', "gold_label": "Relevant"}\n',
                          encoding="utf-8")
        assert main(["featurize", "--corpus", str(corpus), "--out",
                     str(tmp_path / "out.examples")]) == 2
        assert f"error: {corpus}:1: repeated key 'gold_label'" in \
            capsys.readouterr().err
        assert not (tmp_path / "out.examples").exists()

    @pytest.mark.parametrize("stage", ["gram", "train"])
    def test_examples(self, corpora, tmp_path, capsys, stage):
        examples = tmp_path / "train.ex"
        main(["featurize", "--corpus", str(corpora[0]), "--out",
              str(examples)])
        lines = examples.read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2][:-1] + ', "label": 1}'
        examples.write_text("\n".join(lines) + "\n", encoding="utf-8")
        gram = tmp_path / "g.gram"
        if stage == "train":
            main(["featurize", "--corpus", str(corpora[0]), "--out",
                  str(tmp_path / "ok.ex")])
            assert main(["gram", "--examples", str(tmp_path / "ok.ex"),
                         "--out", str(gram)]) == 0
        capsys.readouterr()
        args = {"gram": ["gram", "--examples", str(examples), "--out",
                         str(gram)],
                "train": ["train", "--examples", str(examples), "--gram",
                          str(gram), "--out", str(tmp_path / "m.model")]}
        assert main(args[stage]) == 2
        assert f"error: {examples}:3: repeated key 'label'" in \
            capsys.readouterr().err


class TestMacroRootLabel:
    @pytest.mark.parametrize("label", ["A B", "(A", "A)", "A\u2003B"])
    def test_a_label_that_is_not_one_atom_is_2_before_any_record(
            self, tmp_path, capsys, label):
        # the corpus does not exist: the config is refused before it is read
        assert main(["featurize", "--corpus", str(tmp_path / "none.jsonl"),
                     "--out", str(tmp_path / "o.ex"), "--use-tk",
                     "--macro-root-label", label]) == 2
        assert ("error: macro_root_label must be a non-empty label with no "
                f"whitespace or parenthesis, got {label!r}\n") \
            in capsys.readouterr().err


class TestGramStage:
    """``gram`` writes each row of the lower triangle as it computes it."""

    def test_holds_no_n_by_n_matrix(self, tmp_path):
        # G would take n·n·8 bytes (2.9 MB here); the stage holds the
        # examples (about 0.26 MB) and O(n) per row
        n = 600
        examples = tmp_path / "train.ex"
        save_examples(examples, make_examples(make_rng(7), n,
                                              with_trees=False))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(["gram", "--examples", str(examples), "--out",
                         str(tmp_path / "train.gram"), "--use-rank"]) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * n * n * 8

    @pytest.mark.parametrize("fault,code,message", [
        ("huge-last-vec", 3, "numerical error: write_gram: non-finite "
                             "kernel value inf at cell (24, 24)"),
        ("short-last-vec", 2, "error: feature vectors disagree in dimension"),
        ("out-is-a-dir", 2, "error: [Errno 21] Is a directory"),
    ])
    def test_a_failed_run_leaves_the_older_file(self, fault, code, message,
                                                corpora, tmp_path, capsys):
        train_ex = tmp_path / "train.ex"
        main(["featurize", "--corpus", str(corpora[0]), "--out",
              str(train_ex)])
        rows = [json.loads(line) for line in
                train_ex.read_text(encoding="utf-8").splitlines()]
        if fault == "huge-last-vec":
            rows[-1]["vec"] = [1e200] * len(rows[-1]["vec"])
        elif fault == "short-last-vec":
            rows[-1]["vec"] = rows[-1]["vec"][:-1]
        write_jsonl(train_ex, rows)
        out = tmp_path / "out"
        out.mkdir()
        gram = out / "g.gram"
        if fault == "out-is-a-dir":
            gram.mkdir()
        else:
            gram.write_bytes(b"older")
        capsys.readouterr()
        assert main(["gram", "--examples", str(train_ex), "--out", str(gram),
                     "--vec-kernel", "LINEAR"]) == code
        assert message in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["g.gram"]
        if fault != "out-is-a-dir":
            assert gram.read_bytes() == b"older"

    def test_progress_changes_neither_stdout_nor_the_file(
            self, corpora, tmp_path, capsys, caplog, monkeypatch):
        train_ex = tmp_path / "train.ex"
        main(["featurize", "--corpus", str(corpora[0]), "--out",
              str(train_ex)])
        runs = []
        for after_s in (kernels._PROGRESS_AFTER_S, 0.0):
            monkeypatch.setattr(kernels, "_PROGRESS_AFTER_S", after_s)
            gram = tmp_path / f"{after_s}.gram"
            capsys.readouterr()
            caplog.clear()
            with caplog.at_level("INFO", logger="qrerank.kernels"):
                assert main(["gram", "--examples", str(train_ex), "--out",
                             str(gram)]) == 0
            progress = sum(" of 25 rows, " in r.getMessage()
                           for r in caplog.records)
            out = capsys.readouterr().out
            runs.append((out.replace(str(gram), "GRAM"), gram.read_bytes()))
        assert progress == 10
        assert runs[0] == runs[1]


class TestTreesAsText:
    """``featurize`` links trees as text, and ``gram`` and ``rerank``
    compile each tree from its checked text: no stage builds a SyntaxTree,
    and their files are those of the Python API over ``read_examples``."""

    @pytest.mark.parametrize("ptk_feature", [False, True])
    def test_featurize_builds_no_syntax_tree(self, tmp_path, monkeypatch,
                                             ptk_feature):
        corpus = tmp_path / "train.jsonl"
        write_tree_corpus(corpus, make_rng(23), n_queries=3)
        flags = ["--use-tk", "--use-rank"] + (
            ["--use-ptk-feature"] if ptk_feature else [])

        def featurize(out):
            assert main(["featurize", "--corpus", str(corpus),
                         "--out", str(out), *flags]) == 0
            return out.read_bytes()

        def refuse(self):
            raise AssertionError(f"SyntaxTree({self.label!r}) built")

        plain = featurize(tmp_path / "plain.examples")
        with monkeypatch.context() as m:
            m.setattr(SyntaxTree, "__post_init__", refuse)
            assert featurize(tmp_path / "refused.examples") == plain

    @pytest.mark.parametrize("engine", ["default", "python"])
    @pytest.mark.parametrize("tk_kind", ["PTK", "STK"])
    def test_gram_and_rerank_build_no_syntax_tree(self, tmp_path, monkeypatch,
                                                  engine, tk_kind):
        if engine == "python":
            monkeypatch.setattr(_native, "load", lambda: None)
        rng = make_rng(17)
        train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
        write_tree_corpus(train, rng, n_queries=3)
        write_tree_corpus(test, rng, n_queries=2)
        flags = ["--use-tk", "--use-rank", "--tk-kind", tk_kind]
        ex = {name: tmp_path / f"{name}.examples" for name in ("train", "test")}
        for name, corpus in (("train", train), ("test", test)):
            assert main(["featurize", "--corpus", str(corpus),
                         "--out", str(ex[name]), *flags]) == 0
        gram, model = tmp_path / "train.gram", tmp_path / "model.txt"
        predictions = tmp_path / "predictions.tsv"

        def refuse(self):
            raise AssertionError(f"SyntaxTree({self.label!r}) built")

        with monkeypatch.context() as m:
            m.setattr(SyntaxTree, "__post_init__", refuse)
            assert main(["gram", "--examples", str(ex["train"]),
                         "--out", str(gram), *flags]) == 0
            assert main(["train", "--gram", str(gram), "--examples",
                         str(ex["train"]), "--out", str(model), *flags]) == 0
            assert main(["rerank", "--model", str(model),
                         "--train-examples", str(ex["train"]),
                         "--test-examples", str(ex["test"]),
                         "--out", str(predictions), *flags]) == 0

        cfg = KernelConfig(use_tk=True, use_rank=True, tk_kind=tk_kind)
        train_examples = read_examples(ex["train"])
        test_examples = read_examples(ex["test"])
        save_gram(tmp_path / "api.gram", gram_matrix(train_examples, cfg),
                  config_fingerprint(cfg))
        assert gram.read_bytes() == (tmp_path / "api.gram").read_bytes()
        scores = score_examples(test_examples, load_model(model),
                                train_examples, cfg)
        write_predictions(tmp_path / "api.tsv", [
            QueryGroup(g.query_id, reranked_candidates(g))
            for g in make_groups(test_examples, scores)])
        assert predictions.read_bytes() == \
            (tmp_path / "api.tsv").read_bytes()

    @pytest.mark.parametrize("stage", ["gram", "rerank"])
    @pytest.mark.parametrize("tree,message", [
        ("(ROOT (S x)", "unbalanced parentheses: missing ')' (byte offset 11)"),
        ("(ROOT (S x)) (S y)", "trailing content after tree (byte offset 13)"),
        ("(ROOT (é))", "node has a label but no children (byte offset 9)"),
    ])
    def test_a_malformed_tree_is_2_naming_file_line_and_offset(
            self, tmp_path, capsys, stage, tree, message):
        corpus = tmp_path / "train.jsonl"
        write_corpus(corpus, n_queries=2, per_query=4, with_trees=True)
        chain = run_chain(corpus, corpus, tmp_path, ["--use-tk"])
        examples = chain.train_examples
        rows = [json.loads(line) for line in
                examples.read_text(encoding="utf-8").splitlines()]
        rows[2]["tree_second"] = tree
        write_jsonl(examples, rows)
        capsys.readouterr()
        argv = (["gram", "--examples", str(examples)] if stage == "gram" else
                ["rerank", "--model", str(chain.model),
                 "--train-examples", str(chain.test_examples),
                 "--test-examples", str(examples)])
        assert main([*argv, "--out", str(tmp_path / "out"), "--use-tk"]) == 2
        err = capsys.readouterr().err
        assert f"error: {examples}:3: {message}\n" in err
        assert "Traceback" not in err
        # a kernel with no tree block reads no tree
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["gram", "rerank"])
    def test_a_tree_must_be_a_string_or_null_with_no_tree_block(
            self, tmp_path, capsys, stage):
        corpus = tmp_path / "train.jsonl"
        write_corpus(corpus, n_queries=2, per_query=4, with_trees=True)
        chain = run_chain(corpus, corpus, tmp_path, ["--use-tk"])
        examples = chain.train_examples
        rows = [json.loads(line) for line in
                examples.read_text(encoding="utf-8").splitlines()]
        rows[2]["tree_first"] = ["(S x)"]
        write_jsonl(examples, rows)
        capsys.readouterr()
        argv = (["gram", "--examples", str(examples)] if stage == "gram" else
                ["rerank", "--model", str(chain.model),
                 "--train-examples", str(chain.test_examples),
                 "--test-examples", str(examples)])
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert f"error: {examples}:3: field 'tree_first' must be a " \
            f"bracketed tree or null\n" in capsys.readouterr().err


class TestTrainStage:
    """``train`` solves on the Gram file's lower triangle as it is stored."""

    def test_holds_no_n_by_n_matrix(self, tmp_path):
        # G would take 8n² bytes (18 MB here) and its packed triangle
        # 4n(n+1). On top come the reader's temporaries for one block of
        # cells (about 0.4 MB) and the stage's own objects, which at n = 600
        # would alone exceed 0.05 × 8n². The first run loads what a process
        # loads once (the native engine, lazily imported modules).
        n = 1500
        x = make_rng(31).normal(size=(n, 2))
        x[:, 0] += np.where(np.arange(n) % 2, 3.0, -3.0)
        gram, examples = tmp_path / "train.gram", tmp_path / "train.ex"
        save_gram(gram, x @ x.T, config_fingerprint(KernelConfig()))
        write_jsonl(examples, [{"label": 1 if k % 2 else -1}
                               for k in range(n)])
        argv = ["train", "--gram", str(gram), "--examples", str(examples),
                "--out", str(tmp_path / "model.txt")]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.55 * 8 * n * n

    def test_a_label_count_off_the_gram_is_a_data_error(self, tmp_path,
                                                         capsys):
        gram, examples = tmp_path / "train.gram", tmp_path / "train.ex"
        save_gram(gram, np.eye(3), config_fingerprint(KernelConfig()))
        write_jsonl(examples, [{"label": label} for label in (1, -1) * 2])
        code = main(["train", "--gram", str(gram), "--examples",
                     str(examples), "--out", str(tmp_path / "model.txt")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: gram must be the lower triangle of 4 examples, 10 "
            "values, got shape (6,)\n")
        assert not (tmp_path / "model.txt").exists()


class TestDeepParse:
    def test_featurize_links_a_1200_deep_parse(self, tmp_path):
        corpus = tmp_path / "deep.jsonl"
        rows = write_corpus(corpus, n_queries=1, per_query=3,
                            relevant_ranks=(2,), with_trees=True)
        depth = 1200
        rows[0]["qs_trees"] = ["".join(f"(NP " for _ in range(depth))
                               + "passport" + ")" * depth]
        write_jsonl(corpus, rows)
        out = tmp_path / "deep.ex"
        assert main(["featurize", "--corpus", str(corpus), "--out", str(out),
                     "--use-tk"]) == 0
        examples = load_examples(out)
        assert len(examples) == 3
        # linked against the query's tree, every NP of the chain is marked
        labels = {n.label for n in examples[0].tree_second.iter_nodes()
                  if not n.is_leaf}
        assert labels == {"ROOT", "REL-NP"}


# argv that reaches each loader with the file BAD, the other inputs valid
NON_UTF8_ARGV = {
    "corpus": ["featurize", "--corpus", "BAD", "--out", "o.ex"],
    "stopwords": ["featurize", "--corpus", "TRAIN", "--out", "o.ex",
                  "--stopwords", "BAD"],
    "embeddings": ["featurize", "--corpus", "TRAIN", "--out", "o.ex",
                   "--use-embeddings", "--embeddings", "BAD"],
    "config": ["featurize", "--corpus", "TRAIN", "--out", "o.ex",
               "--config", "BAD"],
    "examples": ["gram", "--examples", "BAD", "--out", "g.txt"],
    "gram": ["train", "--gram", "BAD", "--examples", "x.ex",
             "--out", "m.txt"],
    "model": ["rerank", "--model", "BAD", "--train-examples", "x.ex",
              "--test-examples", "y.ex", "--out", "p.tsv"],
    "predictions": ["evaluate", "--predictions", "BAD"],
}


# The settable configuration, pinned: config key -> how `featurize --help`
# shows its flag, and a non-default value as both the flag and a config file
# take it (booleans, value None, are set in both polarities).
CLI_SURFACE = {
    "task": ("--task {B,D}", "D"),
    "mte_side": ("--mte-side {qo,qs}", "qs"),
    "gst_min_match": ("--gst-min-match GST_MIN_MATCH", "3"),
    "macro_root_label": ("--macro-root-label MACRO_ROOT_LABEL", "TOP"),
    "use_sim_features": ("--use-sim-features, --no-use-sim-features", None),
    "use_ptk_feature": ("--use-ptk-feature, --no-use-ptk-feature", None),
    "use_embeddings": ("--use-embeddings, --no-use-embeddings", None),
    "use_mte": ("--use-mte, --no-use-mte", None),
    "stopword_path": ("--stopwords FILE", "stop.txt"),
    "embedding_path": ("--embeddings FILE", "emb.tsv"),
    "kernel.tk_kind": ("--tk-kind {STK,PTK}", "STK"),
    "kernel.lam": ("--lam LAM", "0.7"),
    "kernel.mu": ("--mu MU", "0.9"),
    "kernel.gamma": ("--gamma GAMMA", "0.25"),
    "kernel.rank_mode": ("--rank-mode {AS_IS,INVERSE}", "AS_IS"),
    "kernel.rank_kernel": ("--rank-kernel {LINEAR,RBF}", "RBF"),
    "kernel.vec_kernel": ("--vec-kernel {LINEAR,RBF}", "LINEAR"),
    "kernel.normalize_tk": ("--normalize-tk, --no-normalize-tk", None),
    "kernel.use_sim": ("--use-sim, --no-use-sim", None),
    "kernel.use_tk": ("--use-tk, --no-use-tk", None),
    "kernel.use_rank": ("--use-rank, --no-use-rank", None),
    "rel.min_shared_tokens": ("--min-shared-tokens MIN_SHARED_TOKENS", "2"),
    "rel.case_insensitive": ("--case-insensitive, --no-case-insensitive",
                             None),
    "rel.phrase_labels": ("--phrase-labels NP,VP,PP", "NP,SBAR"),
    "train.C": ("--svm-c C", "2.5"),
    "train.tol": ("--tol TOL", "0.01"),
    "train.eps": ("--smo-eps SMO_EPS", "1e-7"),
    "train.max_passes": ("--max-passes MAX_PASSES", "50"),
    "train.c_scale_pos": ("--c-scale-pos C_SCALE_POS", "2.0"),
    "train.c_scale_neg": ("--c-scale-neg C_SCALE_NEG", "0.5"),
}

# config lines that make the other polarity of a boolean a valid RunConfig
SURFACE_COMPANIONS = {
    "use_sim_features": "use_ptk_feature = true",
    "use_embeddings": "embedding_path = emb.tsv",
    "use_mte": "task = D",
    "kernel.use_sim": "kernel.use_tk = true",
}


def _surface_cases():
    for key, (shown, value) in CLI_SURFACE.items():
        flag = shown.split()[0].rstrip(",")
        if value is None:
            yield key, [flag], "true"
            yield key, ["--no-" + flag[2:]], "false"
        else:
            yield key, [flag, value], value


def _dotted(cfg, key):
    for part in key.split("."):
        cfg = getattr(cfg, part)
    return cfg


class TestCliSurface:
    def test_every_config_key_has_one_flag(self):
        assert len(CLI_SURFACE) == 30
        parsers, _ = cli.config_schema()
        assert set(CLI_SURFACE) == set(parsers)

    @pytest.mark.parametrize("key,argv,text", list(_surface_cases()),
                             ids=lambda p: " ".join(p)
                             if isinstance(p, list) else None)
    def test_flag_and_config_file_agree(self, key, argv, text, tmp_path):
        companion = SURFACE_COMPANIONS.get(key, "")
        base = tmp_path / "base.cfg"
        base.write_text(companion + "\n", encoding="utf-8")
        full = tmp_path / "full.cfg"
        full.write_text(f"{companion}\n{key} = {text}\n", encoding="utf-8")
        args = cli.build_parser().parse_args(
            ["featurize", "--corpus", "c.jsonl", "--out", "o.ex",
             "--config", str(base), *argv])
        from_flag = cli.config_from_args(args)
        from_file = build_run_config(parse_config_file(full))
        assert from_flag == from_file
        if text in ("true", "false"):
            assert _dotted(from_flag, key) is (text == "true")
        else:
            assert _dotted(from_flag, key) != _dotted(RunConfig(), key)

    @pytest.mark.parametrize("key", [k for k, (shown, _) in CLI_SURFACE.items()
                                     if "{" in shown])
    def test_bogus_choice_is_a_usage_error(self, key, capsys):
        flag = CLI_SURFACE[key][0].split()[0]
        assert main(["featurize", "--corpus", "c.jsonl", "--out", "o.ex",
                     flag, "BOGUS"]) == 1
        assert "invalid choice: 'BOGUS'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["rel.stopwords"])
    def test_keys_set_through_other_keys_are_unknown(self, key, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = 1\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"unknown config key '{key}'"):
            parse_config_file(path)

    # the solver picks its pairs without a random generator, so no stage
    # but sigtest takes a seed
    @pytest.mark.parametrize("key", ["seed", "train.seed"])
    def test_seed_is_not_a_config_key(self, key, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = 1\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"unknown config key '{key}'"):
            parse_config_file(path)

    @pytest.mark.parametrize("stage", ["featurize", "gram", "train",
                                       "rerank"])
    def test_seed_is_not_a_flag(self, stage, capsys):
        assert main([stage, "--help"]) == 0
        assert "--seed" not in capsys.readouterr().out

    def test_help_lists_every_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        assert main(["featurize", "--help"]) == 0
        shown = {re.split(r"\s{2,}", line.strip())[0]
                 for line in capsys.readouterr().out.splitlines()
                 if line.startswith("  -")}
        assert shown == {shown for shown, _ in CLI_SURFACE.values()} | {
            "-h, --help", "--corpus CORPUS", "--out OUT", "--config CONFIG"}


class TestNonUtf8Input:
    @pytest.mark.parametrize("loader", sorted(NON_UTF8_ARGV))
    def test_exit_code_is_2(self, loader, corpora, tmp_path, capsys,
                            monkeypatch):
        monkeypatch.chdir(tmp_path)     # outputs, were any written
        bad = tmp_path / "utf16.txt"
        bad.write_bytes(b"\xff\xfe" + "q1\tc1\n".encode("utf-16-le"))
        paths = {"BAD": str(bad), "TRAIN": str(corpora[0])}
        argv = [paths.get(a, a) for a in NON_UTF8_ARGV[loader]]
        assert main(argv) == 2
        assert f"error: {bad}: not valid UTF-8" in capsys.readouterr().err


class _FullDisk:
    """A file opened for writing whose disk fills up once ``room`` more
    bytes (characters, in text mode) are written: the write that would pass
    that point writes what fits and raises ENOSPC."""

    def __init__(self, fh, room):
        self._fh, self._room = fh, room

    def write(self, data):
        if len(data) > self._room:
            self._fh.write(data[:self._room])
            self._room = 0
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self._room -= len(data)
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


class TestOneWriter:
    """Every stage writes its ``--out`` through one writer: a disk that
    fills up partway through leaves the file that was there, or none, and
    no temporary file, and the stage exits 2."""

    STAGES = ["featurize", "gram", "train", "rerank"]

    @staticmethod
    def argv(stage, chain, corpora, out):
        inputs = {
            "featurize": ["--corpus", corpora[0]],
            "gram": ["--examples", chain.train_examples],
            "train": ["--gram", chain.gram, "--examples",
                      chain.train_examples],
            "rerank": ["--model", chain.model, "--train-examples",
                       chain.train_examples, "--test-examples",
                       chain.test_examples],
        }[stage]
        return [str(a) for a in [stage, *inputs, "--out", out]]

    @pytest.mark.parametrize("older", [b"older", None], ids=["older", "none"])
    @pytest.mark.parametrize("stage", STAGES)
    def test_a_full_disk_is_2_and_leaves_the_output_as_it_was(
            self, stage, older, corpora, tmp_path, capsys, monkeypatch):
        chain = run_chain(*corpora, tmp_path / "chain")
        done = {"featurize": chain.train_examples, "gram": chain.gram,
                "train": chain.model, "rerank": chain.predictions}[stage]
        outdir = tmp_path / "out"
        outdir.mkdir()
        out = outdir / "stage.out"
        if older is not None:
            out.write_bytes(older)
        room = done.stat().st_size // 2
        real_open = open

        def open_on_a_full_disk(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if "w" in mode and isinstance(file, (str, os.PathLike)) and \
                    Path(file).parent == outdir:
                return _FullDisk(fh, room)
            return fh

        monkeypatch.setattr("builtins.open", open_on_a_full_disk)
        capsys.readouterr()
        assert main(self.argv(stage, chain, corpora, out)) == 2
        monkeypatch.undo()
        assert capsys.readouterr().err == \
            f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        if older is None:
            assert list(outdir.iterdir()) == []
        else:
            assert [p.name for p in outdir.iterdir()] == ["stage.out"]
            assert out.read_bytes() == older
        # the same stage with room to spare writes the chain's bytes
        assert main(self.argv(stage, chain, corpora, out)) == 0
        assert out.read_bytes() == done.read_bytes()
        assert [p.name for p in outdir.iterdir()] == ["stage.out"]

    def test_a_tree_that_is_not_text_leaves_no_file(self, tmp_path):
        # the first example is written before the second is refused
        examples = [Example("q1", f"c{k}", 1, k + 1, tree_first="(S x)",
                            tree_second="(S y)") for k in range(2)]
        examples[1].tree_second = SyntaxTree("S")
        path = tmp_path / "examples.jsonl"
        with pytest.raises(DataError, match=re.escape(
                "example (q1, c1) holds a SyntaxTree tree, not bracketed "
                "text")):
            save_examples(path, examples)
        assert list(tmp_path.iterdir()) == []


class TestOutOfMemory:
    """A stage that runs out of memory exits 2 with one ``error:`` line
    naming it, and no traceback."""

    @pytest.mark.parametrize("stage", ["featurize", "gram", "rerank"])
    def test_a_native_call_that_returns_no_memory_is_2(
            self, stage, corpora, tmp_path, capsys, monkeypatch):
        chain = run_chain(*corpora, tmp_path / "chain")
        # similarity (featurize) and kernel_row (gram and rerank, which
        # compute no tree block here) return NO_MEMORY
        engine = _native.Engine(
            tree_block=None, kernel_row=lambda *args: -_native.NO_MEMORY,
            smo_step=None, all_finite=None,
            similarity=lambda *args: _native.NO_MEMORY)
        monkeypatch.setattr(_native, "load", lambda: engine)
        out = tmp_path / "stage.out"
        capsys.readouterr()
        assert main(TestOneWriter.argv(stage, chain, corpora, out)) == 2
        assert capsys.readouterr().err == (
            f"error: {stage}: out of memory: the native engine ran out of "
            f"memory\n")
        assert not out.exists()

    def test_a_memory_error_without_text(self, corpora, tmp_path, capsys,
                                         monkeypatch):
        chain = run_chain(*corpora, tmp_path / "chain")

        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("qrerank.svm.train_smo", no_memory)
        capsys.readouterr()
        assert main(TestOneWriter.argv("train", chain, corpora,
                                       tmp_path / "m.txt")) == 2
        assert capsys.readouterr().err == "error: train: out of memory\n"


class TestFingerprintCheck:
    """``train`` checks the Gram's kernel fingerprint and ``rerank`` the
    model's, each against its own kernel config, by one check: a mismatch
    warns, naming the file, or with ``rerank --strict`` exits 2."""

    def test_train_warns_once_and_stamps_the_grams_fingerprint(
            self, corpora, tmp_path, caplog):
        chain = run_chain(*corpora, tmp_path)
        gram, model = tmp_path / "other.gram", tmp_path / "other.txt"
        assert main(["gram", "--examples", str(chain.train_examples),
                     "--out", str(gram), "--gamma", "0.25"]) == 0
        caplog.clear()
        assert main(["train", "--gram", str(gram), "--examples",
                     str(chain.train_examples), "--out", str(model)]) == 0
        current = config_fingerprint(KernelConfig())
        other = config_fingerprint(KernelConfig(gamma=0.25))
        assert [r.getMessage() for r in caplog.records
                if r.levelname == "WARNING"] == [
            f"{gram}: kernel fingerprint {other[:12]}… does not match the "
            f"current kernel config {current[:12]}…"]
        assert load_model(model).kernel_fingerprint == other

    def test_rerank_warns_without_strict(self, corpora, tmp_path, caplog):
        chain = run_chain(*corpora, tmp_path)
        out = tmp_path / "p.tsv"
        caplog.clear()
        assert main(["rerank", "--model", str(chain.model),
                     "--train-examples", str(chain.train_examples),
                     "--test-examples", str(chain.test_examples),
                     "--out", str(out), "--gamma", "0.25"]) == 0
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelname == "WARNING"]
        assert len(warnings) == 1
        assert warnings[0].startswith(f"{chain.model}: kernel fingerprint ")
        assert out.exists()
