"""Command-line interface: config layering, subcommands, exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from qrerank import cli
from qrerank.cli import (
    build_run_config,
    main,
    parse_config_file,
    resolve_stopword_path,
)
from qrerank.config import KernelConfig, TrainConfig
from qrerank.errors import DataError, NumericalError
from qrerank.kernels import config_fingerprint, save_gram
from qrerank.pipeline import RunConfig, load_examples
from qrerank.svm import load_model

from conftest import write_corpus, write_jsonl


class TestConfigFile:
    def test_parses_flat_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment configuration\n"
            "task = D\n"
            "seed = 9\n"
            "use_mte = true\n"
            "kernel.tk_kind = STK\n"
            "kernel.lam = 0.7\n"
            "kernel.gamma = none\n"
            "rel.phrase_labels = NP, VP\n"
            "train.C = 2.5\n",
            encoding="utf-8")
        settings = parse_config_file(path)
        assert settings["task"] == "D"
        assert settings["seed"] == 9
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
        path.write_text("seed = 1\nseed = 2\n", encoding="utf-8")
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
        assert set(settings) == set(cli.CONFIG_SCHEMA)
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
            "seed": 4,
        })
        assert cfg.task == "D"
        assert cfg.kernel.tk_kind == "STK"
        assert cfg.kernel.lam == 0.9
        assert cfg.rel.min_shared_tokens == 2
        assert cfg.train.C == 0.5
        assert cfg.seed == 4

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
        train, test = corpora
        train_ex = tmp_path / "train.ex"
        test_ex = tmp_path / "test.ex"
        gram = tmp_path / "train.gram"
        model = tmp_path / "model.txt"
        pred = tmp_path / "pred.tsv"

        assert main(["featurize", "--corpus", str(train),
                     "--out", str(train_ex)]) == 0
        assert main(["featurize", "--corpus", str(test),
                     "--out", str(test_ex)]) == 0
        assert main(["gram", "--examples", str(train_ex),
                     "--out", str(gram)]) == 0
        assert main(["train", "--gram", str(gram),
                     "--examples", str(train_ex),
                     "--out", str(model)]) == 0
        assert main(["rerank", "--model", str(model),
                     "--train-examples", str(train_ex),
                     "--test-examples", str(test_ex),
                     "--out", str(pred)]) == 0
        assert main(["evaluate", "--predictions", str(pred),
                     "--k", "10"]) == 0

        out = capsys.readouterr().out
        assert "MAP: 100.0000" in out
        assert "MRR: 100.0000" in out

    def test_sigtest_identical_predictions(self, corpora, tmp_path, capsys):
        train, test = corpora
        paths = {}
        for name, corpus in (("train", train), ("test", test)):
            paths[name] = tmp_path / f"{name}.ex"
            main(["featurize", "--corpus", str(corpus),
                  "--out", str(paths[name])])
        gram = tmp_path / "g.gram"
        model = tmp_path / "m.txt"
        pred = tmp_path / "p.tsv"
        main(["gram", "--examples", str(paths["train"]), "--out", str(gram)])
        main(["train", "--gram", str(gram), "--examples",
              str(paths["train"]), "--out", str(model)])
        main(["rerank", "--model", str(model),
              "--train-examples", str(paths["train"]),
              "--test-examples", str(paths["test"]), "--out", str(pred)])
        capsys.readouterr()

        assert main(["sigtest", "--predictions-a", str(pred),
                     "--predictions-b", str(pred),
                     "--resamples", "1000"]) == 0
        out = capsys.readouterr().out
        assert "p_value: 1.000000" in out

    def test_flags_override_config_file(self, corpora, tmp_path):
        train, _ = corpora
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("rank_mode = AS_IS\n", encoding="utf-8")
        out_a = tmp_path / "a.ex"
        out_b = tmp_path / "b.ex"
        assert main(["featurize", "--corpus", str(train), "--out",
                     str(out_a), "--config", str(cfg_file)]) == 0
        assert main(["featurize", "--corpus", str(train), "--out",
                     str(out_b), "--config", str(cfg_file),
                     "--rank-mode", "INVERSE"]) == 0
        ex_a = load_examples(out_a)
        ex_b = load_examples(out_b)
        assert ex_a[1].rank_value == 2.0      # AS_IS from the file
        assert ex_b[1].rank_value == 0.5      # flag wins

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
            row["vec"] = row["vec_names"] = []
        write_jsonl(train_ex, rows)
        capsys.readouterr()
        code = main(["gram", "--examples", str(train_ex),
                     "--out", str(tmp_path / "g.gram")])
        assert code == 2
        assert (f"error: {train_ex}:1: example vec is empty"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("field,bad,message", [
        ("vec", lambda v: ["x"] + v[1:],
         "example vec item 'x' is not a real number"),
        ("vec", lambda v: "abc", "example vec must be a 1-d array"),
        ("vec", lambda v: {"a": 1}, "example vec must be a 1-d array"),
        ("rank_value", lambda v: "x",
         "rank_value must be a real number, got 'x'"),
        ("vec", lambda v: [True] + v[1:],
         "example vec item True is not a real number"),
        ("rank_value", lambda v: True,
         "rank_value must be a real number, got True"),
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
        stderr: the exit-3 message must be all that is printed there."""
        train, _ = corpora
        train_ex = tmp_path / "train.ex"
        main(["featurize", "--corpus", str(train), "--out", str(train_ex)])
        rows = [json.loads(line) for line in
                train_ex.read_text(encoding="utf-8").splitlines()]
        for row in rows:
            row["vec"], row["vec_names"] = [1e200, 1e200], ["a", "b"]
        write_jsonl(train_ex, rows)
        capsys.readouterr()
        gram = tmp_path / "g.gram"
        done = subprocess.run(
            [sys.executable, "-m", "qrerank.cli", "gram", "--examples",
             str(train_ex), "--vec-kernel", "LINEAR", "--out", str(gram)],
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
            capture_output=True, text=True)
        assert done.returncode == 3
        assert done.stderr == ("numerical error: gram_matrix: non-finite "
                               "kernel value inf at cell (0, 0)\n")
        assert not gram.exists()

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

    @pytest.mark.parametrize("stage", ["train", "sigtest"])
    def test_negative_seed_is_2(self, stage, corpora, tmp_path, capsys):
        # train: random.Random(-1) is random.Random(1), the model of seed 1;
        # sigtest: numpy's own ValueError
        train_ex = tmp_path / "train.ex"
        gram = tmp_path / "g.gram"
        pred = tmp_path / "p.tsv"
        pred.write_text("q1\tc1\t1\t0.5\ttrue\nq1\tc2\t2\t0.25\tfalse\n",
                        encoding="utf-8")
        main(["featurize", "--corpus", str(corpora[0]), "--out", str(train_ex)])
        main(["gram", "--examples", str(train_ex), "--out", str(gram)])
        argv = {"train": ["train", "--gram", str(gram),
                          "--examples", str(train_ex)],
                "sigtest": ["sigtest", "--predictions-a", str(pred),
                            "--predictions-b", str(pred),
                            "--resamples", "1000"]}[stage]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([*argv, "--seed", "-1"]
                    + (["--out", str(out)] if stage == "train" else [])) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be >= 0, got -1\n"
        assert captured.out == ""
        assert not out.exists()

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
        # a Gram file holds one triangle, so train reads a bitwise-symmetric
        # matrix, which (G + G.T) / 2 would have overflowed at (0, 0)
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
        expected = hashlib.sha256(G.tobytes() + bytes([1, 255, 1, 255])
                                  + repr(astuple(TrainConfig())).encode())
        assert (load_model(model).training_checksum
                == expected.hexdigest())

    def test_strict_rerank_fingerprint_mismatch_is_2(self, corpora, tmp_path,
                                                     capsys):
        train, test = corpora
        train_ex = tmp_path / "train.ex"
        test_ex = tmp_path / "test.ex"
        gram = tmp_path / "g.gram"
        model = tmp_path / "m.txt"
        main(["featurize", "--corpus", str(train), "--out", str(train_ex)])
        main(["featurize", "--corpus", str(test), "--out", str(test_ex)])
        main(["gram", "--examples", str(train_ex), "--out", str(gram)])
        main(["train", "--gram", str(gram), "--examples", str(train_ex),
              "--out", str(model)])
        capsys.readouterr()
        code = main(["rerank", "--model", str(model),
                     "--train-examples", str(train_ex),
                     "--test-examples", str(test_ex),
                     "--out", str(tmp_path / "p.tsv"),
                     "--strict", "--gamma", "0.25"])
        assert code == 2
        assert "fingerprint" in capsys.readouterr().err

    def test_non_finite_model_coefficient_is_2(self, corpora, tmp_path,
                                               capsys):
        train, test = corpora
        train_ex = tmp_path / "train.ex"
        test_ex = tmp_path / "test.ex"
        gram = tmp_path / "g.gram"
        model = tmp_path / "m.txt"
        main(["featurize", "--corpus", str(train), "--out", str(train_ex)])
        main(["featurize", "--corpus", str(test), "--out", str(test_ex)])
        main(["gram", "--examples", str(train_ex), "--out", str(gram)])
        main(["train", "--gram", str(gram), "--examples", str(train_ex),
              "--out", str(model)])
        model.write_text(re.sub(r"^dual_coefs: \S+", "dual_coefs: nan",
                                model.read_text(encoding="utf-8"),
                                flags=re.M), encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "p.tsv"
        code = main(["rerank", "--model", str(model),
                     "--train-examples", str(train_ex),
                     "--test-examples", str(test_ex), "--out", str(out)])
        assert code == 2
        assert (f"error: {model}: dual_coefs must be finite"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_short_train_examples_file_is_2(self, corpora, tmp_path, capsys):
        train, test = corpora
        train_ex = tmp_path / "train.ex"
        test_ex = tmp_path / "test.ex"
        gram = tmp_path / "g.gram"
        model = tmp_path / "m.txt"
        main(["featurize", "--corpus", str(train), "--out", str(train_ex)])
        main(["featurize", "--corpus", str(test), "--out", str(test_ex)])
        main(["gram", "--examples", str(train_ex), "--out", str(gram)])
        main(["train", "--gram", str(gram), "--examples", str(train_ex),
              "--out", str(model)])
        # the test file has 15 examples, fewer than the model's largest
        # support index needs
        needed = max(load_model(model).support_indices) + 1
        assert needed > 15
        capsys.readouterr()
        code = main(["rerank", "--model", str(model),
                     "--train-examples", str(test_ex),
                     "--test-examples", str(test_ex),
                     "--out", str(tmp_path / "p.tsv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"at least {needed} training examples" in err
        assert "15 were given" in err


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
    "seed": ("--seed SEED", "7"),
    "rank_mode": ("--rank-mode {AS_IS,INVERSE}", "AS_IS"),
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
        assert len(CLI_SURFACE) == 31
        assert set(CLI_SURFACE) == set(cli.CONFIG_SCHEMA)

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

    @pytest.mark.parametrize("key", ["train.seed", "rel.stopwords"])
    def test_keys_set_through_other_keys_are_unknown(self, key, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = 1\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"unknown config key '{key}'"):
            parse_config_file(path)

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
