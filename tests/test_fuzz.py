"""Loader fuzz: every loader of a text artifact, fed seeded corruptions of a
valid file, either loads it or raises DataError; no other exception escapes.
The same corruptions fed to every CLI stage, one input file at a time, end
in exit 0, 2 or 3. The Gram readers' own fuzz, with corruptions of the
file's layout, is in test_kernels.py."""

import re
import sys
from pathlib import Path

import pytest

from qrerank.cli import main, parse_config_file
from qrerank.errors import DataError
from qrerank.kernels import load_gram_lower
from qrerank.pipeline import (
    load_corpus,
    load_examples,
    load_labels,
    read_examples,
)
from qrerank.rankeval import read_predictions
from qrerank.svm import load_model

from conftest import make_rng, run_chain, write_corpus

LOADERS = {
    "config": parse_config_file,
    "corpus": lambda path: load_corpus(path, "B"),
    "examples": load_examples,
    "gram": load_gram_lower,
    "labels": load_labels,
    "model": load_model,
    "predictions": read_predictions,
    "text_examples": read_examples,
}

# what a corrupted field may read: empty, non-finite, out of range, of
# another JSON type, a lone delimiter of one of the formats, not UTF-8
TOKENS = [b"", b"nan", b"inf", b"-inf", b"-1", b"0", b"1e999", b"9" * 30,
          b"null", b"true", b"[]", b"{}", b'"x"', b"(", b")", b"(NP", b"\t",
          b"\n", b":", b"=", b",", b"#", b"\xff"]


def mutations(rng, data):
    """Corruptions of the file ``data``, drawn from ``rng``."""
    pos = int(rng.integers(len(data)))
    yield data[:pos]                                          # truncated
    yield data[:pos] + bytes([int(rng.integers(256))]) + data[pos + 1:]
    yield data[:pos] + rng.bytes(int(rng.integers(1, 9))) + data[pos:]
    yield data[:pos] + data[pos + int(rng.integers(1, 60)):]  # a span cut
    lines = data.splitlines(keepends=True)
    k = int(rng.integers(len(lines)))
    yield b"".join(lines[:k] + lines[k + 1:])                 # a line cut
    yield b"".join(lines[:k + 1] + lines[k:])                 # a line twice
    yield b"".join(lines[:k] + [lines[k].rstrip(b"\n")])      # no newline
    words = list(re.finditer(rb'[^\s,:=\[\]{}()"]+', data))
    for _ in range(4):                                        # a field
        word = words[int(rng.integers(len(words)))]
        token = TOKENS[int(rng.integers(len(TOKENS)))]
        yield data[:word.start()] + token + data[word.end():]


FLAGS = ["--use-tk", "--use-rank"]


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The corpus and the files of every stage of one valid chain with
    trees."""
    root = tmp_path_factory.mktemp("chain")
    train, test = root / "train.jsonl", root / "test.jsonl"
    write_corpus(train, n_queries=3, per_query=4, with_trees=True)
    write_corpus(test, n_queries=2, per_query=4, with_trees=True)
    paths = run_chain(train, test, root / "out", FLAGS)
    paths.corpus = train
    return paths


@pytest.fixture(scope="module")
def artifacts(chain):
    """A valid file for each loader: the files of one chain with trees,
    and the README's example config."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    config = readme.split("# experiment.cfg\n")[1].split("```")[0]
    return {"config": config.encode(), "corpus": chain.corpus.read_bytes(),
            "examples": chain.train_examples.read_bytes(),
            "gram": chain.gram.read_bytes(),
            "labels": chain.train_examples.read_bytes(),
            "model": chain.model.read_bytes(),
            "predictions": chain.predictions.read_bytes(),
            "text_examples": chain.train_examples.read_bytes()}


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_a_corrupted_file_raises_only_data_error(artifacts, tmp_path,
                                                 loader, seed):
    path = tmp_path / loader
    path.write_bytes(artifacts[loader])
    LOADERS[loader](path)                       # the valid file loads
    rng = make_rng(seed)
    for bad in mutations(rng, artifacts[loader]):
        path.write_bytes(bad)
        try:
            LOADERS[loader](path)
        except DataError:
            pass


# each CLI stage and input file: the file that is corrupted, and the argv
# that reads it as {bad}, every other input being the valid chain's
STAGES = {
    "featurize/corpus": ("corpus", [
        "featurize", "--corpus", "{bad}", "--out", "{out}", *FLAGS]),
    "gram/examples": ("train_examples", [
        "gram", "--examples", "{bad}", "--out", "{out}", *FLAGS]),
    "train/examples": ("train_examples", [
        "train", "--gram", "{gram}", "--examples", "{bad}", "--out", "{out}",
        *FLAGS]),
    "train/gram": ("gram", [
        "train", "--gram", "{bad}", "--examples", "{train_examples}",
        "--out", "{out}", *FLAGS]),
    "rerank/train-examples": ("train_examples", [
        "rerank", "--model", "{model}", "--train-examples", "{bad}",
        "--test-examples", "{test_examples}", "--out", "{out}", *FLAGS]),
    "rerank/test-examples": ("test_examples", [
        "rerank", "--model", "{model}", "--train-examples",
        "{train_examples}", "--test-examples", "{bad}", "--out", "{out}",
        *FLAGS]),
    "rerank/model": ("model", [
        "rerank", "--model", "{bad}", "--train-examples", "{train_examples}",
        "--test-examples", "{test_examples}", "--out", "{out}", *FLAGS]),
    "evaluate/predictions": ("predictions", [
        "evaluate", "--predictions", "{bad}"]),
    "sigtest/predictions": ("predictions", [
        "sigtest", "--predictions-a", "{bad}", "--predictions-b",
        "{predictions}", "--resamples", "1000"]),
}


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("stage", sorted(STAGES))
def test_a_stage_fed_a_corrupted_file_exits_0_2_or_3(chain, tmp_path, stage,
                                                     seed):
    source, argv = STAGES[stage]
    bad = tmp_path / "bad"
    files = {name: str(path) for name, path in vars(chain).items()}
    argv = [arg.format(bad=bad, out=tmp_path / "out", **files)
            for arg in argv]
    valid = getattr(chain, source).read_bytes()
    bad.write_bytes(valid)
    assert main(argv) == 0                      # the valid file runs
    for data in mutations(make_rng(seed), valid):
        bad.write_bytes(data)
        assert main(argv) in (0, 2, 3)


# the stages that read a JSONL file, as STAGES names them
JSONL_STAGES = ["featurize/corpus", "gram/examples", "train/examples",
                "rerank/train-examples", "rerank/test-examples"]


def run_with_line_2(chain, tmp_path, capsys, stage, edit):
    """Run ``stage`` on its JSONL input with line 2 replaced by
    ``edit(line)``; returns the exit code, stderr and the input's path."""
    source, argv = STAGES[stage]
    bad = tmp_path / "bad"
    files = {name: str(path) for name, path in vars(chain).items()}
    argv = [arg.format(bad=bad, out=tmp_path / "out", **files)
            for arg in argv]
    lines = getattr(chain, source).read_text(encoding="utf-8").splitlines()
    lines[1] = edit(lines[1])
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = main(argv)
    return code, capsys.readouterr().err, bad


@pytest.mark.parametrize("where", ["original_rank", "unknown-key"])
@pytest.mark.parametrize("stage", JSONL_STAGES)
def test_an_integer_beyond_the_digit_limit_exits_2(chain, tmp_path, capsys,
                                                   stage, where):
    # Python 3.10 before 3.10.7 has no limit on integer digits
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts integers of any length")
    digits = "9" * (limit + 1)
    edit = {"original_rank": lambda line: re.sub(
                r'"original_rank": \d+', f'"original_rank": {digits}', line),
            "unknown-key": lambda line: line[:-1] + f', "extra": {digits}}}',
            }[where]
    code, err, bad = run_with_line_2(chain, tmp_path, capsys, stage, edit)
    assert code == 2
    assert f"error: {bad}:2: invalid JSON: Exceeds the limit" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("stage", JSONL_STAGES)
def test_arrays_nested_too_deep_exit_2(chain, tmp_path, capsys, stage):
    # the json decoder recurses once per level of nesting
    code, err, bad = run_with_line_2(
        chain, tmp_path, capsys, stage,
        lambda line: "[" * 100_000 + "]" * 100_000)
    assert code == 2
    assert f"error: {bad}:2: invalid JSON: maximum recursion depth" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
