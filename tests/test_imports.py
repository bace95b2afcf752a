"""The import boundary: ``import qrerank``, the CLI and every stage load no
numpy (featurize, gram, train, rerank and sigtest also run with every numpy
import blocked, and write what a run with numpy loaded writes), the CLI
loads the config schema and ``logging`` only for the stages that take
config flags, ``evaluate`` loads no ``dataclasses``, and the lazy package
still exposes every public name. Each case runs in a fresh interpreter,
since this process has imported everything already."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qrerank
from qrerank.cli import main

from conftest import write_corpus
from test_cli import CLI_SURFACE

SRC = str(Path(qrerank.__file__).parent.parent)
TRACED = ("features", "kernels", "svm", "rankeval", "pipeline", "rellink",
          "treebank")


def run(code: str, cwd=None, **env) -> str:
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=SRC, **env),
                          capture_output=True, text=True, check=True)
    return done.stdout


def numpy_loaded_after(call: str, cwd=None) -> tuple[int, bool]:
    """Exit code of ``call`` and whether numpy was imported by then."""
    out = run("import sys\nfrom qrerank import cli\n"
              f"code = {call}\n"
              "print(code, 'numpy' in sys.modules)", cwd)
    code, loaded = out.split()[-2:]
    return int(code), loaded == "True"


@pytest.mark.parametrize("argv,code", [
    (["--help"], 0),
    (["gram", "--help"], 0),
    (["gram"], 1),
    (["featurize", "--task", "X"], 1),
])
def test_help_and_usage_errors_load_no_numpy(argv, code):
    assert numpy_loaded_after(f"cli.main({argv!r})") == (code, False)


def test_evaluate_loads_no_numpy(tmp_path):
    (tmp_path / "p.tsv").write_text(PREDICTIONS, encoding="utf-8")
    assert numpy_loaded_after(
        "cli.main(['evaluate', '--predictions', 'p.tsv'])",
        cwd=tmp_path) == (0, False)


def test_evaluate_loads_neither_dataclasses_nor_numpy(tmp_path):
    """(A ``.pth`` file of the interpreter's site may import
    ``dataclasses`` at start-up, so the child drops it from ``sys.modules``
    first.)"""
    (tmp_path / "p.tsv").write_text(PREDICTIONS, encoding="utf-8")
    out = run("import sys\nsys.modules.pop('dataclasses', None)\n"
              "from qrerank import cli\n"
              "code = cli.main(['evaluate', '--predictions', 'p.tsv'])\n"
              "print(code, 'dataclasses' in sys.modules,"
              " 'numpy' in sys.modules)", cwd=tmp_path)
    assert out.split()[-3:] == ["0", "False", "False"]


PREDICTIONS = "q1\tc1\t1\t0.5\ttrue\nq1\tc2\t2\t0.25\tfalse\n"
STARTUP_CASES = {
    "help": ["--help"],
    "no-subcommand": [],
    "unknown-subcommand": ["bogus"],
    "evaluate": ["evaluate", "--predictions", "p.tsv"],
    "sigtest": ["sigtest", "--predictions-a", "p.tsv",
                "--predictions-b", "p.tsv"],
}


@pytest.mark.parametrize("name", STARTUP_CASES)
def test_only_the_config_stages_load_the_schema_and_logging(name, tmp_path):
    """(A ``.pth`` file of the interpreter's site may import ``logging`` at
    start-up, so the child drops it from ``sys.modules`` first.)"""
    (tmp_path / "p.tsv").write_text(PREDICTIONS, encoding="utf-8")
    argv = STARTUP_CASES[name]
    out = run("import sys\nsys.modules.pop('logging', None)\n"
              "from qrerank import cli\n"
              f"code = cli.main({argv!r})\n"
              "print(code, *(m in sys.modules for m in"
              " ('qrerank.config', 'logging', 'numpy')))", cwd=tmp_path)
    code = 0 if name in ("help", "evaluate", "sigtest") else 1
    assert out.split()[-4:] == [str(code), "False", "False", "False"]


def test_gram_help_lists_every_config_flag():
    out = run("from qrerank import cli\ncli.main(['gram', '--help'])",
              COLUMNS="200")
    shown = {re.split(r"\s{2,}", line.strip())[0]
             for line in out.splitlines() if line.startswith("  -")}
    assert shown == {shown for shown, _ in CLI_SURFACE.values()} | {
        "-h, --help", "--examples EXAMPLES", "--out OUT", "--config CONFIG"}


def featurize_argv(tmp_path):
    """Write a task-B corpus with trees, and an embedding file covering it,
    into tmp_path; return the featurize arguments that read them there."""
    rows = write_corpus(tmp_path / "c.jsonl", n_queries=2, per_query=3,
                        with_trees=True)
    ids = sorted({r["query_id"] for r in rows} |
                 {r["candidate_id"] for r in rows})
    (tmp_path / "emb.tsv").write_text(
        "".join(f"{name}\t{i}.5 -{i} 0.25\n" for i, name in enumerate(ids)),
        encoding="utf-8")
    return ["featurize", "--task", "B", "--corpus", "c.jsonl",
            "--out", "c.ex"]


# the tree-pair similarity feature computes with the kernels, which load
# numpy only to take or return a numpy matrix
@pytest.mark.parametrize("flags", [
    [],
    ["--use-tk", "--tk-kind", "PTK", "--use-rank"],
    ["--use-embeddings", "--embeddings", "emb.tsv"],
    ["--use-ptk-feature"],
], ids=["default", "taskB-ptk", "embeddings", "ptk-feature"])
def test_featurize_loads_no_numpy(tmp_path, flags):
    argv = featurize_argv(tmp_path) + flags
    assert numpy_loaded_after(f"cli.main({argv!r})",
                              cwd=tmp_path) == (0, False)


def test_featurize_runs_with_numpy_blocked(tmp_path, monkeypatch):
    """With ``sys.modules["numpy"] = None`` any numpy import fails; the
    examples file is byte-identical to that of a run with numpy loaded."""
    argv = featurize_argv(tmp_path) + ["--use-tk", "--use-rank",
                                         "--use-embeddings",
                                         "--embeddings", "emb.tsv"]
    run("import sys\nsys.modules['numpy'] = None\n"
        f"from qrerank import cli\nsys.exit(cli.main({argv!r}))",
        cwd=tmp_path)
    blocked = (tmp_path / "c.ex").read_bytes()
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert (tmp_path / "c.ex").read_bytes() == blocked


GRAM_CASES = {
    "sim": [],
    "sim-rank": ["--use-rank"],
    "tk-rank-normalized": ["--no-use-sim", "--use-tk", "--normalize-tk",
                           "--use-rank"],
    "linear-vec-rbf-rank": ["--vec-kernel", "LINEAR", "--use-rank",
                            "--rank-kernel", "RBF"],
    "rbf-vec-linear-rank": ["--vec-kernel", "RBF", "--gamma", "0.5",
                            "--use-rank", "--rank-kernel", "LINEAR"],
    "all-blocks": ["--use-tk", "--use-rank"],
}


def gram_argv(tmp_path, flags):
    """Featurize a task-B corpus with trees into tmp_path, and return the
    gram arguments that read it there under ``flags``."""
    assert main(["featurize", "--task", "B", "--corpus",
                 str(tmp_path / "c.jsonl"), "--out", str(tmp_path / "c.ex"),
                 "--use-tk", "--use-rank"]) == 0
    return ["gram", "--examples", "c.ex", "--out", "c.gram", *flags]


@pytest.mark.parametrize("name", GRAM_CASES)
def test_gram_loads_no_numpy(tmp_path, name):
    write_corpus(tmp_path / "c.jsonl", n_queries=2, per_query=3,
                 with_trees=True)
    argv = gram_argv(tmp_path, GRAM_CASES[name])
    assert numpy_loaded_after(f"cli.main({argv!r})",
                              cwd=tmp_path) == (0, False)


@pytest.mark.parametrize("name", ["sim", "all-blocks"])
def test_gram_runs_with_numpy_blocked(tmp_path, monkeypatch, name):
    """With ``sys.modules["numpy"] = None`` any numpy import fails; the Gram
    file is byte-identical to that of a run with numpy loaded."""
    write_corpus(tmp_path / "c.jsonl", n_queries=2, per_query=3,
                 with_trees=True)
    argv = gram_argv(tmp_path, GRAM_CASES[name])
    run("import sys\nsys.modules['numpy'] = None\n"
        f"from qrerank import cli\nsys.exit(cli.main({argv!r}))",
        cwd=tmp_path)
    blocked = (tmp_path / "c.gram").read_bytes()
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert (tmp_path / "c.gram").read_bytes() == blocked


def solve_argv(tmp_path) -> dict[str, list[str]]:
    """Run featurize, gram, train and rerank in process on task-B corpora
    with trees, under tmp_path, and write a search-rank baseline of the
    test corpus; return the train, rerank and sigtest arguments that read
    those files there, with trees and the rank feature."""
    flags = ["--use-tk", "--use-rank"]
    write_corpus(tmp_path / "train.jsonl", n_queries=3, per_query=4,
                 with_trees=True)
    test_rows = write_corpus(tmp_path / "test.jsonl", n_queries=2,
                             per_query=4, relevant_ranks=(3,),
                             with_trees=True)
    (tmp_path / "baseline.tsv").write_text("".join(
        f"{r['query_id']}\t{r['candidate_id']}\t{r['original_rank']}\t"
        f"{-r['original_rank']}.0\t"
        f"{'true' if r['gold_label'] == 'Relevant' else 'false'}\n"
        for r in test_rows), encoding="utf-8")
    argv = {
        "train": ["train", "--gram", "train.gram", "--examples",
                  "train.examples", "--out", "model.txt", *flags],
        "rerank": ["rerank", "--strict", "--model", "model.txt",
                   "--train-examples", "train.examples", "--test-examples",
                   "test.examples", "--out", "predictions.tsv", *flags],
        "sigtest": ["sigtest", "--predictions-a", "predictions.tsv",
                    "--predictions-b", "baseline.tsv"],
    }
    with pytest.MonkeyPatch.context() as m:
        m.chdir(tmp_path)
        for split in ("train", "test"):
            assert main(["featurize", "--task", "B", "--corpus",
                         f"{split}.jsonl", "--out", f"{split}.examples",
                         *flags]) == 0
        assert main(["gram", "--examples", "train.examples", "--out",
                     "train.gram", *flags]) == 0
        assert main(argv["train"]) == 0
        assert main(argv["rerank"]) == 0
    return argv


@pytest.mark.parametrize("stage", ["train", "rerank", "sigtest"])
def test_the_solving_stages_load_no_numpy(tmp_path, stage):
    argv = solve_argv(tmp_path)[stage]
    assert numpy_loaded_after(f"cli.main({argv!r})",
                              cwd=tmp_path) == (0, False)


# what each stage writes: its file, or for sigtest what it prints
SOLVE_OUTPUT = {"train": "model.txt", "rerank": "predictions.tsv",
                "sigtest": None}


@pytest.mark.parametrize("stage", SOLVE_OUTPUT)
def test_the_solving_stages_run_with_numpy_blocked(tmp_path, monkeypatch,
                                                   capsys, stage):
    """With ``sys.modules["numpy"] = None`` any numpy import fails; the
    stage writes the bytes, or prints the lines, of a run with numpy
    loaded."""
    argv, out = solve_argv(tmp_path)[stage], SOLVE_OUTPUT[stage]
    printed = run("import sys\nsys.modules['numpy'] = None\n"
                  f"from qrerank import cli\nsys.exit(cli.main({argv!r}))",
                  cwd=tmp_path)
    blocked = printed if out is None else (tmp_path / out).read_bytes()
    (tmp_path / (out or "none")).unlink(missing_ok=True)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert (printed if out is None else (tmp_path / out).read_bytes()) \
        == blocked


def test_featurize_with_a_built_library_imports_no_build_modules(tmp_path):
    """``tempfile`` serves only a build of the native library: a featurize
    run that finds the library built loads it without that import. (A
    ``.pth`` file of the interpreter's site may import ``tempfile`` at
    start-up, so the child drops it from ``sys.modules`` first.)"""
    from qrerank import _native
    if _native.load() is None:      # builds the library if it is not there
        pytest.skip("the native engine is unavailable on this machine")
    argv = featurize_argv(tmp_path)
    out = run("import sys\nsys.modules.pop('tempfile', None)\n"
              "from qrerank import _native, cli\n"
              f"code = cli.main({argv!r})\n"
              "print(code, _native.load() is not None,"
              " 'tempfile' in sys.modules)", cwd=tmp_path)
    assert out.split()[-3:] == ["0", "True", "False"]


def test_import_registers_the_traced_modules_without_running_them():
    out = run("import sys, qrerank\n"
              f"print(all(f'qrerank.{{m}}' in sys.modules for m in {TRACED}),"
              " 'numpy' in sys.modules)")
    assert out.split() == ["True", "False"]


def test_every_export_is_its_submodules_object():
    out = run("import importlib, qrerank\n"
              "for name in qrerank.__all__:\n"
              "    module = qrerank._EXPORTS.get(name)\n"
              "    if module is not None:\n"
              "        owner = importlib.import_module(f'qrerank.{module}')\n"
              "        assert getattr(qrerank, name) is getattr(owner, name),"
              " name\n"
              "print(len(qrerank.__all__))")
    assert int(out) == len(qrerank._EXPORTS) + 1     # and __version__


def test_star_import_dir_and_unknown_names():
    out = run("from qrerank import *\n"
              "import qrerank\n"
              "assert all(name in globals() for name in qrerank.__all__)\n"
              "assert set(qrerank.__all__) <= set(dir(qrerank))\n"
              "try:\n"
              "    qrerank.no_such_name\n"
              "except AttributeError as exc:\n"
              "    print(exc)")
    assert out == "module 'qrerank' has no attribute 'no_such_name'\n"
