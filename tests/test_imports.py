"""The import boundary: ``import qrerank`` and the CLI load no numpy until a
stage that computes with it runs, and the lazy package still exposes every
public name. Each case runs in a fresh interpreter, since this process has
imported everything already."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qrerank

SRC = str(Path(qrerank.__file__).parent.parent)
TRACED = ("features", "kernels", "svm", "rankeval", "pipeline", "rellink",
          "treebank")


def run(code: str, cwd=None) -> str:
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=SRC),
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
    (tmp_path / "p.tsv").write_text(
        "q1\tc1\t1\t0.5\ttrue\nq1\tc2\t2\t0.25\tfalse\n", encoding="utf-8")
    assert numpy_loaded_after(
        "cli.main(['evaluate', '--predictions', 'p.tsv'])",
        cwd=tmp_path) == (0, False)


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
