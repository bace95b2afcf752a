"""The CLI chain's files do not move: featurize (train and test), gram,
train, rerank --strict and evaluate, run in process on the benchmark's
seed-1, part-0 ``taskB-sim`` and ``taskB-ptk`` corpora and on a small
task-D corpus with comments (STK, the MTE features and the rank feature),
against committed sha256 digests of the examples, Gram, model and
predictions files and of the lines ``evaluate`` prints. On a mismatch the
message names the first stage whose output moved. The corpora and the
task-B configs come from ``perfbench/corpus.py`` and
``perfbench/workloads.py``, imported as they are. Either engine must give
the same digests."""

import hashlib
import sys
from pathlib import Path

import pytest

from qrerank.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# stage -> the outputs it writes, in the order the chain runs them
STAGES = (
    ("featurize", ("train.examples", "test.examples")),
    ("gram", ("train.gram",)),
    ("train", ("model.txt",)),
    ("rerank", ("predictions.tsv",)),
    ("evaluate", ("evaluate.out",)),
)

GOLDEN = {
    "taskB-sim": {
        "train.examples":
            "d60cab740d5ae75c536b2215f7e463f95bd8b795f2fb6f8f801a8db59f75e8ef",
        "test.examples":
            "f6df7cc4c84316fd441c61eb30ff9ffaabee8d217d09f16d352dcea5ec167c6b",
        "train.gram":
            "813d6ea9f42dc212b17c4e10cff156d0e468b3d154f26f5cbe8c5c8f92a4f49b",
        "model.txt":
            "5b92342b57f2ba5c55d78a170687b898d27f17963381ff47e1ad9b3d3d2df782",
        "predictions.tsv":
            "7a9c7d8b8e32b09bc4ded2aec057e5a2986a3014a141573c35fb7b63f7958534",
        "evaluate.out":
            "4baeea95a382b2a360ba36a690485f5c363a3bdf4a41faf9b38c71700ed50d0a",
    },
    "taskB-ptk": {
        "train.examples":
            "7ec23a2496a5637229aaaf6589a8899b18f24dfe79db2948c3d2cbf78e9b79c1",
        "test.examples":
            "b71f2f8d39363ba1afdf9cb933994dcd406d2699aae1e9eeeb7c7907426d0f53",
        "train.gram":
            "129b085c63e797167f9021e609678f8b622dd4fb49bab2a5439130d8d0166562",
        "model.txt":
            "84cc99139b66a94b156a0ebd3a5754c97da4dfd16c50bd0b43224db520076bbf",
        "predictions.tsv":
            "d7cde02a6cc17cad32498781b250c1cf83112fbd8912114b090a98af98687aa9",
        "evaluate.out":
            "1008c9719f14cf003f6f67cbaacecba293ddb56766033ffbe7c40f855f9e4b97",
    },
    "taskD-stk-mte": {
        "train.examples":
            "5979b9f2e73aa4c7e4ac987966142015d7e1518ab2dd9abe0eb8d844a92b2a26",
        "test.examples":
            "9508cc9a1fe9a55350217fd875591b3e1ce02be86cbf3dc3263ef5939cb4435a",
        "train.gram":
            "5c8020f488ff66a4701726fab3cc03d5c09d52541cbbf34831c44d6af5a1ef72",
        "model.txt":
            "f368c1f18695882b3132f384dbc7f8672452b83dd5d645cf6fa6f820cde73cb7",
        "predictions.tsv":
            "4bab0b9afe1f3b9f58aa6f9bcdf01c8daeb3a2d5d0f6b4889ffd70c789b5ec33",
        "evaluate.out":
            "934641acb46a63a2768de960f8a7a0185fc86ae251e23c4810123c4267df898a",
    },
}


@pytest.fixture(scope="module")
def chains():
    """The chains' workloads, by name: the two benchmark workloads, and a
    task-D one of 2×30 train and 1×30 test records, with trees and
    comments, in the shape of perfbench's own small task-D corpus."""
    with pytest.MonkeyPatch.context() as m:
        m.syspath_prepend(str(PERFBENCH))
        import corpus
        import workloads
    task_d = workloads.Workload(
        name="taskD-stk-mte",
        why="task D: STK, the MTE features of the comments, the rank "
            "feature",
        scale=corpus.Scale(task="D", train_queries=2, test_queries=1,
                           candidates=30, relevant=6, sentences=2,
                           sentence_nodes=(20, 40), with_trees=True),
        config=(("task", "D"), ("use_mte", "true"),
                ("kernel.use_tk", "true"), ("kernel.tk_kind", "STK"),
                ("kernel.use_rank", "true")),
        pass_s=0.0)
    return corpus, {**workloads.WORKLOADS, task_d.name: task_d}


def run_chain(tmp_path, capsys, corpus, workload) -> dict[str, bytes]:
    """The chain's outputs, by name, on the workload's seed-1 part 0."""
    splits = corpus.generate(workload.scale, 1, 0)
    for split in ("train", "test"):
        (tmp_path / f"{split}.jsonl").write_bytes(
            corpus.to_jsonl(splits[split]))
    (tmp_path / "qrerank.conf").write_text(
        "".join(f"{key} = {value}\n" for key, value in workload.config),
        encoding="utf-8")
    f = {name: str(tmp_path / name) for name in
         ("train.examples", "test.examples", "train.gram", "model.txt",
          "predictions.tsv")}
    conf = ["--config", str(tmp_path / "qrerank.conf")]
    for argv in (
            ["featurize", *conf, "--corpus", str(tmp_path / "train.jsonl"),
             "--out", f["train.examples"]],
            ["featurize", *conf, "--corpus", str(tmp_path / "test.jsonl"),
             "--out", f["test.examples"]],
            ["gram", *conf, "--examples", f["train.examples"],
             "--out", f["train.gram"]],
            ["train", *conf, "--gram", f["train.gram"],
             "--examples", f["train.examples"], "--out", f["model.txt"]],
            ["rerank", *conf, "--strict", "--model", f["model.txt"],
             "--train-examples", f["train.examples"],
             "--test-examples", f["test.examples"],
             "--out", f["predictions.tsv"]]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert main(["evaluate", "--predictions", f["predictions.tsv"],
                 "--k", str(workload.cutoff)]) == 0
    outputs = {name: Path(path).read_bytes() for name, path in f.items()}
    outputs["evaluate.out"] = capsys.readouterr().out.encode()
    return outputs


@pytest.mark.parametrize("name", GOLDEN)
def test_the_chain_matches_its_golden_digests(tmp_path, capsys, chains,
                                              name):
    corpus, workloads = chains
    outputs = run_chain(tmp_path, capsys, corpus, workloads[name])
    digests = {out: hashlib.sha256(data).hexdigest()
               for out, data in outputs.items()}
    for stage, outs in STAGES:
        moved = [out for out in outs if digests[out] != GOLDEN[name][out]]
        assert not moved, (f"{name}: the {stage} stage's output moved first: "
                           f"{', '.join(moved)} "
                           f"{[digests[out] for out in moved]}")
