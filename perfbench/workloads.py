"""The benchmark's workloads and the map from layer metrics to what they move.

Every workload is closed-loop, single-process and sequential: one CLI stage
process runs at a time, and the next starts when the previous one has exited.
"""

from __future__ import annotations

from dataclasses import dataclass

from corpus import Scale


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scale: Scale
    config: tuple[tuple[str, str], ...]   # lines of the --config file
    # one pass of the CLI chain with its setup launches and calibrations,
    # on the reference machine
    pass_s: float

    @property
    def cutoff(self) -> int:
        return self.scale.candidates

    def passes(self, seconds: int) -> int:
        """Passes that fill about ``seconds``. The count depends on the
        seconds only, never on the machine's speed, so that a seed always
        measures the same parts: their costs differ."""
        return max(1, round(seconds / self.pass_s))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="taskB-ptk",
        why="PTK Gram cells dominate: the tree-kernel layer that compiled "
            "trees and FTK-style matching would speed up",
        # reduced from 267x10 train / 70x10 test so that a run holds
        # five passes of the chain
        scale=Scale(task="B", train_queries=3, test_queries=2, candidates=10,
                    relevant=4, sentences=3, sentence_nodes=(31, 33),
                    with_trees=True),
        config=(("task", "B"), ("kernel.use_tk", "true"),
                ("kernel.tk_kind", "PTK"), ("kernel.use_rank", "true")),
        pass_s=9.0,
    ),
    Workload(
        name="taskB-sim",
        why="task B without trees: similarity features, the per-cell Gram "
            "loop, Gram file I/O and SMO; bypasses tree kernels",
        # 3/8 of the SemEval task B size (267x10 train, 70x10 test), so
        # that a run holds five passes of the chain
        scale=Scale(task="B", train_queries=100, test_queries=26,
                    candidates=10, relevant=4, sentences=3,
                    sentence_nodes=(31, 33), with_trees=False),
        config=(("task", "B"), ("kernel.use_rank", "true")),
        pass_s=9.0,
    ),
)}

# Which metric each layer metric should move, and on which workload: the
# end-to-end pipeline_s or gram_s, or the stage time (featurize_s, train_s,
# rerank_s) that contains the layer. A change to one layer claims its gain
# here, and the workloads not listed for it are the ones where it should
# change nothing. Neither workload runs STK or the task D MTE features, so
# no metric gates them.
LAYER_MAP = (
    ("kernels.tree_kernel_s kernels.tree_kernel_calls "
     "kernels.self_kernel_calls kernels.ns_per_matched_pair",
     "pipeline_s gram_s rerank_s", "taskB-ptk; nothing on taskB-sim"),
    ("kernels.gram_matrix_s kernels.gram_cells_per_s", "pipeline_s gram_s",
     "taskB-sim"),
    ("kernels.kernel_matrix_s kernels.kernel_matrix_cells",
     "pipeline_s rerank_s", "taskB-ptk taskB-sim"),
    ("kernels.save_gram_s kernels.load_gram_s kernels.gram_file_bytes",
     "pipeline_s gram_s train_s peak_rss_mb", "taskB-sim"),
    ("svm.train_smo_s svm.save_model_s svm.load_model_s",
     "pipeline_s train_s", "taskB-sim"),
    ("features.similarity_vector_s features.similarity_us_per_pair",
     "pipeline_s featurize_s", "taskB-sim taskB-ptk"),
    ("rellink.rel_link_s", "pipeline_s featurize_s", "taskB-ptk"),
    ("treebank.parse_bracketed_s treebank.to_bracketed_s",
     "pipeline_s featurize_s rerank_s", "taskB-ptk"),
    ("pipeline.load_corpus_s pipeline.build_examples_s "
     "pipeline.save_examples_s", "pipeline_s featurize_s",
     "taskB-sim taskB-ptk"),
    ("pipeline.load_examples_s pipeline.score_examples_s",
     "pipeline_s rerank_s", "taskB-ptk taskB-sim"),
    ("rankeval.evaluate_s rankeval.randomization_test_s "
     "rankeval.write_predictions_s rankeval.read_predictions_s",
     "pipeline_s", "taskB-ptk taskB-sim"),
)
