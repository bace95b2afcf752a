"""Run configuration: the config dataclasses and the values they accept.

:class:`RunConfig` holds everything one experiment needs; its nested
:class:`RelConfig`, :class:`KernelConfig` and :class:`TrainConfig` configure
REL linking, the example-pair kernel and the SMO solver.  Each validates its
fields on construction and raises :class:`DataError` on a bad value.
``TASK_SPECS`` is the one table of the ranking tasks: each task's gold
labels, its relevant labels and its search-rank range.

This module imports no numpy, so the CLI can build its flags and parse its
config file before any compute module loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cache
from typing import NamedTuple

from .errors import DataError


class TaskSpec(NamedTuple):
    """One ranking task: its gold labels, the ones among them that count as
    relevant, and the range (lowest, highest) of its candidates' search
    ranks."""

    labels: tuple[str, ...]
    relevant: frozenset[str]
    ranks: tuple[int, int]


TASK_SPECS = {
    "B": TaskSpec(("PerfectMatch", "Relevant", "Irrelevant"),
                  frozenset({"PerfectMatch", "Relevant"}), (1, 10)),
    "D": TaskSpec(("Direct", "Related", "Irrelevant"),
                  frozenset({"Direct", "Related"}), (1, 30)),
}
TASKS = tuple(TASK_SPECS)
RANK_MODES = ("AS_IS", "INVERSE")
TK_KINDS = ("STK", "PTK")
VECTOR_KERNELS = ("LINEAR", "RBF")
MTE_SIDES = ("qo", "qs")
DEFAULT_PHRASE_LABELS = frozenset({"NP", "VP", "PP"})


def _check_task(task: str) -> None:
    if task not in TASK_SPECS:
        raise DataError(f"task must be one of {TASKS}, got {task!r}")


@cache
def _int_fields(cls) -> tuple[str, ...]:
    # the annotations are strings under ``from __future__ import
    # annotations``; get_type_hints would evaluate them, at a cost
    return tuple(f.name for f in fields(cls) if f.type == "int")


def _check_ints(config) -> None:
    """Raise :class:`DataError` unless every ``int``-annotated field of the
    dataclass ``config`` holds an int; a bool, a float or a string is
    refused."""
    for name in _int_fields(type(config)):
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise DataError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class RelConfig:
    """Knobs for the lexical-match linking.

    phrase_labels: node labels eligible for marking.
    min_shared_tokens: distinct matching tokens required to mark a node.
    case_insensitive: casefold tokens, and the stopwords of the run's
        ``stopword_path``, before comparing.
    """

    phrase_labels: frozenset[str] = DEFAULT_PHRASE_LABELS
    min_shared_tokens: int = 1
    case_insensitive: bool = True

    def __post_init__(self):
        _check_ints(self)
        if self.min_shared_tokens < 1:
            raise DataError("min_shared_tokens must be >= 1")


@dataclass(frozen=True)
class KernelConfig:
    """Hyperparameters and block switches for the example-pair kernel.

    lam (λ): decay per production (STK) / gap decay (PTK), in (0, 1].
    mu (μ): PTK per-level decay, in (0, 1].
    gamma (γ): RBF width; ``None`` means 1/dim of the block the RBF applies
        to, resolved at evaluation time.
    tk_kind: which tree kernel the pair kernel uses.
    rank_kernel / vec_kernel: LINEAR or RBF for the rank feature and the
        dense feature vector respectively.
    normalize_tk: normalize each tree-kernel summand by its self-kernels.
    use_sim / use_tk / use_rank: which blocks the combined kernel sums.
    """

    tk_kind: str = "PTK"
    lam: float = 0.4
    mu: float = 0.4
    gamma: float | None = None
    rank_kernel: str = "LINEAR"
    vec_kernel: str = "RBF"
    normalize_tk: bool = True
    use_sim: bool = True
    use_tk: bool = False
    use_rank: bool = False

    def __post_init__(self):
        if self.tk_kind not in TK_KINDS:
            raise DataError(f"tk_kind must be one of {TK_KINDS}, got {self.tk_kind!r}")
        if self.rank_kernel not in VECTOR_KERNELS:
            raise DataError(f"rank_kernel must be one of {VECTOR_KERNELS}")
        if self.vec_kernel not in VECTOR_KERNELS:
            raise DataError(f"vec_kernel must be one of {VECTOR_KERNELS}")
        if not 0.0 < self.lam <= 1.0:
            raise DataError(f"lambda must be in (0, 1], got {self.lam}")
        if not 0.0 < self.mu <= 1.0:
            raise DataError(f"mu must be in (0, 1], got {self.mu}")
        if self.gamma is not None and not 0.0 < self.gamma < math.inf:
            raise DataError(
                f"gamma must be positive and finite, got {self.gamma}")
        if not (self.use_sim or self.use_tk or self.use_rank):
            raise DataError("at least one of use_sim, use_tk, use_rank must be true")


@dataclass(frozen=True)
class TrainConfig:
    """Solver knobs. C scales per class via c_scale_pos / c_scale_neg
    (both 1.0 by default — no class weighting); each class's box bound
    C · c_scale must be positive and finite. max_passes caps the number
    of pair-update steps, not of passes over the data."""

    C: float = 1.0
    tol: float = 1e-3
    eps: float = 1e-9
    max_passes: int = 10000
    c_scale_pos: float = 1.0
    c_scale_neg: float = 1.0

    def __post_init__(self):
        _check_ints(self)
        if not 0.0 < self.C < math.inf:
            raise DataError(f"C must be positive and finite, got {self.C}")
        if not 0.0 < self.tol < math.inf:
            raise DataError(f"tol must be positive and finite, got {self.tol}")
        if not 0.0 < self.eps < math.inf:
            raise DataError(f"eps must be positive and finite, got {self.eps}")
        if self.max_passes < 1:
            raise DataError("max_passes must be >= 1")
        for name in ("c_scale_pos", "c_scale_neg"):
            scale = getattr(self, name)
            if not 0.0 < self.C * scale < math.inf:
                raise DataError(
                    f"the box bound C * {name} = {self.C} * {scale} must be "
                    f"positive and finite")


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment needs, from REL linking to the SVM box."""

    task: str = "B"
    rel: RelConfig = field(default_factory=RelConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    use_sim_features: bool = True
    use_ptk_feature: bool = False
    use_embeddings: bool = False
    use_mte: bool = False
    mte_side: str = "qo"
    rank_mode: str = "INVERSE"
    gst_min_match: int = 1
    stopword_path: str | None = None
    embedding_path: str | None = None
    macro_root_label: str = "ROOT"

    def __post_init__(self):
        _check_ints(self)
        _check_task(self.task)
        if self.mte_side not in MTE_SIDES:
            raise DataError(
                f"mte_side must be one of {MTE_SIDES}, got {self.mte_side!r}")
        if self.rank_mode not in RANK_MODES:
            raise DataError(
                f"rank_mode must be one of {RANK_MODES}, got "
                f"{self.rank_mode!r}")
        if self.gst_min_match < 1:
            raise DataError("gst_min_match must be >= 1")
        label = self.macro_root_label
        if not label or any(c.isspace() or c in "()" for c in label):
            raise DataError(f"macro_root_label must be a non-empty label "
                            f"with no whitespace or parenthesis, got {label!r}")
        extras = (self.use_ptk_feature or self.use_embeddings or self.use_mte)
        if extras and not self.kernel.use_sim:
            raise DataError(
                "ptk/embedding/MTE features extend the feature-vector block; "
                "enable the similarity block in the kernel config to use them")
        if self.kernel.use_sim and not self.use_sim_features and not extras:
            raise DataError(
                "the kernel consumes a feature-vector block but every vector "
                "feature family is disabled")
        if self.use_mte and self.task != "D":
            raise DataError(
                "MTE features compare a question against its comment, which "
                "only task D records carry")
        if self.use_embeddings and not self.embedding_path:
            raise DataError(
                "embedding_path is required when embeddings are enabled")
