"""Run configuration: the config dataclasses and the values they accept.

:class:`RunConfig` holds everything one experiment needs; its nested
:class:`RelConfig`, :class:`KernelConfig` and :class:`TrainConfig` configure
REL linking, the example-pair kernel and the SMO solver.  Each validates its
fields on construction and raises :class:`DataError` on a bad value.

This module imports no numpy, so the CLI can build its flags and parse its
config file before any compute module loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cache

from .errors import DataError

__all__ = [
    "TASKS",
    "RANK_MODES",
    "TK_KINDS",
    "VECTOR_KERNELS",
    "MTE_SIDES",
    "DEFAULT_PHRASE_LABELS",
    "RelConfig",
    "KernelConfig",
    "TrainConfig",
    "RunConfig",
]

TASKS = ("B", "D")
RANK_MODES = ("AS_IS", "INVERSE")
TK_KINDS = ("STK", "PTK")
VECTOR_KERNELS = ("LINEAR", "RBF")
MTE_SIDES = ("qo", "qs")
DEFAULT_PHRASE_LABELS = frozenset({"NP", "VP", "PP"})


def _check_task(task: str) -> None:
    if task not in TASKS:
        raise DataError(f"task must be one of {TASKS}, got {task!r}")


def _check_seed(seed: int) -> None:
    # random.Random(-s) is random.Random(s), and numpy rejects a negative
    # seed with its own ValueError
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")


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
    case_insensitive: casefold tokens before comparing.
    stopwords: tokens ignored on both sides (compared casefolded when
        ``case_insensitive``).
    """

    phrase_labels: frozenset[str] = DEFAULT_PHRASE_LABELS
    min_shared_tokens: int = 1
    case_insensitive: bool = True
    stopwords: frozenset[str] = field(default_factory=frozenset)

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
    (both 1.0 by default — no class weighting). max_passes caps the number
    of pair-update steps, not of passes over the data."""

    C: float = 1.0
    tol: float = 1e-3
    eps: float = 1e-9
    max_passes: int = 10000
    seed: int = 0
    c_scale_pos: float = 1.0
    c_scale_neg: float = 1.0

    def __post_init__(self):
        _check_ints(self)
        if not self.C > 0:
            raise DataError(f"C must be positive, got {self.C}")
        if not 0.0 < self.tol < math.inf:
            raise DataError(f"tol must be positive and finite, got {self.tol}")
        if not 0.0 < self.eps < math.inf:
            raise DataError(f"eps must be positive and finite, got {self.eps}")
        if self.max_passes < 1:
            raise DataError("max_passes must be >= 1")
        _check_seed(self.seed)
        if not (self.c_scale_pos > 0 and self.c_scale_neg > 0):
            raise DataError("per-class C multipliers must be positive")


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
    seed: int = 0

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
        if not self.macro_root_label:
            raise DataError("macro_root_label must be non-empty")
        _check_seed(self.seed)
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
