"""Binary SVM trained on a precomputed Gram matrix, SMO-style.

The solver maximizes the usual dual

    W(α) = Σ α_i − ½ Σ_ij α_i α_j y_i y_j G_ij,   0 ≤ α_i ≤ C_i,  Σ α_i y_i = 0

by repeatedly optimizing one pair of variables analytically. Working pairs
follow the first-order heuristic: the worst KKT violator is paired with the
partner maximizing |E_i − E_j|; exact ties are broken by a seeded
``random.Random``, and when that partner makes no progress the other
examples are tried in an order the same generator shuffles, so training is
bit-for-bit reproducible for a fixed seed. Convergence is declared when no
example violates its KKT condition by more than ``tol``, measured with the
same bias rule the final model ships with.

Each step but the bias runs in the native engine (``qrerank_smo_step`` in
``_tk.c``, loaded by :mod:`._native`) when it builds: the violations, the
tie-picks, the shuffled partner scan, the pair update and the update of g.
It gives the Python step's bits, because it runs the same IEEE operations
in the same order (compiled with ``-ffp-contract=off``, so none is fused),
Python's ``min``/``max`` and numpy's NaN-propagating maximum, and draws
from a copy of the seeded Mersenne Twister: one word per draw of
``_randbelow``, shifted and rejected as CPython does it, and the
Fisher–Yates order of ``random.shuffle``. The bias is numpy's: its mean is
a pairwise sum. The Python step in :func:`train_smo` stays as the reference
and runs where the engine cannot be built; no option selects an engine.

The solver holds one Gram matrix plus O(n). A G that is its own transpose
bit for bit is checked, solved and hashed for ``training_checksum`` in
place; only a G that is not gets a symmetrized copy, (G + G.T) / 2.

Scores come from the dual expansion r(x) = Σ α_i y_i K(x_i, x) + b, used
directly as the re-ranking score.
"""

from __future__ import annotations

import hashlib
import logging
import math
import random
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from . import _native
from .config import TrainConfig
from .errors import DataError, NumericalError, open_text

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainedModel:
    """Dual solution restricted to its support set.

    dual_coefs[k] = α_k · y_k for the example at support_indices[k]. The
    kernel fingerprint ties the model to the kernel configuration its Gram
    was computed under; the training checksum identifies the exact training
    inputs.
    """

    support_indices: tuple[int, ...]
    dual_coefs: np.ndarray
    bias: float
    kernel_fingerprint: str = ""
    training_checksum: str = ""

    def __post_init__(self):
        coefs = np.asarray(self.dual_coefs, dtype=np.float64)
        object.__setattr__(self, "dual_coefs", coefs)
        object.__setattr__(self, "support_indices",
                           tuple(int(i) for i in self.support_indices))
        if coefs.ndim != 1 or len(coefs) != len(self.support_indices):
            raise DataError("dual_coefs and support_indices differ in length")
        if any(i < 0 for i in self.support_indices):
            raise DataError("support indices must be non-negative")
        if not math.isfinite(self.bias):
            raise DataError("bias must be finite")
        if not np.isfinite(coefs).all():
            raise DataError("dual_coefs must be finite")


def _training_checksum(gram: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> str:
    h = hashlib.sha256()
    h.update(gram)      # C-ordered, so hashed in place: no copy
    h.update(np.ascontiguousarray(y.astype(np.int8)).tobytes())
    h.update(repr(astuple(cfg)).encode())
    return h.hexdigest()


def _symmetric(G: np.ndarray) -> np.ndarray:
    """The finite square ``G`` as the symmetric matrix the solver reads, in
    C order. A ``G`` equal to its transpose bit for bit is returned as it
    is, or as that transpose where only it is C-ordered, since
    (G + G.T) / 2 would give back the same bits. Any other, one with a
    ±0.0 or a rounding off its mirror, is replaced by (G + G.T) / 2."""
    bits = G.view(np.uint64)
    if np.array_equal(bits, bits.T):
        return np.ascontiguousarray(G.T if G.flags.f_contiguous else G)
    with np.errstate(over="ignore"):
        sym = G - G.T
        np.abs(sym, out=sym)
        asym = float(sym.max())
        if asym > 1e-9:
            raise NumericalError(
                f"gram is not symmetric (max asymmetry {asym:.3g})")
        np.add(G, G.T, out=sym)
        sym /= 2.0
    if not np.all(np.isfinite(sym)):
        raise NumericalError("gram overflows when symmetrized: (G + G.T) / 2 "
                             "is not finite")
    return sym


def _bias_from_state(alpha, y, g, box, eps):
    """The bias rule the final model uses: average of y_i − g_i over free
    support vectors; otherwise the midpoint of the feasible interval the
    bound examples leave open."""
    F = y - g
    free = (alpha > eps) & (alpha < box - eps)
    if free.any():
        return float(F[free].mean())
    at_zero = alpha <= eps
    at_c = alpha >= box - eps
    lower_set = (at_zero & (y > 0)) | (at_c & (y < 0))
    upper_set = (at_zero & (y < 0)) | (at_c & (y > 0))
    b_lo = F[lower_set].max() if lower_set.any() else None
    b_hi = F[upper_set].min() if upper_set.any() else None
    if b_lo is not None and b_hi is not None:
        return float((b_lo + b_hi) / 2.0)
    if b_lo is not None:
        return float(b_lo)
    if b_hi is not None:
        return float(b_hi)
    return 0.0


def _violations(alpha, y, f, box, tol, eps):
    """Per-example KKT violation magnitudes (0 where satisfied): examples
    that could grow need y·f ≥ 1 − tol, examples that could shrink need
    y·f ≤ 1 + tol."""
    r = y * f - 1.0
    viol = np.zeros_like(alpha)
    can_grow = alpha < box - eps
    can_shrink = alpha > eps
    viol[can_grow] = np.maximum(viol[can_grow], -r[can_grow] - tol)
    viol[can_shrink] = np.maximum(viol[can_shrink], r[can_shrink] - tol)
    return np.maximum(viol, 0.0)


def _dual_objective(alpha, y, g):
    # W(α) = Σα − ½ Σ α_i y_i g_i  with g_i = Σ_j α_j y_j G_ij
    return float(alpha.sum() - 0.5 * np.dot(alpha * y, g))


_STEPPED, _CONVERGED, _STALLED, _NONFINITE = range(4)   # as in _tk.c


_NAN_MAXIMUM = ("SMO met a NaN in the KKT violations or the partner gaps "
                "(the iterate overflowed)")


def train_smo(gram, labels, cfg: TrainConfig = TrainConfig(),
              kernel_fingerprint: str = "") -> TrainedModel:
    """Solve the dual on a precomputed Gram matrix.

    ``gram`` must be finite and symmetric (asymmetry beyond 1e-9 is
    rejected) and ``labels`` must contain both classes. Returns the trained
    model; logs a warning if max_passes runs out before the KKT conditions
    are met, and one INFO line with the steps taken, the steps that
    searched a partner in shuffled order, the converged flag, the final
    maximum KKT violation and the engine that ran the steps.

    The caller's array is never written. A float64 ``gram`` in C or
    Fortran order that is symmetric bit for bit is solved in place, with
    no n×n copy: the checks allocate one n×n bool at a time and the solver
    O(n). Any other ``gram`` is copied: strided or non-float64, as it is;
    not bitwise symmetric, as (G + G.T) / 2, which raises
    :class:`NumericalError` where it overflows.
    """
    G = np.asarray(gram, dtype=np.float64)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise DataError(f"gram must be square, got shape {G.shape}")
    n = G.shape[0]
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != (n,):
        raise DataError(f"labels length {y.shape} does not match gram size {n}")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise DataError("labels must be +1 or -1")
    if np.all(y > 0) or np.all(y < 0):
        raise DataError("training data contains a single class")
    if not np.all(np.isfinite(G)):
        raise NumericalError("gram contains non-finite values")
    # the native step reads G and y by pointer: C order, no strides
    G = _symmetric(G)
    y = np.ascontiguousarray(y)

    checksum = _training_checksum(G, y, cfg)
    box = np.where(y > 0, cfg.C * cfg.c_scale_pos, cfg.C * cfg.c_scale_neg)
    alpha = np.zeros(n)
    g = np.zeros(n)  # g_i = Σ_j α_j y_j G_ij
    rng = random.Random(cfg.seed)
    if __debug__:
        prev_obj = _dual_objective(alpha, y, g)

    def tie_pick(mask_values, target):
        candidates = np.flatnonzero(mask_values == target)
        if not len(candidates):     # target is NaN
            raise NumericalError(_NAN_MAXIMUM)
        return int(candidates[rng.randrange(len(candidates))])

    def try_pair(i, j):
        """Analytically optimize (α_i, α_j); returns True on real progress."""
        if i == j:
            return False
        eta = G[i, i] + G[j, j] - 2.0 * G[i, j]
        if eta <= 0.0:
            return False
        s = y[i] * y[j]
        if s < 0:
            L = max(0.0, alpha[j] - alpha[i])
            H = min(box[j], box[i] + alpha[j] - alpha[i])
        else:
            L = max(0.0, alpha[i] + alpha[j] - box[i])
            H = min(box[j], alpha[i] + alpha[j])
        if H - L < cfg.eps:
            return False
        E_i = g[i] - y[i]
        E_j = g[j] - y[j]
        aj_new = alpha[j] + y[j] * (E_i - E_j) / eta
        aj_new = min(max(aj_new, L), H)
        d_j = aj_new - alpha[j]
        if abs(d_j) < cfg.eps:
            return False
        ai_new = alpha[i] + s * (alpha[j] - aj_new)
        ai_new = min(max(ai_new, 0.0), box[i])
        d_i = ai_new - alpha[i]
        g[:] = g + (d_i * y[i]) * G[i] + (d_j * y[j]) * G[j]
        alpha[i] = ai_new
        alpha[j] = aj_new
        return True

    def python_step(b):
        """One step at bias b, the reference the native step reproduces:
        (status, max violation, whether the shuffled scan ran)."""
        viol = _violations(alpha, y, g + b, box, cfg.tol, cfg.eps)
        worst = viol.max()
        if worst <= 0.0:
            return _CONVERGED, worst, False
        scanned = False
        E = g - y
        # violators in decreasing order of violation; ties rotated by seed
        order = np.argsort(-viol, kind="stable")
        order = order[viol[order] > 0.0].tolist()
        for i in ([tie_pick(viol, worst)] + order):
            gaps = np.abs(E[i] - E)
            j = tie_pick(gaps, gaps.max())
            if try_pair(i, j):
                return _STEPPED, worst, scanned
            others = [k for k in range(n) if k != i and k != j]
            rng.shuffle(others)
            scanned = True
            for k in others:
                if try_pair(i, k):
                    return _STEPPED, worst, scanned
        return _STALLED, worst, scanned

    native = _native.load()
    if native is not None:
        # the generator random.Random(cfg.seed) would be, as one array
        mt = np.array(rng.getstate()[1], dtype=np.uint32)
        scratch = (np.empty(n), np.empty(n),
                   np.empty(n, dtype=[("v", np.float64), ("k", np.int64)]),
                   np.empty(n, dtype=np.int64))
        out = np.zeros(1)
        flag = np.zeros(1, dtype=np.int64)
        head = [n, *(a.ctypes.data for a in (G, y, box, alpha, g))]
        tail = [a.ctypes.data for a in (mt, *scratch, out, flag)]

        def step(b):
            status = native.smo_step(*head, b, cfg.tol, cfg.eps, *tail)
            if status == _NONFINITE:
                raise NumericalError(_NAN_MAXIMUM)
            return status, out[0], bool(flag[0])
    else:
        step = python_step

    converged = False
    steps = scanned_steps = 0
    for _ in range(cfg.max_passes):
        b = _bias_from_state(alpha, y, g, box, cfg.eps)
        status, worst, scanned = step(b)
        if status == _CONVERGED:
            converged = True
            break
        if status == _STALLED:
            logger.warning(
                "SMO stalled with max KKT violation %.3g (tol %.3g); "
                "keeping current feasible iterate", worst, cfg.tol)
            break
        steps += 1
        scanned_steps += scanned
        if __debug__:
            obj = _dual_objective(alpha, y, g)
            assert obj >= prev_obj - 1e-9 * max(1.0, abs(prev_obj)), (
                f"dual objective decreased: {prev_obj} -> {obj}")
            prev_obj = obj
    else:
        b = _bias_from_state(alpha, y, g, box, cfg.eps)
        logger.warning("SMO reached max_passes=%d before meeting tol=%g",
                       cfg.max_passes, cfg.tol)
    final = _violations(alpha, y, g + b, box, cfg.tol, cfg.eps).max()
    logger.info("train_smo: %d steps, %d with the shuffled scan, converged "
                "%s, max KKT violation %.3g, %s engine", steps,
                scanned_steps, converged, final,
                "python" if native is None else "native")

    support = np.flatnonzero(alpha > cfg.eps)
    return TrainedModel(
        support_indices=tuple(int(i) for i in support),
        dual_coefs=alpha[support] * y[support],
        bias=float(b),
        kernel_fingerprint=kernel_fingerprint,
        training_checksum=checksum,
    )


# ---------------------------------------------------------------------------
# model file
# ---------------------------------------------------------------------------

MODEL_MAGIC = "qrerank-model v1"


def save_model(path: str | Path, model: TrainedModel) -> None:
    """Versioned key/value text format; floats are written with full
    round-trip precision so save→load is lossless."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {MODEL_MAGIC}\n")
        fh.write(f"n_support: {len(model.support_indices)}\n")
        fh.write(f"bias: {model.bias!r}\n")
        fh.write(f"kernel_fingerprint: {model.kernel_fingerprint}\n")
        fh.write(f"training_checksum: {model.training_checksum}\n")
        fh.write("support_indices: "
                 + " ".join(str(i) for i in model.support_indices) + "\n")
        fh.write("dual_coefs: "
                 + " ".join(repr(float(c)) for c in model.dual_coefs) + "\n")


def load_model(path: str | Path, expected_fingerprint: str | None = None,
               strict: bool = False) -> TrainedModel:
    """Read a model file back. Any malformation, a non-finite bias or
    coefficient included, raises :class:`DataError` naming the file.

    When ``expected_fingerprint`` is given and disagrees with the stored
    one, strict mode raises; otherwise a warning is logged (the scores would
    silently come from a different kernel).
    """
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != f"# {MODEL_MAGIC}":
        raise DataError(f"{path}: not a model file")
    fields = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        key, sep, value = line.partition(": ")
        if not sep:
            raise DataError(f"{path}: malformed line {line!r}")
        fields[key] = value
    required = {"n_support", "bias", "kernel_fingerprint",
                "training_checksum", "support_indices", "dual_coefs"}
    missing = required - fields.keys()
    if missing:
        raise DataError(f"{path}: truncated model file, missing {sorted(missing)}")
    try:
        n_support = int(fields["n_support"])
        bias = float(fields["bias"])
        support = tuple(int(x) for x in fields["support_indices"].split())
        coefs = np.array([float(x) for x in fields["dual_coefs"].split()],
                         dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"{path}: malformed model field") from exc
    if len(support) != n_support or len(coefs) != n_support:
        raise DataError(f"{path}: support arrays do not match n_support")
    fingerprint = fields["kernel_fingerprint"]
    if expected_fingerprint is not None and fingerprint != expected_fingerprint:
        message = (f"{path}: model kernel fingerprint {fingerprint[:12]}… does "
                   f"not match the current kernel config "
                   f"{expected_fingerprint[:12]}…")
        if strict:
            raise DataError(message)
        logger.warning("%s", message)
    try:
        return TrainedModel(
            support_indices=support,
            dual_coefs=coefs,
            bias=bias,
            kernel_fingerprint=fingerprint,
            training_checksum=fields["training_checksum"],
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
