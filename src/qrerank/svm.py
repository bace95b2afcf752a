"""Binary SVM trained on a precomputed Gram matrix, SMO-style.

The solver maximizes the usual dual

    W(α) = Σ α_i − ½ Σ_ij α_i α_j y_i y_j G_ij,   0 ≤ α_i ≤ C_i,  Σ α_i y_i = 0

by repeatedly optimizing one pair of variables analytically. Working pairs
follow second-order working-set selection (Fan, Chen & Lin, JMLR 2005, as
in LIBSVM). With F_t = y_t − g_t, i is the example with the largest F
among those whose y_t·α_t can still grow, and j, among those whose
y_t·α_t can still shrink, the one whose pair update raises W the most
under the curvature G_ii + G_jj − 2G_ij (a constant τ where that is not
positive). Ties go to the first index, so training is deterministic.
Convergence is declared when that largest F exceeds the smallest F of
the examples that can shrink by no more than ``tol``; no example then
violates its KKT condition by more than ``tol`` under the bias rule the
final model ships with.

Each step runs in the native engine (``qrerank_smo_step`` in ``_tk.c``,
loaded by :mod:`._native`) when it builds: the selection, the pair update
and the update of g. It gives the Python step's bits, because it runs the
same IEEE operations in the same order (compiled with
``-ffp-contract=off``, so none is fused) and Python's ``min``/``max``. The
Python step in :func:`train_smo` stays as the reference and runs where the
engine cannot be built; no option selects an engine.

The solver reads the Gram as its file stores it: the lower triangle,
packed row-major in one flat float64 array with row i from offset
i(i+1)/2, n(n+1)/2 values in all. Row i of G is that row's cells 0..i
followed by column i below the diagonal, cell (k, i) at k(k+1)/2 + i, a
stride that grows by one per row. The triangle is checked, solved and
hashed for ``training_checksum`` in place, so the solver holds it plus
O(n); no n×n matrix is built, and none can be asymmetric.

Scores come from the dual expansion r(x) = Σ α_i y_i K(x_i, x) + b, used
directly as the re-ranking score.
"""

from __future__ import annotations

import hashlib
import logging
import math
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


def _training_checksum(lower: np.ndarray, y: np.ndarray,
                       cfg: TrainConfig) -> str:
    h = hashlib.sha256()
    h.update(lower)     # contiguous, so hashed in place: no copy
    h.update(np.ascontiguousarray(y.astype(np.int8)).tobytes())
    h.update(repr(astuple(cfg)).encode())
    return h.hexdigest()


# cells of the triangle that the finiteness check reads at a time
_CHECK_CELLS = 1 << 14


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

# the curvature that stands in for a_ij <= 0, as in LIBSVM and _tk.c
_TAU = 1e-12

_NONFINITE_MESSAGE = ("SMO met a non-finite gradient or pair gain (the "
                      "iterate or the Gram overflowed)")


def train_smo(gram, labels, cfg: TrainConfig = TrainConfig(),
              kernel_fingerprint: str = "") -> TrainedModel:
    """Solve the dual on a precomputed Gram matrix.

    ``gram`` is the matrix's lower triangle as :func:`.load_gram_lower`
    returns it: n(n+1)/2 values, row i (G[i][0..i]) from offset i(i+1)/2,
    where n is the number of ``labels``. Any other length raises
    :class:`DataError`, and a non-finite value :class:`NumericalError`;
    ``labels`` must contain both classes. Returns the trained model; logs
    a warning if max_passes runs out before the KKT conditions are met or
    if the chosen pair cannot move, and one INFO line with the steps
    taken, the converged flag, the final maximum KKT violation and the
    engine that ran the steps.

    The caller's array is never written. A contiguous float64 triangle is
    solved in place, with no copy: one pass over blocks of it checks that
    it is finite, and the solver holds O(n). A strided or non-float64 one
    is copied as it is.
    """
    y = np.asarray(labels, dtype=np.float64)
    if y.ndim != 1:
        raise DataError(f"labels must be one-dimensional, got shape {y.shape}")
    n = len(y)
    # the native step reads the triangle and y by pointer: no strides
    T = np.ascontiguousarray(gram, dtype=np.float64)
    if T.shape != (n * (n + 1) // 2,):
        raise DataError(f"gram must be the lower triangle of {n} examples, "
                        f"{n * (n + 1) // 2} values, got shape {T.shape}")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise DataError("labels must be +1 or -1")
    if np.all(y > 0) or np.all(y < 0):
        raise DataError("training data contains a single class")
    for k in range(0, len(T), _CHECK_CELLS):
        if not np.isfinite(T[k:k + _CHECK_CELLS]).all():
            raise NumericalError("gram contains non-finite values")
    y = np.ascontiguousarray(y)

    checksum = _training_checksum(T, y, cfg)
    box = np.where(y > 0, cfg.C * cfg.c_scale_pos, cfg.C * cfg.c_scale_neg)
    alpha = np.zeros(n)
    g = np.zeros(n)  # g_i = Σ_j α_j y_j G_ij
    starts = np.cumsum(np.arange(n))    # row k starts at k(k+1)/2
    diagonal = T[starts + np.arange(n)]
    if __debug__:
        prev_obj = _dual_objective(alpha, y, g)

    def row(i):
        """Row i of G: the triangle's row i, then column i below it."""
        return np.concatenate((T[starts[i]:starts[i] + i + 1],
                               T[starts[i + 1:] + i]))

    def curvature(i, G_i, j):
        """a_ij = G_ii + G_jj − 2G_ij, or τ where that is not positive;
        ``G_i`` is row i."""
        a = G_i[i] + diagonal[j] - 2.0 * G_i[j]
        return np.where(a <= 0.0, _TAU, a)

    def try_pair(i, G_i, j):
        """Analytically optimize (α_i, α_j), ``G_i`` being row i; returns
        True on real progress."""
        eta = float(curvature(i, G_i, j))
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
        g[:] = g + (d_i * y[i]) * G_i + (d_j * y[j]) * row(j)
        alpha[i] = ai_new
        alpha[j] = aj_new
        return True

    def python_step():
        """One step, the reference the native step reproduces."""
        F = y - g
        if not np.all(np.isfinite(F)):
            raise NumericalError(_NONFINITE_MESSAGE)
        grow = alpha < box - cfg.eps
        shrink = alpha > cfg.eps
        up = np.where(y > 0, grow, shrink)
        low = np.where(y > 0, shrink, grow)
        F_up = np.where(up, F, -np.inf)
        i = int(np.argmax(F_up))
        m = F_up[i]
        if m - np.where(low, F, np.inf).min() <= cfg.tol:
            return _CONVERGED
        candidates = np.flatnonzero(low & (F < m))
        G_i = row(i)
        with np.errstate(over="ignore", invalid="ignore"):
            b = m - F[candidates]
            gain = -(b * b) / curvature(i, G_i, candidates)
        if np.isnan(gain).any():
            raise NumericalError(_NONFINITE_MESSAGE)
        j = int(candidates[np.argmin(gain)])
        return _STEPPED if try_pair(i, G_i, j) else _STALLED

    native = _native.load()
    if native is not None:
        head = [n, *(a.ctypes.data for a in (T, y, box, alpha, g))]

        def step():
            status = native.smo_step(*head, cfg.tol, cfg.eps)
            if status == _NONFINITE:
                raise NumericalError(_NONFINITE_MESSAGE)
            return status
    else:
        step = python_step

    converged = stalled = False
    steps = 0
    for _ in range(cfg.max_passes):
        status = step()
        if status == _CONVERGED:
            converged = True
            break
        if status == _STALLED:
            stalled = True
            break
        steps += 1
        if __debug__:
            obj = _dual_objective(alpha, y, g)
            assert obj >= prev_obj - 1e-9 * max(1.0, abs(prev_obj)), (
                f"dual objective decreased: {prev_obj} -> {obj}")
            prev_obj = obj
    else:
        logger.warning("SMO reached max_passes=%d before meeting tol=%g",
                       cfg.max_passes, cfg.tol)
    b = _bias_from_state(alpha, y, g, box, cfg.eps)
    final = _violations(alpha, y, g + b, box, cfg.tol, cfg.eps).max()
    if stalled:
        logger.warning(
            "SMO stalled with max KKT violation %.3g (tol %.3g); "
            "keeping current feasible iterate", final, cfg.tol)
    logger.info("train_smo: %d steps, converged %s, max KKT violation "
                "%.3g, %s engine", steps, converged, final,
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
# the keys of a model file, each on one line, in the order save_model writes
_MODEL_KEYS = ("n_support", "bias", "kernel_fingerprint", "training_checksum",
               "support_indices", "dual_coefs")


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
    coefficient, an unknown or repeated key and a repeated support index
    included, raises :class:`DataError` naming the file.

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
        if key not in _MODEL_KEYS:
            raise DataError(f"{path}: unknown model key {key!r}")
        if key in fields:
            raise DataError(f"{path}: repeated model key {key!r}")
        fields[key] = value
    missing = set(_MODEL_KEYS) - fields.keys()
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
    if len(set(support)) != n_support:
        raise DataError(f"{path}: repeated support index")
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
