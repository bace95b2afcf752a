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
Python engine (:func:`_python_engine`) stays as the reference and runs
where the native one cannot be built; no option selects an engine. The
module imports no numpy: the bias and the KKT report are plain loops, and
the bias's mean is :func:`.rankeval._mean`, numpy's order of additions.
Each step also reports the pair's gain in W, computed in O(1) from the
old g_i and g_j, the changes of α_i and α_j and G_ii, G_ij and G_jj;
``train_smo`` asserts after every step that the gain is not negative.

The solver reads the Gram as its file stores it: the lower triangle,
packed row-major in one flat ``array('d')`` with row i from offset
i(i+1)/2, n(n+1)/2 values in all. Row i of G is that row's cells 0..i
followed by column i below the diagonal, cell (k, i) at k(k+1)/2 + i, a
stride that grows by one per row. The triangle is checked, solved and
hashed for ``training_checksum`` in place, so the solver holds it plus
O(n); no n×n matrix is built, and none can be asymmetric. The check that
it is finite is one pass of the native engine (``qrerank_all_finite``),
or :func:`_finite`'s sum where the Python engine runs.

Scores come from the dual expansion r(x) = Σ α_i y_i K(x_i, x) + b, used
directly as the re-ranking score.
"""

from __future__ import annotations

import logging
import math
from array import array
from dataclasses import astuple, dataclass
from itertools import accumulate, compress, islice, repeat
from operator import add, getitem, gt, mul, sub, truediv
from pathlib import Path

from . import _native
from .config import TrainConfig
from .errors import DataError, NumericalError, open_text
from .rankeval import _mean

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainedModel:
    """Dual solution restricted to its support set.

    dual_coefs[k] = α_k · y_k for the example at support_indices[k], an
    ``array('d')`` made from any sequence of real numbers. The kernel
    fingerprint ties the model to the kernel configuration its Gram was
    computed under; the training checksum identifies the exact training
    inputs.
    """

    support_indices: tuple[int, ...]
    dual_coefs: array
    bias: float
    kernel_fingerprint: str = ""
    training_checksum: str = ""

    def __post_init__(self):
        try:
            coefs = array("d", self.dual_coefs)
        except TypeError:
            coefs = None
        object.__setattr__(self, "dual_coefs", coefs)
        object.__setattr__(self, "support_indices",
                           tuple(int(i) for i in self.support_indices))
        if coefs is None or len(coefs) != len(self.support_indices):
            raise DataError("dual_coefs and support_indices differ in length")
        if any(i < 0 for i in self.support_indices):
            raise DataError("support indices must be non-negative")
        if not math.isfinite(self.bias):
            raise DataError("bias must be finite")
        if not all(map(math.isfinite, coefs)):
            raise DataError("dual_coefs must be finite")


def _training_checksum(lower: array, y: array, cfg: TrainConfig) -> str:
    """sha256 of the triangle's float64 bytes in the host's order, then
    the labels as int8, then the training config. The hash is
    :func:`._native.sha256`, the interpreter's built-in one, which takes
    the triangle's buffer as it is: about 15 ms at n = 1,000 and 0.11 s at
    n = 2,670, some 5.5× what OpenSSL's would, though OpenSSL costs each
    stage 3.6 MB to load."""
    h = _native.sha256()
    h.update(lower)     # hashed in place: no copy
    h.update(array("b", map(int, y)))
    h.update(repr(astuple(cfg)).encode())
    return h.hexdigest()


def _extreme(pick, F, chosen):
    """``pick`` (max or min) of the values of ``F`` that ``chosen`` flags,
    or nan if one is nan, as numpy's max and min give it; None if none is
    flagged. No list of the values is built."""
    if not any(chosen):
        return None
    if any(map(math.isnan, compress(F, chosen))):
        return math.nan
    return pick(compress(F, chosen))


def _bias_from_state(alpha, y, g, box, eps):
    """The bias rule the final model uses: average of y_i − g_i over free
    support vectors; otherwise the midpoint of the feasible interval the
    bound examples leave open."""
    F = array("d", map(sub, y, g))
    free = [f for f, a, c in zip(F, alpha, box) if a > eps and a < c - eps]
    if free:
        return _mean(free)
    # a positive example at 0 or a negative one at its box bounds the bias
    # from below, the others at a bound from above
    lower = bytes(a <= eps if yk > 0 else a >= c - eps
                  for a, c, yk in zip(alpha, box, y))
    upper = bytes(a >= c - eps if yk > 0 else a <= eps
                  for a, c, yk in zip(alpha, box, y))
    b_lo = _extreme(max, F, lower)
    b_hi = _extreme(min, F, upper)
    if b_lo is not None and b_hi is not None:
        return (b_lo + b_hi) / 2.0
    if b_lo is not None:
        return b_lo
    if b_hi is not None:
        return b_hi
    return 0.0


def _max_violation(alpha, y, f, box, tol, eps):
    """The largest KKT violation (0 where all are satisfied): examples that
    could grow need y·f ≥ 1 − tol, examples that could shrink need
    y·f ≤ 1 + tol."""
    worst = 0.0
    for a, yk, fk, c in zip(alpha, y, f, box):
        r = yk * fk - 1.0
        if a < c - eps:
            worst = max(worst, -r - tol)
        if a > eps:
            worst = max(worst, r - tol)
    return worst


_STEPPED, _CONVERGED, _STALLED, _NONFINITE = range(4)   # as in _tk.c

# the curvature that stands in for a_ij <= 0, as in LIBSVM and _tk.c
_TAU = 1e-12

_NONFINITE_MESSAGE = ("SMO met a non-finite gradient or pair gain (the "
                      "iterate or the Gram overflowed)")


def _curvature(a: float) -> float:
    """a_ij = G_ii + G_jj − 2G_ij as given, or τ where it is not positive."""
    return _TAU if a <= 0.0 else a


def _finite(values) -> bool:
    """Whether every value is finite: a sum of finite values can overflow,
    and only then is each value read."""
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def _as_array(values) -> tuple[array | None, tuple | None]:
    """``values`` as an ``array('d')`` (itself if it is one) and its shape;
    None and the shape numpy gives (read through ``shape``, with no numpy
    import) where it is not a one-dimensional sequence of real numbers."""
    shape = getattr(values, "shape", None)
    if shape is not None and len(shape) != 1:
        return None, shape
    if isinstance(values, array) and values.typecode == "d":
        return values, (len(values),)
    try:
        out = array("d", values)
    except TypeError:
        return None, shape
    return out, (len(out),)


def _python_engine(T, y, box, alpha, g, tol, eps):
    """The Python engine: a function that runs one step on the solve's
    arrays, updating ``alpha`` and ``g`` in place, and returns its status
    and the pair's gain in the dual objective. It is the reference the
    native step reproduces, with the same IEEE operations in the same
    order. Each pass over the examples is a ``map`` of ``operator``
    functions. F and the selection's values are lists, read again with no
    boxing, and each is dropped once read; row i is an ``array('d')``. So
    a step holds at most about two lists of n floats beyond its arrays.
    The flags of I_up (α can move to raise y·α) and I_low (to lower it)
    are updated for the pair that moved."""
    n = len(y)
    # row k starts at k(k+1)/2, so G_kk is at k(k+3)/2
    diagonal = array("d", [T[k * (k + 3) // 2] for k in range(n)])
    up, low = bytearray(n), bytearray(n)

    def flag(k):
        grow, shrink = alpha[k] < box[k] - eps, alpha[k] > eps
        up[k], low[k] = (grow, shrink) if y[k] > 0 else (shrink, grow)

    for k in range(n):
        flag(k)

    def row(i):
        """Row i of G: the triangle's row i up to the diagonal, then column
        i from the diagonal down, cell (k, i) at k(k+1)/2 + i, k cells
        after cell (k − 1, i). The column's cells are read one at a time,
        so no list of their offsets is held."""
        start = i * (i + 1) // 2
        G_i = T[start:start + i]
        G_i.extend(map(getitem, repeat(T),
                       accumulate(range(i + 1, n), initial=start + i)))
        return G_i

    def try_pair(i, G_i, j):
        """Analytically optimize (α_i, α_j), ``G_i`` being row i; returns
        the pair's gain in the dual objective, or None when it does not
        move."""
        eta = _curvature(G_i[i] + diagonal[j] - 2.0 * G_i[j])
        s = y[i] * y[j]
        if s < 0:
            L = max(0.0, alpha[j] - alpha[i])
            H = min(box[j], box[i] + alpha[j] - alpha[i])
        else:
            L = max(0.0, alpha[i] + alpha[j] - box[i])
            H = min(box[j], alpha[i] + alpha[j])
        if H - L < eps:
            return None
        E_i = g[i] - y[i]
        E_j = g[j] - y[j]
        aj_new = alpha[j] + y[j] * (E_i - E_j) / eta
        aj_new = min(max(aj_new, L), H)
        d_j = aj_new - alpha[j]
        if abs(d_j) < eps:
            return None
        ai_new = alpha[i] + s * (alpha[j] - aj_new)
        ai_new = min(max(ai_new, 0.0), box[i])
        d_i = ai_new - alpha[i]
        a, b = d_i * y[i], d_j * y[j]
        # W(α + Δ) − W(α) = ΣΔ − Σ_k Δ_k y_k g_k − ½ Δ'QΔ, Q_kl = y_k y_l G_kl
        gain = ((d_i + d_j) - (a * g[i] + b * g[j])
                - 0.5 * (a * a * G_i[i] + 2.0 * a * b * G_i[j]
                         + b * b * diagonal[j]))
        # (g + a·G[i]) + b·G[j]
        g[:] = array("d", map(add, map(add, g, map(mul, repeat(a), G_i)),
                              map(mul, repeat(b), row(j))))
        alpha[i] = ai_new
        alpha[j] = aj_new
        flag(i)
        flag(j)
        return gain

    def step():
        F = list(map(sub, y, g))
        if not _finite(F):
            raise NumericalError(_NONFINITE_MESSAGE)
        m = max(compress(F, up), default=-math.inf)
        if m - min(compress(F, low), default=math.inf) <= tol:
            return _CONVERGED, 0.0
        # i: the first index of I_up with F_i = m
        i = F.index(m)
        while not up[i]:
            i = F.index(m, i + 1)
        # j: the first index of I_low with F_j < m maximizing
        # b_j² / a_ij, b_j = m − F_j: the first minimizing
        # -(m − F_j)² / a_ij, as -x / a is -(x / a)
        keep = bytes(map(gt, repeat(m), compress(F, low)))

        def candidates(values):
            """The values at the candidates for j."""
            return compress(compress(values, low), keep)

        b = list(map(sub, repeat(m), candidates(F)))
        del F
        G_i = row(i)

        def curvatures():
            """a_ij = G_ii + G_jj − 2G_ij over the candidates."""
            return map(sub, map(add, repeat(G_i[i]), candidates(diagonal)),
                       map(mul, repeat(2.0), candidates(G_i)))

        # A quotient > 0 has a_ij > 0, which τ does not replace: where no
        # quotient is ≤ 0 (a nan aside), they stand, and no list of a_ij is
        # kept. Otherwise, or on a division by zero, they are computed
        # again with each a_ij ≤ 0 replaced by τ.
        try:
            q = list(map(truediv, map(mul, b, b), curvatures()))
        except ZeroDivisionError:
            q = None
        if q is None or not min(q) > 0.0:
            q = list(map(truediv, map(mul, b, b),
                         map(_curvature, curvatures())))
        del b
        # each is ≥ 0 or nan, so their sum is nan only if one is
        if math.isnan(sum(q)):
            raise NumericalError(_NONFINITE_MESSAGE)
        j = next(islice(candidates(range(n)), q.index(max(q)), None))
        del q
        gain = try_pair(i, G_i, j)
        return (_STALLED, 0.0) if gain is None else (_STEPPED, gain)

    return step


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

    The caller's triangle is never written. An ``array('d')`` is solved in
    place, with no copy, and the solver holds O(n) beyond it; any other
    sequence of real numbers is copied into one first.
    """
    y, shape = _as_array(labels)
    if y is None:
        raise DataError(f"labels must be one-dimensional, got shape {shape}")
    n = len(y)
    T, shape = _as_array(gram)
    if T is None or shape != (n * (n + 1) // 2,):
        raise DataError(f"gram must be the lower triangle of {n} examples, "
                        f"{n * (n + 1) // 2} values, got shape {shape}")
    if not all(v in (-1.0, 1.0) for v in y):
        raise DataError("labels must be +1 or -1")
    if all(v > 0 for v in y) or all(v < 0 for v in y):
        raise DataError("training data contains a single class")
    native = _native.load()
    if not (_finite(T) if native is None
            else native.all_finite(len(T), T.buffer_info()[0])):
        raise NumericalError("gram contains non-finite values")

    checksum = _training_checksum(T, y, cfg)
    eps = cfg.eps
    box = array("d", [cfg.C * cfg.c_scale_pos if v > 0
                      else cfg.C * cfg.c_scale_neg for v in y])

    alpha = array("d", [0.0]) * n
    g = array("d", [0.0]) * n  # g_i = Σ_j α_j y_j G_ij

    if native is not None:
        pair_gain = array("d", [0.0])
        head = [n, *(a.buffer_info()[0] for a in (T, y, box, alpha, g))]
        tail = [cfg.tol, eps, pair_gain.buffer_info()[0]]

        def step():
            status = native.smo_step(*head, *tail)
            if status == _NONFINITE:
                raise NumericalError(_NONFINITE_MESSAGE)
            return status, pair_gain[0]
    else:
        step = _python_engine(T, y, box, alpha, g, cfg.tol, eps)

    converged = stalled = False
    steps = 0
    objective = 0.0     # W(0)
    for _ in range(cfg.max_passes):
        status, gain = step()
        if status == _CONVERGED:
            converged = True
            break
        if status == _STALLED:
            stalled = True
            break
        steps += 1
        # the dual objective never decreases: the step's gain, O(1) from
        # the pair, is checked after every step
        if __debug__:
            assert gain >= -1e-9 * max(1.0, abs(objective)), (
                f"dual objective decreased: {objective} -> "
                f"{objective + gain}")
            objective += gain
    else:
        logger.warning("SMO reached max_passes=%d before meeting tol=%g",
                       cfg.max_passes, cfg.tol)
    b = _bias_from_state(alpha, y, g, box, eps)
    final = _max_violation(alpha, y, (gk + b for gk in g), box, cfg.tol, eps)
    if stalled:
        logger.warning(
            "SMO stalled with max KKT violation %.3g (tol %.3g); "
            "keeping current feasible iterate", final, cfg.tol)
    logger.info("train_smo: %d steps, converged %s, max KKT violation "
                "%.3g, %s engine", steps, converged, final,
                "python" if native is None else "native")

    support = [k for k, a in enumerate(alpha) if a > eps]
    return TrainedModel(
        support_indices=tuple(support),
        dual_coefs=array("d", [alpha[k] * y[k] for k in support]),
        bias=b,
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
        coefs = array("d", map(float, fields["dual_coefs"].split()))
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
