"""SMO solver: analytic fixture, KKT conditions, determinism, model file,
and the native SMO step: byte for byte against the Python reference. The
solver takes the Gram's packed lower triangle (conftest.lower)."""

import ctypes
import hashlib
import math
import re
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from qrerank import _native, svm
from qrerank.errors import DataError, NumericalError
from qrerank.svm import (
    TrainConfig,
    TrainedModel,
    load_model,
    save_model,
    train_smo,
)

from conftest import lower, make_rng, random_doubles


def linear_gram(X):
    G = X @ X.T
    return (G + G.T) / 2.0


def blobs(rng, n_per_class, center, spread):
    """Two Gaussian classes at ±center."""
    c = np.asarray(center, dtype=float)
    pos = rng.normal(loc=c, scale=spread, size=(n_per_class, 2))
    neg = rng.normal(loc=-c, scale=spread, size=(n_per_class, 2))
    X = np.vstack([pos, neg])
    y = np.array([1.0] * n_per_class + [-1.0] * n_per_class)
    return X, y


def scores_on_training(model, G):
    cols = np.array(model.support_indices, dtype=int)
    return G[:, cols] @ model.dual_coefs + model.bias


class TestAnalyticFixture:
    def setup_method(self):
        self.G = np.array([[1.0, -1.0], [-1.0, 1.0]])
        self.y = [-1, 1]
        self.model = train_smo(lower(self.G), self.y, TrainConfig(C=1.0))

    def test_alphas(self):
        assert set(self.model.support_indices) == {0, 1}
        alphas = np.abs(self.model.dual_coefs)
        np.testing.assert_allclose(alphas, [0.5, 0.5], atol=1e-6)

    def test_bias(self):
        assert abs(self.model.bias) <= 1e-6

    def test_decision_is_identity(self):
        # supports are x=-1 and x=+1 under the linear kernel, so the kernel
        # row for a probe x is (-x, x) and the decision reduces to x itself
        for x in (-2.0, -0.3, 0.0, 0.5, 1.7):
            row = np.array([-x, x])
            score = self.model.dual_coefs @ row + self.model.bias
            assert score == pytest.approx(x, abs=1e-6)


def kkt_violation(model, G, y, C, tol, eps=1e-9):
    """Maximum violation of the stationarity conditions over all examples."""
    n = len(y)
    alpha = np.zeros(n)
    for idx, coef in zip(model.support_indices, model.dual_coefs):
        alpha[idx] = abs(coef)
    f = scores_on_training(model, G)
    worst = 0.0
    for i in range(n):
        margin = y[i] * f[i]
        if alpha[i] <= eps:
            worst = max(worst, (1.0 - tol) - margin)
        elif alpha[i] >= C - eps:
            worst = max(worst, margin - (1.0 + tol))
        else:
            worst = max(worst, abs(margin - 1.0) - tol)
    return worst


class TestKKT:
    @pytest.mark.parametrize("center,spread", [
        ((2.5, 2.5), 0.6),   # separable
        ((0.5, 0.5), 1.5),   # heavily overlapping
    ])
    def test_kkt_suite_on_random_sets(self, center, spread):
        rng = make_rng(1234)
        X, y = blobs(rng, 25, center, spread)
        G = linear_gram(X)
        cfg = TrainConfig(C=1.0)
        model = train_smo(lower(G), y, cfg)
        assert kkt_violation(model, G, y, cfg.C, cfg.tol) <= 1e-12

    def test_separable_set_has_zero_training_errors(self):
        rng = make_rng(99)
        X, y = blobs(rng, 10, (2.5, 2.5), 0.5)
        G = linear_gram(X)
        model = train_smo(lower(G), y, TrainConfig())
        f = scores_on_training(model, G)
        assert np.all(np.sign(f) == y)

    def test_model_invariants(self):
        rng = make_rng(7)
        X, y = blobs(rng, 25, (1.0, 1.0), 1.0)
        G = linear_gram(X)
        cfg = TrainConfig(C=1.0)
        model = train_smo(lower(G), y, cfg)
        alphas = np.abs(model.dual_coefs)
        assert np.all(alphas > cfg.eps)          # supports carry weight
        assert np.all(alphas <= cfg.C + 1e-12)   # box respected
        assert abs(sum(model.dual_coefs)) <= 1e-6   # Σ α_i y_i = 0

    def test_free_support_vector_scores_its_label(self):
        rng = make_rng(21)
        X, y = blobs(rng, 20, (1.5, 1.5), 0.9)
        G = linear_gram(X)
        cfg = TrainConfig()
        model = train_smo(lower(G), y, cfg)
        f = scores_on_training(model, G)
        alphas = np.abs(model.dual_coefs)
        for k, idx in enumerate(model.support_indices):
            if cfg.eps < alphas[k] < cfg.C - cfg.eps:
                assert y[idx] * f[idx] == pytest.approx(1.0, abs=cfg.tol)


class TestDualDegeneracy:
    def test_duplicated_data_leaves_decision_unchanged(self):
        # Duplicating every example leaves the optimal separating function
        # untouched even though the dual solution is no longer unique.
        rng = make_rng(11)
        X, y = blobs(rng, 10, (1.5, 1.5), 0.5)
        X2 = np.vstack([X, X])
        y2 = np.concatenate([y, y])
        model_a = train_smo(lower(linear_gram(X)), y, TrainConfig())
        model_b = train_smo(lower(linear_gram(X2)), y2, TrainConfig())
        for p in X:
            row_a = X[list(model_a.support_indices)] @ p
            row_b = X2[list(model_b.support_indices)] @ p
            assert model_a.dual_coefs @ row_a + model_a.bias == pytest.approx(
                model_b.dual_coefs @ row_b + model_b.bias, abs=1e-3)


class TestDeterminism:
    def test_retraining_is_bit_identical(self):
        rng = make_rng(3)
        X, y = blobs(rng, 20, (1.0, 1.0), 1.2)
        T = lower(linear_gram(X))
        a = train_smo(T, y, TrainConfig())
        b = train_smo(T, y, TrainConfig())
        assert a.support_indices == b.support_indices
        assert np.array_equal(a.dual_coefs, b.dual_coefs)
        assert a.bias == b.bias
        assert a.training_checksum == b.training_checksum

    def test_strided_inputs_train_as_their_copies(self, tmp_path):
        G, y = problem(60, "rbf", seed=6)
        T = lower(G)
        wide = np.repeat(T, 2)[::2]
        labels = np.repeat(y, 3)[::3]
        assert not (wide.flags.c_contiguous or labels.flags.c_contiguous)
        cfg = TrainConfig()
        assert (model_bytes(tmp_path, wide, labels, cfg)
                == model_bytes(tmp_path, T, y.copy(), cfg))

    def test_checksum_tracks_inputs(self):
        G = np.array([[1.0, -1.0], [-1.0, 1.0]])
        a = train_smo(lower(G), [-1, 1], TrainConfig())
        b = train_smo(lower(G * 2.0), [-1, 1], TrainConfig())
        assert a.training_checksum != b.training_checksum


class TestValidation:
    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="single class"):
            train_smo(lower(np.eye(3)), [1, 1, 1], TrainConfig())

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_a_non_finite_gram_is_a_numerical_error(self, bad):
        G, y = problem(20, "rbf", seed=4)
        G[1, 0] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            train_smo(lower(G), y, TrainConfig())

    def test_shape_mismatch_rejected(self):
        # the triangle of 3 examples, one value short, the square matrix
        # in place of its triangle, a 2-d array of 3 values
        for gram in (lower(np.eye(3)), np.ones(2), np.eye(2),
                     np.ones((1, 3))):
            with pytest.raises(DataError, match=re.escape(
                    "gram must be the lower triangle of 2 examples, 3 "
                    f"values, got shape {np.shape(gram)}")):
                train_smo(gram, [1, -1], TrainConfig())

    def test_bad_labels_rejected(self):
        with pytest.raises(DataError):
            train_smo(lower(np.eye(2)), [1, 0], TrainConfig())

    def test_negative_support_index_rejected(self):
        with pytest.raises(DataError, match="non-negative"):
            TrainedModel(support_indices=(0, -1),
                         dual_coefs=np.array([0.5, -0.5]), bias=0.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_dual_coef_rejected(self, bad):
        with pytest.raises(DataError, match="dual_coefs must be finite"):
            TrainedModel(support_indices=(0, 1),
                         dual_coefs=np.array([0.5, bad]), bias=0.0)

    def test_config_validated(self):
        with pytest.raises(DataError):
            TrainConfig(C=0.0)
        with pytest.raises(DataError):
            TrainConfig(tol=-1.0)

    @pytest.mark.parametrize("knobs", [
        dict(C=np.inf), dict(C=np.nan), dict(c_scale_pos=np.inf),
        dict(c_scale_neg=np.inf), dict(C=1e200, c_scale_pos=1e200),
        dict(C=1e-200, c_scale_neg=1e-200)],
        ids=["C-inf", "C-nan", "pos-inf", "neg-inf", "overflow", "underflow"])
    def test_a_box_bound_that_is_not_positive_and_finite_is_refused(
            self, knobs):
        with pytest.raises(DataError, match="must be positive and finite"):
            TrainConfig(**knobs)

    def test_a_large_finite_box_bound_is_kept(self):
        cfg = TrainConfig(C=1e150, c_scale_pos=1e150, c_scale_neg=1e-150)
        assert 1e299 < cfg.C * cfg.c_scale_pos < 1e301


class TestModelFile:
    def make_model(self):
        rng = make_rng(17)
        X, y = blobs(rng, 15, (1.2, 1.2), 1.0)
        return train_smo(lower(linear_gram(X)), y, TrainConfig(),
                         kernel_fingerprint="abc123")

    def test_round_trip_is_lossless(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.txt"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.support_indices == model.support_indices
        assert np.array_equal(loaded.dual_coefs, model.dual_coefs)
        assert loaded.bias == model.bias
        assert loaded.kernel_fingerprint == model.kernel_fingerprint
        assert loaded.training_checksum == model.training_checksum

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_models_round_trip_byte_for_byte(self, tmp_path, seed):
        rng = make_rng(seed)
        n = int(rng.integers(0, 40))
        model = TrainedModel(
            support_indices=rng.choice(10 * n + 1, size=n, replace=False),
            dual_coefs=random_doubles(rng, n),
            bias=float(random_doubles(rng, 1)[0]),
            kernel_fingerprint=rng.bytes(32).hex(),
            training_checksum=rng.bytes(32).hex())
        path, again = tmp_path / "model.txt", tmp_path / "again.txt"
        save_model(path, model)
        loaded = load_model(path)
        save_model(again, loaded)
        assert again.read_bytes() == path.read_bytes()
        assert loaded.dual_coefs.tobytes() == model.dual_coefs.tobytes()
        assert repr(loaded.bias) == repr(model.bias)
        assert loaded.support_indices == model.support_indices

    def test_truncated_file_rejected(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.txt"
        save_model(path, model)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:3]) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="truncated|missing"):
            load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("what is this\n", encoding="utf-8")
        with pytest.raises(DataError, match="not a model file"):
            load_model(path)

    def test_fingerprint_mismatch_strict(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.txt"
        save_model(path, model)
        with pytest.raises(DataError, match="fingerprint"):
            load_model(path, expected_fingerprint="different", strict=True)

    def test_fingerprint_mismatch_warns(self, tmp_path, caplog):
        model = self.make_model()
        path = tmp_path / "model.txt"
        save_model(path, model)
        with caplog.at_level("WARNING"):
            loaded = load_model(path, expected_fingerprint="different",
                                strict=False)
        assert loaded.bias == model.bias
        assert any("fingerprint" in r.message for r in caplog.records)

    @pytest.mark.parametrize("field,message", [
        ("dual_coefs", "dual_coefs must be finite"),
        ("bias", "bias must be finite"),
    ])
    def test_non_finite_value_names_the_file(self, tmp_path, field, message):
        path = tmp_path / "model.txt"
        save_model(path, self.make_model())
        # the field's first value becomes nan
        path.write_text(re.sub(rf"^{field}: \S+", f"{field}: nan",
                               path.read_text(), flags=re.M),
                        encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            load_model(path)

    @pytest.mark.parametrize("edit,message", [
        (lambda text: text.replace("support_indices: 0 3",
                                   "support_indices: 0 0"),
         "repeated support index"),
        (lambda text: text + "bias: 0.5\n", "repeated model key 'bias'"),
        (lambda text: text + "kernel_gamma: 0.5\n",
         "unknown model key 'kernel_gamma'"),
    ], ids=["repeated-support-index", "repeated-key", "unknown-key"])
    def test_ambiguous_file_names_the_file(self, tmp_path, edit, message):
        # each would score silently wrong if loaded: a support counted
        # twice, a bias taken from whichever line came last, a key ignored
        path = tmp_path / "model.txt"
        save_model(path, TrainedModel(
            support_indices=(0, 3), dual_coefs=np.array([0.5, -0.5]),
            bias=0.25, kernel_fingerprint="fp", training_checksum="ck"))
        path.write_text(edit(path.read_text(encoding="utf-8")),
                        encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            load_model(path)

    def test_empty_support_round_trip(self, tmp_path):
        model = TrainedModel(support_indices=(), dual_coefs=np.zeros(0),
                             bias=-0.125, kernel_fingerprint="fp",
                             training_checksum="ck")
        path = tmp_path / "model.txt"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.support_indices == ()
        assert loaded.bias == -0.125


# ---------------------------------------------------------------------------
# the two engines: the native SMO step against train_smo's Python reference
# ---------------------------------------------------------------------------

@pytest.fixture
def native_engine():
    if _native.load() is None:
        pytest.skip("the native engine does not build or load here")


def problem(n, kernel, seed=0, duplicated=False):
    """A seeded Gram (RBF or linear on 4-dimensional points) and labels with
    both classes; ``duplicated`` repeats the first half of the points, so
    gaps and violations tie exactly. The Gram sums one elementwise term per
    coordinate, in coordinate order, and the RBF takes ``math.exp`` of each
    value, so its bits do not depend on the BLAS kernel."""
    rng = make_rng(seed)
    X = rng.normal(size=(n, 4))
    if duplicated:
        X[n // 2:] = X[:n - n // 2]
    y = np.where(rng.random(n) < 0.4, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    G = np.zeros((n, n))
    for x in X.T:
        if kernel == "linear":
            G += np.multiply.outer(x, x)
        else:
            d = np.subtract.outer(x, x)
            G += d * d
    if kernel == "linear":
        return G, y
    return np.array([math.exp(v) for v in (-0.25 * G).ravel().tolist()]
                    ).reshape(n, n), y


def model_bytes(tmp_path, T, y, cfg):
    """The model file of a solve on the packed triangle ``T``."""
    path = tmp_path / "model.txt"
    save_model(path, train_smo(T, y, cfg, kernel_fingerprint="fp"))
    return path.read_bytes()


def both_engines(monkeypatch, caplog, compute):
    """compute() on the native engine, then on the Python engine, each with
    the messages train_smo logged."""
    runs = []
    for engine in ("native", "python"):
        with monkeypatch.context() as m, caplog.at_level("INFO",
                                                         "qrerank.svm"):
            if engine == "python":
                m.setattr(_native, "load", lambda: None)
            caplog.clear()
            runs.append((compute(), [r.getMessage() for r in caplog.records]))
    return runs


GOLDEN_SHA256 = ("854cf0e5b4383f8a7c22c979ed5db3b6780287a61c158862fa911b902b28"
                 "00e2")

GRID = [
    *[(n, kernel, {}, False) for n in (2, 3, 50, 300)
      for kernel in ("rbf", "linear")],
    (1000, "linear", dict(C=0.05), False),
    (1000, "rbf", dict(max_passes=300), False),     # hits the cap
    (50, "linear", dict(max_passes=7), False),
    (300, "rbf", dict(C=0.02), False),              # most α at a bound
    (300, "linear", dict(C=0.5), True),
    (300, "rbf", {}, True),
    (50, "rbf", dict(c_scale_pos=2.5), True),
    (300, "rbf", dict(c_scale_neg=0.3), False),
]


class TestGoldenModel:
    """On the default engine and on the Python reference."""

    def test_golden_model(self, monkeypatch, caplog, tmp_path):
        # the sha256 of this model file as the Python reference wrote it
        # when the fixture's Gram stopped depending on the BLAS kernel: the
        # same under OPENBLAS_CORETYPE Prescott, Haswell and SkylakeX
        G, y = problem(300, "rbf", seed=2024, duplicated=True)
        T, cfg = lower(G), TrainConfig(C=2.0, c_scale_pos=1.5)
        for data, _ in both_engines(monkeypatch, caplog,
                                    lambda: model_bytes(tmp_path, T, y, cfg)):
            assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256


@pytest.mark.usefixtures("native_engine")
class TestNativeStep:
    @pytest.mark.parametrize("n,kernel,knobs,duplicated", GRID)
    def test_model_bytes_equal_the_python_reference(
            self, monkeypatch, caplog, tmp_path, n, kernel, knobs,
            duplicated):
        G, y = problem(n, kernel, seed=n, duplicated=duplicated)
        T, cfg = lower(G), TrainConfig(**knobs)
        (native, native_log), (python, python_log) = both_engines(
            monkeypatch, caplog, lambda: model_bytes(tmp_path, T, y, cfg))
        assert native == python
        # the same steps, flag and violation
        assert native_log[-1].endswith(", native engine")
        assert python_log[-1].endswith(", python engine")
        assert native_log[:-1] == python_log[:-1]
        assert (native_log[-1].rsplit(", ", 1)[0]
                == python_log[-1].rsplit(", ", 1)[0])

    def test_a_large_rbf_gram_converges(self, monkeypatch, caplog, tmp_path):
        # 2,670 examples, the size of the SemEval task B training set: the
        # first-order pair rule stopped at the 10,000-step cap here, with a
        # KKT violation of 0.031
        G, y = problem(2670, "rbf", seed=1)
        T, cfg = lower(G), TrainConfig()
        (native, native_log), (python, python_log) = both_engines(
            monkeypatch, caplog, lambda: model_bytes(tmp_path, T, y, cfg))
        assert native == python
        for log, engine in ((native_log, "native"), (python_log, "python")):
            assert len(log) == 1            # no warning
            assert re.fullmatch(r"train_smo: \d+ steps, converged True, max "
                                rf"KKT violation 0, {engine} engine", log[0])
        model = load_model(tmp_path / "model.txt")
        assert kkt_violation(model, G, y, cfg.C, cfg.tol) <= 1e-6

    def test_a_stall_after_progress_is_reproduced(self, monkeypatch, caplog,
                                                  tmp_path):
        # the first pair (0, 1) moves to its bound; the next, (2, 3), has
        # curvature 2e12, so its step of 1e-12 stays below eps
        G, y = np.diag([1.0, 1.0, 1e12, 1e12]), np.array([1.0, -1.0] * 2)
        (native, native_log), (python, _) = both_engines(
            monkeypatch, caplog, lambda: model_bytes(tmp_path, lower(G), y,
                                                     TrainConfig()))
        assert native == python
        assert native_log[0].startswith("SMO stalled")
        assert native_log[1].startswith("train_smo: 1 steps, converged False")

    def test_a_step_below_eps_stalls_at_once(self, monkeypatch, caplog,
                                             tmp_path):
        G, y = 1e12 * np.eye(6), np.array([1.0, -1.0] * 3)
        (native, native_log), (python, _) = both_engines(
            monkeypatch, caplog, lambda: model_bytes(tmp_path, lower(G), y,
                                                     TrainConfig()))
        assert native == python
        assert native_log[0].startswith("SMO stalled")
        assert native_log[1].startswith("train_smo: 0 steps, converged False")

    # NaN: F_2 is NaN; -inf: F_2 is 1 - -inf
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_a_nan_maximum_stops_the_native_step(self, bad):
        # where the Python reference raises NumericalError (a non-finite
        # F), the step reports it and returns with the iterate untouched
        n = 4
        T, y = np.asarray(lower(np.eye(n))), np.array([1.0, -1.0, 1.0, -1.0])
        box, alpha, g = np.ones(n), np.zeros(n), np.zeros(n)
        g[2] = bad
        before = alpha.tobytes() + g.tobytes()
        status = _native.load().smo_step(
            n, *(a.ctypes.data for a in (T, y, box, alpha, g)), 1e-3, 1e-9,
            np.zeros(1).ctypes.data)
        assert status == 3
        assert alpha.tobytes() + g.tobytes() == before

    def test_without_a_compiler_one_warning_and_the_same_bytes(
            self, monkeypatch, tmp_path, caplog):
        G, y = problem(50, "rbf", seed=8, duplicated=True)
        T = lower(G)
        native = model_bytes(tmp_path, T, y, TrainConfig())
        monkeypatch.setattr(_native, "_engine", _native._UNTRIED)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setenv("PATH", str(tmp_path))     # no cc, no gcc
        with caplog.at_level("INFO"):
            first = model_bytes(tmp_path, T, y, TrainConfig())
            again = model_bytes(tmp_path, T, y, TrainConfig())
        assert first == again == native
        assert [r.getMessage() for r in caplog.records
                if r.levelname == "WARNING"] == [
            "native engine unavailable (no C compiler: neither cc nor gcc "
            "is on PATH); using the Python engine"]
        assert all(r.getMessage().endswith(", python engine")
                   for r in caplog.records if r.name == "qrerank.svm")


# ---------------------------------------------------------------------------
# the dual objective: each step reports its gain, checked after every step
# ---------------------------------------------------------------------------

def record_gains(monkeypatch, name, alter=lambda step, gain: gain):
    """The gains the steps of engine ``name`` report, as they are made;
    ``alter(step, gain)`` gives the gain train_smo sees."""
    gains = []
    if name == "python":
        real = svm._python_engine

        def python_engine(*args):
            step = real(*args)

            def recorded():
                status, gain = step()
                if status == 0:
                    gains.append(gain)
                    gain = alter(len(gains), gain)
                return status, gain
            return recorded
        monkeypatch.setattr(_native, "load", lambda: None)
        monkeypatch.setattr(svm, "_python_engine", python_engine)
    else:
        native = _native.load()
        if native is None:
            pytest.skip("the native engine does not build or load here")

        def smo_step(*args):
            status = native.smo_step(*args)
            if status == 0:
                gains.append(ctypes.c_double.from_address(args[-1]).value)
            return status
        monkeypatch.setattr(_native, "load",
                            lambda: native._replace(smo_step=smo_step))
    return gains


class TestStepGain:
    @pytest.mark.parametrize("name", ["native", "python"])
    def test_the_gains_add_up_to_the_dual_objective(self, monkeypatch, name):
        G, y = problem(300, "rbf", seed=5, duplicated=True)
        gains = record_gains(monkeypatch, name)
        model = train_smo(lower(G), y, TrainConfig())
        S = list(model.support_indices)
        coef = np.asarray(model.dual_coefs)
        # W(α) = Σα − ½ Σ α_k α_l y_k y_l G_kl, α_k = coef_k · y_k
        W = coef @ y[S] - 0.5 * coef @ G[np.ix_(S, S)] @ coef
        assert len(gains) > 100 and min(gains) >= 0.0
        assert math.isclose(math.fsum(gains), W, rel_tol=1e-9)

    def test_the_engines_report_the_same_gains(self, monkeypatch):
        G, y = problem(300, "linear", seed=6)
        runs = []
        for name in ("native", "python"):
            with monkeypatch.context() as m:
                gains = record_gains(m, name)
                train_smo(lower(G), y, TrainConfig())
            runs.append(gains)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("bad_step", [1, 2, 37])
    def test_a_decrease_is_caught_at_its_step(self, monkeypatch, bad_step):
        # a drop that later steps would make up for is caught all the same
        G, y = problem(300, "rbf", seed=5)
        gains = record_gains(
            monkeypatch, "python",
            lambda step, gain: -1e-3 if step == bad_step else gain)
        with pytest.raises(AssertionError, match="dual objective decreased"):
            train_smo(lower(G), y, TrainConfig())
        assert len(gains) == bad_step


# ---------------------------------------------------------------------------
# the prelude: the triangle is checked, solved and hashed in place
# ---------------------------------------------------------------------------

def checksum(T, y, cfg):
    """training_checksum as a copy of the triangle's bytes gives it."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(T).tobytes())
    h.update(np.asarray(y, dtype=np.float64).astype(np.int8).tobytes())
    h.update(repr(astuple(cfg)).encode())
    return h.hexdigest()


def engine(monkeypatch, name):
    """Run train_smo on the engine ``name`` for the rest of the test."""
    if name == "python":
        monkeypatch.setattr(_native, "load", lambda: None)
    elif _native.load() is None:
        pytest.skip("the native engine does not build or load here")


class TestLeanPrelude:
    @pytest.mark.parametrize("name", ["native", "python"])
    def test_the_callers_triangle_is_not_written(self, monkeypatch, name):
        engine(monkeypatch, name)
        G, y = problem(120, "rbf", seed=16)
        T = lower(G)
        before = T.tobytes()
        model = train_smo(T, y, TrainConfig())
        assert T.tobytes() == before
        assert model.training_checksum == checksum(T, y, TrainConfig())

    @pytest.mark.parametrize("name", ["native", "python"])
    def test_the_triangle_is_not_copied(self, monkeypatch, name):
        # a copy of the triangle would be 1.0 × its bytes; the finiteness
        # check reads it in place, a value at a time
        engine(monkeypatch, name)
        G, y = problem(600, "rbf", seed=16)
        T = lower(G)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train_smo(T, y, TrainConfig(max_passes=20))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.0625 * len(T) * T.itemsize

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_entry_beyond_half_the_largest_double_stays_finite(self):
        # (G + G.T) / 2 would have turned it into inf
        G = np.eye(4)
        G[0, 0] = 1.5e308
        y = [1, -1, 1, -1]
        model = train_smo(lower(G), y, TrainConfig())
        assert model.training_checksum == checksum(lower(G), y, TrainConfig())
