"""SMO solver: analytic fixture, KKT conditions, determinism, model file,
and the native SMO step: byte for byte against the Python reference."""

import hashlib
import random
import re
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from qrerank import _native
from qrerank.errors import DataError, NumericalError
from qrerank.svm import (
    TrainConfig,
    TrainedModel,
    load_model,
    save_model,
    train_smo,
)

from conftest import make_rng


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
        self.model = train_smo(self.G, self.y, TrainConfig(C=1.0))

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
        cfg = TrainConfig(C=1.0, seed=7)
        model = train_smo(G, y, cfg)
        assert kkt_violation(model, G, y, cfg.C, cfg.tol) <= 1e-12

    def test_separable_set_has_zero_training_errors(self):
        rng = make_rng(99)
        X, y = blobs(rng, 10, (2.5, 2.5), 0.5)
        G = linear_gram(X)
        model = train_smo(G, y, TrainConfig())
        f = scores_on_training(model, G)
        assert np.all(np.sign(f) == y)

    def test_model_invariants(self):
        rng = make_rng(7)
        X, y = blobs(rng, 25, (1.0, 1.0), 1.0)
        G = linear_gram(X)
        cfg = TrainConfig(C=1.0)
        model = train_smo(G, y, cfg)
        alphas = np.abs(model.dual_coefs)
        assert np.all(alphas > cfg.eps)          # supports carry weight
        assert np.all(alphas <= cfg.C + 1e-12)   # box respected
        assert abs(model.dual_coefs.sum()) <= 1e-6   # Σ α_i y_i = 0

    def test_free_support_vector_scores_its_label(self):
        rng = make_rng(21)
        X, y = blobs(rng, 20, (1.5, 1.5), 0.9)
        G = linear_gram(X)
        cfg = TrainConfig()
        model = train_smo(G, y, cfg)
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
        model_a = train_smo(linear_gram(X), y, TrainConfig(seed=1))
        model_b = train_smo(linear_gram(X2), y2, TrainConfig(seed=1))
        for p in X:
            row_a = X[list(model_a.support_indices)] @ p
            row_b = X2[list(model_b.support_indices)] @ p
            assert model_a.dual_coefs @ row_a + model_a.bias == pytest.approx(
                model_b.dual_coefs @ row_b + model_b.bias, abs=1e-3)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        rng = make_rng(3)
        X, y = blobs(rng, 20, (1.0, 1.0), 1.2)
        G = linear_gram(X)
        a = train_smo(G, y, TrainConfig(seed=42))
        b = train_smo(G, y, TrainConfig(seed=42))
        assert a.support_indices == b.support_indices
        assert np.array_equal(a.dual_coefs, b.dual_coefs)
        assert a.bias == b.bias
        assert a.training_checksum == b.training_checksum

    def test_strided_inputs_train_as_their_copies(self, tmp_path):
        G, y = problem(60, "rbf", seed=6)
        wide = np.repeat(np.repeat(G, 2, axis=0), 2, axis=1)[::2, ::2]
        labels = np.repeat(y, 3)[::3]
        assert not (wide.flags.c_contiguous or labels.flags.c_contiguous)
        cfg = TrainConfig(seed=6)
        assert (model_bytes(tmp_path, wide, labels, cfg)
                == model_bytes(tmp_path, G.copy(), y.copy(), cfg))

    def test_checksum_tracks_inputs(self):
        G = np.array([[1.0, -1.0], [-1.0, 1.0]])
        a = train_smo(G, [-1, 1], TrainConfig())
        b = train_smo(G * 2.0, [-1, 1], TrainConfig())
        assert a.training_checksum != b.training_checksum


class TestValidation:
    def test_single_class_rejected(self):
        G = np.eye(3)
        with pytest.raises(DataError, match="single class"):
            train_smo(G, [1, 1, 1], TrainConfig())

    def test_asymmetric_gram_rejected(self):
        G = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(NumericalError, match="symmetric"):
            train_smo(G, [1, -1], TrainConfig())

    def test_tiny_asymmetry_tolerated(self):
        G = np.array([[1.0, -1.0], [-1.0 + 1e-12, 1.0]])
        model = train_smo(G, [-1, 1], TrainConfig())
        assert abs(model.bias) <= 1e-6

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_a_non_finite_gram_is_a_numerical_error(self, bad):
        G, y = problem(20, "rbf", seed=4)
        G[0, 1] = G[1, 0] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            train_smo(G, y, TrainConfig())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            train_smo(np.eye(3), [1, -1], TrainConfig())
        with pytest.raises(DataError):
            train_smo(np.zeros((2, 3)), [1, -1], TrainConfig())

    def test_bad_labels_rejected(self):
        with pytest.raises(DataError):
            train_smo(np.eye(2), [1, 0], TrainConfig())

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


class TestModelFile:
    def make_model(self):
        rng = make_rng(17)
        X, y = blobs(rng, 15, (1.2, 1.2), 1.0)
        return train_smo(linear_gram(X), y, TrainConfig(seed=5),
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
    gaps and violations tie exactly."""
    rng = make_rng(seed)
    X = rng.normal(size=(n, 4))
    if duplicated:
        X[n // 2:] = X[:n - n // 2]
    y = np.where(rng.random(n) < 0.4, 1.0, -1.0)
    y[:2] = (1.0, -1.0)
    if kernel == "linear":
        return linear_gram(X), y
    sq = (X * X).sum(1)
    return np.exp(-0.25 * np.maximum(sq[:, None] + sq[None, :]
                                     - 2.0 * (X @ X.T), 0.0)), y


def model_bytes(tmp_path, G, y, cfg):
    path = tmp_path / "model.txt"
    save_model(path, train_smo(G, y, cfg, kernel_fingerprint="fp"))
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


GOLDEN_SHA256 = ("48f39abb912817cf9ac09899967bdccae911af366a003a4a16b4d8d3316c"
                 "7caf")

GRID = [
    *[(n, kernel, {}, False) for n in (2, 3, 50, 300)
      for kernel in ("rbf", "linear")],
    (1000, "linear", dict(C=0.05), False),
    (1000, "rbf", dict(max_passes=300), False),     # hits the cap
    (50, "linear", dict(max_passes=7, seed=3), False),
    (300, "rbf", dict(C=0.02), False),              # most α at a bound
    (300, "linear", dict(C=0.5, seed=1), True),
    (300, "rbf", dict(seed=2), True),
    (50, "rbf", dict(c_scale_pos=2.5, seed=7), True),
    (300, "rbf", dict(c_scale_neg=0.3, seed=11), False),
]


class TestGoldenModel:
    """On the default engine and on the Python reference."""

    def test_golden_model(self, monkeypatch, caplog, tmp_path):
        # the sha256 of this model file as the pure-Python solver wrote it
        # before the native step existed
        G, y = problem(300, "rbf", seed=2024, duplicated=True)
        cfg = TrainConfig(C=2.0, seed=13, c_scale_pos=1.5)
        for data, _ in both_engines(monkeypatch, caplog,
                                    lambda: model_bytes(tmp_path, G, y, cfg)):
            assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256


@pytest.mark.usefixtures("native_engine")
class TestNativeStep:
    @pytest.mark.parametrize("n,kernel,knobs,duplicated", GRID)
    def test_model_bytes_equal_the_python_reference(
            self, monkeypatch, caplog, tmp_path, n, kernel, knobs,
            duplicated):
        G, y = problem(n, kernel, seed=n, duplicated=duplicated)
        cfg = TrainConfig(**knobs)
        (native, native_log), (python, python_log) = both_engines(
            monkeypatch, caplog, lambda: model_bytes(tmp_path, G, y, cfg))
        assert native == python
        # the same steps, shuffled scans, flag and violation
        assert native_log[-1].endswith(", native engine")
        assert python_log[-1].endswith(", python engine")
        assert native_log[:-1] == python_log[:-1]
        assert (native_log[-1].rsplit(", ", 1)[0]
                == python_log[-1].rsplit(", ", 1)[0])

    def test_a_stall_after_progress_is_reproduced(self, monkeypatch, caplog,
                                                  tmp_path):
        # points at -1, 0 and 1, each repeated with both labels: the last
        # violators have no partner with η > 0 and room to move
        rng = make_rng(48)
        X = rng.integers(-1, 2, size=(30, 1)).astype(float)
        y = np.where(rng.random(30) < 0.5, 1.0, -1.0)
        y[:2] = (1.0, -1.0)
        (native, native_log), (python, _) = both_engines(
            monkeypatch, caplog, lambda: model_bytes(
                tmp_path, X @ X.T, y, TrainConfig(seed=48)))
        assert native == python
        assert native_log[0].startswith("SMO stalled")
        assert native_log[1].startswith("train_smo: 24 steps, 12 with the "
                                        "shuffled scan, converged False")

    def test_a_flat_gram_stalls_at_once(self, monkeypatch, caplog, tmp_path):
        G, y = np.ones((6, 6)), np.array([1.0, -1.0] * 3)
        (native, native_log), (python, _) = both_engines(
            monkeypatch, caplog, lambda: model_bytes(tmp_path, G, y,
                                                     TrainConfig()))
        assert native == python
        assert native_log[0].startswith("SMO stalled")
        assert native_log[1].startswith("train_smo: 0 steps, 0 with the "
                                        "shuffled scan, converged False")

    # NaN: the violations' maximum is NaN; -inf: the worst violator's own
    # gap is |-inf - -inf|
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_a_nan_maximum_stops_the_native_step(self, bad):
        # where the Python reference finds no tie to pick (a NaN maximum
        # of the violations or the gaps), the step reports it and returns
        n = 4
        G, y = np.eye(n), np.array([1.0, -1.0, 1.0, -1.0])
        box, alpha, g = np.ones(n), np.zeros(n), np.zeros(n)
        g[2] = bad
        mt = np.array(random.Random(0).getstate()[1], dtype=np.uint32)
        worst, scanned = np.zeros(1), np.ones(1, dtype=np.int64)
        scratch = (np.empty(n), np.empty(n),
                   np.empty(n, dtype=[("v", np.float64), ("k", np.int64)]),
                   np.empty(n, dtype=np.int64))
        before = alpha.tobytes() + g.tobytes()
        status = _native.load().smo_step(
            n, *(a.ctypes.data for a in (G, y, box, alpha, g)), 0.0, 1e-3,
            1e-9, *(a.ctypes.data for a in (mt, *scratch, worst, scanned)))
        assert status == 3
        assert alpha.tobytes() + g.tobytes() == before

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 64, 999, 1000, 1024,
                                   2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1])
    def test_generator_matches_random(self, n):
        rng = random.Random(n)
        mt = np.array(rng.getstate()[1], dtype=np.uint32)
        draws = np.zeros(700, dtype=np.int64)    # past one 624-word block
        _native.load().randbelow(mt.ctypes.data, n, len(draws),
                                 draws.ctypes.data)
        assert draws.tolist() == [rng.randrange(n) for _ in draws]
        assert random.Random(n).getstate()[1] != tuple(mt.tolist())
        again = random.Random()
        again.setstate((3, tuple(mt.tolist()), None))
        assert again.random() == rng.random()

    def test_without_a_compiler_one_warning_and_the_same_bytes(
            self, monkeypatch, tmp_path, caplog):
        G, y = problem(50, "rbf", seed=8, duplicated=True)
        native = model_bytes(tmp_path, G, y, TrainConfig(seed=4))
        monkeypatch.setattr(_native, "_engine", _native._UNTRIED)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setenv("PATH", str(tmp_path))     # no cc, no gcc
        with caplog.at_level("INFO"):
            first = model_bytes(tmp_path, G, y, TrainConfig(seed=4))
            again = model_bytes(tmp_path, G, y, TrainConfig(seed=4))
        assert first == again == native
        assert [r.getMessage() for r in caplog.records
                if r.levelname == "WARNING"] == [
            "native engine unavailable (no C compiler: neither cc nor gcc "
            "is on PATH); using the Python engine"]
        assert all(r.getMessage().endswith(", python engine")
                   for r in caplog.records if r.name == "qrerank.svm")


# ---------------------------------------------------------------------------
# the prelude: a bitwise-symmetric Gram is read in place, any other is
# symmetrized as (G + G.T) / 2
# ---------------------------------------------------------------------------

def checksum(G, y, cfg):
    """training_checksum as a copy of the matrix's C-ordered bytes gives it."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(G).tobytes())
    h.update(np.asarray(y, dtype=np.float64).astype(np.int8).tobytes())
    h.update(repr(astuple(cfg)).encode())
    return h.hexdigest()


def symmetrized_model_bytes(tmp_path, gram, labels, cfg):
    """The model file of a solver that symmetrizes every Gram, with that
    prelude inlined: (G + G.T) / 2 in C order, hashed from a copy."""
    G = np.asarray(gram, dtype=np.float64)
    assert float(np.max(np.abs(G - G.T))) <= 1e-9
    sym = np.ascontiguousarray((G + G.T) / 2.0)
    model = train_smo(sym, labels, cfg, kernel_fingerprint="fp")
    assert model.training_checksum == checksum(sym, labels, cfg)
    path = tmp_path / "reference.txt"
    save_model(path, model)
    return path.read_bytes()


PRELUDE_CASES = ["bitwise", "near", "signed-zero", "fortran-bitwise",
                 "fortran-near"]


def prelude_gram(case, n=120):
    """A Gram symmetric bit for bit, or within 1e-10 of its transpose, or
    with a 0.0 mirrored by a -0.0; in C or Fortran order."""
    G, y = problem(n, "rbf", seed=16)
    G = np.triu(G) + np.triu(G, 1).T
    if case.endswith("near"):
        G = G + np.triu(make_rng(17).uniform(-1e-10, 1e-10, G.shape), 1)
    if case == "signed-zero":
        G[0, 1], G[1, 0] = 0.0, -0.0
    if case.startswith("fortran"):
        G = np.asfortranarray(G)
    return G, y


class TestLeanPrelude:
    @pytest.mark.parametrize("case", PRELUDE_CASES)
    def test_model_bytes_equal_the_symmetrizing_reference(
            self, monkeypatch, caplog, tmp_path, case):
        G, y = prelude_gram(case)
        assert (np.array_equal(G.view(np.uint64), G.T.view(np.uint64))
                == case.endswith("bitwise"))
        cfg = TrainConfig(seed=5)
        for (ours, reference), _ in both_engines(
                monkeypatch, caplog,
                lambda: (model_bytes(tmp_path, G, y, cfg),
                         symmetrized_model_bytes(tmp_path, G, y, cfg))):
            assert ours == reference

    @pytest.mark.parametrize("case", PRELUDE_CASES)
    def test_the_callers_gram_is_not_written(self, case):
        G, y = prelude_gram(case)
        before = G.copy(order="K")
        train_smo(G, y, TrainConfig(seed=5))
        assert G.flags.f_contiguous == before.flags.f_contiguous
        assert np.array_equal(G.view(np.uint64), before.view(np.uint64))

    @pytest.mark.parametrize("engine", ["native", "python"])
    def test_a_symmetric_gram_is_not_copied(self, monkeypatch, engine):
        # a copy of G alone would be 1.0 × G.nbytes; the checks allocate
        # one n×n bool (0.125 ×) at a time
        if engine == "python":
            monkeypatch.setattr(_native, "load", lambda: None)
        elif _native.load() is None:
            pytest.skip("the native engine does not build or load here")
        G, y = prelude_gram("bitwise", n=600)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train_smo(G, y, TrainConfig(max_passes=20))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * G.nbytes

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_entry_beyond_half_the_largest_double_stays_finite(self):
        # (G + G.T) / 2 would turn it into inf
        G = np.eye(4)
        G[0, 0] = 1.5e308
        y = [1, -1, 1, -1]
        model = train_smo(G, y, TrainConfig())
        assert model.training_checksum == checksum(G, y, TrainConfig())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cells,message", [
        ({(0, 0): 1.5e308, (1, 2): 1e-12}, "overflows when symmetrized"),
        ({(0, 1): 1e308, (1, 0): -1e308}, r"not symmetric \(max asymmetry inf"),
    ], ids=["near-symmetric", "asymmetric"])
    def test_an_overflow_off_the_bitwise_path_is_a_numerical_error(
            self, cells, message):
        G = np.eye(4)
        for cell, value in cells.items():
            G[cell] = value
        with pytest.raises(NumericalError, match=message):
            train_smo(G, [1, -1, 1, -1], TrainConfig())
