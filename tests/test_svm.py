"""SMO solver: analytic fixture, KKT conditions, determinism, model file."""

import numpy as np
import pytest

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

    def test_empty_support_round_trip(self, tmp_path):
        model = TrainedModel(support_indices=(), dual_coefs=np.zeros(0),
                             bias=-0.125, kernel_fingerprint="fp",
                             training_checksum="ck")
        path = tmp_path / "model.txt"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.support_indices == ()
        assert loaded.bias == -0.125
