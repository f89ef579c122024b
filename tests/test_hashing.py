"""Kernel bit classifiers, error-correcting training, model file format."""

import re
import warnings

import numpy as np
import pytest
from scipy.special import expit

from ppc.affinity import Dataset, labels_by_class, synth_blobs
from ppc import hashing
from ppc.hashing import (
    HashModel,
    KernelClassifier,
    KernelConfig,
    encode,
    fit_bit_classifier,
    load_model,
    median_bandwidth,
    save_model,
    train_with_hashing,
)
from ppc.trainer import TrainConfig, train


def _encode_one(clf, x):
    """The ±1 code of one feature vector under a one-bit model."""
    return int(encode(HashModel([clf], alpha=0.0, p=1), x)[0, 0])


def _fit(features, targets, cfg, seed=0):
    """fit_bit_classifier over the kernel basis train_with_hashing builds."""
    return fit_bit_classifier(*hashing._kernel_basis(features, cfg, seed), targets, cfg)


def _two_blobs(n=200, d=2, seed=0, sep=10.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    feats = np.vstack(
        [rng.normal(0.0, 1.0, size=(half, d)), rng.normal(sep, 1.0, size=(n - half, d))]
    )
    labels = np.array([0] * half + [1] * (n - half))
    return Dataset(features=feats, class_labels=labels)


def _nesterov_reference(K, targets, cfg):
    """The former fit: accelerated gradient descent with a fixed 1/L step from
    zero, run to max_iter unless max|grad| <= tol; returns the best iterate
    seen and its penalized loss."""
    n, m = K.shape
    t = targets.astype(np.float64)
    K1 = np.hstack([K, np.ones((n, 1))])
    v = np.random.default_rng(0).standard_normal(m + 1)
    v /= np.linalg.norm(v)
    for _ in range(60):  # power iteration for the largest singular value
        w = K1.T @ (K1 @ v)
        v = w / np.linalg.norm(w)
    s = float(np.linalg.norm(K1 @ v))
    step = 1.0 / ((s * s) / (4.0 * n) + cfg.ridge)

    theta = np.zeros(m + 1)
    look = theta.copy()
    t_acc = 1.0
    best, best_loss = theta, np.inf
    for _ in range(cfg.max_iter):
        s_neg = expit(-t * (K @ look[:m] + look[m]))
        grad = np.empty(m + 1)
        grad[:m] = -(K.T @ (t * s_neg)) / n + cfg.ridge * look[:m]
        grad[m] = -(t * s_neg).sum() / n
        new = look - step * grad
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc)) / 2.0
        look = new + ((t_acc - 1.0) / t_next) * (new - theta)
        theta, t_acc = new, t_next
        loss = _penalized_loss(K, t, theta[:m], theta[m], cfg.ridge)
        if loss < best_loss:
            best, best_loss = theta.copy(), loss
        if float(np.abs(grad).max()) <= cfg.tol:
            break
    return best[:m], float(best[m]), best_loss


def _penalized_loss(K, t, w, b, ridge):
    return float(np.logaddexp(0.0, -t * (K @ w + b)).mean()) + 0.5 * ridge * float(w @ w)


def _grad_max(K, t, w, b, ridge):
    r = t * expit(-t * (K @ w + b)) / K.shape[0]
    return max(float(np.abs(ridge * w - K.T @ r).max()), abs(float(r.sum())))


def _blob_problem():
    data = _two_blobs(200, 2, seed=21, sep=3.0)
    targets = np.where(data.class_labels == 0, 1, -1).astype(np.int8)
    centers = data.features[np.random.default_rng(22).choice(200, size=80, replace=False)]
    sigma = median_bandwidth(data.features, seed=0)
    return hashing._kernel_matrix(data.features, centers, sigma), targets


def _random_problem():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(300, 4))
    targets = np.where(rng.random(300) < 0.5, 1, -1).astype(np.int8)
    centers = X[np.sort(rng.choice(300, size=100, replace=False))]
    return hashing._kernel_matrix(X, centers, median_bandwidth(X, seed=0)), targets


class TestFitLogistic:
    """The truncated Newton fit against the former accelerated-gradient fit."""

    @pytest.mark.parametrize("problem", [_blob_problem, _random_problem])
    def test_reaches_tolerance_below_reference_objective(self, problem):
        K, targets = problem()
        cfg = KernelConfig()
        t = targets.astype(np.float64)
        w, b, converged, steps, grad_max = hashing._fit_logistic(K, targets, cfg)
        _, _, ref_loss = _nesterov_reference(K, targets, cfg)
        assert converged and 1 <= steps <= cfg.max_iter
        assert grad_max <= cfg.tol
        assert _grad_max(K, t, w, b, cfg.ridge) <= cfg.tol
        assert _penalized_loss(K, t, w, b, cfg.ridge) <= ref_loss

        again = hashing._fit_logistic(K, targets, cfg)
        assert np.array_equal(again[0], w) and again[1] == b

    @pytest.mark.parametrize("sep", [10.0, 4.0])
    def test_zero_ridge_separable(self, sep):
        data = _two_blobs(200, 2, seed=24, sep=sep)
        targets = np.where(data.class_labels == 0, 1, -1).astype(np.int8)
        K = hashing._kernel_matrix(data.features, data.features[::3], median_bandwidth(data.features, seed=0))
        cfg = KernelConfig(ridge=0.0, max_iter=50)
        w, b, converged, steps, grad_max = hashing._fit_logistic(K, targets, cfg)
        assert np.all(np.isfinite(w)) and np.isfinite(b)
        assert steps <= cfg.max_iter
        true_max = _grad_max(K, targets.astype(np.float64), w, b, 0.0)
        assert converged == (true_max <= cfg.tol)
        assert np.isclose(grad_max, true_max, rtol=1e-6, atol=1e-12)
        assert np.all(np.where(K @ w + b >= 0, 1, -1) == targets)

    def test_backtracking_keeps_loss_monotone(self):
        # separable, widely scaled features: here undamped Newton steps
        # overshoot from step 14 on and the loss blows up
        rng = np.random.default_rng(141)
        m = int(rng.integers(1, 5))
        K = rng.normal(size=(40, m)) * rng.choice([1, 10, 100])
        targets = np.where(K @ rng.normal(size=m) + rng.normal() >= 0, 1, -1).astype(np.int8)
        t = targets.astype(np.float64)
        losses = []
        for cap in range(1, 40):
            w, b, converged, steps, _ = hashing._fit_logistic(K, targets, KernelConfig(max_iter=cap))
            assert steps == cap
            losses.append(_penalized_loss(K, t, w, b, KernelConfig().ridge))
            if converged:
                break
        assert converged
        assert all(later <= earlier for earlier, later in zip(losses, losses[1:]))

    def test_step_cap_reports_unconverged(self):
        K, targets = _random_problem()
        w, b, converged, steps, grad_max = hashing._fit_logistic(K, targets, KernelConfig(max_iter=1))
        assert not converged and steps == 1
        assert grad_max > KernelConfig().tol
        assert np.isclose(grad_max, _grad_max(K, targets.astype(np.float64), w, b, KernelConfig().ridge))


class TestFitBitClassifier:
    def test_separable_blobs_high_accuracy(self):
        data = _two_blobs(200, 2, seed=1)
        targets = np.where(data.class_labels == 0, 1, -1).astype(np.int8)
        fit = _fit(data.features, targets, KernelConfig(max_centers=80), seed=0)
        assert fit.accuracy >= 0.99

    def test_all_positive_targets_constant(self):
        data = _two_blobs(40, 2, seed=2)
        fit = _fit(data.features, np.ones(40, dtype=np.int8), KernelConfig())
        assert fit.accuracy == 1.0
        assert np.all(fit.classifier.coefficients == 0.0)
        assert fit.classifier.bias == 1.0

    def test_rejects_bad_targets(self):
        data = _two_blobs(10, 2, seed=3)
        with pytest.raises(ValueError):
            _fit(data.features, np.zeros(10), KernelConfig())

    def test_center_subsampling_count(self):
        data = _two_blobs(50, 2, seed=4)
        targets = np.where(data.class_labels == 0, 1, -1).astype(np.int8)
        fit = _fit(data.features, targets, KernelConfig(max_centers=12), seed=1)
        assert fit.classifier.centers.shape == (12, 2)
        assert fit.classifier.coefficients.shape == (12,)

    def test_deterministic(self):
        data = _two_blobs(60, 2, seed=5)
        targets = np.where(data.class_labels == 0, 1, -1).astype(np.int8)
        a = _fit(data.features, targets, KernelConfig(max_centers=30), seed=7)
        b = _fit(data.features, targets, KernelConfig(max_centers=30), seed=7)
        assert np.array_equal(a.classifier.coefficients, b.classifier.coefficients)
        assert a.classifier.bias == b.classifier.bias

    def test_single_sample_constant(self):
        fit = _fit(np.array([[1.0, 2.0]]), np.array([-1]), KernelConfig())
        assert fit.accuracy == 1.0
        assert fit.classifier.bias == -1.0
        assert _encode_one(fit.classifier, np.array([9.0, 9.0])) == -1


class TestPredictBit:
    """Single-row predictions through encode; sign(0) -> +1."""

    def test_dominant_center(self):
        clf = KernelClassifier(
            centers=np.array([[0.0, 0.0], [100.0, 100.0]]),
            coefficients=np.array([5.0, -5.0]),
            bias=0.0,
            bandwidth=1.0,
        )
        assert _encode_one(clf, np.array([0.1, 0.0])) == 1
        assert _encode_one(clf, np.array([99.9, 100.0])) == -1

    def test_constant_classifier(self):
        clf = KernelClassifier(
            centers=np.zeros((3, 2)), coefficients=np.zeros(3), bias=-1.0, bandwidth=1.0
        )
        assert _encode_one(clf, np.array([42.0, -7.0])) == -1

    def test_perfect_fit_reproduces_targets(self):
        data = _two_blobs(100, 2, seed=6)
        targets = np.where(data.class_labels == 0, 1, -1).astype(np.int8)
        fit = _fit(data.features, targets, KernelConfig(max_centers=60), seed=2)
        assert fit.accuracy == 1.0
        preds = encode(HashModel([fit.classifier], alpha=0.0, p=1), data.features)[0]
        assert np.array_equal(preds, targets)

    def test_dimension_mismatch(self):
        clf = KernelClassifier(
            centers=np.zeros((2, 3)), coefficients=np.zeros(2), bias=1.0, bandwidth=1.0
        )
        with pytest.raises(ValueError):
            _encode_one(clf, np.zeros(2))


class TestEncode:
    def test_training_roundtrip_when_perfect(self):
        data = _two_blobs(120, 2, seed=7)
        labels = labels_by_class(data)
        cfg = TrainConfig(max_bits=4, seed=3, target_empirical_loss=-1)
        model, state = train_with_hashing(data, labels, cfg, KernelConfig(max_centers=60))
        codes = encode(model, data.features)
        # accuracy 1.0 on every bit means the accumulated gram is C^T C
        assert all(a == 1.0 for a in model.train_bit_accuracy)
        assert np.array_equal(
            state.gram, codes.astype(np.int64).T @ codes.astype(np.int64)
        )

    def test_duplicate_queries_identical_columns(self):
        data = _two_blobs(60, 2, seed=8)
        labels = labels_by_class(data)
        model, _ = train_with_hashing(
            data, labels, TrainConfig(max_bits=3, seed=1), KernelConfig(max_centers=30)
        )
        q = np.vstack([data.features[5], data.features[5]])
        codes = encode(model, q)
        assert np.array_equal(codes[:, 0], codes[:, 1])

    @pytest.mark.parametrize("shared", [True, False])
    def test_blocked_equals_single_shot(self, monkeypatch, shared):
        B = 16
        rng = np.random.default_rng(16)
        centers = rng.normal(size=(9, 3))
        classifiers = [
            KernelClassifier(
                centers=centers if shared else centers + 0.1 * j,
                coefficients=rng.standard_normal(9),
                bias=float(rng.normal(scale=0.1)),
                bandwidth=1.5 if shared else 1.0 + 0.25 * j,
            )
            for j in range(5)
        ]
        model = HashModel(classifiers, alpha=0.0, p=5)
        for n in (1, B - 1, B, B + 1, 2 * B + 3):
            X = rng.normal(size=(n, 3))
            monkeypatch.setattr(hashing, "ENCODE_BLOCK", n)
            single = encode(model, X)
            monkeypatch.setattr(hashing, "ENCODE_BLOCK", B)
            blocked = encode(model, X)
            assert blocked.shape == (5, n) and blocked.dtype == np.int8
            assert np.array_equal(blocked, single)

    def test_default_block_equals_single_shot(self, monkeypatch):
        rng = np.random.default_rng(17)
        clf = KernelClassifier(
            centers=rng.normal(size=(4, 2)), coefficients=rng.standard_normal(4), bias=0.0, bandwidth=1.0
        )
        model = HashModel([clf, clf], alpha=0.0, p=2)
        X = rng.normal(size=(hashing.ENCODE_BLOCK + 1, 2))
        blocked = encode(model, X)
        monkeypatch.setattr(hashing, "ENCODE_BLOCK", X.shape[0])
        assert np.array_equal(blocked, encode(model, X))

    @pytest.mark.parametrize("X", [np.zeros((0, 2)), np.zeros((5, 2)), np.zeros(0)])
    def test_dimension_mismatch_even_when_empty(self, X):
        clf = KernelClassifier(
            centers=np.zeros((2, 3)), coefficients=np.zeros(2), bias=1.0, bandwidth=1.0
        )
        with pytest.raises(ValueError, match="dimension"):
            encode(HashModel([clf], alpha=0.0, p=1), X)

    def test_empty_query_set(self):
        clf = KernelClassifier(
            centers=np.zeros((2, 3)), coefficients=np.zeros(2), bias=1.0, bandwidth=1.0
        )
        codes = encode(HashModel([clf, clf], alpha=0.0, p=2), np.zeros((0, 3)))
        assert codes.shape == (2, 0) and codes.dtype == np.int8

    def test_model_needs_at_least_one_bit(self):
        with pytest.raises(ValueError):
            HashModel(classifiers=[], alpha=0.0, p=0)


class TestTrainWithHashing:
    def test_perfect_classifier_matches_pure_training(self):
        # when every bit classifier reaches accuracy 1.0 the error
        # correction is a no-op and the codes equal pure in-sample codes
        data = _two_blobs(100, 2, seed=9)
        labels = labels_by_class(data)
        cfg = TrainConfig(max_bits=5, seed=11, target_empirical_loss=-1)
        model, state = train_with_hashing(data, labels, cfg, KernelConfig(max_centers=100))
        pure_codes, pure_state = train(labels, cfg)
        if all(a == 1.0 for a in model.train_bit_accuracy):
            assert np.array_equal(encode(model, data.features), pure_codes)
            assert state.alpha_hat == pure_state.alpha_hat

    def test_agreement_rate_bookkeeping(self):
        data = synth_blobs(90, 3, 2, seed=10)
        labels = labels_by_class(data)
        cfg = TrainConfig(max_bits=4, seed=5, target_empirical_loss=-1)
        model, state = train_with_hashing(data, labels, cfg, KernelConfig(max_centers=45))
        assert len(model.train_bit_accuracy) == model.p
        assert all(0.0 <= a <= 1.0 for a in model.train_bit_accuracy)
        assert model.alpha == state.alpha_hat

    def test_test_pairs_generalize_on_blobs(self):
        # fresh draws from the same two blobs: the out-of-sample empirical
        # loss rate stays within 2x the in-sample rate
        train_data = _two_blobs(160, 2, seed=12)
        test_data = _two_blobs(80, 2, seed=13)
        labels = labels_by_class(train_data)
        cfg = TrainConfig(max_bits=8, seed=2, target_empirical_loss=-1)
        model, state = train_with_hashing(train_data, labels, cfg, KernelConfig(max_centers=80))

        test_codes = encode(model, test_data.features)
        test_labels = labels_by_class(test_data)
        d = model.p - (test_codes.astype(np.int64).T @ test_codes.astype(np.int64))
        iu = np.triu_indices(test_data.n, 1)
        y = test_labels.signs().astype(np.float64)
        violated = int(np.count_nonzero(y * (model.alpha - d[iu]) < 0))
        test_rate = violated / test_labels.num_pairs
        train_rate = state.loss_history[-1].empirical / labels.num_pairs
        assert test_rate <= max(2.0 * train_rate, 0.02)

    def test_unconverged_fit_warns_once_per_bit(self):
        data = _two_blobs(120, 2, seed=25, sep=3.0)
        labels = labels_by_class(data)
        cfg = TrainConfig(max_bits=3, seed=6, target_empirical_loss=-1)
        with pytest.warns(RuntimeWarning) as record:
            model, _ = train_with_hashing(data, labels, cfg, KernelConfig(max_centers=40, max_iter=1))
        messages = [str(w.message) for w in record if w.category is RuntimeWarning]
        assert len(messages) == model.p == 3
        for bit, message in enumerate(messages, start=1):
            assert message.startswith(f"bit {bit}: classifier fit stopped unconverged after 1 Newton steps")
            assert "max|grad|" in message

    def test_default_config_converges_silently(self):
        data = _two_blobs(120, 2, seed=26, sep=3.0)
        labels = labels_by_class(data)
        cfg = TrainConfig(max_bits=4, seed=7, target_empirical_loss=-1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model, _ = train_with_hashing(data, labels, cfg, KernelConfig())
        assert model.p == 4


class TestKernelConfig:
    @pytest.mark.parametrize("tol", [-1.0, -1e-12, float("nan"), float("inf"), float("-inf")])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            KernelConfig(tol=tol)

    def test_zero_tol_allowed(self):
        assert KernelConfig(tol=0.0).tol == 0.0

    @pytest.mark.parametrize("ridge", [-1.0, float("nan"), float("inf"), float("-inf")])
    def test_bad_ridge_rejected(self, ridge):
        with pytest.raises(ValueError, match="ridge"):
            KernelConfig(ridge=ridge)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    def test_bad_bandwidth_rejected(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth"):
            KernelConfig(bandwidth=bandwidth)
        with pytest.raises(ValueError, match="bandwidth"):
            KernelClassifier(np.zeros((1, 2)), np.zeros(1), 0.0, bandwidth)


class TestModelFile:
    def test_schema_and_roundtrip(self, tmp_path):
        data = _two_blobs(50, 2, seed=14)
        labels = labels_by_class(data)
        model, _ = train_with_hashing(
            data, labels, TrainConfig(max_bits=3, seed=4), KernelConfig(max_centers=20)
        )
        path = tmp_path / "model.json"
        save_model(model, path)

        import json

        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert doc["kernel"]["type"] == "gaussian"
        assert len(doc["centers"]) == 20
        assert len(doc["bits"]) == model.p
        assert all(len(b["coeffs"]) == 20 for b in doc["bits"])

        loaded = load_model(path)
        path2 = tmp_path / "model2.json"
        save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()
        assert np.array_equal(encode(loaded, data.features), encode(model, data.features))

    def test_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    @staticmethod
    def _doc():
        return {
            "version": 1,
            "p": 2,
            "alpha": 1.0,
            "kernel": {"type": "gaussian", "sigma": 0.5},
            "centers": [[0.0, 0.0], [1.0, 1.0]],
            "bits": [{"coeffs": [1.0, -1.0], "bias": 0.0}, {"coeffs": [0.5, 0.5], "bias": -0.1}],
        }

    def test_hand_written_model_loads(self, tmp_path):
        import json

        path = tmp_path / "model.json"
        path.write_text(json.dumps(self._doc()))
        model = load_model(path)
        assert model.p == 2 and model.classifiers[1].bias == -0.1

    @pytest.mark.parametrize(
        "edit,field",
        [
            (lambda d: d.pop("bits"), "'bits' is missing"),
            (lambda d: d.pop("alpha"), "'alpha' is missing"),
            (lambda d: d["kernel"].pop("sigma"), "'kernel.sigma' is missing"),
            (lambda d: d.pop("kernel"), "'kernel.type' is missing"),
            (lambda d: d["bits"][1].pop("coeffs"), "'bits[1].coeffs' is missing"),
            (lambda d: d.update(bits=5), "'bits' is invalid"),
            (lambda d: d.update(kernel=[1]), "'kernel.type' is invalid"),
            (lambda d: d["kernel"].update(sigma="wide"), "'kernel.sigma' is invalid"),
            (lambda d: d["kernel"].update(sigma=float("nan")), "'bits[0]' is invalid"),
            (lambda d: d["bits"][0].update(bias=[0.0]), "'bits[0].bias' is invalid"),
            (lambda d: d["bits"][0].update(coeffs=[1.0]), "'bits[0]' is invalid"),
            (lambda d: d.update(centers="none"), "'centers' is invalid"),
            (lambda d: d.update(p=3), "'p' is invalid"),
            (lambda d: d.update(p="two"), "'p' is invalid"),
        ],
    )
    def test_bad_field_named(self, tmp_path, edit, field):
        import json

        doc = self._doc()
        edit(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"model.json: model field {re.escape(field)}"):
            load_model(path)

    @pytest.mark.parametrize("text", ["[1, 2]", '{"version": 1', "\udcff"])
    def test_not_a_model_object(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text, errors="surrogateescape")
        with pytest.raises(ValueError, match="model.json: model file"):
            load_model(path)


def test_median_bandwidth_positive_and_seeded():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(500, 3))
    a = median_bandwidth(X, seed=1)
    b = median_bandwidth(X, seed=1)
    assert a == b > 0
    assert median_bandwidth(np.zeros((10, 2)), seed=0) == 1.0
