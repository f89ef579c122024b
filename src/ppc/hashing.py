"""Out-of-sample hashing: one Gaussian-kernel classifier per code bit.

Each bit's optimal in-sample vector becomes the target of a regularized
kernel logistic fit; the classifier's own in-sample predictions are what
get accumulated, so the next bit corrects the classifier's mistakes.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist, pdist
from scipy.special import expit

from ppc.affinity import Dataset, ProximityLabels
from ppc.fileio import atomic_write
from ppc.seeds import derive_seed
from ppc.trainer import TrainConfig, TrainerState, train

MODEL_VERSION = 1
# rows of query features whose kernel values encode() holds at once
ENCODE_BLOCK = 4096
# points subsampled for the median-distance bandwidth
BANDWIDTH_SAMPLE = 1000
# Armijo sufficient-decrease fraction and backtracking cap of the Newton fit
_ARMIJO = 1e-4
_MAX_HALVINGS = 60


@dataclass
class KernelConfig:
    """Gaussian-kernel classifier settings shared across all bits."""

    bandwidth: float | None = None  # None -> median pairwise distance
    ridge: float = 1e-3
    max_centers: int = 1000
    max_iter: int = 500  # cap on Newton steps per bit
    tol: float = 1e-5  # converged when max |gradient| <= tol

    def __post_init__(self):
        if self.bandwidth is not None and not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"kernel bandwidth must be finite and positive, got {self.bandwidth}")
        if not (math.isfinite(self.ridge) and self.ridge >= 0):
            raise ValueError(f"kernel ridge must be finite and non-negative, got {self.ridge}")
        if self.max_centers < 1 or self.max_iter < 1:
            raise ValueError("invalid kernel config")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"kernel tol must be finite and non-negative, got {self.tol}")


@dataclass
class KernelClassifier:
    """sign(sum_j coeff_j exp(-||x - center_j||^2 / (2 sigma^2)) + bias)."""

    centers: np.ndarray
    coefficients: np.ndarray
    bias: float
    bandwidth: float

    def __post_init__(self):
        if self.centers.ndim != 2 or self.centers.shape[0] < 1:
            raise ValueError("need at least one kernel center")
        if self.coefficients.shape != (self.centers.shape[0],):
            raise ValueError("coefficient count must match center count")
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be finite and positive, got {self.bandwidth}")


@dataclass
class FitResult:
    classifier: KernelClassifier
    accuracy: float
    converged: bool
    iterations: int
    grad_max: float = 0.0  # max |gradient| of the penalized loss where the solver stopped (0: no solve)


@dataclass
class HashModel:
    """p per-bit classifiers plus the retrieval threshold of the final code."""

    classifiers: list[KernelClassifier]
    alpha: float
    p: int
    train_bit_accuracy: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.p != len(self.classifiers):
            raise ValueError("p must equal the number of classifiers")
        if self.p < 1:
            raise ValueError("model must have at least one bit")


def median_bandwidth(features: np.ndarray, seed: int) -> float:
    """Median pairwise distance over a seeded subsample; 1.0 if degenerate."""
    n = features.shape[0]
    if n > BANDWIDTH_SAMPLE:
        rng = np.random.default_rng(seed)
        idx = np.sort(rng.choice(n, size=BANDWIDTH_SAMPLE, replace=False))
        features = features[idx]
    if features.shape[0] < 2:
        return 1.0
    med = float(np.median(pdist(features)))
    return med if med > 0 else 1.0


def _kernel_matrix(X: np.ndarray, centers: np.ndarray, sigma: float) -> np.ndarray:
    sq = cdist(X, centers, "sqeuclidean")
    return np.exp(-sq / (2.0 * sigma * sigma))


def _kernel_basis(features: np.ndarray, kernel: KernelConfig, seed: int):
    """Centers, bandwidth and train kernel matrix shared by every bit's fit.

    Up to max_centers training points, drawn without replacement, become
    the centers; the bandwidth is kernel.bandwidth or the median pairwise
    distance. Returns (centers, sigma, K) with K the n x centers kernel.
    """
    n = features.shape[0]
    rng = np.random.default_rng(derive_seed(seed, "centers"))
    centers = features[np.sort(rng.choice(n, size=min(n, kernel.max_centers), replace=False))]
    sigma = kernel.bandwidth
    if sigma is None:
        sigma = median_bandwidth(features, derive_seed(seed, "bandwidth"))
    return centers, sigma, _kernel_matrix(features, centers, sigma)


def _fit_logistic(K: np.ndarray, targets: np.ndarray, cfg: KernelConfig):
    """Ridge-penalized kernel logistic regression by truncated Newton.

    Minimizes mean(log(1 + exp(-t (K w + b)))) + ridge/2 ||w||^2 from zero
    (deterministic). Each Newton step solves H d = -g by conjugate gradients
    on Hessian-vector products, to an Eisenstat-Walker forcing tolerance,
    then backtracks along d until the Armijo condition holds, so the
    objective never rises. Stops when max|g| <= tol or after max_iter steps.
    Returns (w, b, converged, steps, max|g|).
    """
    n, m = K.shape
    t = targets.astype(np.float64)
    w = np.zeros(m)
    b = 0.0
    margins = np.zeros(n)  # K w + b
    loss = float(np.log(2.0))
    eta, gnorm_prev = 0.5, 0.0
    steps = 0
    while True:
        q = expit(-t * margins)
        r = t * q / n
        grad = np.empty(m + 1)
        grad[:m] = cfg.ridge * w - K.T @ r
        grad[m] = -r.sum()
        grad_max = float(np.abs(grad).max())
        if grad_max <= cfg.tol or steps == cfg.max_iter:
            break
        steps += 1

        # Eisenstat-Walker choice 2 (gamma 0.9, exponent 2) with its safeguard
        gnorm = float(np.linalg.norm(grad))
        if gnorm_prev > 0.0:
            floor = 0.9 * eta * eta
            eta = 0.9 * (gnorm / gnorm_prev) ** 2
            if floor > 0.1:
                eta = max(eta, floor)
            eta = min(eta, 0.9)
        gnorm_prev = gnorm

        # CG on H = [K^T S K + ridge I, K^T S 1; 1^T S K, 1^T S 1], S = p(1-p)/n
        s = q * (1.0 - q) / n
        d = np.zeros(m + 1)
        res = -grad
        p = res.copy()
        rr = float(res @ res)
        stop = (eta * gnorm) ** 2
        for _ in range(m + 1):
            u = s * (K @ p[:m] + p[m])
            Hp = np.empty(m + 1)
            Hp[:m] = K.T @ u + cfg.ridge * p[:m]
            Hp[m] = u.sum()
            curv = float(p @ Hp)
            if curv <= 0.0:  # flat direction (ridge 0, saturated margins)
                if not d.any():
                    d = res
                break
            a = rr / curv
            d += a * p
            res -= a * Hp
            rr_next = float(res @ res)
            if rr_next <= stop:
                break
            p = res + (rr_next / rr) * p
            rr = rr_next

        slope = float(grad @ d)
        Kd = K @ d[:m] + d[m]
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            w_try = w + step * d[:m]
            m_try = margins + step * Kd
            loss_try = float(np.logaddexp(0.0, -t * m_try).mean()) + 0.5 * cfg.ridge * float(w_try @ w_try)
            if loss_try <= loss + _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break  # no decrease left at float precision: stop unconverged
        w, b, margins, loss = w_try, b + step * d[m], m_try, loss_try
    return w, b, grad_max <= cfg.tol, steps, grad_max


def fit_bit_classifier(
    centers: np.ndarray, sigma: float, K: np.ndarray, target_bits: np.ndarray, cfg: KernelConfig
) -> FitResult:
    """Fit one bit's classifier on ±1 targets over a precomputed kernel basis.

    K holds the training points' kernel values against `centers` at
    bandwidth `sigma`, one row per target (see `_kernel_basis`).
    Single-class targets produce a constant classifier (zero coefficients,
    bias = the class sign). A fit that stops at the Newton step cap
    returns its last iterate, whose penalized loss is the lowest reached,
    with converged=False.
    """
    t = np.asarray(target_bits)
    if t.shape != (K.shape[0],) or not np.isin(t, (-1, 1)).all():
        raise ValueError("target bits must be ±1 and match the point count")

    if np.all(t == t[0]):
        clf = KernelClassifier(
            centers=centers,
            coefficients=np.zeros(centers.shape[0]),
            bias=float(t[0]),
            bandwidth=sigma,
        )
        return FitResult(classifier=clf, accuracy=1.0, converged=True, iterations=0)

    coef, bias, converged, iters, grad_max = _fit_logistic(K, t, cfg)
    clf = KernelClassifier(centers=centers, coefficients=coef, bias=bias, bandwidth=sigma)
    preds = _predict_from_kernel(K, coef, bias)
    accuracy = float(np.mean(preds == t))
    return FitResult(
        classifier=clf, accuracy=accuracy, converged=converged, iterations=iters, grad_max=grad_max
    )


def _predict_from_kernel(K: np.ndarray, coef: np.ndarray, bias: float) -> np.ndarray:
    return np.where(K @ coef + bias >= 0, 1, -1).astype(np.int8)


def encode(model: HashModel, X: np.ndarray) -> np.ndarray:
    """p x n_query ±1 codes for a matrix of query features.

    Rows are encoded ENCODE_BLOCK at a time, so memory holds one block of
    kernel values per distinct centers array, not n x centers.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n = X.shape[0]
    codes = np.empty((model.p, n), dtype=np.int8)
    # one pass even for n == 0, so the dimension check still runs
    for lo in range(0, max(n, 1), ENCODE_BLOCK):
        block = X[lo : lo + ENCODE_BLOCK]
        cache: dict[tuple[int, float], np.ndarray] = {}
        for j, clf in enumerate(model.classifiers):
            key = (id(clf.centers), clf.bandwidth)
            if key not in cache:
                if block.shape[1] != clf.centers.shape[1]:
                    raise ValueError("query feature dimension does not match model centers")
                cache[key] = _kernel_matrix(block, clf.centers, clf.bandwidth)
            # one matvec per bit: a stacked K @ coef.T product sums in another
            # order and could flip margins near zero
            codes[j, lo : lo + ENCODE_BLOCK] = _predict_from_kernel(cache[key], clf.coefficients, clf.bias)
    return codes


def train_with_hashing(
    data: Dataset,
    labels: ProximityLabels,
    config: TrainConfig,
    kernel: KernelConfig | None = None,
) -> tuple[HashModel, TrainerState]:
    """Bit-sequential training with per-bit classifiers and error correction.

    Runs `trainer.train` with a corrector that fits each bit's classifier
    on the cut's optimal in-sample vector and returns the classifier's own
    in-sample predictions, so later bits compensate its mistakes. The
    model stores the retrieval threshold recomputed on the
    classifier-produced code; all its classifiers share one centers array,
    so encode() builds the query kernel once.
    """
    kernel = kernel or KernelConfig()
    if labels.n != data.n:
        raise ValueError("labels and dataset disagree on point count")
    centers, sigma, K = _kernel_basis(data.features, kernel, config.seed)
    fits: list[FitResult] = []

    def correct(target: np.ndarray, bit_index: int) -> np.ndarray:
        fit = fit_bit_classifier(centers, sigma, K, target, kernel)
        if not fit.converged:
            warnings.warn(
                f"bit {bit_index + 1}: classifier fit stopped unconverged after "
                f"{fit.iterations} Newton steps, max|grad| {fit.grad_max:.3g} > tol {kernel.tol:g}",
                RuntimeWarning,
                # past train_bit, train and train_with_hashing to its caller
                stacklevel=5,
            )
        fits.append(fit)
        return _predict_from_kernel(K, fit.classifier.coefficients, fit.classifier.bias)

    _, state = train(labels, config, correct)
    model = HashModel(
        classifiers=[fit.classifier for fit in fits],
        alpha=float(state.alpha_hat),
        p=len(fits),
        train_bit_accuracy=[fit.accuracy for fit in fits],
    )
    return model, state


# ---------------------------------------------------------------------------
# Model file


def save_model(model: HashModel, path: str | Path):
    """Versioned JSON with centers shared across bits."""
    centers = model.classifiers[0].centers
    sigma = model.classifiers[0].bandwidth
    for clf in model.classifiers:
        if clf.centers.shape != centers.shape or not np.array_equal(clf.centers, centers):
            raise ValueError("model file format requires centers shared across bits")
    doc = {
        "version": MODEL_VERSION,
        "p": model.p,
        "alpha": model.alpha,
        "kernel": {"type": "gaussian", "sigma": sigma},
        "centers": [[float(v) for v in row] for row in centers],
        "bits": [
            {"coeffs": [float(c) for c in clf.coefficients], "bias": float(clf.bias)}
            for clf in model.classifiers
        ],
        "train_accuracy": [float(a) for a in model.train_bit_accuracy],
    }
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write(json.dumps(doc))


def load_model(path: str | Path) -> HashModel:
    """Read a model file; a missing or invalid field raises ValueError naming it."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: model file is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: model file must hold a JSON object")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {doc.get('version')}")
    if _model_field(path, "kernel.type", lambda: doc["kernel"].get("type")) != "gaussian":
        raise ValueError(f"{path}: unsupported kernel type")
    sigma = _model_field(path, "kernel.sigma", lambda: float(doc["kernel"]["sigma"]))
    centers = _model_field(path, "centers", lambda: np.asarray(doc["centers"], dtype=np.float64))
    classifiers = []
    for i, bit in enumerate(_model_field(path, "bits", lambda: list(doc["bits"]))):
        coeffs = _model_field(path, f"bits[{i}].coeffs", lambda: np.asarray(bit["coeffs"], dtype=np.float64))
        bias = _model_field(path, f"bits[{i}].bias", lambda: float(bit["bias"]))
        clf = _model_field(path, f"bits[{i}]", lambda: KernelClassifier(centers, coeffs, bias, sigma))
        classifiers.append(clf)
    alpha = _model_field(path, "alpha", lambda: float(doc["alpha"]))
    p = _model_field(path, "p", lambda: int(doc["p"]))
    accuracy = _model_field(
        path, "train_accuracy", lambda: [float(a) for a in doc.get("train_accuracy", [])]
    )
    return _model_field(path, "p", lambda: HashModel(classifiers, alpha, p, accuracy))


def _model_field(path, name: str, read):
    """read(), with a missing key or a wrong type or value reported as a ValueError on `name`."""
    try:
        return read()
    except KeyError:
        raise ValueError(f"{path}: model field {name!r} is missing") from None
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: model field {name!r} is invalid: {exc}") from None
