"""Datasets and near/far pair labelings.

Pairs are the unordered (i, j), i < j, in row-major upper-triangle order,
the same condensed order scipy's `pdist` uses. Labels are stored packed,
one bit per pair, so label storage stays at n(n-1)/2 bits.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist, pdist

# Dense pair machinery is Theta(n^2); refuse silently huge inputs.
DEFAULT_MAX_POINTS = 10_000

_METRICS = {"euclidean": "euclidean", "l1": "cityblock"}


@dataclass
class Dataset:
    """Feature matrix with optional integer class labels and record ids."""

    features: np.ndarray
    class_labels: np.ndarray | None = None
    ids: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        n, d = self.features.shape
        if n < 2 or d < 1:
            raise ValueError(f"need n >= 2 and d >= 1, got n={n}, d={d}")
        bad = ~np.isfinite(self.features)
        if bad.any():
            row = int(np.nonzero(bad.any(axis=1))[0][0])
            raise ValueError(f"non-finite feature value in row {row}")
        if self.class_labels is not None:
            self.class_labels = np.asarray(self.class_labels, dtype=np.int64)
            if self.class_labels.shape != (n,):
                raise ValueError("class_labels length must equal point count")
        if self.ids is None:
            self.ids = np.arange(n, dtype=np.int64)
        else:
            self.ids = np.asarray(self.ids, dtype=np.int64)
            if self.ids.shape != (n,):
                raise ValueError("ids length must equal point count")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass
class AffinityConfig:
    """How to split pairs into Near and Far."""

    mode: str = "by_class"  # by_class | by_radius
    radius: float | None = None
    metric: str = "euclidean"  # euclidean | l1
    target_avg_neighbors: float | None = None

    def __post_init__(self):
        if self.mode not in ("by_class", "by_radius"):
            raise ValueError(f"unknown affinity mode {self.mode!r}")
        if self.metric not in _METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.mode == "by_radius" and self.target_avg_neighbors is None:
            if self.radius is None or self.radius <= 0:
                raise ValueError("by_radius mode needs radius > 0")


@dataclass
class ProximityLabels:
    """±1 labels over all unordered pairs, packed one bit per pair.

    Bit set means Near (+1). Pair order is the condensed upper-triangle
    order of `numpy.triu_indices(n, 1)`. The unpacked forms are built on
    first request and returned read-only from then on.
    """

    n: int
    packed: np.ndarray
    near_count: int
    far_count: int
    _near: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _signs: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_near_mask(cls, near: np.ndarray, n: int) -> "ProximityLabels":
        near = np.asarray(near, dtype=bool)
        m = n * (n - 1) // 2
        if near.shape != (m,):
            raise ValueError(f"expected {m} pair labels for n={n}, got {near.shape}")
        packed = np.packbits(near)
        nc = int(near.sum())
        return cls(n=n, packed=packed, near_count=nc, far_count=m - nc)

    @property
    def num_pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    def near_mask(self) -> np.ndarray:
        """Boolean Near indicator over pairs in condensed order (read-only)."""
        if self._near is None:
            near = np.unpackbits(self.packed, count=self.num_pairs).view(bool)
            near.flags.writeable = False
            self._near = near
        return self._near

    def signs(self) -> np.ndarray:
        """±1 labels y over pairs in condensed order (int8, read-only)."""
        if self._signs is None:
            signs = np.where(self.near_mask(), 1, -1).astype(np.int8)
            signs.flags.writeable = False
            self._signs = signs
        return self._signs

    def label(self, i: int, j: int) -> int:
        """±1 label of the unordered pair (i, j), i != j."""
        if i == j:
            raise ValueError("diagonal pairs carry no label")
        if i > j:
            i, j = j, i
        idx = self.num_pairs - (self.n - i) * (self.n - i - 1) // 2 + (j - i - 1)
        byte, bit = divmod(idx, 8)
        return 1 if (self.packed[byte] >> (7 - bit)) & 1 else -1


def pairwise_distances(data: Dataset, metric: str = "euclidean") -> np.ndarray:
    """Condensed pairwise distances in the canonical pair order."""
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    return pdist(data.features, metric=_METRICS[metric])


def pair_distances(data: Dataset, start: int, stop: int, metric: str = "euclidean") -> np.ndarray:
    """Distances from rows start..stop-1 to rows start+1..n-1.

    Cell (r, c) holds pair (start + r, start + 1 + c), laid out as in
    `index.pair_popcounts`; the cells with c >= r equal the matching
    `pairwise_distances` entries bit for bit.
    """
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    X = data.features
    return cdist(X[start:stop], X[start + 1 :], metric=_METRICS[metric])


def _check_pair_scale(n: int, max_points: int):
    if n > max_points:
        raise ValueError(f"n={n} exceeds the dense pair cap ({max_points})")


def labels_by_class(data: Dataset, max_points: int = DEFAULT_MAX_POINTS) -> ProximityLabels:
    """Near iff two points share a class label."""
    if data.class_labels is None:
        raise ValueError("dataset has no class labels")
    n = data.n
    _check_pair_scale(n, max_points)
    c = data.class_labels
    near = np.empty(n * (n - 1) // 2, dtype=bool)
    pos = 0
    for i in range(n - 1):
        np.equal(c[i + 1 :], c[i], out=near[pos : pos + n - 1 - i])
        pos += n - 1 - i
    return ProximityLabels.from_near_mask(near, n)


def labels_by_radius(
    data: Dataset, cfg: AffinityConfig, max_points: int = DEFAULT_MAX_POINTS
) -> ProximityLabels:
    """Near iff metric distance <= radius (boundary is Near)."""
    if cfg.mode != "by_radius":
        raise ValueError("config mode must be by_radius")
    radius = cfg.radius
    if radius is None and cfg.target_avg_neighbors is not None:
        radius, _ = radius_for_avg_neighbors(data, cfg.target_avg_neighbors, cfg.metric)
    if radius is None or radius < 0:
        raise ValueError("radius must be nonnegative")
    _check_pair_scale(data.n, max_points)
    near = pairwise_distances(data, cfg.metric) <= radius
    return ProximityLabels.from_near_mask(near, data.n)


def radius_for_avg_neighbors(
    data: Dataset, target_avg: float, metric: str = "euclidean"
) -> tuple[float, float]:
    """Radius whose Near ball holds ~target_avg neighbors per point on average.

    Returns (radius, achieved_average). The radius is the m-th smallest
    pairwise distance with m = round(n * target_avg / 2); distance ties can
    push the achieved average above the target, which is why it is reported.
    """
    n = data.n
    if not (0 < target_avg < n - 1):
        raise ValueError(f"target_avg must lie in (0, {n - 1}), got {target_avg}")
    dists = np.sort(pairwise_distances(data, metric))
    m = int(round(n * target_avg / 2))
    m = min(max(m, 1), dists.size)
    radius = float(dists[m - 1])
    achieved = 2.0 * float(np.count_nonzero(dists <= radius)) / n
    return radius, achieved


def synth_2d(n: int, seed: int, box: float = 0.5) -> Dataset:
    """n points uniform i.i.d. in [-box, box]^2, deterministic per seed."""
    if n < 2:
        raise ValueError("need n >= 2")
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-box, box, size=(n, 2))
    return Dataset(features=pts)


def synth_blobs(
    n: int,
    classes: int,
    dim: int,
    seed: int,
    center_spread: float = 4.0,
    cluster_std: float = 1.0,
) -> Dataset:
    """Balanced mixture of Gaussian blobs with blob index as class label."""
    if n < 2 or classes < 1 or dim < 1:
        raise ValueError("need n >= 2, classes >= 1, dim >= 1")
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, center_spread, size=(classes, dim))
    labels = np.arange(n, dtype=np.int64) % classes
    pts = centers[labels] + rng.normal(0.0, cluster_std, size=(n, dim))
    return Dataset(features=pts, class_labels=labels)


# ---------------------------------------------------------------------------
# File formats


def load_dataset(path: str | Path, format: str | None = None) -> Dataset:
    """Load a dataset from CSV or raw little-endian float32 + JSON sidecar.

    CSV: optional header; with a header, columns named `id` and `label`
    are recognized and every other column is a feature; without a header
    all columns are features. raw_f32: row-major float32 payload with a
    sidecar `<path>.json` holding {"n":…, "d":…, "labels":[…]?}.
    """
    path = Path(path)
    if format is None:
        format = "csv" if path.suffix.lower() == ".csv" else "raw_f32"
    if format == "csv":
        return _load_csv(path)
    if format == "raw_f32":
        return _load_raw_f32(path)
    raise ValueError(f"unknown dataset format {format!r}")


def _load_csv(path: Path) -> Dataset:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and any(f.strip() for f in r)]
    if not rows:
        raise ValueError(f"{path}: empty dataset file")

    def _all_float(row):
        try:
            [float(f) for f in row]
            return True
        except ValueError:
            return False

    id_col = label_col = None
    if not _all_float(rows[0]):
        header = [h.strip().lower() for h in rows[0]]
        rows = rows[1:]
        if "id" in header:
            id_col = header.index("id")
        if "label" in header:
            label_col = header.index("label")
        feat_cols = [c for c in range(len(header)) if c not in (id_col, label_col)]
    else:
        feat_cols = list(range(len(rows[0])))

    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    feats, ids, labels = [], [], []
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {r} has {len(row)} columns, expected {width}")
        try:
            vals = [float(row[c]) for c in feat_cols]
        except ValueError as exc:
            raise ValueError(f"{path}: row {r}: {exc}") from None
        if not all(np.isfinite(vals)):
            raise ValueError(f"{path}: non-finite feature value in row {r}")
        feats.append(vals)
        if id_col is not None:
            ids.append(int(float(row[id_col])))
        if label_col is not None:
            labels.append(int(float(row[label_col])))
    return Dataset(
        features=np.asarray(feats, dtype=np.float64),
        class_labels=np.asarray(labels, dtype=np.int64) if labels else None,
        ids=np.asarray(ids, dtype=np.int64) if ids else None,
    )


def _load_raw_f32(path: Path) -> Dataset:
    sidecar = Path(str(path) + ".json")
    if not sidecar.exists():
        raise FileNotFoundError(f"missing sidecar {sidecar}")
    with open(sidecar, encoding="utf-8") as fh:
        meta = json.load(fh)
    n, d = int(meta["n"]), int(meta["d"])
    payload = np.fromfile(path, dtype="<f4")
    if payload.size != n * d:
        raise ValueError(
            f"{path}: payload holds {payload.size} floats, sidecar says n*d = {n}*{d} = {n * d}"
        )
    feats = payload.reshape(n, d).astype(np.float64)
    bad = ~np.isfinite(feats)
    if bad.any():
        row = int(np.nonzero(bad.any(axis=1))[0][0])
        raise ValueError(f"{path}: non-finite feature value in row {row}")
    labels = meta.get("labels")
    return Dataset(
        features=feats,
        class_labels=np.asarray(labels, dtype=np.int64) if labels is not None else None,
    )


def save_dataset_csv(data: Dataset, path: str | Path):
    """Write a dataset as CSV with header (id,label,f0.. or id,f0..)."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        cols = ["id"] + (["label"] if data.class_labels is not None else [])
        writer.writerow(cols + [f"f{k}" for k in range(data.d)])
        for i in range(data.n):
            row = [int(data.ids[i])]
            if data.class_labels is not None:
                row.append(int(data.class_labels[i]))
            row += [repr(float(v)) for v in data.features[i]]
            writer.writerow(row)
