"""Retrieval evaluation: precision-recall sweeps over the Hamming
threshold, AUC, and joint distance histograms.

All counting is over unordered pairs, matching the trainer's loss.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ppc.affinity import Dataset, ProximityLabels, pairwise_distances
from ppc.index import PackedCodes, pair_hamming


@dataclass
class PRCurve:
    """Precision/recall at every achievable threshold alpha in {0,2,..,2p}."""

    points: list[tuple[float, float, float]]  # (alpha, precision, recall)
    counts: list[tuple[int, int, int, int]]  # (TP, FP, FN, TN)


@dataclass
class JointHistogram:
    counts: np.ndarray  # (bins, p+1) pair counts
    dist_edges: np.ndarray  # (bins+1,) feature-distance bin edges
    hamming_values: np.ndarray  # (p+1,) the achievable doubled distances


def precision_recall(codes: PackedCodes, labels: ProximityLabels) -> PRCurve:
    """Pairwise PR sweep; precision at zero retrieval is defined as 1."""
    if codes.n != labels.n:
        raise ValueError("codes and labels disagree on point count")
    if labels.near_count == 0:
        raise ValueError("recall undefined: no near pairs")
    d = pair_hamming(codes)
    near = labels.near_mask()
    p = codes.p

    hist_near = np.bincount(d[near] // 2, minlength=p + 1)
    hist_far = np.bincount(d[~near] // 2, minlength=p + 1)
    tp = np.cumsum(hist_near)
    fp = np.cumsum(hist_far)
    near_total = labels.near_count
    far_total = labels.far_count

    points, counts = [], []
    for t in range(p + 1):
        alpha = float(2 * t)
        retrieved = int(tp[t] + fp[t])
        precision = float(tp[t] / retrieved) if retrieved else 1.0
        recall = float(tp[t] / near_total)
        points.append((alpha, precision, recall))
        counts.append((int(tp[t]), int(fp[t]), int(near_total - tp[t]), int(far_total - fp[t])))
    return PRCurve(points=points, counts=counts)


def auc(curve: PRCurve) -> float:
    """Trapezoidal area under precision(recall), recall in [0, 1].

    The curve is anchored at recall 0 with the precision of the smallest
    threshold, then sorted by recall.
    """
    if not curve.points:
        raise ValueError("empty curve")
    pts = sorted(curve.points, key=lambda t: t[0])
    recalls = [0.0] + [r for _, _, r in pts]
    precisions = [pts[0][1]] + [q for _, q, _ in pts]
    order = np.argsort(np.asarray(recalls), kind="stable")
    r = np.asarray(recalls)[order]
    q = np.asarray(precisions)[order]
    return float(np.trapezoid(q, r))


def joint_histogram(
    codes: PackedCodes, data: Dataset, metric: str = "euclidean", bins: int = 32
) -> JointHistogram:
    """Pair counts binned by feature distance (rows) x code distance (cols)."""
    if codes.n != data.n:
        raise ValueError("codes and dataset disagree on point count")
    dist = pairwise_distances(data, metric)
    dh = pair_hamming(codes) // 2  # column index: d_H / 2 in 0..p
    lo, hi = float(dist.min()), float(dist.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    row = np.clip(np.digitize(dist, edges) - 1, 0, bins - 1)
    width = codes.p + 1
    counts = np.bincount(row * width + dh, minlength=bins * width).reshape(bins, width)
    return JointHistogram(
        counts=counts,
        dist_edges=edges,
        hamming_values=np.arange(0, 2 * codes.p + 1, 2, dtype=np.int64),
    )


def write_pr_csv(curve: PRCurve, path: str | Path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "precision", "recall", "tp", "fp", "fn", "tn"])
        for (alpha, precision, recall), (tp, fp, fn, tn) in zip(curve.points, curve.counts):
            writer.writerow([alpha, repr(precision), repr(recall), tp, fp, fn, tn])


def write_histogram_csv(hist: JointHistogram, path: str | Path):
    """Rows dist_bin,hamming,count,log_count; dist_bin is the bin center."""
    centers = (hist.dist_edges[:-1] + hist.dist_edges[1:]) / 2.0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dist_bin", "hamming", "count", "log_count"])
        for r, center in enumerate(centers):
            for c, dh in enumerate(hist.hamming_values):
                count = int(hist.counts[r, c])
                log_count = repr(math.log(count)) if count > 0 else ""
                writer.writerow([repr(float(center)), int(dh), count, log_count])


def write_auc_csv(value: float, path: str | Path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["auc"])
        writer.writerow([repr(float(value))])
