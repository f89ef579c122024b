"""Retrieval evaluation: precision-recall sweeps over the Hamming
threshold, AUC, and joint distance histograms.

All counting is over unordered pairs, matching the trainer's loss. Both
pair sweeps walk the pairs in blocks of `EVAL_BLOCK` rows, each against
every later row, so they hold O(EVAL_BLOCK * n) values at a time and no
array with one entry per pair.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ppc.affinity import Dataset, ProximityLabels, pair_distances
from ppc.fileio import atomic_write
from ppc.index import PackedCodes, pair_popcounts

# rows per block of the pair sweeps
EVAL_BLOCK = 64
# cells (r, c), c < r, of a full block: they pair a row with itself or an
# earlier row
_BELOW = np.tri(EVAL_BLOCK, EVAL_BLOCK - 1, -1, dtype=bool)


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
    near = labels.near_mask()
    p = codes.p

    # one count per key 2 * d_H/2 + near; key `width` collects the cells
    # that are not pairs
    width = 2 * (p + 1)
    hist = np.zeros(width + 1, dtype=np.int64)
    pos = 0
    for start, stop in _row_blocks(codes.n):
        key = pair_popcounts(codes, start, stop).astype(np.intp)
        key <<= 1
        for r, row in enumerate(key):
            row[r:] += near[pos : pos + row.size - r]
            pos += row.size - r
        _fill_below(key, width)
        hist += np.bincount(key.ravel(), minlength=width + 1)
    hist_near, hist_far = hist[1:width:2], hist[0:width:2]
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
    n = data.n
    lo, hi = math.inf, -math.inf
    for start, stop in _row_blocks(n):
        dist = pair_distances(data, start, stop, metric)
        _fill_below(dist, dist[0, 0])  # (start, start + 1) is a pair
        lo, hi = min(lo, float(dist.min())), max(hi, float(dist.max()))
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    # bin g holds edges[g] <= x < upper[g]: the bin np.digitize picks, with
    # x >= hi in the last bin
    upper = np.append(edges[1:-1], np.inf)
    # lo + 1.0 rounds to lo past 2**53 and a subnormal span overflows the
    # scale; the guess is then 0 and the correction below walks it up
    scale = bins / (hi - lo) if hi > lo else 0.0
    if math.isinf(scale):
        scale = 0.0

    width = codes.p + 1
    counts = np.zeros(bins * width + 1, dtype=np.int64)
    for start, stop in _row_blocks(n):
        dist = pair_distances(data, start, stop, metric)
        _fill_below(dist, lo)
        guess = dist - lo
        guess *= scale
        np.minimum(guess, bins - 1, out=guess)
        key = guess.astype(np.intp)
        del guess
        # the guess is off by rounding only; step it to the exact bin
        while True:
            down = dist < edges[key]
            up = dist >= upper[key]
            if not (down.any() or up.any()):
                break
            key -= down
            key += up
        key *= width
        key += pair_popcounts(codes, start, stop)
        _fill_below(key, bins * width)
        counts += np.bincount(key.ravel(), minlength=bins * width + 1)
    return JointHistogram(
        counts=counts[:-1].reshape(bins, width),
        dist_edges=edges,
        hamming_values=np.arange(0, 2 * codes.p + 1, 2, dtype=np.int64),
    )


def _row_blocks(n: int):
    """(start, stop) of each block of rows that has a later row."""
    for start in range(0, n - 1, EVAL_BLOCK):
        yield start, min(start + EVAL_BLOCK, n - 1)


def _fill_below(grid: np.ndarray, value):
    """Set a row block's cells (r, c), c < r, which are not pairs i < j."""
    b = grid.shape[0]
    grid[:, : b - 1][_BELOW[:b, : b - 1]] = value


def write_pr_csv(curve: PRCurve, path: str | Path):
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "precision", "recall", "tp", "fp", "fn", "tn"])
        for (alpha, precision, recall), (tp, fp, fn, tn) in zip(curve.points, curve.counts):
            writer.writerow([alpha, repr(precision), repr(recall), tp, fp, fn, tn])


def write_histogram_csv(hist: JointHistogram, path: str | Path):
    """Rows dist_bin,hamming,count,log_count; dist_bin is the bin center."""
    centers = (hist.dist_edges[:-1] + hist.dist_edges[1:]) / 2.0
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dist_bin", "hamming", "count", "log_count"])
        for r, center in enumerate(centers):
            for c, dh in enumerate(hist.hamming_values):
                count = int(hist.counts[r, c])
                log_count = repr(math.log(count)) if count > 0 else ""
                writer.writerow([repr(float(center)), int(dh), count, log_count])


def write_auc_csv(value: float, path: str | Path):
    with atomic_write(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["auc"])
        writer.writerow([repr(float(value))])
