"""PR sweeps, AUC, and the joint distance histogram."""

import csv
import os
import tracemalloc

import numpy as np
import pytest

from ppc.affinity import Dataset, ProximityLabels, labels_by_class, pairwise_distances, synth_2d, synth_blobs
from ppc.evalbench import (
    EVAL_BLOCK,
    JointHistogram,
    PRCurve,
    auc,
    joint_histogram,
    precision_recall,
    write_auc_csv,
    write_histogram_csv,
    write_pr_csv,
)
from ppc.index import pack, pair_hamming


def _perfect_codes(p, n_near_block):
    """Two antipodal blocks: within-block d=0, across d=2p."""
    C = np.ones((p, 2 * n_near_block), dtype=np.int8)
    C[:, n_near_block:] = -1
    return C


def _labels_from_y(y):
    y = np.asarray(y)
    n = int((1 + np.sqrt(1 + 8 * y.size)) / 2)
    return ProximityLabels.from_near_mask(y > 0, n)


def _random_codes(p, n, seed):
    rng = np.random.default_rng(seed)
    return (2 * rng.integers(0, 2, size=(p, n)) - 1).astype(np.int8)


def _reference_precision_recall(codes, labels):
    """The whole-array sweep: one int64 distance per pair, split by label."""
    d = pair_hamming(codes)
    near = labels.near_mask()
    p = codes.p
    tp = np.cumsum(np.bincount(d[near] // 2, minlength=p + 1))
    fp = np.cumsum(np.bincount(d[~near] // 2, minlength=p + 1))
    points, counts = [], []
    for t in range(p + 1):
        retrieved = int(tp[t] + fp[t])
        precision = float(tp[t] / retrieved) if retrieved else 1.0
        points.append((float(2 * t), precision, float(tp[t] / labels.near_count)))
        counts.append((int(tp[t]), int(fp[t]), int(labels.near_count - tp[t]), int(labels.far_count - fp[t])))
    return PRCurve(points=points, counts=counts)


def _reference_joint_histogram(codes, data, metric, bins):
    """The whole-array histogram: full pdist, np.digitize, one bincount."""
    dist = pairwise_distances(data, metric)
    dh = pair_hamming(codes) // 2
    lo, hi = float(dist.min()), float(dist.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    row = np.clip(np.digitize(dist, edges) - 1, 0, bins - 1)
    width = codes.p + 1
    counts = np.bincount(row * width + dh, minlength=bins * width).reshape(bins, width)
    return counts, edges


def _assert_pr_exact(codes, labels):
    curve, ref = precision_recall(codes, labels), _reference_precision_recall(codes, labels)
    assert curve.points == ref.points
    assert curve.counts == ref.counts


def _assert_histogram_exact(codes, data, metric, bins):
    hist = joint_histogram(codes, data, metric, bins)
    counts, edges = _reference_joint_histogram(codes, data, metric, bins)
    assert hist.counts.dtype == np.int64
    assert np.array_equal(hist.counts, counts)
    assert np.array_equal(hist.dist_edges, edges)
    assert np.array_equal(hist.hamming_values, np.arange(0, 2 * codes.p + 1, 2))


B = EVAL_BLOCK
BLOCK_SIZES = [2, B - 1, B, B + 1, 2 * B + 3]


def _two_block_labels(block):
    n = 2 * block
    iu, ju = np.triu_indices(n, 1)
    near = (iu < block) == (ju < block)
    return ProximityLabels.from_near_mask(near, n)


class TestPrecisionRecall:
    def test_perfect_codes_precision_one_below_max(self):
        C = _perfect_codes(8, 5)
        labels = _two_block_labels(5)
        curve = precision_recall(pack(C), labels)
        for (alpha, precision, recall), (tp, fp, _, _) in zip(curve.points, curve.counts):
            if alpha < 16:
                assert precision == 1.0
                assert fp == 0

    def test_max_alpha_totals(self):
        C = _perfect_codes(6, 4)
        labels = _two_block_labels(4)
        curve = precision_recall(pack(C), labels)
        alpha, precision, recall = curve.points[-1]
        assert alpha == 12 and recall == 1.0
        assert precision == pytest.approx(labels.near_count / labels.num_pairs)

    def test_count_conservation_every_alpha(self):
        rng = np.random.default_rng(3)
        C = (2 * rng.integers(0, 2, size=(10, 30)) - 1).astype(np.int8)
        labels = _labels_from_y(np.where(rng.random(435) < 0.3, 1, -1))
        curve = precision_recall(pack(C), labels)
        for tp, fp, fn, tn in curve.counts:
            assert tp + fp + fn + tn == 435

    def test_monotone_recall_tp_fp(self):
        rng = np.random.default_rng(4)
        C = (2 * rng.integers(0, 2, size=(12, 25)) - 1).astype(np.int8)
        labels = _labels_from_y(np.where(rng.random(300) < 0.4, 1, -1))
        curve = precision_recall(pack(C), labels)
        recalls = [r for _, _, r in curve.points]
        tps = [tp for tp, _, _, _ in curve.counts]
        fps = [fp for _, fp, _, _ in curve.counts]
        assert all(b >= a for a, b in zip(recalls, recalls[1:]))
        assert all(b >= a for a, b in zip(tps, tps[1:]))
        assert all(b >= a for a, b in zip(fps, fps[1:]))

    def test_random_single_bit_precision_near_base_rate(self):
        # binomial check: with one random bit and balanced labels the
        # precision at alpha=0 stays within 3 sigma of the base rate
        rng = np.random.default_rng(11)
        n = 400
        C = (2 * rng.integers(0, 2, size=(1, n)) - 1).astype(np.int8)
        y = np.where(rng.random(n * (n - 1) // 2) < 0.5, 1, -1)
        labels = _labels_from_y(y)
        curve = precision_recall(pack(C), labels)
        alpha0, precision0, _ = curve.points[0]
        base = labels.near_count / labels.num_pairs
        retrieved = curve.counts[0][0] + curve.counts[0][1]
        sigma = np.sqrt(base * (1 - base) / retrieved)
        assert abs(precision0 - base) <= 3 * sigma

    def test_no_near_pairs_rejected(self):
        C = _perfect_codes(4, 3)
        labels = _labels_from_y(-np.ones(15))
        with pytest.raises(ValueError):
            precision_recall(pack(C), labels)


class TestAuc:
    def test_perfect_codes_auc_one(self):
        C = _perfect_codes(8, 6)
        labels = _two_block_labels(6)
        assert auc(precision_recall(pack(C), labels)) == pytest.approx(1.0, abs=1e-9)

    def test_constant_precision_rectangle(self):
        curve_points = [(0.0, 0.25, 0.0), (2.0, 0.25, 0.5), (4.0, 0.25, 1.0)]
        curve = PRCurve(points=curve_points, counts=[(0, 0, 0, 0)] * 3)
        assert auc(curve) == pytest.approx(0.25)

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            auc(PRCurve(points=[], counts=[]))

    def test_auc_in_unit_interval(self):
        rng = np.random.default_rng(5)
        C = (2 * rng.integers(0, 2, size=(6, 40)) - 1).astype(np.int8)
        labels = _labels_from_y(np.where(rng.random(780) < 0.2, 1, -1))
        val = auc(precision_recall(pack(C), labels))
        assert 0.0 <= val <= 1.0


class TestJointHistogram:
    def test_identical_codes_single_column(self):
        data = synth_2d(20, seed=1)
        C = np.ones((8, 20), dtype=np.int8)
        hist = joint_histogram(pack(C), data, bins=5)
        assert hist.counts[:, 0].sum() == 190
        assert hist.counts[:, 1:].sum() == 0

    def test_two_points_single_cell(self):
        data = Dataset(features=np.array([[0.0, 0.0], [1.0, 1.0]]))
        C = np.array([[1, -1], [1, 1]], dtype=np.int8)
        hist = joint_histogram(pack(C), data, bins=4)
        assert hist.counts.sum() == 1
        assert hist.counts[:, 1].sum() == 1  # one mismatch -> d_H = 2 -> column 1

    def test_total_mass_is_pair_count(self):
        data = synth_2d(35, seed=2)
        rng = np.random.default_rng(6)
        C = (2 * rng.integers(0, 2, size=(10, 35)) - 1).astype(np.int8)
        hist = joint_histogram(pack(C), data, bins=12)
        assert hist.counts.sum() == 35 * 34 // 2
        assert hist.hamming_values.tolist() == list(range(0, 21, 2))

    @pytest.mark.parametrize("p,bins", [(1, 3), (10, 12), (33, 7)])
    def test_counts_equal_add_at_reference(self, p, bins):
        data = synth_2d(60, seed=p)
        rng = np.random.default_rng(7 + p)
        packed = pack((2 * rng.integers(0, 2, size=(p, 60)) - 1).astype(np.int8))
        hist = joint_histogram(packed, data, bins=bins)
        # reference: scatter-add one count per pair into (distance bin, d_H / 2)
        row = np.clip(np.digitize(pairwise_distances(data, "euclidean"), hist.dist_edges) - 1, 0, bins - 1)
        ref = np.zeros((bins, p + 1), dtype=np.int64)
        np.add.at(ref, (row, pair_hamming(packed) // 2), 1)
        assert hist.counts.dtype == np.int64
        assert np.array_equal(hist.counts, ref)


class TestBlockedSweepsExact:
    """The row-block sweeps equal the whole-array ones, count for count."""

    @pytest.mark.parametrize("p", [1, 7, 63, 64, 65, 130])
    def test_precision_recall(self, p):
        for n in BLOCK_SIZES:
            codes = pack(_random_codes(p, n, seed=p + n))
            rng = np.random.default_rng(n)
            labels = ProximityLabels.from_near_mask(rng.random(n * (n - 1) // 2) < 0.3, n)
            if labels.near_count:
                _assert_pr_exact(codes, labels)

    @pytest.mark.parametrize("classes", [1, 3])
    def test_precision_recall_class_labels(self, classes):
        # one class: every pair is Near
        data = synth_blobs(2 * B + 3, classes, 2, seed=classes)
        _assert_pr_exact(pack(_random_codes(9, data.n, seed=8)), labels_by_class(data))

    @pytest.mark.parametrize("p", [1, 7, 63, 64, 65, 130])
    def test_joint_histogram(self, p):
        for n in BLOCK_SIZES:
            data = synth_blobs(n, 4, 3, seed=p + n)
            codes = pack(_random_codes(p, n, seed=p * n))
            for metric in ("euclidean", "l1"):
                for bins in (1, 32):
                    _assert_histogram_exact(codes, data, metric, bins)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_identical_points(self, n):
        # every distance is 0: hi <= lo, so the edges span [0, 1]
        data = Dataset(features=np.full((n, 3), 2.5))
        for bins in (1, 32):
            _assert_histogram_exact(pack(_random_codes(5, n, seed=n)), data, "euclidean", bins)

    @pytest.mark.parametrize(
        "features,metric",
        [
            # every distance is the same 1e17-scale value and lo + 1.0 == lo,
            # so all edges coincide and every pair lands in the last bin
            (1e17 * np.eye(2), "euclidean"),
            (1e17 * np.eye(5), "l1"),
            # the span 2e-320 is subnormal: bins / span overflows
            (np.array([[0.0], [1e-320], [3e-320]]), "l1"),
        ],
        ids=["offset-2", "offset-5", "subnormal"],
    )
    def test_degenerate_span(self, features, metric):
        data = Dataset(features=features)
        for bins in (1, 32):
            _assert_histogram_exact(pack(_random_codes(3, data.n, seed=bins)), data, metric, bins)

    @pytest.mark.parametrize("metric", ["euclidean", "l1"])
    def test_distances_on_bin_edges(self, metric):
        # integer points 0..33 on a line: lo = 1, hi = 33 and with 32 bins
        # every edge is an integer, so every distance sits on an edge
        line = Dataset(features=np.arange(34, dtype=np.float64)[:, None])
        grid = Dataset(features=np.stack(np.meshgrid(np.arange(12.0), np.arange(12.0)), -1).reshape(-1, 2))
        for data in (line, grid):
            for bins in (1, 8, 11, 32):
                _assert_histogram_exact(pack(_random_codes(4, data.n, seed=bins)), data, metric, bins)

    @pytest.mark.parametrize("metric", ["euclidean", "l1"])
    def test_tiny_range_at_large_offset(self, metric):
        # scaled unit vectors: every distance is about 1e8 and they span
        # about 1e-6, a few dozen ulps, so edges repeat and the scaled
        # guess is off by rounding
        n = 2 * B + 3
        rng = np.random.default_rng(17)
        data = Dataset(features=np.diag(1e8 / np.sqrt(2) + rng.uniform(0, 1e-6, n)))
        dist = pairwise_distances(data, metric)
        assert dist.min() > 0.9e8 and dist.max() - dist.min() < 1e-5
        for bins in (1, 7, 32, 1000):
            _assert_histogram_exact(pack(_random_codes(8, n, seed=bins)), data, metric, bins)


def _peak_bytes(fn):
    """Peak bytes allocated while fn runs, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemoryBudget:
    """The pair sweeps allocate far less than one 2-byte value per pair."""

    N = 3000
    BYTES_PER_PAIR = 2.0

    @pytest.fixture(scope="class")
    def inputs(self):
        data = synth_blobs(self.N, 10, 16, seed=1)
        labels = labels_by_class(data)
        labels.near_mask()
        return data, labels, pack(_random_codes(6, self.N, seed=2))

    def _assert_under_budget(self, fn):
        pairs = self.N * (self.N - 1) // 2
        assert _peak_bytes(fn) < self.BYTES_PER_PAIR * pairs

    def test_precision_recall(self, inputs):
        _, labels, codes = inputs
        self._assert_under_budget(lambda: precision_recall(codes, labels))

    def test_joint_histogram(self, inputs):
        data, _, codes = inputs
        self._assert_under_budget(lambda: joint_histogram(codes, data))

    def test_labels_by_class(self, inputs):
        data, _, _ = inputs
        self._assert_under_budget(lambda: labels_by_class(data))


class TestCsvEmission:
    def test_pr_csv_roundtrip(self, tmp_path):
        C = _perfect_codes(4, 3)
        labels = _two_block_labels(3)
        curve = precision_recall(pack(C), labels)
        path = tmp_path / "pr.csv"
        write_pr_csv(curve, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(curve.points)
        assert float(rows[0]["precision"]) == curve.points[0][1]
        assert int(rows[0]["tp"]) == curve.counts[0][0]

    def test_histogram_csv_has_log_column(self, tmp_path):
        data = synth_2d(10, seed=3)
        C = np.ones((2, 10), dtype=np.int8)
        hist = joint_histogram(pack(C), data, bins=3)
        path = tmp_path / "hist.csv"
        write_histogram_csv(hist, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 3  # bins x (p+1)
        nonzero = [r for r in rows if int(r["count"]) > 0]
        assert all(r["log_count"] for r in nonzero)
        assert all(
            abs(float(r["log_count"]) - np.log(int(r["count"]))) < 1e-12 for r in nonzero
        )

    def test_auc_csv(self, tmp_path):
        path = tmp_path / "auc.csv"
        write_auc_csv(0.875, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["auc"]
        assert float(rows[1][0]) == 0.875


class _Unprintable:
    def __str__(self):
        raise RuntimeError("cannot format")

    __int__ = __float__ = __str__


@pytest.mark.parametrize(
    "write",
    [
        lambda path: write_pr_csv(PRCurve(points=[(0.0, 1.0, 0.5)] * 2, counts=[(1, 0, 1, 3), (1, _Unprintable(), 1, 3)]), path),
        lambda path: write_histogram_csv(
            JointHistogram(
                counts=np.array([[1, _Unprintable()]], dtype=object),
                dist_edges=np.array([0.0, 1.0]),
                hamming_values=np.array([0, 2]),
            ),
            path,
        ),
        lambda path: write_auc_csv(_Unprintable(), path),
    ],
    ids=["pr", "hist", "auc"],
)
def test_csv_writer_failing_mid_file_keeps_old_file(tmp_path, write):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old bytes\n")
    with pytest.raises(RuntimeError, match="cannot format"):
        write(path)
    assert path.read_bytes() == b"old bytes\n"
    assert os.listdir(tmp_path) == ["out.csv"]  # no temporary file left
