"""PR sweeps, AUC, and the joint distance histogram."""

import csv

import numpy as np
import pytest

from ppc.affinity import Dataset, ProximityLabels, pairwise_distances, synth_2d
from ppc.evalbench import (
    JointHistogram,
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
        from ppc.evalbench import PRCurve

        curve = PRCurve(points=curve_points, counts=[(0, 0, 0, 0)] * 3)
        assert auc(curve) == pytest.approx(0.25)

    def test_empty_curve_rejected(self):
        from ppc.evalbench import PRCurve

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
