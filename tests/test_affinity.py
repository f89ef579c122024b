"""Datasets, near/far labelings, and the radius calibration."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppc.affinity import (
    AffinityConfig,
    Dataset,
    ProximityLabels,
    labels_by_class,
    labels_by_radius,
    load_dataset,
    pairwise_distances,
    radius_for_avg_neighbors,
    save_dataset_csv,
    synth_2d,
    synth_blobs,
)


class TestLoadDataset:
    def test_csv_features_only(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.5,1.0\n1.5,2.0\n2.5,3.0\n")
        data = load_dataset(path)
        assert data.n == 3 and data.d == 2
        assert data.class_labels is None

    def test_csv_with_header_ids_labels(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,label,f0,f1\n7,0,0.5,1.0\n8,1,1.5,2.0\n")
        data = load_dataset(path)
        assert data.d == 2
        assert list(data.ids) == [7, 8]
        assert list(data.class_labels) == [0, 1]

    def test_csv_nan_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.5,1.0\n1.5,nan\n2.5,3.0\n")
        with pytest.raises(ValueError, match="row 1"):
            load_dataset(path)

    def test_raw_f32_payload_mismatch(self, tmp_path):
        path = tmp_path / "d.raw"
        np.arange(11, dtype="<f4").tofile(path)
        (tmp_path / "d.raw.json").write_text(json.dumps({"n": 4, "d": 3}))
        with pytest.raises(ValueError, match="11"):
            load_dataset(path, format="raw_f32")

    def test_raw_f32_roundtrip(self, tmp_path):
        path = tmp_path / "d.raw"
        feats = np.arange(12, dtype="<f4")
        feats.tofile(path)
        (tmp_path / "d.raw.json").write_text(json.dumps({"n": 4, "d": 3, "labels": [0, 0, 1, 1]}))
        data = load_dataset(path)
        assert data.n == 4 and data.d == 3
        assert np.array_equal(data.features.ravel(), feats.astype(np.float64))
        assert list(data.class_labels) == [0, 0, 1, 1]

    def test_csv_save_load_roundtrip(self, tmp_path):
        data = synth_blobs(20, 3, 2, seed=9)
        path = tmp_path / "blobs.csv"
        save_dataset_csv(data, path)
        back = load_dataset(path)
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.class_labels, data.class_labels)
        assert np.array_equal(back.ids, data.ids)


def _reference_labels_by_class(data):
    """Whole-array build: gather both class labels of every pair."""
    iu, ju = np.triu_indices(data.n, 1)
    return ProximityLabels.from_near_mask(data.class_labels[iu] == data.class_labels[ju], data.n)


class TestLabelsByClass:
    @pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 131, 500])
    @pytest.mark.parametrize("classes", ["one", "few", "distinct"])
    def test_equals_pair_gather(self, n, classes):
        rng = np.random.default_rng(n)
        c = {"one": np.full(n, 7), "few": rng.integers(-2, 3, n), "distinct": rng.permutation(n) * 3}[classes]
        data = Dataset(features=np.zeros((n, 1)), class_labels=c)
        labels, ref = labels_by_class(data), _reference_labels_by_class(data)
        assert np.array_equal(labels.packed, ref.packed)
        assert (labels.near_count, labels.far_count) == (ref.near_count, ref.far_count)

    def test_small_example(self):
        data = Dataset(features=np.zeros((3, 1)), class_labels=[0, 0, 1])
        labels = labels_by_class(data)
        assert labels.label(0, 1) == 1
        assert labels.label(0, 2) == -1
        assert labels.label(1, 2) == -1

    def test_all_same_class(self):
        data = Dataset(features=np.zeros((4, 1)), class_labels=[5, 5, 5, 5])
        labels = labels_by_class(data)
        assert labels.near_count == 6 and labels.far_count == 0

    def test_all_distinct(self):
        data = Dataset(features=np.zeros((4, 1)), class_labels=[0, 1, 2, 3])
        labels = labels_by_class(data)
        assert labels.near_count == 0 and labels.far_count == 6

    def test_missing_labels_raises(self):
        data = Dataset(features=np.zeros((3, 1)))
        with pytest.raises(ValueError):
            labels_by_class(data)


class TestLabelsByRadius:
    def test_1d_points(self):
        data = Dataset(features=np.array([[0.0], [1.0], [5.0]]))
        cfg = AffinityConfig(mode="by_radius", radius=2.0)
        labels = labels_by_radius(data, cfg)
        assert labels.label(0, 1) == 1
        assert labels.label(0, 2) == -1
        assert labels.label(1, 2) == -1

    def test_radius_covers_diameter(self):
        data = synth_2d(10, seed=0, box=0.5)
        cfg = AffinityConfig(mode="by_radius", radius=100.0)
        labels = labels_by_radius(data, cfg)
        assert labels.near_count == 45

    def test_boundary_is_near(self):
        data = Dataset(features=np.array([[0.0, 0.0], [3.0, 4.0]]))
        cfg = AffinityConfig(mode="by_radius", radius=5.0)
        labels = labels_by_radius(data, cfg)
        assert labels.label(0, 1) == 1

    def test_l1_metric(self):
        data = Dataset(features=np.array([[0.0, 0.0], [3.0, 4.0]]))
        labels = labels_by_radius(data, AffinityConfig(mode="by_radius", radius=5.0, metric="l1"))
        assert labels.label(0, 1) == -1  # l1 distance is 7


class TestRadiusForAvgNeighbors:
    def test_three_point_oracle(self):
        # distances {1, 2, 3}; brute-force the achieved average at each
        # candidate radius and check the reported choice against it
        data = Dataset(features=np.array([[0.0], [1.0], [3.0]]))
        r, achieved = radius_for_avg_neighbors(data, 4.0 / 3.0)
        assert r == 2.0
        assert achieved == pytest.approx(4.0 / 3.0)
        dists = sorted(pairwise_distances(data))
        by_hand = {rr: 2 * sum(d <= rr for d in dists) / 3 for rr in dists}
        assert by_hand[r] == pytest.approx(4.0 / 3.0)

    def test_target_near_max(self):
        data = synth_2d(12, seed=4)
        r, achieved = radius_for_avg_neighbors(data, 11 - 1e-9)
        assert r == pytest.approx(pairwise_distances(data).max())
        assert achieved == pytest.approx(11.0)

    def test_duplicates_stay_near(self):
        feats = np.array([[0.0], [0.0], [9.0], [10.0]])
        data = Dataset(features=feats)
        r, _ = radius_for_avg_neighbors(data, 0.5)
        assert r == 0.0
        # the calibrated radius may legitimately be 0; duplicates stay Near
        cfg = AffinityConfig(mode="by_radius", target_avg_neighbors=0.5)
        labels = labels_by_radius(data, cfg)
        assert labels.label(0, 1) == 1  # d = 0 <= 0
        assert labels.near_count == 1

    def test_out_of_range_target(self):
        data = synth_2d(5, seed=0)
        with pytest.raises(ValueError):
            radius_for_avg_neighbors(data, 0.0)
        with pytest.raises(ValueError):
            radius_for_avg_neighbors(data, 4.0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_achieved_within_rounding(self, seed):
        # continuous coordinates: no distance ties, so the achieved average
        # sits within the 2/n rounding granularity of the target
        rng = np.random.default_rng(seed)
        data = Dataset(features=rng.normal(size=(40, 3)))
        target = float(rng.uniform(1.0, 30.0))
        _, achieved = radius_for_avg_neighbors(data, target)
        assert abs(achieved - target) <= 2.0 / 40 + 1e-12


class TestSynth:
    def test_synth_2d_contract(self):
        a = synth_2d(300, seed=7, box=0.5)
        b = synth_2d(300, seed=7, box=0.5)
        assert np.array_equal(a.features, b.features)
        assert np.all(np.abs(a.features) <= 0.5)
        assert a.n == 300 and a.d == 2

    def test_seeds_differ(self):
        a = synth_2d(2, seed=1)
        b = synth_2d(2, seed=2)
        assert not np.array_equal(a.features, b.features)

    def test_degenerate_box(self):
        data = synth_2d(5, seed=1, box=0.0)
        assert np.all(data.features == 0.0)

    def test_blobs_balanced(self):
        data = synth_blobs(100, 4, 3, seed=0)
        _, counts = np.unique(data.class_labels, return_counts=True)
        assert counts.tolist() == [25, 25, 25, 25]


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(3, 12),
    seed=st.integers(0, 10_000),
    radius=st.floats(0.01, 2.0),
)
def test_partition_property(n, seed, radius):
    """Every pair gets exactly one label; counts sum to n(n-1)/2."""
    data = synth_2d(n, seed=seed)
    labels = labels_by_radius(data, AffinityConfig(mode="by_radius", radius=radius))
    assert labels.near_count + labels.far_count == n * (n - 1) // 2
    mask = labels.near_mask()
    assert mask.size == n * (n - 1) // 2
    for i in range(n):
        for j in range(i + 1, n):
            assert labels.label(i, j) in (-1, 1)
            assert (labels.label(i, j) == 1) == bool(
                np.linalg.norm(data.features[i] - data.features[j]) <= radius
            )


@settings(deadline=None, max_examples=30)
@given(
    n=st.integers(3, 10),
    seed=st.integers(0, 10_000),
    r1=st.floats(0.01, 1.0),
    extra=st.floats(0.0, 1.0),
)
def test_radius_monotonicity(n, seed, r1, extra):
    """Near(r1) is a subset of Near(r2) whenever r1 <= r2."""
    data = synth_2d(n, seed=seed)
    m1 = labels_by_radius(data, AffinityConfig(mode="by_radius", radius=r1)).near_mask()
    m2 = labels_by_radius(data, AffinityConfig(mode="by_radius", radius=r1 + extra)).near_mask()
    assert np.all(m2[m1])


def test_packed_storage_is_one_bit_per_pair():
    labels = ProximityLabels.from_near_mask(np.ones(45, dtype=bool), 10)
    assert labels.packed.nbytes == (45 + 7) // 8


def test_pair_cap_enforced():
    data = Dataset(features=np.zeros((30, 1)), class_labels=np.zeros(30, dtype=int))
    with pytest.raises(ValueError, match="cap"):
        labels_by_class(data, max_points=20)


def test_unpacked_labels_are_cached_read_only():
    rng = np.random.default_rng(4)
    near = rng.random(45) < 0.3
    labels = ProximityLabels.from_near_mask(near, 10)
    fresh = np.unpackbits(labels.packed, count=labels.num_pairs).astype(bool)
    mask, signs = labels.near_mask(), labels.signs()
    assert np.array_equal(mask, fresh) and np.array_equal(mask, near)
    assert signs.dtype == np.int8 and np.array_equal(signs, np.where(fresh, 1, -1))
    assert labels.near_mask() is mask and labels.signs() is signs
    with pytest.raises(ValueError, match="read-only"):
        mask[0] = not mask[0]
    with pytest.raises(ValueError, match="read-only"):
        signs[0] = -signs[0]
    assert np.array_equal(labels.near_mask(), fresh)
