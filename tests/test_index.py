"""Packed codes, popcount distances, queries, and the codes file format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppc.index import (
    PackedCodes,
    _popcounts,
    hamming,
    load_codes,
    pack,
    pair_hamming,
    query_knn,
    query_radius,
    save_codes,
    unpack,
)


def _random_codes(p, n, seed):
    rng = np.random.default_rng(seed)
    return (2 * rng.integers(0, 2, size=(p, n)) - 1).astype(np.int8)


def _reference_distances(index, q):
    """Doubled distances p - C^T q from the unpacked ±1 codes, no popcounts."""
    C = unpack(index).astype(np.int64)
    q = unpack(PackedCodes(words=np.asarray(q, dtype=np.uint64)[None, :], n=1, p=index.p))
    return index.p - C.T @ q[:, 0].astype(np.int64)


def _reference_radius(index, q, alpha):
    """Full-scan reference: lexsort every hit by (doubled distance, id)."""
    d = _reference_distances(index, q)
    keep = d <= alpha
    ids = index.ids[keep]
    return ids[np.lexsort((ids, d[keep]))]


def _reference_knn(index, q, k):
    """Full-scan reference: lexsort all n codes by (doubled distance, id)."""
    d = _reference_distances(index, q)
    order = np.lexsort((index.ids, d))
    return index.ids[order[: min(k, index.n)]]


class TestPackUnpack:
    def test_single_bit_layout(self):
        C = np.array([[1, -1]], dtype=np.int8)
        packed = pack(C)
        assert packed.words.tolist() == [[1], [0]]

    def test_full_word(self):
        C = np.ones((64, 1), dtype=np.int8)
        packed = pack(C)
        assert packed.words[0, 0] == np.uint64(0xFFFF_FFFF_FFFF_FFFF)

    def test_word_boundary_padding(self):
        C = np.ones((65, 2), dtype=np.int8)
        packed = pack(C)
        assert packed.words.shape == (2, 2)
        assert packed.words[0, 1] == 1  # only bit 0 of the second word

    def test_roundtrip_exact(self):
        C = _random_codes(37, 20, seed=1)
        assert np.array_equal(unpack(pack(C)), C)

    def test_rejects_non_pm1(self):
        with pytest.raises(ValueError):
            pack(np.array([[1, 0]], dtype=np.int8))


class TestHamming:
    def test_identical_zero(self):
        C = _random_codes(24, 2, seed=2)
        C[:, 1] = C[:, 0]
        packed = pack(C)
        assert hamming(packed.words[0], packed.words[1], 24) == 0

    def test_antipodal(self):
        C = np.ones((50, 2), dtype=np.int8)
        C[:, 1] = -1
        packed = pack(C)
        assert hamming(packed.words[0], packed.words[1], 50) == 100

    def test_three_of_24_differ(self):
        C = np.ones((24, 2), dtype=np.int8)
        C[[3, 11, 17], 1] = -1
        packed = pack(C)
        assert hamming(packed.words[0], packed.words[1], 24) == 6
        # cross-check the inner-product identity p - c_i . c_j
        ip = int(C[:, 0].astype(int) @ C[:, 1].astype(int))
        assert 24 - ip == 6

    def test_matches_naive_on_random_pairs(self):
        C = _random_codes(48, 200, seed=3)
        packed = pack(C)
        rng = np.random.default_rng(4)
        for _ in range(500):
            i, j = rng.integers(0, 200, size=2)
            naive = 48 - int(C[:, i].astype(int) @ C[:, j].astype(int))
            assert hamming(packed.words[i], packed.words[j], 48) == naive

    def test_word_count_mismatch(self):
        a = np.zeros(2, dtype=np.uint64)
        with pytest.raises(ValueError):
            hamming(a, a, p=200)


class TestPairHamming:
    def test_matches_gram_identity(self):
        C = _random_codes(17, 30, seed=5)
        packed = pack(C)
        d = pair_hamming(packed)
        G = C.astype(np.int64).T @ C.astype(np.int64)
        iu = np.triu_indices(30, 1)
        assert np.array_equal(d, 17 - G[iu])

    def test_blocking_invariant(self):
        C = _random_codes(9, 23, seed=6)
        packed = pack(C)
        assert np.array_equal(pair_hamming(packed, block=4), pair_hamming(packed, block=64))


class TestQueries:
    def test_radius_negative_alpha_empty(self):
        C = _random_codes(8, 10, seed=7)
        packed = pack(C)
        assert query_radius(packed, packed.words[0], alpha=-1).size == 0

    def test_radius_max_alpha_returns_all(self):
        C = _random_codes(8, 10, seed=8)
        packed = pack(C)
        ids = query_radius(packed, packed.words[0], alpha=16)
        assert sorted(ids.tolist()) == list(range(10))

    def test_radius_zero_exact_match_only(self):
        C = np.ones((6, 2), dtype=np.int8)
        C[:, 1] = -1
        packed = pack(C)
        ids = query_radius(packed, packed.words[0], alpha=0)
        assert ids.tolist() == [0]

    def test_knn_full_set_is_permutation(self):
        C = _random_codes(12, 15, seed=9)
        packed = pack(C)
        ids = query_knn(packed, packed.words[3], k=15)
        assert sorted(ids.tolist()) == list(range(15))
        d = _reference_distances(packed, packed.words[3])
        assert np.all(np.diff(d[ids]) >= 0)

    def test_knn_self_first(self):
        C = _random_codes(16, 12, seed=10)
        packed = pack(C)
        assert query_knn(packed, packed.words[5], k=1).tolist() == [5]

    def test_knn_tie_smaller_id(self):
        C = np.ones((4, 3), dtype=np.int8)
        C[0, 1] = -1  # ids 1 and 2... make 1 and 2 equidistant from 0
        C[0, 2] = -1
        packed = pack(C)
        assert query_knn(packed, packed.words[0], k=2).tolist() == [0, 1]

    def test_knn_k_exceeds_n(self):
        C = _random_codes(8, 5, seed=11)
        packed = pack(C)
        assert query_knn(packed, packed.words[0], k=50).size == 5

    def test_radius_partition(self):
        C = _random_codes(10, 20, seed=12)
        packed = pack(C)
        inside = set(query_radius(packed, packed.words[0], alpha=8).tolist())
        d = _reference_distances(packed, packed.words[0])
        outside = {i for i in range(20) if d[i] > 8}
        assert inside | outside == set(range(20))
        assert not (inside & outside)


def _assert_queries_match_reference(index, queries):
    n, p = index.n, index.p
    for q in queries:
        for k in (1, 2, 10, 500, n - 1, n, n + 5):
            if k >= 1:
                assert np.array_equal(query_knn(index, q, k), _reference_knn(index, q, k))
        for alpha in (-1, 0, 1, 1.5, 2, 2 * p, 2 * p + 1, np.inf, -np.inf, np.nan):
            assert np.array_equal(query_radius(index, q, alpha), _reference_radius(index, q, alpha))


class TestQueryExactness:
    """The selecting kNN/radius queries equal the full-scan lexsort order."""

    @pytest.mark.parametrize("p", [1, 7, 63, 64, 65, 130, 192])
    def test_random_codes(self, p):
        index = pack(_random_codes(p, 300, seed=p))
        queries = pack(_random_codes(p, 4, seed=1000 + p)).words
        _assert_queries_match_reference(index, list(queries) + [index.words[0]])

    def test_clustered_codes(self):
        # codes near a few prototypes, as learned codes are: small distances
        # repeat, and k = 10 or 500 cuts inside a crowded distance
        rng = np.random.default_rng(35)
        protos = _random_codes(64, 5, seed=36)
        C = protos[:, rng.integers(0, 5, size=1500)]
        C = np.where(rng.random(C.shape) < 0.05, -C, C).astype(np.int8)
        index = pack(C)
        _assert_queries_match_reference(index, list(index.words[:4]) + list(pack(protos).words))

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_heavy_ties(self, p):
        # n >> 2^p: every distance is shared by many codes
        index = pack(_random_codes(p, 200, seed=20 + p))
        _assert_queries_match_reference(index, index.words[:6])

    def test_permuted_ids_through_codes_file(self, tmp_path):
        rng = np.random.default_rng(30)
        ids = rng.permutation(np.arange(1000, 1250))
        packed = pack(_random_codes(6, 250, seed=31), ids=ids)
        path = tmp_path / "perm.ppcb"
        save_codes(packed, path)
        index = load_codes(path)
        assert np.array_equal(index.ids, ids)
        _assert_queries_match_reference(index, index.words[:8])

    def test_duplicate_ids_keep_stable_order(self):
        ids = np.repeat(np.arange(20), 5)[::-1].copy()
        index = pack(_random_codes(4, 100, seed=32), ids=ids)
        _assert_queries_match_reference(index, index.words[:5])

    @pytest.mark.parametrize("p", [3, 64, 192, 256, 65600])
    def test_popcounts_match_per_pair_hamming(self, p):
        C = _random_codes(p, 40, seed=33)
        C[:, 2] = -C[:, 1]  # distance p from row 1: the widest count
        index = pack(C)
        d = 2 * _popcounts(index, index.words[1]).astype(np.int64)
        assert np.array_equal(d, _reference_distances(index, index.words[1]))
        assert d.tolist() == [hamming(index.words[1], index.words[i], p) for i in range(40)]

    @pytest.mark.parametrize("k", [0, -1, -5])
    def test_knn_rejects_k_below_one(self, k):
        index = pack(_random_codes(8, 5, seed=34))
        with pytest.raises(ValueError, match="k must be at least 1"):
            query_knn(index, index.words[0], k)


class TestCodesFile:
    def test_roundtrip_bytes(self, tmp_path):
        C = _random_codes(33, 40, seed=13)
        packed = pack(C, ids=np.arange(100, 140))
        path = tmp_path / "codes.ppcb"
        save_codes(packed, path)
        loaded = load_codes(path)
        assert loaded.n == 40 and loaded.p == 33
        assert np.array_equal(loaded.words, packed.words)
        assert np.array_equal(loaded.ids, packed.ids)
        path2 = tmp_path / "again.ppcb"
        save_codes(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_without_id_table(self, tmp_path):
        packed = pack(_random_codes(7, 9, seed=14))
        path = tmp_path / "codes.ppcb"
        save_codes(packed, path, with_ids=False)
        loaded = load_codes(path)
        assert np.array_equal(loaded.ids, np.arange(9))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppcb"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_codes(path)

    @pytest.mark.parametrize("keep", [4, 12, 19])
    def test_truncated_header(self, tmp_path, keep):
        path = tmp_path / "codes.ppcb"
        save_codes(pack(_random_codes(7, 3, seed=16)), path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(ValueError, match="truncated codes header"):
            load_codes(path)

    def test_nonzero_padding_rejected(self, tmp_path):
        packed = pack(_random_codes(7, 3, seed=15))
        words = packed.words.copy()
        words[0, 0] |= np.uint64(1 << 60)  # beyond p=7
        bad = PackedCodes(words=words, n=3, p=7)
        path = tmp_path / "pad.ppcb"
        save_codes(bad, path, with_ids=False)
        with pytest.raises(ValueError, match="padding"):
            load_codes(path)


@settings(deadline=None, max_examples=30)
@given(p=st.integers(1, 130), n=st.integers(2, 12), seed=st.integers(0, 999))
def test_pack_roundtrip_property(p, n, seed):
    C = _random_codes(p, n, seed)
    assert np.array_equal(unpack(pack(C)), C)


@settings(deadline=None, max_examples=30)
@given(p=st.integers(1, 100), seed=st.integers(0, 999))
def test_halved_distance_is_a_metric(p, seed):
    """identity, symmetry and triangle inequality on random triples."""
    C = _random_codes(p, 3, seed)
    packed = pack(C)
    w = packed.words
    d01 = hamming(w[0], w[1], p) / 2
    d02 = hamming(w[0], w[2], p) / 2
    d12 = hamming(w[1], w[2], p) / 2
    assert hamming(w[0], w[0], p) == 0
    assert hamming(w[0], w[1], p) == hamming(w[1], w[0], p)
    assert d01 <= d02 + d12
    assert d02 <= d01 + d12
    assert d12 <= d01 + d02
    if not np.array_equal(C[:, 0], C[:, 1]):
        assert d01 > 0
