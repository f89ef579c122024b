"""Packed ±1 codes and brute-force Hamming retrieval.

Codes pack little-endian into 64-bit words (bit set = +1). All distances
use the doubled convention: 2 x popcount(xor) = p - c_i^T c_j, so
thresholds are directly comparable to the trainer's alpha.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ppc.fileio import atomic_write

MAGIC = b"PPCB"
VERSION = 1


@dataclass
class PackedCodes:
    """n codes of p bits each, packed into ceil(p/64) words per code."""

    words: np.ndarray  # (n, w) uint64
    n: int
    p: int
    ids: np.ndarray | None = None

    def __post_init__(self):
        w = (self.p + 63) // 64
        if self.words.shape != (self.n, w):
            raise ValueError(f"words shape {self.words.shape} != ({self.n}, {w})")
        if self.ids is None:
            self.ids = np.arange(self.n, dtype=np.int64)


def pack(codes: np.ndarray, ids: np.ndarray | None = None) -> PackedCodes:
    """Pack a p x n ±1 code matrix (column per point)."""
    codes = np.asarray(codes)
    if codes.ndim != 2:
        raise ValueError("code matrix must be 2-D (p x n)")
    p, n = codes.shape
    if p < 1:
        raise ValueError("need at least one bit")
    if not np.isin(codes, (-1, 1)).all():
        raise ValueError("code entries must be ±1")
    bits = (codes.T > 0).astype(np.uint8)  # (n, p)
    w = (p + 63) // 64
    padded = np.zeros((n, 64 * w), dtype=np.uint8)
    padded[:, :p] = bits
    words = np.packbits(padded, axis=1, bitorder="little").view("<u8")
    return PackedCodes(words=np.ascontiguousarray(words), n=n, p=p, ids=ids)


def unpack(packed: PackedCodes) -> np.ndarray:
    """Inverse of pack: the p x n ±1 matrix (int8)."""
    raw = np.unpackbits(packed.words.view(np.uint8), axis=1, bitorder="little")
    bits = raw[:, : packed.p]
    return np.where(bits > 0, 1, -1).astype(np.int8).T


def _check_same_shape(b: np.ndarray, p: int):
    w = (p + 63) // 64
    if np.asarray(b).shape[-1] != w:
        raise ValueError("word count does not match code length p")


def hamming(a: np.ndarray, b: np.ndarray, p: int) -> int:
    """Doubled Hamming distance between two packed codes (word arrays)."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.shape != b.shape:
        raise ValueError("packed codes differ in word count")
    _check_same_shape(b, p)
    return 2 * int(np.bitwise_count(a ^ b).sum())


def _xor_popcounts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """popcount(a ^ b) summed over the last (word) axis, broadcasting the rest.

    Summed one word column at a time in uint8 (up to 3 words) or uint16
    (up to 1023 words), so no buffer with a word axis or int64 copy is made.
    """
    w = a.shape[-1]
    dtype = np.uint8 if w < 4 else np.uint16 if w < 1024 else np.int64
    h = np.bitwise_count(a[..., 0] ^ b[..., 0]).astype(dtype, copy=False)
    for j in range(1, w):
        h += np.bitwise_count(a[..., j] ^ b[..., j])
    return h


def _popcounts(index: PackedCodes, q: np.ndarray) -> np.ndarray:
    """Undoubled distances from one packed query to every indexed code."""
    q = np.asarray(q, dtype=np.uint64)
    _check_same_shape(q, index.p)
    return _xor_popcounts(index.words, q)


def pair_popcounts(packed: PackedCodes, start: int, stop: int) -> np.ndarray:
    """Undoubled distances from rows start..stop-1 to rows start+1..n-1.

    Cell (r, c) of the (stop - start, n - start - 1) result holds pair
    (start + r, start + 1 + c); the cells with c < r pair a row with
    itself or an earlier row and are not pairs i < j.
    """
    words = packed.words
    return _xor_popcounts(words[start:stop, None, :], words[None, start + 1 :, :])


def pair_hamming(packed: PackedCodes, block: int = 256) -> np.ndarray:
    """Condensed doubled distances over all unordered pairs (triu order)."""
    n = packed.n
    out = np.empty(n * (n - 1) // 2, dtype=np.int64)
    pos = 0
    for i in range(0, n - 1, block):
        for r, row in enumerate(pair_popcounts(packed, i, min(i + block, n - 1))):
            out[pos : pos + row.size - r] = row[r:]
            pos += row.size - r
    out *= 2
    return out


def _sorted_ids(index: PackedCodes, h: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Ids of the candidate rows in ascending (distance, id) order."""
    ids = index.ids[cand]
    return ids[np.lexsort((ids, h[cand]))]


def query_radius(index: PackedCodes, q: np.ndarray, alpha: float) -> np.ndarray:
    """Ids with distance <= alpha, ascending by (distance, id)."""
    h = _popcounts(index, q)
    # halving a float is exact, so this is the doubled test 2 * h <= alpha
    # without widening h (nan and -inf select nothing, inf selects all)
    return _sorted_ids(index, h, np.flatnonzero(h <= alpha / 2))


def query_knn(index: PackedCodes, q: np.ndarray, k: int) -> np.ndarray:
    """k nearest ids, ties broken by ascending id; k > n returns all.

    Distances take only p + 1 values, so the k-th smallest, t, is found by
    counting codes at distance <= t for a few t; only the codes at distance
    <= t are sorted.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    h = _popcounts(index, q)
    # t is the smallest distance with count(h <= t) >= k (or p, which
    # holds every code): try t = 0, 1, 3, 7, ... up to p, then bisect
    # (below, t], where count(h <= below) < k
    below, t = -1, 0
    while t < index.p and np.count_nonzero(h <= t) < k:
        below, t = t, min(2 * t + 1, index.p)
    while t - below > 1:
        mid = (below + t) // 2
        if np.count_nonzero(h <= mid) >= k:
            t = mid
        else:
            below = mid
    return _sorted_ids(index, h, np.flatnonzero(h <= t))[:k]


# ---------------------------------------------------------------------------
# Codes file: magic "PPCB", u32 version, u64 n, u32 p, words, optional ids


def save_codes(packed: PackedCodes, path: str | Path, with_ids: bool = True):
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", packed.n))
        fh.write(struct.pack("<I", packed.p))
        fh.write(packed.words.astype("<u8").tobytes())
        if with_ids:
            fh.write(packed.ids.astype("<u8").tobytes())


def load_codes(path: str | Path) -> PackedCodes:
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic, not a codes file")
    if len(blob) < 20:
        raise ValueError(f"{path}: truncated codes header")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported codes version {version}")
    (n,) = struct.unpack_from("<Q", blob, 8)
    (p,) = struct.unpack_from("<I", blob, 16)
    w = (p + 63) // 64
    offset = 20
    need = n * w * 8
    if len(blob) < offset + need:
        raise ValueError(f"{path}: truncated codes payload")
    words = np.frombuffer(blob, dtype="<u8", count=n * w, offset=offset).reshape(n, w).copy()
    offset += need
    ids = None
    remaining = len(blob) - offset
    if remaining:
        if remaining != n * 8:
            raise ValueError(f"{path}: trailing id table has wrong size")
        ids = np.frombuffer(blob, dtype="<u8", offset=offset).astype(np.int64)
    if p % 64:
        mask = np.uint64((1 << (p % 64)) - 1)
        if np.any(words[:, -1] & ~mask):
            raise ValueError(f"{path}: nonzero padding bits beyond p={p}")
    return PackedCodes(words=words, n=int(n), p=int(p), ids=ids)
