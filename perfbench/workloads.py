"""The three benchmark workloads and their output checks.

Each workload has four steps, which the runner times apart:

- `setup`: make the inputs from the seed (timed, repeated, median kept);
- `build`: produce the codes of the workload's point set (timed once);
- `use`: put those codes to use (timed, repeated within the run budget);
- `check_*`: compare outputs with independent references (never timed).

All library calls go through module attributes (`hashing.encode`, not a
name imported from it), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from ppc import affinity, evalbench, hashing, index, trainer


class Checks:
    """Counts operations and the ones whose output check failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, name: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def subseed(seed: int, tag: int) -> int:
    """Independent per-purpose seed derived from the workload seed."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1, np.uint64)[0] >> 1)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def bit_log_bytes(state: trainer.TrainerState) -> bytes:
    """The JSONL training log exactly as `ppc train` writes it."""
    return "".join(json.dumps(r) + "\n" for r in trainer.bit_log_records(state)).encode("utf-8")


def gram_matches(gram: np.ndarray, codes: np.ndarray, block: int = 512) -> bool:
    """gram == C^T C for a p x n ±1 code matrix, compared in row blocks."""
    C = codes.astype(np.int64)
    if gram.shape != (C.shape[1], C.shape[1]):
        return False
    return all(
        np.array_equal(gram[i : i + block], C[:, i : i + block].T @ C) for i in range(0, C.shape[1], block)
    )


def pr_counts_ok(curve: evalbench.PRCurve, num_pairs: int) -> bool:
    """Every threshold's TP+FP+FN+TN equals the pair count; the widest retrieves all."""
    tp, fp, _, _ = curve.counts[-1]
    return all(sum(c) == num_pairs for c in curve.counts) and tp + fp == num_pairs


def model_roundtrip(model: hashing.HashModel, tmp: Path) -> tuple[bytes, bool]:
    """Model bytes, and whether save -> load -> save gives the same bytes."""
    first, second = tmp / "model.json", tmp / "model2.json"
    hashing.save_model(model, first)
    hashing.save_model(hashing.load_model(first), second)
    data = first.read_bytes()
    return data, data == second.read_bytes()


def codes_roundtrip(packed: index.PackedCodes, tmp: Path) -> tuple[bytes, bool]:
    """Codes-file bytes, and whether loading them gives back the same codes."""
    path = tmp / "codes.ppcb"
    index.save_codes(packed, path)
    loaded = index.load_codes(path)
    same = (
        loaded.n == packed.n
        and loaded.p == packed.p
        and np.array_equal(loaded.words, packed.words)
        and np.array_equal(loaded.ids, packed.ids)
    )
    return path.read_bytes(), same


# ---------------------------------------------------------------------------


class HashRadius2d:
    """Out-of-sample training on 2-D radius labels, then held-out evaluation.

    The loss never reaches zero here, so all 16 bits run and the per-bit
    kernel classifier fit, min-cut and pair bookkeeping all do full work.
    """

    N = 2000
    AVG_NEIGHBORS = 30.0
    BITS = 16

    def setup(self, seed: int, tmp: Path) -> dict:
        train_set = affinity.synth_2d(self.N, subseed(seed, 0))
        held = affinity.synth_2d(self.N, subseed(seed, 1))
        radius, _ = affinity.radius_for_avg_neighbors(train_set, self.AVG_NEIGHBORS)
        cfg = affinity.AffinityConfig(mode="by_radius", radius=radius)
        return {
            "seed": seed,
            "train": train_set,
            "labels": affinity.labels_by_radius(train_set, cfg),
            "held": held,
            "held_labels": affinity.labels_by_radius(held, cfg),
        }

    def build(self, inp: dict, tmp: Path, times: dict) -> dict:
        config = trainer.TrainConfig(max_bits=self.BITS, restarts=4, solver="bit", init="random", seed=inp["seed"])
        model, state = hashing.train_with_hashing(inp["train"], inp["labels"], config, hashing.KernelConfig())
        return {"model": model, "state": state}

    def check_build(self, inp: dict, built: dict, checks: Checks, tmp: Path) -> dict:
        model, state = built["model"], built["state"]
        codes = hashing.encode(model, inp["train"].features)
        checks.op("train: gram == C^T C of encoded training set", state.bits_done == model.p and gram_matches(state.gram, codes))
        model_bytes, same = model_roundtrip(model, tmp)
        checks.op("model save/load/save", same)
        codes_bytes, same = codes_roundtrip(index.pack(codes, ids=inp["train"].ids), tmp)
        checks.op("codes save/load", same)
        return {
            "hashes": {
                "model_json": sha256(model_bytes),
                "codes_ppcb": sha256(codes_bytes),
                "bit_log_jsonl": sha256(bit_log_bytes(state)),
            },
            "metrics": {"empirical_loss": (state.loss_history[-1].empirical, "pairs")},
        }

    def use(self, inp: dict, built: dict, times: dict) -> dict:
        packed = index.pack(hashing.encode(built["model"], inp["held"].features))
        curve = evalbench.precision_recall(packed, inp["held_labels"])
        return {"curve": curve, "auc": evalbench.auc(curve)}

    def check_use(self, inp: dict, built: dict, used: dict, checks: Checks, first: dict | None):
        same = first is None or used["auc"] == first["auc"]
        checks.op("held-out eval: PR counts, repeatable AUC", same and pr_counts_ok(used["curve"], inp["held_labels"].num_pairs))

    def named_metrics(self, run) -> dict:
        return {
            "setup_s": (run.setup_s, "s"),
            "train_s": (run.build_s, "s"),
            "heldout_eval_s": (run.use_s, "s"),
            "auc_heldout": (run.last_use["auc"], "auc"),
            "empirical_loss": run.build_info["metrics"]["empirical_loss"],
        }


class InsampleBlobs:
    """In-sample training on class labels, then pairwise evaluation.

    No classifier runs, so the n^2 pair state sets time and memory. The bit
    count is forced: left alone, class labels reach zero loss at bit 4.
    """

    N = 4000
    CLASSES = 10
    DIM = 16
    BITS = 6
    BINS = 32

    def setup(self, seed: int, tmp: Path) -> dict:
        data = affinity.synth_blobs(self.N, self.CLASSES, self.DIM, subseed(seed, 0))
        return {"seed": seed, "data": data, "labels": affinity.labels_by_class(data)}

    def build(self, inp: dict, tmp: Path, times: dict) -> dict:
        config = trainer.TrainConfig(max_bits=self.BITS, target_empirical_loss=-1, seed=inp["seed"])
        codes, state = trainer.train(inp["labels"], config)
        return {"codes": codes, "state": state}

    def check_build(self, inp: dict, built: dict, checks: Checks, tmp: Path) -> dict:
        codes, state = built["codes"], built["state"]
        checks.op("train: gram == C^T C of returned codes", codes.shape == (self.BITS, self.N) and gram_matches(state.gram, codes))
        codes_bytes, same = codes_roundtrip(index.pack(codes), tmp)
        checks.op("codes save/load", same)
        return {
            "hashes": {"codes_ppcb": sha256(codes_bytes), "bit_log_jsonl": sha256(bit_log_bytes(state))},
            "metrics": {"empirical_loss": (state.loss_history[-1].empirical, "pairs")},
        }

    def use(self, inp: dict, built: dict, times: dict) -> dict:
        packed = index.pack(built["codes"])
        curve = evalbench.precision_recall(packed, inp["labels"])
        area = evalbench.auc(curve)
        hist = evalbench.joint_histogram(packed, inp["data"], bins=self.BINS)
        return {"curve": curve, "auc": area, "hist": hist}

    def check_use(self, inp: dict, built: dict, used: dict, checks: Checks, first: dict | None):
        pairs = inp["labels"].num_pairs
        ok = pr_counts_ok(used["curve"], pairs) and int(used["hist"].counts.sum()) == pairs
        same = first is None or used["auc"] == first["auc"]
        checks.op("eval: PR and histogram counts, repeatable AUC", ok and same)

    def named_metrics(self, run) -> dict:
        return {
            "setup_s": (run.setup_s, "s"),
            "train_s": (run.build_s, "s"),
            "eval_s": (run.use_s, "s"),
            "auc_insample": (run.last_use["auc"], "auc"),
            "empirical_loss": run.build_info["metrics"]["empirical_loss"],
        }


class ServeKnn:
    """Encode a 100k corpus with a fixed kernel model, then answer queries.

    No training: only the `hashing` encode path and `index` work. The codes
    take few distinct distances, so ties at the k-th neighbour are common
    and the exact (distance, id) order is tested.
    """

    N = 100_000
    QUERIES = 2000
    CENTERS = 1000
    DIM = 16
    CLASSES = 10
    BITS = 64
    K = 10
    # Doubled Hamming radius: with the median-distance bandwidth this
    # returns a median of about 160 hits per query (tens to thousands).
    ALPHA = 2.0
    ENCODE_SAMPLE = 2000

    def setup(self, seed: int, tmp: Path) -> dict:
        points = affinity.synth_blobs(self.CENTERS + self.N + self.QUERIES, self.CLASSES, self.DIM, subseed(seed, 0))
        X = points.features
        centers = X[: self.CENTERS].copy()
        sigma = hashing.median_bandwidth(centers, subseed(seed, 1))
        rng = np.random.default_rng(subseed(seed, 2))
        coef = rng.standard_normal((self.BITS, self.CENTERS))
        # bias at the median response over the centres keeps every bit balanced
        kcc = np.exp(-cdist(centers, centers, "sqeuclidean") / (2.0 * sigma * sigma))
        bias = -np.median(kcc @ coef.T, axis=0)
        model = hashing.HashModel(
            classifiers=[hashing.KernelClassifier(centers, coef[j], float(bias[j]), sigma) for j in range(self.BITS)],
            alpha=self.ALPHA,
            p=self.BITS,
        )
        path = tmp / "serve-model.json"
        hashing.save_model(model, path)
        return {
            "seed": seed,
            "model": hashing.load_model(path),
            "db": X[self.CENTERS : self.CENTERS + self.N],
            "queries": X[self.CENTERS + self.N :],
        }

    def check_setup(self, inp: dict, checks: Checks, tmp: Path):
        _, same = model_roundtrip(inp["model"], tmp)
        checks.op("model save/load/save", same)

    def build(self, inp: dict, tmp: Path, times: dict) -> dict:
        t0 = time.perf_counter()
        codes = hashing.encode(inp["model"], inp["db"])
        times["encode_s"] = time.perf_counter() - t0
        packed = index.pack(codes)
        path = tmp / "serve-codes.ppcb"
        index.save_codes(packed, path)
        return {"codes": codes, "packed": packed, "index": index.load_codes(path)}

    def check_build(self, inp: dict, built: dict, checks: Checks, tmp: Path) -> dict:
        codes, loaded = built["codes"], built["index"]
        model = inp["model"]
        # independent encode of a seeded sample; only margins clear of float
        # rounding are compared, as block and vector products sum differently
        rng = np.random.default_rng(subseed(inp["seed"], 3))
        rows = np.sort(rng.choice(self.N, size=self.ENCODE_SAMPLE, replace=False))
        sigma = model.classifiers[0].bandwidth
        K = np.exp(-cdist(inp["db"][rows], model.classifiers[0].centers, "sqeuclidean") / (2.0 * sigma * sigma))
        coef = np.stack([c.coefficients for c in model.classifiers])
        bias = np.array([c.bias for c in model.classifiers])
        f = (K @ coef.T + bias).T
        clear = np.abs(f) > 1e-9 * (1.0 + np.abs(K).sum(axis=1) * np.abs(coef).max())
        ref = np.where(f >= 0, 1, -1)
        checks.op("encode: sample matches reference", bool(np.all((codes[:, rows] == ref) | ~clear)))
        same = np.array_equal(index.unpack(built["packed"]), codes) and np.array_equal(loaded.words, built["packed"].words)
        checks.op("codes pack/unpack and save/load", same)
        return {"hashes": {"codes_ppcb": sha256((tmp / "serve-codes.ppcb").read_bytes())}, "metrics": {}}

    def use(self, inp: dict, built: dict, times: dict) -> dict:
        """Closed loop, one client: each call starts when the previous returns."""
        clock = time.perf_counter
        t0 = clock()
        queries = index.pack(hashing.encode(inp["model"], inp["queries"]))
        times["query_encode_s"] = clock() - t0
        db = built["index"]
        knn, radius = [], []
        knn_s = radius_s = 0.0
        for q in queries.words:
            t0 = clock()
            knn.append(index.query_knn(db, q, self.K))
            t1 = clock()
            radius.append(index.query_radius(db, q, self.ALPHA))
            t2 = clock()
            knn_s += t1 - t0
            radius_s += t2 - t1
        times["knn_s"], times["radius_s"] = knn_s, radius_s
        return {"queries": queries, "knn": knn, "radius": radius}

    def check_use(self, inp: dict, built: dict, used: dict, checks: Checks, first: dict | None, block: int = 100):
        """Brute-force reference from the unpacked ±1 codes, ordered by (distance, id)."""
        db = built["index"]
        C = index.unpack(db).astype(np.float32)  # p x N, exact for |dot| <= 2^24
        Q = index.unpack(used["queries"]).astype(np.float32)
        ids = db.ids
        for lo in range(0, Q.shape[1], block):
            dist = (self.BITS - Q[:, lo : lo + block].T @ C).astype(np.int64)
            for r, d in enumerate(dist):
                near = np.argpartition(d, self.K - 1)[: self.K]
                cut = d[near].max()
                cand = np.flatnonzero(d <= cut)
                order = np.lexsort((ids[cand], d[cand]))
                checks.op("kNN equals brute force", np.array_equal(used["knn"][lo + r], ids[cand[order[: self.K]]]))
                hit = np.flatnonzero(d <= self.ALPHA)
                order = np.lexsort((ids[hit], d[hit]))
                checks.op("radius equals brute force", np.array_equal(used["radius"][lo + r], ids[hit[order]]))

    def named_metrics(self, run) -> dict:
        return {
            "setup_s": (run.setup_s, "s"),
            "encode_pts_per_s": (self.N / run.build_times["encode_s"], "1/s"),
            "knn_qps": (self.QUERIES / run.use_times["knn_s"], "1/s"),
            "radius_qps": (self.QUERIES / run.use_times["radius_s"], "1/s"),
            "radius_hits_mean": (float(np.mean([r.size for r in run.last_use["radius"]])), "count"),
        }


WORKLOADS = {
    "hash-radius2d": HashRadius2d,
    "insample-blobs": InsampleBlobs,
    "serve-knn": ServeKnn,
}
