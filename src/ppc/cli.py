"""Command-line surface: synth / train / encode / query / eval / cut.

One master seed in the config drives every random draw; sub-seeds are
derived per purpose so identical configs reproduce identical artifacts.
Exit codes: 0 success, 1 runtime failure, 2 usage, 3 validation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ppc import affinity as aff
from ppc import evalbench, index, mincut
from ppc.fileio import atomic_write
from ppc.hashing import KernelConfig, encode, load_model, save_model, train_with_hashing
from ppc.seeds import derive_seed
from ppc.trainer import TrainConfig, bit_log_records


class ConfigError(ValueError):
    """Bad configuration or missing referenced file (exit 3)."""


@dataclass
class RunConfig:
    seed: int = 0
    bits: int = 16
    restarts: int = 4
    update: str = "bit"
    init: str = "random"
    target_empirical_loss: int = 0
    data: str | None = None
    affinity_mode: str = "class"  # class | radius
    radius: float | None = None
    avg_neighbors: float | None = None
    metric: str = "euclidean"
    kernel_bandwidth: float | None = None
    kernel_ridge: float = 1e-3
    kernel_max_centers: int = 1000
    kernel_max_iter: int = 500
    kernel_tol: float = 1e-5

    def train_config(self) -> TrainConfig:
        try:
            return TrainConfig(
                max_bits=self.bits,
                target_empirical_loss=self.target_empirical_loss,
                solver=self.update,
                init=self.init,
                restarts=self.restarts,
                seed=self.seed,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def kernel_config(self) -> KernelConfig:
        try:
            return KernelConfig(
                bandwidth=self.kernel_bandwidth,
                ridge=self.kernel_ridge,
                max_centers=self.kernel_max_centers,
                max_iter=self.kernel_max_iter,
                tol=self.kernel_tol,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


_TOP_KEYS = {
    "seed": ("seed", int),
    "bits": ("bits", int),
    "restarts": ("restarts", int),
    "update": ("update", str),
    "init": ("init", str),
    "target_empirical_loss": ("target_empirical_loss", int),
    "data": ("data", str),
}
_AFFINITY_KEYS = {
    "mode": ("affinity_mode", str),
    "radius": ("radius", float),
    "avg_neighbors": ("avg_neighbors", float),
    "metric": ("metric", str),
}
_KERNEL_KEYS = {
    "bandwidth": ("kernel_bandwidth", float),
    "ridge": ("kernel_ridge", float),
    "max_centers": ("kernel_max_centers", int),
    "max_iter": ("kernel_max_iter", int),
    "tol": ("kernel_tol", float),
}


def load_run_config(path: str | None, overrides: dict) -> RunConfig:
    """Merge a JSON config file with flag overrides; unknown keys reject."""
    cfg = RunConfig()
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            doc = json.loads(p.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        for key, value in doc.items():
            if key == "affinity":
                _apply_section(cfg, value, _AFFINITY_KEYS, "affinity")
            elif key == "kernel":
                _apply_section(cfg, value, _KERNEL_KEYS, "kernel")
            elif key in _TOP_KEYS:
                _set_field(cfg, _TOP_KEYS[key], key, value)
            else:
                raise ConfigError(f"unknown config key {key!r}")
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    _validate(cfg)
    return cfg


def _apply_section(cfg: RunConfig, section, keymap, name: str):
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    for key, value in section.items():
        if key not in keymap:
            raise ConfigError(f"unknown config key '{name}.{key}'")
        _set_field(cfg, keymap[key], f"{name}.{key}", value)


def _set_field(cfg: RunConfig, spec, label: str, value):
    attr, typ = spec
    if value is None:
        setattr(cfg, attr, None)
        return
    try:
        setattr(cfg, attr, typ(value))
    except (TypeError, ValueError):
        raise ConfigError(f"config key {label!r} has invalid value {value!r}") from None


def _validate(cfg: RunConfig):
    if cfg.affinity_mode not in ("class", "radius"):
        raise ConfigError(f"affinity mode must be class or radius, got {cfg.affinity_mode!r}")
    if cfg.metric not in ("euclidean", "l1"):
        raise ConfigError(f"metric must be euclidean or l1, got {cfg.metric!r}")
    if cfg.affinity_mode == "radius" and cfg.radius is None and cfg.avg_neighbors is None:
        raise ConfigError("radius affinity needs --radius or --avg-neighbors")
    cfg.train_config()
    cfg.kernel_config()


def _require(path: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"file not found: {p}")
    return p


def _build_labels(data: aff.Dataset, cfg: RunConfig) -> aff.ProximityLabels:
    if cfg.affinity_mode == "class":
        if data.class_labels is None:
            raise ConfigError("class affinity requested but dataset has no labels")
        return aff.labels_by_class(data)
    radius = cfg.radius
    if radius is None:
        radius, achieved = aff.radius_for_avg_neighbors(data, cfg.avg_neighbors, cfg.metric)
        print(f"radius {radius!r} gives {achieved:.3f} avg neighbors", file=sys.stderr)
    acfg = aff.AffinityConfig(mode="by_radius", radius=radius, metric=cfg.metric)
    return aff.labels_by_radius(data, acfg)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_synth(args) -> int:
    if args.classes:
        data = aff.synth_blobs(args.n, args.classes, args.dim, args.seed)
    else:
        data = aff.synth_2d(args.n, args.seed, args.box)
    aff.save_dataset_csv(data, args.out)
    print(f"wrote {data.n} x {data.d} dataset to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, _config_overrides(args))
    data_path = args.data or cfg.data
    if data_path is None:
        raise ConfigError("no dataset: pass --data or set 'data' in the config")
    data = aff.load_dataset(_require(data_path), args.format)
    labels = _build_labels(data, cfg)
    model, state = train_with_hashing(data, labels, cfg.train_config(), cfg.kernel_config())

    out = Path(args.out)
    codes_path = Path(args.codes) if args.codes else out.with_suffix(".ppcb")
    log_path = Path(args.log) if args.log else out.with_suffix(".log.jsonl")

    save_model(model, out)
    codes = encode(model, data.features)
    index.save_codes(index.pack(codes, ids=data.ids), codes_path)
    with atomic_write(log_path, encoding="utf-8") as fh:
        for record in bit_log_records(state):
            fh.write(json.dumps(record) + "\n")
    print(
        f"trained {model.p} bits (alpha={model.alpha}); "
        f"model={out} codes={codes_path} log={log_path}"
    )
    return 0


def _load_input(load, path: str):
    """load(path), with a corrupt or truncated file reported as a validation error."""
    try:
        return load(_require(path))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_encode(args) -> int:
    model = _load_input(load_model, args.model)
    data = aff.load_dataset(_require(args.data), args.format)
    codes = encode(model, data.features)
    index.save_codes(index.pack(codes, ids=data.ids), args.out)
    print(f"encoded {data.n} points to {args.out}")
    return 0


def cmd_query(args) -> int:
    if args.alpha is None and args.k is None:
        raise ConfigError("query needs --alpha (radius) or --k (kNN)")
    if args.alpha is not None and args.k is not None:
        raise ConfigError("pass --alpha or --k, not both")
    if args.k is not None and args.k < 1:
        raise ConfigError(f"--k must be at least 1, got {args.k}")
    packed = _load_input(index.load_codes, args.codes)
    model = _load_input(load_model, args.model)
    data = aff.load_dataset(_require(args.data), args.format)
    queries = index.pack(encode(model, data.features))
    for row in range(queries.n):
        q = queries.words[row]
        if args.alpha is not None:
            ids = index.query_radius(packed, q, args.alpha)
        else:
            ids = index.query_knn(packed, q, args.k)
        print(" ".join(str(int(i)) for i in ids))
    return 0


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config, _config_overrides(args))
    packed = index.load_codes(_require(args.codes))
    data_path = args.data or cfg.data
    if data_path is None:
        raise ConfigError("no dataset: pass --data or set 'data' in the config")
    data = aff.load_dataset(_require(data_path), args.format)
    labels = _build_labels(data, cfg)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    curve = evalbench.precision_recall(packed, labels)
    area = evalbench.auc(curve)
    hist = evalbench.joint_histogram(packed, data, cfg.metric, bins=args.bins)
    evalbench.write_pr_csv(curve, outdir / "pr.csv")
    evalbench.write_auc_csv(area, outdir / "auc.csv")
    evalbench.write_histogram_csv(hist, outdir / "hist.csv")
    print(f"auc={area!r}; wrote pr.csv auc.csv hist.csv under {outdir}")
    return 0


def _load_matrix(path: Path, fmt: str) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and any(f.strip() for f in r)]
    if not rows:
        raise ConfigError(f"{path}: empty matrix file")
    table = [[float(v) for v in row] for row in rows]
    widths = {len(r) for r in table}
    if len(widths) != 1:
        raise ConfigError(f"{path}: ragged matrix file")
    width = widths.pop()
    if fmt == "auto":
        fmt = "dense" if width == len(table) else "triples"
    if fmt == "dense":
        W = np.asarray(table)
        if W.shape[0] != W.shape[1]:
            raise ConfigError(f"{path}: dense matrix must be square")
        return (W + W.T) / 2.0
    if width != 3:
        raise ConfigError(f"{path}: triples format needs rows i,j,w")
    n = int(max(max(r[0] for r in table), max(r[1] for r in table))) + 1
    W = np.zeros((n, n))
    for i, j, w in table:
        W[int(i), int(j)] = w
        W[int(j), int(i)] = w
    return W


def cmd_cut(args) -> int:
    W = _load_matrix(_require(args.matrix), args.matrix_format)
    seeds = [derive_seed(args.seed, "cut", r) for r in range(args.restarts)]
    try:  # rejects a non-finite matrix or no restarts
        best, best_report = mincut.best_of_restarts(W, args.update, args.init, seeds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    print(f"objective {best_report.objective!r}")
    print(f"iterations {best_report.iterations}")
    print("assignment " + " ".join(f"{int(v):+d}" for v in best))
    return 0


# ---------------------------------------------------------------------------
# Parser


def _config_overrides(args) -> dict:
    pairs = {
        "seed": getattr(args, "seed", None),
        "bits": getattr(args, "bits", None),
        "restarts": getattr(args, "restarts", None),
        "update": getattr(args, "update", None),
        "init": getattr(args, "init", None),
        "radius": getattr(args, "radius", None),
        "avg_neighbors": getattr(args, "avg_neighbors", None),
        "metric": getattr(args, "metric", None),
    }
    if getattr(args, "affinity", None) is not None:
        pairs["affinity_mode"] = args.affinity
    return pairs


def _add_config_flags(sub, train: bool = False):
    sub.add_argument("--config", help="JSON run config")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--affinity", choices=["class", "radius"])
    sub.add_argument("--radius", type=float)
    sub.add_argument("--avg-neighbors", type=float, dest="avg_neighbors")
    sub.add_argument("--metric", choices=["euclidean", "l1"])
    if train:
        sub.add_argument("--bits", type=int)
        sub.add_argument("--update", choices=["bit", "vector"])
        sub.add_argument(
            "--init",
            choices=["random", "fiedler", "signed-laplacian", "random-projection"],
        )
        sub.add_argument("--restarts", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ppc", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("synth", help="write a synthetic dataset CSV")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--box", type=float, default=0.5)
    s.add_argument("--classes", type=int, default=0, help="blob count; 0 = uniform 2-D")
    s.add_argument("--dim", type=int, default=2)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_synth)

    s = subs.add_parser("train", help="train codes + hashing model")
    s.add_argument("--data", help="dataset path (or 'data' key in --config)")
    s.add_argument("--format", choices=["csv", "raw_f32"])
    s.add_argument("--out", required=True, help="model JSON path")
    s.add_argument("--codes", help="codes file path (default: model path with .ppcb)")
    s.add_argument("--log", help="JSONL training log path")
    _add_config_flags(s, train=True)
    s.set_defaults(func=cmd_train)

    s = subs.add_parser("encode", help="encode a feature file with a model")
    s.add_argument("--model", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--format", choices=["csv", "raw_f32"])
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_encode)

    s = subs.add_parser("query", help="radius or kNN lookups against a codes file")
    s.add_argument("--codes", required=True)
    s.add_argument("--model", required=True)
    s.add_argument("--data", required=True, help="query features")
    s.add_argument("--format", choices=["csv", "raw_f32"])
    s.add_argument("--alpha", type=float, help="radius threshold (doubled distance)")
    s.add_argument("--k", type=int, help="number of neighbors")
    s.set_defaults(func=cmd_query)

    s = subs.add_parser("eval", help="PR curve, AUC, joint histogram CSVs")
    s.add_argument("--codes", required=True)
    s.add_argument("--data", help="dataset path (or 'data' key in --config)")
    s.add_argument("--format", choices=["csv", "raw_f32"])
    s.add_argument("--outdir", required=True)
    s.add_argument("--bins", type=int, default=32)
    _add_config_flags(s)
    s.set_defaults(func=cmd_eval)

    s = subs.add_parser("cut", help="standalone signed min-cut solver")
    s.add_argument("--matrix", required=True, help="CSV dense matrix or i,j,w triples")
    s.add_argument("--matrix-format", choices=["auto", "dense", "triples"], default="auto")
    s.add_argument("--update", choices=["bit", "vector"], default="bit")
    s.add_argument(
        "--init",
        choices=["random", "fiedler", "signed-laplacian", "random-projection"],
        default="random",
    )
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--restarts", type=int, default=4)
    s.set_defaults(func=cmd_cut)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"ppc: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"ppc: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - single-line diagnostic contract
        print(f"ppc: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
