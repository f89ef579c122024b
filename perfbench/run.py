"""Benchmark of the ppc library: training, in-sample evaluation, encode and retrieval.

Run from the repository root:

    python3 perfbench/run.py --workload hash-radius2d --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): hash-radius2d, insample-blobs, serve-knn.
Each run sets up the inputs from the seed several times (median kept as
`setup_s`), builds the codes once (`build_s`), then uses them again and
again while the `--seconds` budget allows (median kept as `use_s`). Every
output is checked against an independent reference outside the timed
sections. Load is a closed loop with one client.

With `--trace 0` the last line holds the end-to-end metrics of an untraced
pass. With `--trace 1` the same untraced pass runs first, then a traced one
that wraps ppc's public functions from outside the package; the last line
holds the per-layer metrics, including the tracing overhead (traced pass
time against untraced). The line before the last is a report: the
environment, the workload's own metric names, artifact hashes and any
failed checks.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

# numpy/BLAS threads are the only extra threads; cap them at the CPUs this
# process may use before numpy is first imported.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up repeats at least SETUP_MIN times and until SETUP_MIN_S has passed;
# uses repeat until USE_MIN_S has passed, then while the --seconds budget
# (build plus uses) allows. Medians of these samples are reported.
SETUP_MIN, SETUP_MAX, SETUP_MIN_S = 5, 25, 1.5
USE_MAX, USE_MIN_S = 50, 5.0

# ppc public functions wrapped in the traced pass, as "module.function"
TRACED = [
    "affinity.radius_for_avg_neighbors",
    "affinity.labels_by_radius",
    "affinity.labels_by_class",
    "trainer.train",
    "trainer.train_bit",
    "trainer.weight_matrix",
    "trainer.solve_bit",
    "trainer.accumulate",
    "trainer.optimize_alpha",
    "trainer.empirical_loss",
    "mincut.bit_update",
    "mincut.vector_update",
    "mincut.check_weights",
    "hashing.train_with_hashing",
    "hashing.fit_bit_classifier",
    "hashing.encode",
    "hashing.save_model",
    "hashing.load_model",
    "index.pack",
    "index.save_codes",
    "index.load_codes",
    "index.query_knn",
    "index.query_radius",
    "index.pair_hamming",
    "evalbench.precision_recall",
    "evalbench.auc",
    "evalbench.joint_histogram",
]
KEEP_RESULTS = {
    "affinity.labels_by_radius",
    "affinity.labels_by_class",
    "mincut.bit_update",
    "mincut.vector_update",
    "hashing.fit_bit_classifier",
    "index.query_radius",
}


@dataclass
class Pass:
    """Timings and outputs of one pass over a workload."""

    setup_samples: list[float] = field(default_factory=list)
    build_s: float = 0.0
    use_samples: list[float] = field(default_factory=list)
    build_times: dict = field(default_factory=dict)
    use_times: dict = field(default_factory=dict)
    build_info: dict = field(default_factory=dict)
    last_use: dict = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return statistics.median(self.setup_samples)

    @property
    def use_s(self) -> float:
        return statistics.median(self.use_samples)

    @property
    def pass_s(self) -> float:
        """One set-up, the build and one use: the time the tracer is judged on."""
        return self.setup_s + self.build_s + self.use_s


def run_pass(workload, seed: int, seconds: float, tmp: Path, checks, tracer=None, like: Pass | None = None) -> Pass:
    """Set up, build and use one workload; `like` fixes the repeat counts to another pass's."""
    clock = time.perf_counter

    def phase(name):
        if tracer is not None:
            tracer.phase = name

    run = Pass()
    while True:
        phase("setup")
        t0 = clock()
        inp = workload.setup(seed, tmp)
        run.setup_samples.append(clock() - t0)
        n = len(run.setup_samples)
        if like is not None:
            if n >= len(like.setup_samples):
                break
        elif n >= SETUP_MAX or (n >= SETUP_MIN and sum(run.setup_samples) >= SETUP_MIN_S):
            break
    if hasattr(workload, "check_setup"):
        phase("check")
        workload.check_setup(inp, checks, tmp)

    phase("build")
    t0 = clock()
    built = workload.build(inp, tmp, run.build_times)
    run.build_s = clock() - t0
    phase("check")
    run.build_info = workload.check_build(inp, built, checks, tmp)

    first = None
    while True:
        phase("use")
        times = {}
        t0 = clock()
        used = workload.use(inp, built, times)
        run.use_samples.append(clock() - t0)
        phase("check")
        workload.check_use(inp, built, used, checks, first)
        first = first or used
        run.use_times, run.last_use = times, used
        n, spent = len(run.use_samples), sum(run.use_samples)
        if like is not None:
            if n >= len(like.use_samples):
                break
        elif n >= USE_MAX or (spent >= USE_MIN_S and run.build_s + spent + run.use_samples[-1] > seconds):
            break
    phase(None)
    return run


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced pass


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return (s[-1] if s else 0.0), 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def layer_metrics(stats: dict, tracer, traced: Pass, plain: Pass, named: dict, checks) -> dict:
    """Per-layer metrics, per pass: one set-up, the build and one use."""

    def total(*names):
        return sum(stats[n].total_s for n in names if n in stats)

    def calls(*names):
        return sum(stats[n].calls for n in names if n in stats)

    def results(*names):
        return [r for n in names if n in stats for r in stats[n].results]

    def mean(values):
        return float(statistics.fmean(values)) if values else 0.0

    def ms(name, pick):
        d = stats[name].durations if name in stats else []
        return 1e3 * pick(d) if d else 0.0

    labels = results("affinity.labels_by_radius", "affinity.labels_by_class")
    updates = [rep for _, rep in results("mincut.bit_update", "mincut.vector_update")]
    fits = results("hashing.fit_bit_classifier")
    restarts = calls("mincut.bit_update", "mincut.vector_update")
    train = stats.get("hashing.train_with_hashing")
    return {
        "affinity.labels_s": (total("affinity.labels_by_radius", "affinity.labels_by_class"), "s"),
        "affinity.near_frac": (
            sum(x.near_count for x in labels) / sum(x.num_pairs for x in labels) if labels else 0.0,
            "ratio",
        ),
        "trainer.weight_matrix_s": (total("trainer.weight_matrix"), "s"),
        "trainer.optimize_alpha_s": (total("trainer.optimize_alpha"), "s"),
        "trainer.empirical_loss_s": (total("trainer.empirical_loss"), "s"),
        "trainer.accumulate_s": (total("trainer.accumulate"), "s"),
        "trainer.bits": (calls("trainer.accumulate"), "count"),
        "mincut.solve_bit_s": (total("trainer.solve_bit"), "s"),
        "mincut.update_s": (total("mincut.bit_update", "mincut.vector_update") / restarts if restarts else 0.0, "s"),
        "mincut.check_weights_s": (total("mincut.check_weights"), "s"),
        "mincut.restarts": (restarts, "count"),
        "mincut.sweeps": (sum(r.iterations for r in updates), "count"),
        "mincut.converged_frac": (mean([float(r.converged) for r in updates]), "ratio"),
        "hashing.fit_s": (total("hashing.fit_bit_classifier"), "s"),
        "hashing.fit_iterations": (mean([f.iterations for f in fits]), "count"),
        "hashing.fit_converged_frac": (mean([float(f.converged) for f in fits]), "ratio"),
        "hashing.fit_accuracy_mean": (mean([f.accuracy for f in fits]), "ratio"),
        "hashing.train_self_s": (train.self_s if train else 0.0, "s"),
        "hashing.encode_s": (total("hashing.encode"), "s"),
        "hashing.save_model_s": (total("hashing.save_model"), "s"),
        "hashing.load_model_s": (total("hashing.load_model"), "s"),
        "index.pack_s": (total("index.pack"), "s"),
        "index.save_codes_s": (total("index.save_codes"), "s"),
        "index.load_codes_s": (total("index.load_codes"), "s"),
        "index.query_knn_ms_p50": (ms("index.query_knn", statistics.median), "ms"),
        "index.query_knn_ms_tail": (ms("index.query_knn", lambda d: tail(d)[0]), "ms"),
        "index.query_radius_ms_p50": (ms("index.query_radius", statistics.median), "ms"),
        "index.query_radius_ms_tail": (ms("index.query_radius", lambda d: tail(d)[0]), "ms"),
        "index.radius_hits_mean": (mean([r.size for r in results("index.query_radius")]), "count"),
        "index.pair_hamming_s": (total("index.pair_hamming"), "s"),
        "evalbench.precision_recall_s": (total("evalbench.precision_recall"), "s"),
        "evalbench.auc_s": (total("evalbench.auc"), "s"),
        "evalbench.joint_histogram_s": (total("evalbench.joint_histogram"), "s"),
        "auc_heldout": (named.get("auc_heldout", (0.0, ""))[0], "auc"),
        "empirical_loss": (named.get("empirical_loss", (0, ""))[0], "pairs"),
        "error_rate": (len(checks.failures) / checks.attempted, "ratio"),
        "trace.overhead_frac": (traced.pass_s / plain.pass_s - 1.0, "ratio"),
        "trace.absent_layers": (len(tracer.absent), "count"),
    }


# ---------------------------------------------------------------------------
# Environment record


def git_commit() -> str | None:
    """HEAD of the repository holding this file, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the library sources, which names the code even outside git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "ppc").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_threads(numpy) -> int | None:
    """Thread count OpenBLAS reports, when numpy's bundled OpenBLAS is found."""
    for lib in sorted((Path(numpy.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "blas_threads": blas_threads(numpy),
    }


def baseline_match(workload: str, seed: int, hashes: dict) -> bool | None:
    """Whether artifact hashes equal the recorded baseline for this seed (None: none recorded)."""
    recorded = json.loads((HERE / "baseline_hashes.json").read_text()).get(workload, {}).get(str(seed))
    return None if recorded is None else recorded == hashes


def as_metrics(pairs: dict) -> dict:
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in pairs.items()}


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the ppc library on one workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="budget for build plus repeated uses")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ppc" / "__init__.py").is_file():
        print(f"perfbench: no ppc sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import Tracer
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    checks = Checks()
    report = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "env": environment(args.seed)}

    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=Path.cwd()) as tmp:
        plain = run_pass(workload, args.seed, args.seconds, Path(tmp), checks)
        if args.trace:
            tracer = Tracer({name: "ppc." + name.replace(".", ":", 1) for name in TRACED}, KEEP_RESULTS)
            with tracer:
                traced = run_pass(workload, args.seed, args.seconds, Path(tmp), checks, tracer, like=plain)
            checks.op("traced pass reproduces the artifacts", traced.build_info["hashes"] == plain.build_info["hashes"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    named = workload.named_metrics(plain)
    named["peak_rss_mb"] = (peak_rss_mb, "MB")
    named["error_rate"] = (len(checks.failures) / checks.attempted, "ratio")
    hashes = plain.build_info["hashes"]
    report.update(
        metrics=as_metrics(named),
        setup_samples_s=plain.setup_samples,
        build_s=plain.build_s,
        use_samples_s=plain.use_samples,
        hashes=hashes,
        hashes_match_baseline=baseline_match(args.workload, args.seed, hashes),
        failed_checks=sorted(set(checks.failures)),
    )
    if args.trace:
        repeats = {"setup": len(traced.setup_samples), "build": 1, "use": len(traced.use_samples)}
        stats = tracer.stats(repeats)
        metrics = layer_metrics(stats, tracer, traced, plain, workload.named_metrics(traced), checks)
        report["layers"] = {
            name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s} for name, s in stats.items() if s.durations
        }
        report["absent_layers"] = tracer.absent
        report["query_tail_percentile"] = tail(stats["index.query_knn"].durations)[1] if "index.query_knn" in stats else None
    else:
        metrics = {
            "setup_s": (plain.setup_s, "s"),
            "build_s": (plain.build_s, "s"),
            "use_s": (plain.use_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": not checks.failures,
                "attempted": checks.attempted,
                "failed": len(checks.failures),
                "metrics": as_metrics(metrics),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
