"""Smoke runs of the analysis scripts on tiny inputs."""

import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_ablation_loss_vs_bits(tmp_path):
    script = _script("ablation_loss_vs_bits")
    out = tmp_path / "ablation.csv"
    argv = ["--n", "40", "--dim", "2", "--bits", "2", "--blob-counts", "2", "3",
            "--seeds", "1", "2", "--updates", "bit", "vector", "--out", str(out)]
    assert script.main(argv) == 0
    header, *rows = _rows(out)
    assert header == ["dataset", "blobs", "init", "update", "seed", "bit", "alpha", "empirical", "relaxed"]
    # seeded inits run every seed, spectral inits the first only; one row per bit
    runs_per_update = sum(2 if init in ("random", "random-projection") else 1 for init in script.INITS)
    assert len(rows) == 2 * runs_per_update * 2 * 2
    assert {row[5] for row in rows} == {"1", "2"}


def test_joint_histogram_demo(tmp_path, capsys):
    out = tmp_path / "hist.csv"
    assert _script("joint_histogram_demo").main(["--n", "40", "--bits", "2", "--bins", "5",
                                                  "--out", str(out)]) == 0
    header, *rows = _rows(out)
    assert header == ["dist_bin", "hamming", "count", "log_count"]
    # one row per (distance bin, code distance 0, 2, 4)
    assert len(rows) == 5 * 3
    assert sum(int(row[2]) for row in rows) == 40 * 39 // 2
    assert f"wrote {out}" in capsys.readouterr().out

