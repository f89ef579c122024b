"""End-user command surface: artifacts, determinism, exit codes."""

import json

import numpy as np
import pytest

from ppc.cli import ConfigError, load_run_config, main
from ppc.index import load_codes
from ppc.mincut import exhaustive_maxcut


@pytest.fixture
def blob_csv(tmp_path):
    path = tmp_path / "data.csv"
    assert main(["synth", "--n", "60", "--seed", "3", "--classes", "3", "--dim", "2",
                 "--out", str(path)]) == 0
    return path


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = load_run_config(None, {})
        cfg.train_config()
        cfg.kernel_config()

    def test_json_merge_and_override(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 9, "bits": 4, "affinity": {"mode": "class"}}))
        cfg = load_run_config(str(path), {"seed": 11})
        assert cfg.seed == 11 and cfg.bits == 4

    def test_unknown_top_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ConfigError, match="bogus"):
            load_run_config(str(path), {})

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kernel": {"gamma": 0.1}}))
        with pytest.raises(ConfigError, match="kernel.gamma"):
            load_run_config(str(path), {})

    def test_radius_mode_needs_radius(self):
        with pytest.raises(ConfigError):
            load_run_config(None, {"affinity_mode": "radius"})


class TestSynth:
    def test_uniform_2d(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["synth", "--n", "30", "--seed", "1", "--out", str(out)]) == 0
        from ppc.affinity import load_dataset

        data = load_dataset(out)
        assert data.n == 30 and data.d == 2
        assert np.all(np.abs(data.features) <= 0.5)


class TestTrainEncodeQueryEval:
    def test_full_pipeline(self, tmp_path, blob_csv, capsys):
        model = tmp_path / "model.json"
        rc = main([
            "train", "--data", str(blob_csv), "--out", str(model),
            "--bits", "6", "--seed", "1", "--affinity", "class",
        ])
        assert rc == 0
        codes_path = model.with_suffix(".ppcb")
        log_path = model.with_suffix(".log.jsonl")
        assert model.exists() and codes_path.exists() and log_path.exists()

        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        packed = load_codes(codes_path)
        assert len(records) == packed.p
        assert {"bit", "alpha", "beta", "empirical_loss", "relaxed_loss",
                "solver_objective", "iterations"} <= set(records[0])

        enc_out = tmp_path / "enc.ppcb"
        assert main(["encode", "--model", str(model), "--data", str(blob_csv),
                     "--out", str(enc_out)]) == 0
        assert enc_out.read_bytes() == codes_path.read_bytes()

        capsys.readouterr()
        assert main(["query", "--codes", str(codes_path), "--model", str(model),
                     "--data", str(blob_csv), "--k", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 60
        assert lines[0].split()[0] == "0"  # self is its own nearest neighbor

        outdir = tmp_path / "eval"
        assert main(["eval", "--codes", str(codes_path), "--data", str(blob_csv),
                     "--outdir", str(outdir), "--affinity", "class"]) == 0
        assert (outdir / "pr.csv").exists()
        assert (outdir / "auc.csv").exists()
        assert (outdir / "hist.csv").exists()

    def test_determinism_byte_identical(self, tmp_path, blob_csv):
        outs = []
        for tag in ("a", "b"):
            model = tmp_path / f"m_{tag}.json"
            assert main([
                "train", "--data", str(blob_csv), "--out", str(model),
                "--bits", "5", "--seed", "42", "--affinity", "class",
            ]) == 0
            outs.append(model)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert outs[0].with_suffix(".ppcb").read_bytes() == outs[1].with_suffix(".ppcb").read_bytes()
        assert (
            outs[0].with_suffix(".log.jsonl").read_bytes()
            == outs[1].with_suffix(".log.jsonl").read_bytes()
        )

    def test_radius_affinity_via_avg_neighbors(self, tmp_path):
        data = tmp_path / "d.csv"
        assert main(["synth", "--n", "50", "--seed", "2", "--out", str(data)]) == 0
        model = tmp_path / "m.json"
        rc = main([
            "train", "--data", str(data), "--out", str(model),
            "--bits", "4", "--seed", "1", "--affinity", "radius",
            "--avg-neighbors", "8",
        ])
        assert rc == 0

    def test_dataset_path_from_config(self, tmp_path, blob_csv):
        cfgpath = tmp_path / "c.json"
        cfgpath.write_text(json.dumps({
            "data": str(blob_csv), "bits": 3, "seed": 2,
            "affinity": {"mode": "class"},
        }))
        model = tmp_path / "m.json"
        assert main(["train", "--config", str(cfgpath), "--out", str(model)]) == 0
        assert model.exists()

    def test_missing_dataset_everywhere_is_3(self, tmp_path):
        rc = main(["train", "--out", str(tmp_path / "m.json")])
        assert rc == 3


class TestCut:
    def test_matches_oracle_on_12_nodes(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        W = rng.standard_normal((12, 12))
        W = (W + W.T) / 2.0
        np.fill_diagonal(W, 0.0)
        path = tmp_path / "w.csv"
        np.savetxt(path, W, delimiter=",")
        _, oracle_val = exhaustive_maxcut(W)
        assert main(["cut", "--matrix", str(path), "--update", "bit",
                     "--restarts", "32", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        printed = float(out.splitlines()[0].split()[1])
        assert printed <= oracle_val + 1e-9
        assert printed >= 0.95 * oracle_val - 1e-9

    def test_triples_format(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("0,1,1.0\n1,2,-2.0\n")
        assert main(["cut", "--matrix", str(path), "--update", "bit",
                     "--restarts", "4", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert float(out.splitlines()[0].split()[1]) == 6.0

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_matrix_is_3(self, tmp_path, capsys, entry):
        path = tmp_path / "w.csv"
        path.write_text(f"0,1,2\n1,0,{entry}\n2,{entry},0\n")
        assert main(["cut", "--matrix", str(path), "--seed", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "non-finite" in captured.err

    def test_vector_update_scheme(self, tmp_path, capsys):
        path = tmp_path / "w.csv"
        path.write_text("0,1\n1,0\n")
        assert main(["cut", "--matrix", str(path), "--update", "vector",
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert float(out.splitlines()[0].split()[1]) == 2.0


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train"])  # missing required flags
        assert exc.value.code == 2

    def test_validation_error_is_3(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "missing.csv"),
                   "--out", str(tmp_path / "m.json")])
        assert rc == 3
        assert capsys.readouterr().err.strip()

    def test_unknown_config_key_is_3(self, tmp_path, blob_csv, capsys):
        cfgpath = tmp_path / "c.json"
        cfgpath.write_text('{"nope": 1}')
        rc = main(["train", "--data", str(blob_csv), "--out", str(tmp_path / "m.json"),
                   "--config", str(cfgpath)])
        assert rc == 3

    @pytest.mark.parametrize("tol", ["-1", "NaN"])
    def test_bad_kernel_tol_is_3(self, tmp_path, blob_csv, capsys, tol):
        cfgpath = tmp_path / "c.json"
        cfgpath.write_text('{"kernel": {"tol": %s}}' % tol)
        rc = main(["train", "--data", str(blob_csv), "--out", str(tmp_path / "m.json"),
                   "--config", str(cfgpath)])
        assert rc == 3
        assert "tol" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("ridge", "NaN"), ("ridge", "Infinity"),
                                           ("bandwidth", "NaN"), ("bandwidth", "-Infinity")])
    def test_non_finite_kernel_setting_is_3(self, tmp_path, blob_csv, capsys, key, value):
        cfgpath = tmp_path / "c.json"
        cfgpath.write_text('{"kernel": {"%s": %s}}' % (key, value))
        rc = main(["train", "--data", str(blob_csv), "--out", str(tmp_path / "m.json"),
                   "--config", str(cfgpath)])
        assert rc == 3
        assert key in capsys.readouterr().err

    @pytest.fixture
    def trained(self, tmp_path, blob_csv, capsys):
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(blob_csv), "--out", str(model),
                     "--bits", "3", "--seed", "1", "--affinity", "class"]) == 0
        capsys.readouterr()
        return model

    def _one_line_error(self, capsys):
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert captured.out == "" and len(err.splitlines()) == 1
        return err

    def test_model_without_bits_is_3(self, tmp_path, blob_csv, capsys, trained):
        doc = json.loads(trained.read_text())
        del doc["bits"]
        trained.write_text(json.dumps(doc))
        rc = main(["encode", "--model", str(trained), "--data", str(blob_csv),
                   "--out", str(tmp_path / "e.ppcb")])
        assert rc == 3
        err = self._one_line_error(capsys)
        assert str(trained) in err and "'bits' is missing" in err
        rc = main(["query", "--codes", str(trained.with_suffix(".ppcb")), "--model", str(trained),
                   "--data", str(blob_csv), "--k", "2"])
        assert rc == 3
        assert "'bits' is missing" in self._one_line_error(capsys)

    @pytest.mark.parametrize("keep", [10, 30])  # inside the header, inside the payload
    def test_truncated_codes_is_3(self, blob_csv, capsys, trained, keep):
        codes = trained.with_suffix(".ppcb")
        codes.write_bytes(codes.read_bytes()[:keep])
        rc = main(["query", "--codes", str(codes), "--model", str(trained),
                   "--data", str(blob_csv), "--alpha", "2"])
        assert rc == 3
        err = self._one_line_error(capsys)
        assert str(codes) in err and "truncated" in err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--k", "0"], "--k must be at least 1"),
            (["--k", "-3"], "--k must be at least 1"),
            (["--alpha", "2", "--k", "3"], "pass --alpha or --k, not both"),
        ],
    )
    def test_bad_query_flags_are_3(self, tmp_path, blob_csv, capsys, flags, message):
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(blob_csv), "--out", str(model),
                     "--bits", "3", "--seed", "1", "--affinity", "class"]) == 0
        capsys.readouterr()
        rc = main(["query", "--codes", str(model.with_suffix(".ppcb")), "--model", str(model),
                   "--data", str(blob_csv), *flags])
        assert rc == 3
        captured = capsys.readouterr()
        err = captured.err.strip()
        assert captured.out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"ppc: {message}")

    def test_runtime_error_is_1(self, tmp_path, blob_csv, capsys):
        # corrupt codes file -> runtime failure inside eval
        bad = tmp_path / "bad.ppcb"
        bad.write_bytes(b"PPCB" + b"\x01\x00\x00\x00" + b"\x00" * 4)
        rc = main(["eval", "--codes", str(bad), "--data", str(blob_csv),
                   "--outdir", str(tmp_path / "out"), "--affinity", "class"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.strip() and len(err.strip().splitlines()) == 1
