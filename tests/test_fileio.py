"""Atomic artifact writes: a write that fails leaves the old file as it was."""

import os

import numpy as np
import pytest

from ppc import cli, fileio
from ppc.fileio import atomic_write
from ppc.hashing import HashModel, KernelClassifier, save_model
from ppc.index import pack, save_codes

OLD = b"old bytes\n"


def _model():
    clf = KernelClassifier(np.zeros((1, 2)), np.zeros(1), 1.0, 1.0)
    return HashModel([clf], alpha=0.0, p=1)


def _old_file(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(OLD)
    return path


def _assert_untouched(path):
    assert path.read_bytes() == OLD
    assert os.listdir(path.parent) == [path.name]  # no temporary file left


class TestAtomicWrite:
    def test_clean_exit_replaces_file(self, tmp_path):
        path = _old_file(tmp_path, "out.txt")
        with atomic_write(path, encoding="utf-8") as fh:
            fh.write("new")
        assert path.read_text(encoding="utf-8") == "new"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_error_in_block_keeps_old_file(self, tmp_path):
        path = _old_file(tmp_path, "out.txt")
        with pytest.raises(RuntimeError):
            with atomic_write(path, "wb") as fh:
                fh.write(b"partial")
                raise RuntimeError("mid-write")
        _assert_untouched(path)

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: save_model(_model(), path),
            lambda path: save_codes(pack(np.ones((3, 4), dtype=np.int8)), path),
        ],
        ids=["save_model", "save_codes"],
    )
    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch, write):
        def fail(src, dst):
            raise OSError("replace failed")

        path = _old_file(tmp_path, "artifact")
        monkeypatch.setattr(fileio.os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            write(path)
        _assert_untouched(path)


def test_save_codes_failing_mid_payload_keeps_old_file(tmp_path):
    # the header and words are written before the bad id table raises
    packed = pack(np.ones((3, 2), dtype=np.int8), ids=np.array(["a", "b"], dtype=object))
    path = _old_file(tmp_path, "codes.ppcb")
    with pytest.raises(ValueError):
        save_codes(packed, path)
    _assert_untouched(path)


def test_train_log_failing_mid_write_keeps_old_log(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data.csv"
    assert cli.main(["synth", "--n", "40", "--seed", "3", "--classes", "2", "--dim", "2",
                     "--out", str(data)]) == 0
    log = tmp_path / "old.log.jsonl"
    log.write_bytes(OLD)
    real = cli.bit_log_records
    # the first record is written, the second cannot be serialized
    monkeypatch.setattr(cli, "bit_log_records", lambda state: real(state)[:1] + [{"bit": object()}])
    rc = cli.main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"),
                   "--log", str(log), "--bits", "2", "--seed", "1", "--affinity", "class"])
    assert rc == 1
    assert "TypeError" in capsys.readouterr().err
    assert log.read_bytes() == OLD
    assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]
