"""Atomic file output: readers see the old file or the whole new one."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path: str | Path, mode: str = "w", **kwargs):
    """Open a temporary file beside `path` for writing; publish it on success.

    On a clean exit the temporary file replaces `path` in one rename
    (`os.replace`); if the block raises, it is deleted and `path` keeps
    its old bytes. The file is not fsynced, so this guards against a
    failed or killed writer, not against power loss. Keyword arguments
    go to `open`.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
