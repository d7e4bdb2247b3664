"""Atomic file publication for result artifacts.

Benchmark archives (``results/*.json`` / ``*.txt``), trace time series,
and trajectory files are written with write-temp-then-rename so an
interrupted run never leaves a truncated file behind -- the same
discipline the on-disk result cache uses for its pickles.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_text(path, text: str, encoding: str = "utf-8") -> Path:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    The file gets the mode a plain ``open(path, "w")`` would give it;
    ``mkstemp`` creates the temp file readable by its owner only.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp = tempfile.mkstemp(dir=path.parent,
                                prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
        # The umask is read by setting it: a restrictive value holds
        # for the instant before the old one is put back.
        umask = os.umask(0o077)
        os.umask(umask)
        os.chmod(temp, 0o666 & ~umask)
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise
    return path
