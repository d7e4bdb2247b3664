"""The content-addressed result store.

A :class:`DiskResultStore` maps stable string keys (SHA-256 content
hashes computed by the caller -- see
:func:`repro.harness.result_cache.run_key`) to picklable payloads, one
``<key>.pkl`` file per entry: the layout ``REPRO_CACHE_DIR`` has always
used, so existing cache directories keep working unchanged. The
contract is deliberately small:

* ``get`` never raises: a missing, truncated, bit-flipped, or
  wrong-object entry is a miss (``None``), and the caller recomputes --
  the store is a memoization tier, never a source of truth.
* ``put`` publishes atomically (written temp-then-rename, so a reader
  never observes a half-written payload) and raises :class:`OSError`
  on failure, which callers count
  (:attr:`~repro.harness.result_cache.ResultCache.dropped_puts`)
  instead of crashing the campaign.

``REPRO_STORE`` names the directory a worker fleet and the session
cache share (:func:`store_from_env`).
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.common.errors import ConfigError

#: Environment variable naming the shared store directory; takes
#: precedence over ``REPRO_CACHE_DIR``.
STORE_ENV = "REPRO_STORE"


class DiskResultStore:
    """Keyed, atomic, corruption-tolerant payload storage: one
    atomically-published pickle file per key."""

    def __init__(self, directory: os.PathLike) -> None:
        self.directory = Path(directory)

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def get(self, key: str) -> Optional[Any]:
        """The payload for ``key``, or ``None`` (never raises)."""
        try:
            with self.path_for(key).open("rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        try:
            return pickle.loads(blob)
        except Exception:              # noqa: BLE001 - damaged entry
            # Decoding a damaged pickle can raise nearly anything
            # (UnpicklingError, ValueError, EOFError, ...): a miss.
            return None

    def put(self, key: str, payload: Any) -> None:
        """Durably publish ``payload`` under ``key`` (OSError on failure)."""
        temp = None
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, temp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(pickle.dumps(
                    payload, protocol=pickle.HIGHEST_PROTOCOL))
            os.replace(temp, self.path_for(key))
        except OSError:
            if temp is not None:
                try:
                    os.unlink(temp)
                except OSError:
                    pass
            raise

    def keys(self) -> Iterator[str]:
        """Every committed key, sorted."""
        if not self.directory.is_dir():
            return
        for entry in sorted(self.directory.glob("*.pkl")):
            yield entry.stem

    def describe(self) -> str:
        """Human-readable identity for telemetry and error messages."""
        return f"disk:{self.directory}"

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return sum(1 for _key in self.keys())


def store_from_env() -> Optional[DiskResultStore]:
    """The store in the ``REPRO_STORE`` directory, or ``None`` when
    unset."""
    spec = (os.environ.get(STORE_ENV) or "").strip()
    if not spec:
        return None
    if spec.startswith("sqlite:"):
        raise ConfigError(f"{STORE_ENV} must be a directory (the sqlite "
                          f"store was removed), got {spec!r}")
    return DiskResultStore(spec)
