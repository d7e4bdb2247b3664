"""Content-addressed memoization of simulation runs.

A run is fully determined by its inputs: the simulator is deterministic,
so ``(SystemConfig, Workload)`` -> ``SystemStats`` is a pure function.
The cache keys runs by a stable SHA-256 over the canonicalized config
(every dataclass field, enums by name) and the exact trace content
(op-code and address array bytes per core). Workload *names* do not
participate in the key -- two identically generated workloads hit the
same entry even if labelled differently -- and any knob that changes the
run (``REPRO_ACCESSES`` via trace length, ``REPRO_SCALE`` via the config
capacities) changes the key automatically.

Two tiers:

* in-process memoization (always on), so the reference/baseline
  configurations shared by fig17-fig27 are simulated once per session;
* an optional disk tier (``REPRO_CACHE_DIR``) that persists detached
  :class:`~repro.harness.runner.RunResult` payloads across sessions,
  one ``<key>.pkl`` file per run. A disk read never raises: a missing,
  truncated, bit-flipped or wrong-object entry is a miss and the run
  is recomputed. A write is published temp-then-rename, so a reader
  never sees half a payload; a failed write is counted in
  :attr:`ResultCache.dropped_puts` and warned about once.
"""

from __future__ import annotations

import enum
import hashlib
import os
import pickle
import tempfile
import warnings
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Dict, Optional

from repro.common.config import SystemConfig, resolve_kernel
from repro.common.errors import ConfigError
from repro.harness.runner import RunResult
from repro.workloads.trace import Workload

_CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: The retired alias of ``REPRO_CACHE_DIR``.  Any non-blank value is an
#: error that names the replacement, so a setting that no longer does
#: anything cannot go unnoticed.
_RETIRED_ENV = "REPRO_STORE"


def _canonical(value):
    """A stable, hashable-by-repr form of configuration values."""
    if is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,
                tuple((f.name, _canonical(getattr(value, f.name)))
                      for f in fields(value)))
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.name)
    if isinstance(value, dict):
        return tuple(sorted((k, _canonical(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    return value


def run_key(config: SystemConfig, workload: Workload, **extra) -> str:
    """Stable content hash identifying one run.

    The *resolved* access kernel enters the key (on top of the
    ``config.kernel`` field, which the config hash already covers) so a
    ``REPRO_KERNEL`` environment override can never replay a cached
    result produced under the other kernel.
    """
    digest = hashlib.sha256()
    digest.update(repr(_canonical(config)).encode())
    digest.update(resolve_kernel(config).encode())
    digest.update(repr(_canonical(extra)).encode())
    digest.update(str(workload.n_cores).encode())
    for trace in workload.traces:
        digest.update(str(trace.core).encode())
        digest.update(trace.ops.tobytes())
        digest.update(trace.addresses.tobytes())
    return digest.hexdigest()


class ResultCache:
    """Memoizes detached run results in memory and, given a
    ``directory``, on disk."""

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        self._memo: Dict[str, RunResult] = {}
        self.directory = Path(directory) if directory is not None else None
        self.hits = 0
        self.misses = 0
        #: Disk publishes dropped by OSError (disk full, permissions).
        #: The in-memory tier still memoizes; a nonzero count means the
        #: campaign is running without cross-session persistence.
        self.dropped_puts = 0
        self._warned_dropped = False

    def __len__(self) -> int:
        return len(self._memo)

    def _path_for(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def _load(self, key: str) -> Optional[RunResult]:
        """The disk entry for ``key``, or ``None`` (never raises)."""
        try:
            blob = self._path_for(key).read_bytes()
        except OSError:
            return None
        try:
            result = pickle.loads(blob)
        except Exception:              # noqa: BLE001 - damaged entry
            # Decoding a damaged pickle can raise nearly anything
            # (UnpicklingError, ValueError, EOFError, ...): a miss.
            return None
        # A damaged entry can decode "successfully" into the wrong
        # object; treat that as a miss too.
        return result if isinstance(result, RunResult) else None

    def _publish(self, key: str, result: RunResult) -> None:
        """Write ``result`` temp-then-rename (OSError on failure)."""
        temp = None
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, temp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(pickle.dumps(
                    result, protocol=pickle.HIGHEST_PROTOCOL))
            os.replace(temp, self._path_for(key))
        except OSError:
            if temp is not None:
                try:
                    os.unlink(temp)
                except OSError:
                    pass
            raise

    def get(self, key: str) -> Optional[RunResult]:
        result = self._memo.get(key)
        if result is None and self.directory is not None:
            result = self._load(key)
            if result is not None:
                self._memo[key] = result
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        return RunResult(result.workload, result.stats, None,
                         result.wall_seconds, cached=True,
                         trace_path=getattr(result, "trace_path", None))

    def put(self, key: str, result: RunResult) -> None:
        detached = result.detached()
        self._memo[key] = detached
        if self.directory is not None:
            try:
                self._publish(key, detached)
            except OSError as exc:
                # A full or read-only disk must not kill the
                # campaign, but it must not be silent either: without
                # disk publishes every future session re-simulates
                # from scratch.
                self.dropped_puts += 1
                if not self._warned_dropped:
                    self._warned_dropped = True
                    warnings.warn(
                        f"result cache cannot write to "
                        f"{self.directory}: {exc!r}; persistent "
                        f"memoization is disabled for the affected "
                        f"entries (further drops counted in "
                        f"dropped_puts)",
                        RuntimeWarning, stacklevel=2)

    def clear(self) -> None:
        self._memo.clear()
        self.hits = 0
        self.misses = 0
        self.dropped_puts = 0
        self._warned_dropped = False


_session: Optional[ResultCache] = None
_session_spec: Optional[str] = None


def _env_spec() -> Optional[str]:
    """The disk-tier directory the environment selects."""
    retired = (os.environ.get(_RETIRED_ENV) or "").strip()
    if retired:
        raise ConfigError(
            f"{_RETIRED_ENV}={retired!r} is no longer read; name the "
            f"cache directory in {_CACHE_DIR_ENV}")
    return os.environ.get(_CACHE_DIR_ENV) or None


def session_cache() -> ResultCache:
    """The process-wide cache.

    Persistent iff ``REPRO_CACHE_DIR`` names a directory.
    """
    global _session, _session_spec
    spec = _env_spec()
    if _session is None or _session_spec != spec:
        _session = ResultCache(spec)
        _session_spec = spec
    return _session


def reset_session_cache() -> None:
    """Drop the process-wide cache (tests, scale changes mid-process)."""
    global _session, _session_spec
    _session = None
    _session_spec = None
