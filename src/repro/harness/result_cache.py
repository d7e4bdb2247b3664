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
* an optional persistent tier, a
  :class:`~repro.service.store.DiskResultStore` directory
  (``REPRO_CACHE_DIR``, or the fleet-shared ``REPRO_STORE``), that
  persists detached :class:`~repro.harness.runner.RunResult` payloads
  across sessions and across users submitting through
  :mod:`repro.service`.
"""

from __future__ import annotations

import enum
import hashlib
import os
import warnings
from dataclasses import fields, is_dataclass
from typing import Dict, Optional

from repro.common.config import SystemConfig, resolve_kernel
from repro.harness.runner import RunResult
from repro.service.store import DiskResultStore, store_from_env
from repro.workloads.trace import Workload

_CACHE_DIR_ENV = "REPRO_CACHE_DIR"


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
    """Memoizes detached run results in memory and optionally in a
    persistent :class:`~repro.service.store.DiskResultStore`.

    ``directory`` keeps the historical constructor: it opens the store
    in that directory. ``store`` accepts an open store directly (the
    service passes its shared store here).
    """

    def __init__(self, directory: Optional[os.PathLike] = None,
                 store: Optional[DiskResultStore] = None) -> None:
        if store is None and directory is not None:
            store = DiskResultStore(directory)
        self._memo: Dict[str, RunResult] = {}
        self.store = store
        self.directory = store.directory if store is not None else None
        self.hits = 0
        self.misses = 0
        #: Store publishes dropped by OSError (disk full, permissions).
        #: The in-memory tier still memoizes; a nonzero count means the
        #: campaign is running without cross-session persistence.
        self.dropped_puts = 0
        self._warned_dropped = False

    def __len__(self) -> int:
        return len(self._memo)

    def get(self, key: str) -> Optional[RunResult]:
        result = self._memo.get(key)
        if result is None and self.store is not None:
            result = self.store.get(key)
            if not isinstance(result, RunResult):
                # A damaged entry can decode "successfully" into the
                # wrong object; treat that as a miss too.
                result = None
            else:
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
        if self.store is not None:
            try:
                self.store.put(key, detached)
            except OSError as exc:
                # A full or read-only disk must not kill the
                # campaign, but it must not be silent either: without
                # store publishes every future session re-simulates
                # from scratch.
                self.dropped_puts += 1
                if not self._warned_dropped:
                    self._warned_dropped = True
                    warnings.warn(
                        f"result cache cannot write to "
                        f"{self.store.describe()}: {exc!r}; persistent "
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
    """The persistent-store directory the environment selects."""
    store = os.environ.get("REPRO_STORE")
    if store and store.strip():
        return store.strip()
    return os.environ.get(_CACHE_DIR_ENV) or None


def session_cache() -> ResultCache:
    """The process-wide cache.

    Persistent iff the environment names a directory: ``REPRO_STORE``
    takes precedence over the historical ``REPRO_CACHE_DIR``.
    """
    global _session, _session_spec
    spec = _env_spec()
    if _session is None or _session_spec != spec:
        store = store_from_env()
        if store is None and spec is not None:
            _session = ResultCache(spec)
        else:
            _session = ResultCache(store=store)
        _session_spec = spec
    return _session


def reset_session_cache() -> None:
    """Drop the process-wide cache (tests, scale changes mid-process)."""
    global _session, _session_spec
    _session = None
    _session_spec = None
