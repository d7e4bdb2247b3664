"""Trace sessions: wire an event bus through a system, run, archive.

:func:`attach` threads one :class:`~repro.obs.bus.EventBus` through every
instrumented component of each socket of ``system.sockets`` (protocol
core, mesh, sparse directory, LLC banks, private hierarchies) and a
multi-socket system's socket layer; :func:`detach` restores the
zero-cost disabled state.  :class:`TraceSession` is the high-level
convenience used by the CLI and by ``run_many(trace_dir=...)``: it owns
the bus and the standard sink set (JSONL file, time-series aggregator),
runs a workload with epoch-boundary gauge sampling, and archives the
aggregated time series next to the JSONL trace.  For a bounded
in-memory trace, subscribe a :class:`~repro.obs.sinks.RingBufferSink`
to ``session.bus``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.obs.bus import EventBus
from repro.obs.profiler import PhaseProfiler
from repro.obs.sinks import (JsonlSink, TimeSeriesAggregator,
                             write_timeseries)


def attach(system, bus: EventBus) -> EventBus:
    """Enable event emission on every layer of ``system``: a
    multi-socket system's socket layer, and each socket's protocol
    core, mesh, sparse directory, LLC banks and private hierarchies."""
    _wire(system, bus)
    return bus


def detach(system) -> None:
    """Restore the zero-cost disabled state."""
    _wire(system, None)


def _wire(system, bus: Optional[EventBus]) -> None:
    system.obs = bus
    for socket in system.sockets:
        socket.obs = bus
        socket.mesh.obs = bus
        if socket.directory is not None:
            socket.directory.obs = bus
        for bank in socket.banks:
            bank.obs = bus
        for hierarchy in socket.cores:
            hierarchy.obs = bus


def timeseries_path_for(jsonl_path) -> Path:
    """Archive path of the time series belonging to a JSONL trace."""
    jsonl_path = Path(jsonl_path)
    return jsonl_path.with_name(jsonl_path.stem + ".timeseries.json")


class TraceSession:
    """Owns the bus and sinks for one traced single-socket run.

    Usage::

        session = TraceSession(system, jsonl=path, epoch=1000)
        result = session.run(workload)
        session.close()      # detaches, flushes, archives the series

    ``close`` is idempotent and also runs on ``__exit__``.
    """

    def __init__(self, system, jsonl=None, epoch: int = 1000) -> None:
        self.system = system
        self.bus = EventBus()
        self.aggregator = TimeSeriesAggregator(epoch)
        self.bus.subscribe(self.aggregator)
        self.profiler = PhaseProfiler()
        self.jsonl: Optional[JsonlSink] = None
        self.timeseries_path: Optional[Path] = None
        if jsonl is not None:
            self.jsonl = JsonlSink(jsonl)
            self.bus.subscribe(self.jsonl)
            self.timeseries_path = timeseries_path_for(jsonl)
        self._closed = False
        attach(system, self.bus)

    # ------------------------------------------------------------------
    def run(self, workload, **run_kwargs):
        """Run ``workload`` on the attached system with gauge sampling."""
        from repro.harness.runner import run_workload
        from repro.common.config import resolve_kernel
        if self.jsonl is not None:
            self.jsonl.write_meta(
                workload=workload.name,
                protocol=self.system.config.protocol.value,
                n_cores=self.system.config.n_cores,
                kernel=resolve_kernel(self.system.config),
                epoch_accesses=self.aggregator.epoch)
        run_kwargs.setdefault("sample_every", self.aggregator.epoch)
        run_kwargs.setdefault("sample_fn", self.aggregator.sample)
        run_kwargs.setdefault("profiler", self.profiler)
        result = run_workload(self.system, workload, **run_kwargs)
        if self.jsonl is not None:
            result.trace_path = str(self.jsonl.path)
        return result

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach, flush sinks, and archive the time series."""
        if self._closed:
            return
        self._closed = True
        detach(self.system)
        if self.timeseries_path is not None:
            from repro.common.config import resolve_kernel
            meta = {"runner_phases": self.profiler.to_dict(),
                    "kernel": resolve_kernel(self.system.config)}
            if self.jsonl is not None:
                meta["trace"] = str(self.jsonl.path)
            write_timeseries(self.timeseries_path, self.aggregator,
                             **meta)
        self.bus.close()

    def __enter__(self) -> "TraceSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
