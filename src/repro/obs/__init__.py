"""``repro.obs`` -- structured event tracing, metrics, and run reports.

The observability layer for the simulator: a typed event bus threaded
through the protocol core, both cache layers, the interconnect, and the
multi-socket composition; pluggable sinks (JSONL, ring buffer, streaming
per-epoch aggregator); and report rendering for the CLI.  Tracing is off
by default and each emission site is guarded by one ``is None`` test, so
untraced runs stay within noise of the uninstrumented simulator (see
DESIGN.md, "Observability").
"""

from repro.obs.bus import EventBus
from repro.obs.events import Event, EventKind, InvCause
from repro.obs.profiler import PhaseProfiler
from repro.obs.report import load_trace, render_report, summarize
from repro.obs.sinks import (JsonlSink, RingBufferSink,
                             TimeSeriesAggregator, write_timeseries)
from repro.obs.trace import (TraceSession, attach, detach,
                             timeseries_path_for)

__all__ = [
    "Event", "EventBus", "EventKind", "InvCause", "JsonlSink",
    "PhaseProfiler", "RingBufferSink", "TimeSeriesAggregator",
    "TraceSession", "attach", "detach", "load_trace", "render_report",
    "summarize", "timeseries_path_for", "write_timeseries",
]
