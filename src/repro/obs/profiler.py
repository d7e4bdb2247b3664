"""Wall-clock phase profiling for the runner.

:class:`PhaseProfiler` accumulates wall seconds per named phase; the
runner brackets its phases (the drive loop, which decodes the traces a
chunk at a time, and the final invariant sweep) with :meth:`phase` when
a profiler is passed in.  The disabled path costs nothing:
``run_workload`` only enters the context managers when a profiler is
supplied.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict


class PhaseProfiler:
    """Accumulates wall-clock seconds per named runner phase."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    @contextmanager
    def phase(self, name: str):
        started = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - started
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
            self.calls[name] = self.calls.get(name, 0) + 1

    def to_dict(self) -> Dict[str, float]:
        return {name: round(value, 6)
                for name, value in sorted(self.seconds.items())}

    def render(self) -> str:
        if not self.seconds:
            return "(no phases recorded)"
        total = sum(self.seconds.values()) or 1.0
        width = max(len(name) for name in self.seconds)
        lines = [f"  {'phase':<{width}} {'seconds':>10} {'share':>7}"]
        for name, value in sorted(self.seconds.items(),
                                  key=lambda item: -item[1]):
            lines.append(f"  {name:<{width}} {value:>10.4f} "
                         f"{value / total:>6.1%}")
        return "\n".join(lines)
