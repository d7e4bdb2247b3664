"""Host times at a fixed interpreter speed.

Other tenants of a shared host slow this machine's CPUs by up to about
1.9x, in phases that switch within a second and can persist for tens of
seconds; no amount of repetition inside a 25-second run averages that
out.  So the benchmark measures the machine's speed while it measures
the program: a ``SIGPROF`` timer interrupts the process every
``PERIOD_S`` of its CPU time, and the handler times a fixed pure-Python
probe (a warm-up pass, then a timed pass).  A wall-clock interval is
reported as ``wall * PROBE_REF_S / mean(probe times inside it)``: the
seconds it would have taken at the interpreter speed at which the probe
takes ``PROBE_REF_S`` (about the unloaded speed of the machine the
benchmark was written on).  On a quiet machine that speed is constant
and the rescaling is a constant factor.

Forked workers (the fuzz campaign's) restart the timer and send their
probe times back through a pipe, so an interval's mean covers every
process that worked in it.
"""

from __future__ import annotations

import os
import signal
import struct
from time import perf_counter

#: CPU time between two probes.
PERIOD_S = 0.01
#: Probe time at the reference interpreter speed.
PROBE_REF_S = 20e-6

_RECORD = struct.Struct("d")


def _probe() -> dict:
    table = {}
    for i in range(200):
        key = i & 31
        table[key] = table.get(key, 0) + i
    return table


def _time_probe() -> float:
    _probe()
    started = perf_counter()
    _probe()
    return perf_counter() - started


class SpeedMeter:
    """Samples the interpreter's speed while the process (and any
    process it forks) runs."""

    def __init__(self) -> None:
        self.samples = []
        self._pipe = None

    def _sample(self, _signum, _frame) -> None:
        self.samples.append(_time_probe())

    def _sample_in_worker(self, _signum, _frame) -> None:
        try:
            os.write(self._pipe[1], _RECORD.pack(_time_probe()))
        except BlockingIOError:
            pass                       # pipe full: drop the sample

    def _after_fork(self) -> None:
        if self._pipe is None:
            return
        # Most fuzz items finish within one period: probe once at the
        # start so every worker is represented.
        self._sample_in_worker(None, None)
        signal.signal(signal.SIGPROF, self._sample_in_worker)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def start(self) -> None:
        self._pipe = os.pipe()
        for fd in self._pipe:
            os.set_blocking(fd, False)
        os.register_at_fork(after_in_child=self._after_fork)
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        if self._pipe is not None:
            for fd in self._pipe:
                os.close(fd)
            self._pipe = None

    def _drain(self) -> None:
        """Collect the probe times workers have sent so far."""
        if self._pipe is None:
            return
        while True:
            try:
                data = os.read(self._pipe[0], 1 << 16)
            except BlockingIOError:
                return
            if not data:
                return
            # Every record is one write of fewer than PIPE_BUF bytes, so
            # the pipe only ever holds whole records.
            self.samples.extend(value for (value,)
                                in _RECORD.iter_unpack(data))

    def mark(self) -> int:
        """A position to rescale from (see :meth:`rescale`)."""
        self._drain()
        return len(self.samples)

    def rescale(self, wall: float, since: int) -> float:
        """``wall`` at the reference speed, from the probes taken since
        ``since`` (all probes so far if none were)."""
        self._drain()
        window = self.samples[since:] or self.samples
        if not window:
            return wall
        return wall * PROBE_REF_S * len(window) / sum(window)
