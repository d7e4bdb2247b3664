"""Drive a workload through a simulated system of one or more sockets.

The runner interleaves the per-core streams by simulated time: at each
step the core with the smallest local clock issues its next reference.
This gives a deterministic, contention-realistic global order without a
cycle-by-cycle event loop.

Scheduling is implemented once, in :func:`_drive_interleaved`, over the
cores of every socket of ``system.sockets`` (a single socket is a
one-socket system; see :func:`run_workload`). The ready set is a
binary heap keyed by ``(local_clock, slot)`` -- because an access only
advances the issuing core's clock, popping the heap minimum selects
exactly the core the previous O(n_cores) linear scan selected (ties break
toward the lower core index in both), at O(log n) per access.  Between
warm-up, check and sample boundaries the loop calls each slot's
``access`` straight from its decoded streams; private hits retire
inside ``CMPSystem.access``.  ``kernel="batched"`` hands the run to
:func:`repro.kernel.drive_batched` instead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, List, Optional

import numpy as np

from repro.coherence.protocol import CMPSystem
from repro.common.config import resolve_kernel
from repro.common.stats import SystemStats
from repro.workloads.trace import OP_BY_CODE, Workload


@dataclass
class RunResult:
    """Outcome of one workload run.

    ``system`` is only populated for in-process serial runs; results that
    crossed a process boundary or came from the result cache carry the
    stats alone (see :mod:`repro.harness.parallel`).  A multi-socket
    run's ``stats`` is its per-socket list.
    """

    workload: str
    stats: SystemStats
    system: Optional[CMPSystem] = None
    wall_seconds: float = 0.0
    cached: bool = False
    trace_path: Optional[str] = None

    @property
    def cycles(self) -> int:
        return self.stats.total_cycles

    @property
    def per_core_cycles(self):
        return list(self.stats.cycles)

    def detached(self) -> "RunResult":
        """A copy without the live system (picklable, cache-friendly)."""
        return RunResult(self.workload, self.stats, None,
                         self.wall_seconds, self.cached, self.trace_path)


#: Op enums by integer code, as an object array: indexing it with a
#: trace's code array maps every op in C.
_OPS = np.array(OP_BY_CODE, dtype=object)


def _decode_traces(traces):
    """Pre-decode op enums and convert addresses to Python ints.

    The per-access ``OP_BY_CODE[...]``/``int(np.int64)`` conversions are
    hoisted out of the hot loop: the op lookup is one NumPy take and
    ``tolist()`` converts each array once, both in C.
    """
    ops = [_OPS[trace.ops].tolist() for trace in traces]
    addresses = [trace.addresses.tolist() for trace in traces]
    return ops, addresses


def _drive_interleaved(slots: List[tuple],
                       check: Optional[Callable[[], None]] = None,
                       check_every: int = 0,
                       sample: Optional[Callable[[], None]] = None,
                       sample_every: int = 0,
                       warmup: int = 0,
                       on_warmup: Optional[Callable[[], None]] = None,
                       obs=None) -> int:
    """Issue every slot's references in global simulated-time order.

    Each slot is ``(access, core, stats, ops, addresses)``: its i-th
    reference is ``access(core, ops[i], addresses[i])``, after which
    its local clock is ``stats.cycles[core]``.  Between warm-up, check
    and sample boundaries the loop calls ``access`` straight from the
    streams, advancing ``obs.step`` first when a bus is given (every
    event then carries its global access index).  Returns the number
    of accesses issued.
    """
    n = len(slots)
    lengths = [len(slot[3]) for slot in slots]
    positions = [0] * n
    heap = [(0, slot) for slot in range(n) if lengths[slot]]
    heapq.heapify(heap)
    heapreplace = heapq.heapreplace
    heappop = heapq.heappop
    if sample is None:
        sample_every = 0
    total = sum(lengths)
    step = 0
    while step < total:
        stop = total
        if warmup > step:
            stop = warmup
        if check_every:
            stop = min(stop, step - step % check_every + check_every)
        if sample_every:
            stop = min(stop, step - step % sample_every + sample_every)
        for _ in range(stop - step):
            slot = heap[0][1]
            access, core, stats, ops, addresses = slots[slot]
            index = positions[slot]
            if obs is not None:
                obs.step += 1
            access(core, ops[index], addresses[index])
            index += 1
            positions[slot] = index
            if index < lengths[slot]:
                heapreplace(heap, (stats.cycles[core], slot))
            else:
                heappop(heap)
        step = stop
        if check_every and step % check_every == 0:
            check()
        if sample_every and step % sample_every == 0:
            sample()
        if warmup and step == warmup:
            if on_warmup is not None:
                on_warmup()
            # All local clocks restart at zero after the ROI boundary.
            heap = [(0, slot) for slot in range(n)
                    if positions[slot] < lengths[slot]]
            heapq.heapify(heap)
    return step


def run_workload(system, workload: Workload,
                 check_invariants_every: int = 0,
                 sample_every: int = 0,
                 sample_fn: Optional[Callable[[CMPSystem], None]] = None,
                 warmup: int = 0,
                 profiler=None) -> RunResult:
    """Run ``workload`` to completion on ``system``.

    ``system`` is one socket or a multi-socket composition: trace ``i``
    runs on core ``i % n_cores`` of socket ``i // n_cores`` of
    ``system.sockets``, and each slot's clock is its core's clock in its
    socket's stats.  ``check_invariants_every`` triggers a full
    invariant sweep every N accesses (tests); ``sample_every``/
    ``sample_fn`` support periodic probes such as the
    directory-occupancy measurement of Figure 5; ``warmup`` executes
    that many accesses to warm the caches and then resets every
    socket's statistics (the region-of-interest boundary); ``profiler``
    (a :class:`repro.obs.PhaseProfiler`) times the decode / drive /
    final-check phases.  The result's ``stats`` is ``system.stats``: a
    per-socket list on a multi-socket system.
    """
    sockets = system.sockets
    per_socket = system.config.n_cores
    traces = workload.traces
    n = len(traces)
    if n > per_socket * len(sockets):
        raise ValueError(f"workload has {n} traces for "
                         f"{per_socket * len(sockets)} cores")
    lengths = [len(trace) for trace in traces]
    if warmup >= sum(lengths):
        raise ValueError("warm-up longer than the workload")
    started = perf_counter()
    if profiler is not None:
        with profiler.phase("decode"):
            ops, addresses = _decode_traces(traces)
    else:
        ops, addresses = _decode_traces(traces)
    homes = [(sockets[slot // per_socket], slot % per_socket)
             for slot in range(n)]
    obs = system.obs

    def reset_stats() -> None:
        for socket in sockets:
            socket.stats.reset()

    # Gauge sampling observes intermediate states, which are schedule-
    # dependent: the batched kernel retires safe hits of different
    # cores out of global order (final state identical, mid-run states
    # not), so instrumented runs keep the scalar driver.
    kernel = resolve_kernel(system.config)
    if sample_fn is not None:
        kernel = "scalar"

    def drive() -> None:
        if kernel == "batched":
            from repro.kernel import SlotKernel, drive_batched

            def issue(slot: int, index: int) -> int:
                if obs is not None:
                    obs.step += 1
                socket, core = homes[slot]
                socket.access(core, ops[slot][index],
                              addresses[slot][index])
                return socket.stats.cycles[core]

            slots = [SlotKernel(core, socket.cores[core], socket.stats,
                                socket.shadow, system.config.latency,
                                trace.ops, trace.addresses)
                     for (socket, core), trace in zip(homes, traces)]
            drive_batched(slots, issue,
                          check=system.check_invariants,
                          check_every=check_invariants_every,
                          warmup=warmup, on_warmup=reset_stats, obs=obs)
            return
        _drive_interleaved(
            [(socket.access, core, socket.stats, ops[slot],
              addresses[slot])
             for slot, (socket, core) in enumerate(homes)],
            check=system.check_invariants,
            check_every=check_invariants_every,
            sample=(None if sample_fn is None
                    else lambda: sample_fn(system)),
            sample_every=sample_every,
            warmup=warmup, on_warmup=reset_stats, obs=obs)

    if profiler is not None:
        with profiler.phase("drive"):
            drive()
    else:
        drive()
    if check_invariants_every:
        if profiler is not None:
            with profiler.phase("final_check"):
                system.check_invariants()
        else:
            system.check_invariants()
    return RunResult(workload.name, system.stats, system,
                     wall_seconds=perf_counter() - started)
