"""Drive a workload through a simulated socket.

The runner interleaves the per-core streams by simulated time: at each
step the core with the smallest local clock issues its next reference.
This gives a deterministic, contention-realistic global order without a
cycle-by-cycle event loop.

Scheduling is implemented once, in :func:`_drive_interleaved`, and shared
by the single-socket and multi-socket entry points. The ready set is a
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
    stats alone (see :mod:`repro.harness.parallel`).
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


def run_workload(system: CMPSystem, workload: Workload,
                 check_invariants_every: int = 0,
                 sample_every: int = 0,
                 sample_fn: Optional[Callable[[CMPSystem], None]] = None,
                 warmup: int = 0,
                 profiler=None) -> RunResult:
    """Run ``workload`` to completion on ``system``.

    ``check_invariants_every`` triggers a full invariant sweep every N
    accesses (tests); ``sample_every``/``sample_fn`` support periodic
    probes such as the directory-occupancy measurement of Figure 5;
    ``warmup`` executes that many accesses to warm the caches and then
    resets all statistics (the region-of-interest boundary);
    ``profiler`` (a :class:`repro.obs.PhaseProfiler`) times the decode /
    drive / final-check phases.
    """
    traces = workload.traces
    n = len(traces)
    if n > system.config.n_cores:
        raise ValueError(f"workload has {n} traces for "
                         f"{system.config.n_cores} cores")
    lengths = [len(trace) for trace in traces]
    if warmup >= sum(lengths):
        raise ValueError("warm-up longer than the workload")
    started = perf_counter()
    if profiler is not None:
        with profiler.phase("decode"):
            ops, addresses = _decode_traces(traces)
    else:
        ops, addresses = _decode_traces(traces)
    access = system.access
    stats = system.stats
    obs = getattr(system, "obs", None)

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

            def issue(core: int, index: int) -> int:
                if obs is not None:
                    obs.step += 1
                access(core, ops[core][index], addresses[core][index])
                return stats.cycles[core]

            slots = [SlotKernel(core, system.cores[core], stats,
                                system.shadow, system.config.latency,
                                trace.ops, trace.addresses)
                     for core, trace in enumerate(traces)]
            drive_batched(slots, issue,
                          check=system.check_invariants,
                          check_every=check_invariants_every,
                          warmup=warmup, on_warmup=stats.reset, obs=obs)
            return
        _drive_interleaved(
            [(access, core, stats, ops[core], addresses[core])
             for core in range(n)],
            check=system.check_invariants,
            check_every=check_invariants_every,
            sample=(None if sample_fn is None
                    else lambda: sample_fn(system)),
            sample_every=sample_every,
            warmup=warmup, on_warmup=stats.reset, obs=obs)

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


def run_multisocket_workload(system, workload: Workload,
                             check_invariants_every: int = 0):
    """Run a workload across every core of a multi-socket system.

    Trace ``i`` maps to socket ``i // cores_per_socket``, core
    ``i % cores_per_socket``. Returns the per-socket stats list. Shares
    the scheduling engine with :func:`run_workload`; each slot's clock is
    its core's clock within its socket's stats.  When a bus is attached
    (``attach_multisocket``) its ``step`` advances once per access, as
    in :func:`run_workload`.
    """
    per_socket = system.config.n_cores
    traces = workload.traces
    n = len(traces)
    if n > per_socket * system.n_sockets:
        raise ValueError("workload larger than the multi-socket system")
    started = perf_counter()
    ops, addresses = _decode_traces(traces)
    homes = [divmod(slot, per_socket) for slot in range(n)]
    sockets = system.sockets
    obs = getattr(system, "obs", None)

    if resolve_kernel(system.config) == "batched":
        from repro.kernel import SlotKernel, drive_batched
        access = system.access

        def issue(slot: int, index: int) -> int:
            if obs is not None:
                obs.step += 1
            socket, core = homes[slot]
            access(socket, core, ops[slot][index], addresses[slot][index])
            return sockets[socket].stats.cycles[core]

        slots = []
        for slot, trace in enumerate(traces):
            socket, core = homes[slot]
            slots.append(SlotKernel(
                core, sockets[socket].cores[core],
                sockets[socket].stats, sockets[socket].shadow,
                system.config.latency, trace.ops, trace.addresses))
        drive_batched(slots, issue,
                      check=system.check_invariants,
                      check_every=check_invariants_every, obs=obs)
    else:
        _drive_interleaved(
            [(sockets[socket].access, core, sockets[socket].stats,
              ops[slot], addresses[slot])
             for slot, (socket, core) in enumerate(homes)],
            check=system.check_invariants,
            check_every=check_invariants_every, obs=obs)
    if check_invariants_every:
        system.check_invariants()
    # Counted here because no multi-socket run goes through run_many
    # (which imports this module, hence the late import).
    from repro.harness.parallel import record_runs
    record_runs(1, perf_counter() - started,
                sum(stats.total_accesses for stats in system.stats))
    return system.stats
