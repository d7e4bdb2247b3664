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
toward the lower core index in both), at O(log n) per access.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, List, Optional

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


def _decode_traces(traces):
    """Pre-decode op enums and convert addresses to Python ints.

    The per-access ``OP_BY_CODE[...]``/``int(np.int64)`` conversions are
    hoisted out of the hot loop: ``tolist()`` converts each numpy array
    once, in C.
    """
    ops = [[OP_BY_CODE[code] for code in trace.ops.tolist()]
           for trace in traces]
    addresses = [trace.addresses.tolist() for trace in traces]
    return ops, addresses


def _drive_interleaved(lengths: List[int],
                       issue: Callable[[int, int], int],
                       check: Optional[Callable[[], None]] = None,
                       check_every: int = 0,
                       sample: Optional[Callable[[], None]] = None,
                       sample_every: int = 0,
                       warmup: int = 0,
                       on_warmup: Optional[Callable[[], None]] = None
                       ) -> int:
    """Issue every slot's references in global simulated-time order.

    ``issue(slot, index)`` performs one access and returns the slot's new
    local clock. Returns the number of accesses issued.
    """
    n = len(lengths)
    positions = [0] * n
    heap = [(0, slot) for slot in range(n) if lengths[slot]]
    heapq.heapify(heap)
    heapreplace = heapq.heapreplace
    heappop = heapq.heappop
    step = 0
    while heap:
        if warmup and step == warmup:
            if on_warmup is not None:
                on_warmup()
            # All local clocks restart at zero after the ROI boundary.
            heap = [(0, slot) for slot in range(n)
                    if positions[slot] < lengths[slot]]
            heapq.heapify(heap)
        slot = heap[0][1]
        index = positions[slot]
        clock = issue(slot, index)
        positions[slot] = index + 1
        step += 1
        if index + 1 < lengths[slot]:
            heapreplace(heap, (clock, slot))
        else:
            heappop(heap)
        if check_every and step % check_every == 0:
            check()
        if sample_every and sample is not None and step % sample_every == 0:
            sample()
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
    cycles = stats.cycles

    def issue(core: int, index: int) -> int:
        access(core, ops[core][index], addresses[core][index])
        return cycles[core]

    obs = getattr(system, "obs", None)
    if obs is not None:
        # Tracing enabled: advance the event-bus step clock once per
        # issued access so every event carries its global access index.
        # Built only on this branch; the disabled path keeps the plain
        # closure above untouched.
        plain_issue = issue

        def issue(core: int, index: int,
                  _issue=plain_issue, _obs=obs) -> int:
            _obs.step += 1
            return _issue(core, index)

    def on_warmup() -> None:
        nonlocal cycles
        stats.reset()
        cycles = stats.cycles

    # Gauge sampling observes intermediate states, which are schedule-
    # dependent: the batched kernel retires safe hits of different
    # cores out of global order (final state identical, mid-run states
    # not), so instrumented runs keep the scalar driver.
    kernel = resolve_kernel(system.config)
    if sample_fn is not None:
        kernel = "scalar"

    def drive() -> None:
        sample = (None if sample_fn is None
                  else lambda: sample_fn(system))
        if kernel == "batched":
            from repro.kernel import SlotKernel, drive_batched
            slots = [SlotKernel(core, system.cores[core], stats,
                                system.shadow, system.config.latency,
                                trace.ops, trace.addresses)
                     for core, trace in enumerate(traces)]
            drive_batched(slots, issue,
                          check=system.check_invariants,
                          check_every=check_invariants_every,
                          warmup=warmup, on_warmup=on_warmup, obs=obs)
            return
        _drive_interleaved(
            lengths, issue,
            check=system.check_invariants,
            check_every=check_invariants_every,
            sample=sample,
            sample_every=sample_every,
            warmup=warmup, on_warmup=on_warmup)

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
    its core's clock within its socket's stats.
    """
    per_socket = system.config.n_cores
    traces = workload.traces
    n = len(traces)
    if n > per_socket * system.n_sockets:
        raise ValueError("workload larger than the multi-socket system")
    lengths = [len(trace) for trace in traces]
    ops, addresses = _decode_traces(traces)
    homes = [divmod(slot, per_socket) for slot in range(n)]
    sockets = system.sockets
    access = system.access

    def issue(slot: int, index: int) -> int:
        socket, core = homes[slot]
        access(socket, core, ops[slot][index], addresses[slot][index])
        return sockets[socket].stats.cycles[core]

    if resolve_kernel(system.config) == "batched":
        from repro.kernel import SlotKernel, drive_batched
        slots = []
        for slot, trace in enumerate(traces):
            socket, core = homes[slot]
            slots.append(SlotKernel(
                core, sockets[socket].cores[core],
                sockets[socket].stats, sockets[socket].shadow,
                system.config.latency, trace.ops, trace.addresses))
        drive_batched(slots, issue,
                      check=system.check_invariants,
                      check_every=check_invariants_every)
    else:
        _drive_interleaved(lengths, issue,
                           check=system.check_invariants,
                           check_every=check_invariants_every)
    if check_invariants_every:
        system.check_invariants()
    return system.stats
