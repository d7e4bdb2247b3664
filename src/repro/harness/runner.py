"""Drive a workload through a simulated system of one or more sockets.

The runner interleaves the per-core streams by simulated time: at each
step the core with the smallest local clock issues its next reference.
This gives a deterministic, contention-realistic global order without a
cycle-by-cycle event loop.

Scheduling is implemented once, in :func:`_drive_interleaved`, over the
cores of every socket of ``system.sockets`` (a single socket is a
one-socket system; see :func:`run_workload`).  The ready set is a
binary heap of plain ints, ``clock << slot_bits | slot``: they sort as
the ``(clock, slot)`` pairs they pack, and because an access only
advances the issuing core's clock, popping the minimum selects exactly
the core an O(n_cores) scan for the smallest clock selects (ties break
toward the lower core index in both), at O(log n) per access.

Each slot issues from one C-level iterator: ``chain.from_iterable``
over a generator that decodes :data:`CHUNK` references at a time and
yields ``map(access, repeat(core), ops, addresses)`` for them.  So one
``next`` on the slot's iterator is one ``access`` call, a run holds one
decoded chunk per slot however long its traces are, and the loop keeps
no per-slot position.  A finished slot stays in the heap until it next
reaches the top, where its iterator's ``StopIteration`` drops it.
Between warm-up, check and sample boundaries the loop does one heap
read, one ``next`` and one heap replace per access; private hits
retire inside ``CMPSystem.access``.  A traced run wraps each slot's
``access`` once to advance ``obs.step``.  ``kernel="batched"`` hands
the run to :func:`repro.kernel.drive_batched` instead.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain, repeat
from time import perf_counter
from typing import Callable, Iterator, List, Optional

import numpy as np

from repro.coherence.protocol import CMPSystem
from repro.common.addressing import BLOCK_SHIFT
from repro.common.config import resolve_kernel
from repro.common.stats import SystemStats
from repro.workloads.trace import OP_BY_CODE, Workload


@dataclass
class RunResult:
    """Outcome of one workload run: its statistics, never the live
    system, so a result pickles across processes and into the result
    cache unchanged.  A multi-socket run's ``stats`` is its per-socket
    list."""

    workload: str
    stats: SystemStats
    wall_seconds: float = 0.0
    cached: bool = False
    trace_path: Optional[str] = None

    @property
    def socket_stats(self) -> List[SystemStats]:
        """Each socket's statistics: ``stats`` itself on a multi-socket
        run, else a one-item list."""
        stats = self.stats
        return stats if isinstance(stats, list) else [stats]

    @property
    def cycles(self) -> int:
        """Makespan: the slowest core's clock over every socket."""
        return max(stats.total_cycles for stats in self.socket_stats)

    @property
    def accesses(self) -> int:
        """Accesses simulated, summed over the sockets."""
        return sum(stats.total_accesses for stats in self.socket_stats)

    @property
    def per_core_cycles(self) -> List[int]:
        """Every core's clock, socket by socket."""
        return [cycles for stats in self.socket_stats
                for cycles in stats.cycles]


#: Op enums by integer code, as an object array: indexing it with a
#: trace's code array maps every op in C.
_OPS = np.array(OP_BY_CODE, dtype=object)

#: References a slot decodes at a time.  A chunk is one NumPy take of
#: the op enums and two ``tolist()`` calls, all in C; the slot's
#: iterator resumes its generator once per chunk, and holding one
#: chunk per slot instead of its whole trace keeps a run's memory
#: independent of its length.
CHUNK = 1024


def _accesses(access: Callable, core: int, codes: np.ndarray,
              addresses: np.ndarray) -> Iterator[Iterator]:
    """One slot's accesses, a chunk at a time: each item is a lazy
    ``map`` whose every step is one ``access(core, op, address)``."""
    for start in range(0, len(codes), CHUNK):
        stop = start + CHUNK
        yield map(access, repeat(core), _OPS[codes[start:stop]].tolist(),
                  addresses[start:stop].tolist())


def _stepping(access: Callable, obs) -> Callable:
    """``access`` advancing the bus step first, so every event carries
    its global access index."""
    def stepped(core, op, address):
        obs.step += 1
        return access(core, op, address)
    return stepped


def _issue_live(heap: List[int], streams: List[Iterator], mask: int) -> int:
    """The slot on top of ``heap`` has finished: pop it, and every
    finished slot that surfaces after it, then issue the first live
    slot's next access and return that slot."""
    while True:
        heapq.heappop(heap)
        slot = heap[0] & mask
        try:
            next(streams[slot])
            return slot
        except StopIteration:
            pass


def _drive_interleaved(slots: List[tuple],
                       check: Optional[Callable[[], None]] = None,
                       check_every: int = 0,
                       sample: Optional[Callable[[], None]] = None,
                       sample_every: int = 0,
                       warmup: int = 0,
                       on_warmup: Optional[Callable[[], None]] = None,
                       obs=None) -> int:
    """Issue every slot's references in global simulated-time order.

    Each slot is ``(access, core, stats, ops, addresses)``, with the op
    codes and byte addresses of its trace as two arrays of one length:
    its i-th reference is ``access(core, OP_BY_CODE[ops[i]],
    int(addresses[i]))``, after which its local clock is
    ``stats.cycles[core]``.  ``access`` is wrapped to advance
    ``obs.step`` first when a bus is given.  Check, sample and warm-up
    callbacks run between accesses at their step counts; after the
    warm-up every clock restarts at zero.  Returns the number of
    accesses issued.
    """
    n = len(slots)
    bits = max(n - 1, 0).bit_length()
    mask = (1 << bits) - 1
    streams = [chain.from_iterable(_accesses(
        access if obs is None else _stepping(access, obs),
        core, codes, addresses))
        for access, core, _stats, codes, addresses in slots]

    def clocks() -> List[tuple]:
        # Read again after the warm-up: ``SystemStats.reset`` rebinds
        # ``cycles``.
        return [(stats.cycles, core) for _a, core, stats, _o, _d in slots]

    slot_clock = clocks()
    heap = list(range(n))               # every clock starts at zero
    heapreplace = heapq.heapreplace
    if sample is None:
        sample_every = 0
    total = sum(len(slot[3]) for slot in slots)
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
            slot = heap[0] & mask
            try:
                next(streams[slot])
            except StopIteration:
                slot = _issue_live(heap, streams, mask)
            cycles, core = slot_clock[slot]
            heapreplace(heap, cycles[core] << bits | slot)
        step = stop
        if check_every and step % check_every == 0:
            check()
        if sample_every and step % sample_every == 0:
            sample()
        if warmup and step == warmup:
            if on_warmup is not None:
                on_warmup()
            slot_clock = clocks()
            # All local clocks restart at zero after the ROI boundary;
            # a sorted list is a heap.
            heap = sorted(key & mask for key in heap)
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
    calibration anchors' shared-entry fraction; ``warmup`` executes
    that many accesses to warm the caches and then resets every
    socket's statistics (the region-of-interest boundary); ``profiler``
    (a :class:`repro.obs.PhaseProfiler`) times the drive (traces are
    decoded inside it, a chunk at a time) and final-check phases.  The
    result's ``stats`` is ``system.stats``: a per-socket list on a
    multi-socket system.
    """
    sockets = system.sockets
    per_socket = system.config.n_cores
    traces = workload.traces
    n = len(traces)
    if n > per_socket * len(sockets):
        raise ValueError(f"workload has {n} traces for "
                         f"{per_socket * len(sockets)} cores")
    lengths = [len(trace) for trace in traces]
    if warmup > 0 and warmup >= sum(lengths):
        raise ValueError("warm-up longer than the workload")
    started = perf_counter()
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

            slots = [SlotKernel(core, socket.cores[core], socket.stats,
                                socket.shadow, system.config.latency,
                                trace.ops, trace.addresses)
                     for (socket, core), trace in zip(homes, traces)]

            def issue(slot: int, index: int) -> int:
                # From the kernel's own decode: ``access`` reads only
                # the address's block.
                if obs is not None:
                    obs.step += 1
                socket, core = homes[slot]
                decoded = slots[slot]
                socket.access(core, OP_BY_CODE[decoded.ops[index]],
                              decoded.blocks[index] << BLOCK_SHIFT)
                return socket.stats.cycles[core]

            drive_batched(slots, issue,
                          check=system.check_invariants,
                          check_every=check_invariants_every,
                          warmup=warmup, on_warmup=reset_stats, obs=obs)
            return
        _drive_interleaved(
            [(socket.access, core, socket.stats, trace.ops,
              trace.addresses)
             for (socket, core), trace in zip(homes, traces)],
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
    return RunResult(workload.name, system.stats,
                     wall_seconds=perf_counter() - started)
