"""Drive one trace through one model under full instrumentation.

Correctness here is layered, from cheap to thorough:

1. **Per-access**: the protocol's built-in shadow-memory check asserts
   every GETS and GETX response serves the latest committed version --
   the load-value half of the equivalence claim.
2. **Per-step** (every ``check_every`` accesses): the system's own
   ``check_invariants`` (SWMR, directory precision, entry-location
   exclusivity, corrupted-bitmap consistency) plus the structural checks
   shared with modelcheck via :mod:`repro.verify.checks` -- LLC set
   occupancy and index consistency, spLRU
   entry-above-block ordering, housed-implies-garbage and the
   case-(iiib) ban on a block being LLC-resident while its entry is
   housed in memory.
3. **Per-run**: ZeroDEV models must finish with *zero* DEV-caused
   private invalidations, counted both in the stats and as
   ``priv_inv:dev`` events on the obs bus (two independent witnesses).
4. **Read-back**: after the trace, every touched block is loaded once
   more. Whatever final resting place the protocol chose -- private
   line, LLC frame, housed-entry promotion path, DRAM -- the load must
   produce the latest version, which is the final-memory half of the
   equivalence claim: silent data loss anywhere surfaces here at the
   latest.

Any exception at any layer is captured as a non-``ok`` :class:`Outcome`
with the failing step index, which is exactly the interface the ddmin
shrinker needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.common.addressing import BLOCK_SHIFT
from repro.obs import EventBus, attach
from repro.obs.events import EventKind, InvCause
from repro.verify.checks import (DivergenceError, check_step, dev_count,
                                 shadow_of)
from repro.verify.models import ModelSpec
from repro.verify.tracegen import FuzzTrace
from repro.workloads.trace import Op

__all__ = ["DevEventCounter", "DivergenceError", "Outcome", "run_trace"]

# Compared on every traced event, bound once: on Python 3.11 each
# ``Enum.MEMBER`` read goes through ``EnumType.__getattr__``.
_PRIV_INV = EventKind.PRIV_INV


class DevEventCounter:
    """Obs sink counting DEV-caused private invalidations (the events
    whose ``key()`` is ``priv_inv:dev``, matched without building it)."""

    def __init__(self) -> None:
        self.dev_invalidations = 0

    def handle(self, event) -> None:
        if event.kind is _PRIV_INV and event.cause == InvCause.DEV:
            self.dev_invalidations += 1


@dataclass
class Outcome:
    """Result of one (model, trace) run."""

    model: str
    trace: str
    ok: bool
    steps_run: int = 0
    #: Step index at which the failure surfaced; equals ``steps_run``
    #: for failures in the post-trace checks / read-back (the shrinker
    #: uses this to know no trace truncation is possible there).
    failing_step: int = -1
    phase: str = ""                   # trace | final | readback
    #: Readback failures only: the block whose re-load diverged and its
    #: phase-local index in the sorted readback order.  ``failing_step``
    #: stays pinned at ``len(trace)`` for every readback block (there is
    #: no trace step to blame), so without these two fields a readback
    #: report could not name the actual diverging load.
    readback_block: int = -1
    readback_index: int = -1
    error: str = ""
    error_type: str = ""
    dev_invalidations: int = 0
    #: Whether the armed fault (``run_trace(fault=...)``) reached its
    #: seam anywhere in the run, the read-back included.
    fault_fired: bool = False
    #: Final committed-version map (block -> version). Identical write
    #: sequences commit identical versions, so this digest must match
    #: across every model that ran the same trace.
    memory_digest: Tuple[Tuple[int, int], ...] = field(default=())

    def __str__(self) -> str:
        if self.ok:
            return f"{self.model} x {self.trace}: ok"
        where = f"step {self.failing_step} ({self.phase})"
        if self.phase == "readback":
            where = (f"readback {self.readback_index} "
                     f"(block {self.readback_block:#x})")
        return (f"{self.model} x {self.trace}: {self.error_type} at "
                f"{where}: {self.error}")


def run_trace(spec: ModelSpec, trace: FuzzTrace, check_every: int = 1,
              fault=None) -> Outcome:
    """Run ``trace`` on a fresh instance of ``spec``'s model.

    ``fault`` is an optional :class:`~repro.verify.faults.FaultPlan`
    armed on the freshly built system before the first access; the
    outcome records whether it fired.
    """
    outcome = Outcome(spec.name, trace.name, ok=False)
    system = spec.build()
    bus = EventBus()
    counter = DevEventCounter()
    bus.subscribe(counter)
    attach(system, bus)
    armed = None
    if fault is not None:
        from repro.verify.faults import arm_fault
        armed = arm_fault(system, fault)
    sockets = system.sockets

    def issue(trace_core: int, op: Op, block: int) -> None:
        socket, core = spec.map_core(trace_core)
        sockets[socket].access(core, op, block << BLOCK_SHIFT)
        bus.step += 1

    step = 0
    phase = "trace"
    readback_index, readback_block = -1, -1
    try:
        for step, (core, op, block) in enumerate(trace.decoded()):
            issue(core, op, block)
            if (step + 1) % check_every == 0:
                check_step(spec, system)
        step = len(trace)
        phase = "final"
        check_step(spec, system)
        if spec.is_zerodev:
            stat_devs = dev_count(system)
            if stat_devs or counter.dev_invalidations:
                raise DivergenceError(
                    f"ZeroDEV model issued {stat_devs} DEV invalidations "
                    f"({counter.dev_invalidations} priv_inv:dev events)")
        phase = "readback"
        for readback_index, readback_block in enumerate(
                sorted({s[2] for s in trace.steps})):
            # The built-in shadow check fires if the latest version of
            # the block is no longer recoverable from any layer.
            issue(0, Op.READ, readback_block)
            check_step(spec, system)
    except Exception as error:            # noqa: BLE001 - reported
        outcome.steps_run = min(step + 1, len(trace))
        outcome.failing_step = step
        outcome.phase = phase
        if phase == "readback":
            outcome.readback_block = readback_block
            outcome.readback_index = readback_index
        outcome.error = str(error)
        outcome.error_type = type(error).__name__
    else:
        outcome.ok = True
        outcome.steps_run = len(trace)
        outcome.phase = "done"
        outcome.memory_digest = tuple(sorted(
            shadow_of(system)._latest.items()))  # noqa: SLF001 - probe
    outcome.dev_invalidations = counter.dev_invalidations
    outcome.fault_fired = armed is not None and armed.fired > 0
    return outcome
