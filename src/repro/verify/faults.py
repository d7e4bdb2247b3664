"""Protocol fault injection: break the machinery, demand loud failure.

Each fault models a "what if this message were lost/duplicated" question
about the ZeroDEV flows the paper introduces. The verification contract
is *no silent divergence*: an injected fault must either be detected (a
typed :class:`~repro.common.errors.ProtocolInvariantError` /
:class:`~repro.verify.oracle.DivergenceError` from an invariant check,
the shadow oracle, or the read-back pass) or be provably harmless
(graceful degradation that only costs latency/accounting). A fault that
completes a campaign with ``ok`` outcomes and no firing is a coverage
failure, reported as such.

Faults are armed on a *built system instance* by monkey-patching the
seam method the lost/duplicated message would traverse; the patch fires
on the Nth traversal and is inert afterwards, so a single run carries
exactly one injected event.

* ``DROP_WB_DE`` -- the Nth entry writeback to home memory vanishes:
  the live entry is gone from every structure while its sharers remain
  privately cached ("privately cached but untracked" at the next
  invariant check).
* ``DUP_WB_DE`` -- the Nth WB_DE is delivered twice: the second
  delivery finds the home block already housing an entry and raises.
* ``DROP_GET_DE`` -- the Nth GET_DE read of a memory-housed entry is
  lost: the eviction notice finds no entry anywhere and the notice
  handler raises.
* ``FORCE_DENF_NACK`` -- a corrupted-read forward is NACKed even though
  the target socket holds the entry: the home re-extracts the segment
  from memory. Pure latency; the run must stay correct (the graceful-
  degradation case).
* ``DROP_UPDATE`` / ``DUP_UPDATE`` -- the hybrid model's Nth UPDATE
  push to a sharer is lost (a stale readable S copy survives: only the
  per-step update-coherence check can see it) or delivered twice
  (idempotent, graceful).
* ``LLC_CONFLICT_STORM`` -- on the Nth LLC eviction of the DLS model,
  every other frame of the victim's set is conflict-evicted through the
  real handler: a worst-case inclusion storm that must stay correct.

:func:`corrupt_cache_files` is the storage-layer sibling: it flips bytes
in persisted result-cache pickles so tests can assert the cache treats
damage as a miss and recomputes.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List

from repro.common.config import Protocol
from repro.common.errors import ConfigError


class FaultKind(enum.Enum):
    DROP_WB_DE = "drop-wb-de"
    DUP_WB_DE = "dup-wb-de"
    DROP_GET_DE = "drop-get-de"
    FORCE_DENF_NACK = "force-denf-nack"
    # Contender-model faults (repro.baselines.dls / .hybrid).
    DROP_UPDATE = "drop-update"
    DUP_UPDATE = "dup-update"
    LLC_CONFLICT_STORM = "llc-conflict-storm"


#: Faults whose only legal outcome is a typed detection (non-ok run).
DETECTABLE = (FaultKind.DROP_WB_DE, FaultKind.DUP_WB_DE,
              FaultKind.DROP_GET_DE, FaultKind.DROP_UPDATE)
#: Faults the system must absorb: the run stays correct end to end.
GRACEFUL = (FaultKind.FORCE_DENF_NACK, FaultKind.DUP_UPDATE,
            FaultKind.LLC_CONFLICT_STORM)


@dataclass(frozen=True)
class FaultPlan:
    """Inject ``kind`` on the Nth traversal of its seam (1-based)."""

    kind: FaultKind
    at: int = 1

    def __post_init__(self) -> None:
        if self.at < 1:
            raise ConfigError("fault occurrence index must be >= 1")


class ArmedFault:
    """Live injection state; ``fired`` reports whether the seam was
    reached at all (a campaign where it never fires proves nothing)."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.seen = 0
        self.fired = 0

    def _due(self) -> bool:
        self.seen += 1
        if self.seen == self.plan.at:
            self.fired += 1
            return True
        return False


def _zerodev_sockets(system) -> List:
    return [s for s in system.sockets if hasattr(s, "_housing")]


def arm_fault(system, plan: FaultPlan) -> ArmedFault:
    """Patch ``plan``'s seam on ``system`` (single- or multi-socket).

    Raises :class:`ConfigError` when the model has no such seam (e.g.
    WB_DE faults on a baseline model, DENF faults on one socket).
    """
    armed = ArmedFault(plan)
    if plan.kind is FaultKind.FORCE_DENF_NACK:
        _arm_force_denf(system, armed)
        return armed
    if plan.kind in (FaultKind.DROP_UPDATE, FaultKind.DUP_UPDATE):
        if not hasattr(system, "_deliver_update"):
            raise ConfigError(
                f"fault {plan.kind.value} needs the hybrid "
                "update/invalidate model")
        _arm_update(system, armed)
        return armed
    if plan.kind is FaultKind.LLC_CONFLICT_STORM:
        if getattr(system, "PROTOCOL", None) is not Protocol.DLS:
            raise ConfigError(
                "fault llc-conflict-storm needs the DLS model (the "
                "storm targets entry-bearing LLC lines)")
        _arm_llc_storm(system, armed)
        return armed
    sockets = _zerodev_sockets(system)
    if not sockets:
        raise ConfigError(
            f"fault {plan.kind.value} needs a ZeroDEV socket; "
            "model has none")
    for socket in sockets:
        if plan.kind in (FaultKind.DROP_WB_DE, FaultKind.DUP_WB_DE):
            _arm_wb_de(socket, armed)
        else:
            _arm_drop_get_de(socket, armed)
    return armed


def _arm_wb_de(socket, armed: ArmedFault) -> None:
    original = socket._writeback_entry_to_memory  # noqa: SLF001

    def patched(entry):
        if not armed._due():
            return original(entry)
        if armed.plan.kind is FaultKind.DROP_WB_DE:
            return None            # the WB_DE message is lost in flight
        original(entry)            # delivered ...
        return original(entry)     # ... and then delivered again

    socket._writeback_entry_to_memory = patched  # noqa: SLF001


def _arm_drop_get_de(socket, armed: ArmedFault) -> None:
    original = socket._find_entry_for_notice  # noqa: SLF001
    housing = socket._housing                 # noqa: SLF001

    def _on_chip(block) -> bool:
        # Recency-neutral probe (the real lookup touches LRU state and
        # would perturb the run even when the fault does not fire).
        if socket.directory is not None and \
                socket.directory.peek(block) is not None:
            return True
        return socket.bank_of(block).entry_of(block,
                                              touch=False) is not None

    def patched(block, bank):
        # Only a *memory-housed* lookup corresponds to a GET_DE message
        # that could be dropped; on-chip lookups traverse no wire here.
        would_get_de = (not _on_chip(block)
                        and housing.peek(block) is not None)
        if would_get_de and armed._due():
            return None
        return original(block, bank)

    socket._find_entry_for_notice = patched  # noqa: SLF001


def _arm_update(system, armed: ArmedFault) -> None:
    """Drop or duplicate the Nth UPDATE push of the hybrid model.

    A dropped update leaves a sharer holding a stale-but-readable S
    copy -- a read *hit* would silently consume it, so only the
    per-step update-coherence check (``check_hybrid``) can catch it: the
    quintessential no-silent-divergence case.  A duplicated update is
    idempotent (same version written twice) and must degrade gracefully.
    """
    original = system._deliver_update  # noqa: SLF001

    def patched(writer, sharer, block, version, bank):
        if not armed._due():
            return original(writer, sharer, block, version, bank)
        if armed.plan.kind is FaultKind.DROP_UPDATE:
            # The UPDATE message is lost in flight: the sharer keeps its
            # stale copy and the writer never sees the missing ack.
            return 0
        original(writer, sharer, block, version, bank)
        return original(writer, sharer, block, version, bank)

    system._deliver_update = patched  # noqa: SLF001


def _arm_llc_storm(system, armed: ArmedFault) -> None:
    """On the Nth LLC eviction, conflict-storm the victim's whole set.

    DLS keeps coherence state on LLC lines, so an adversarial burst of
    conflict evictions is its worst case: every entry-bearing line in
    the set dies and must back-invalidate its sharers.  Each extra
    victim goes through the real eviction handler, so the run must stay
    correct -- the cost is inclusion invalidations, not correctness.
    """
    original = system._handle_llc_victim  # noqa: SLF001

    def patched(bank, victim):
        original(bank, victim)
        if not armed._due():
            return
        set_idx = bank.set_of(victim.block)
        # The MRU frame is the fill that displaced ``victim`` -- the
        # block of the in-flight transaction (hardware holds it busy),
        # so the storm takes every *other* frame of the set.
        for line in list(bank.frames_in_set(set_idx))[:-1]:
            bank.remove(line)
            original(bank, line)

    system._handle_llc_victim = patched  # noqa: SLF001


def _arm_force_denf(system, armed: ArmedFault) -> None:
    original = getattr(system, "_forward_corrupted_read", None)
    if original is None:
        raise ConfigError(
            "fault force-denf-nack needs a multi-socket model")
    sockets = system.sockets

    def patched(socket, block, entry, home_id):
        if not armed._due():
            return original(socket, block, entry, home_id)
        # Pretend every socket lost its on-chip entry for the duration
        # of this forward: the target must DENF_NACK and the home must
        # re-extract the segment from memory (Figure 15, steps 7-10).
        saved = [(s, s._lookup_in_socket) for s in sockets]  # noqa: SLF001
        try:
            for sock, lookup in saved:
                sock._lookup_in_socket = (                   # noqa: SLF001
                    lambda b, _orig=lookup: None)
            return original(socket, block, entry, home_id)
        finally:
            for sock, lookup in saved:
                sock._lookup_in_socket = lookup              # noqa: SLF001

    system._forward_corrupted_read = patched  # noqa: SLF001


def corrupt_cache_files(directory, seed: int = 0) -> int:
    """Flip one byte in every ``.pkl`` under ``directory``.

    Returns the number of files damaged. The result cache must treat
    every damaged entry as a miss (recompute), never crash and never
    serve garbage stats.
    """
    rng = random.Random(seed)
    damaged = 0
    for path in sorted(Path(directory).glob("*.pkl")):
        data = bytearray(path.read_bytes())
        if not data:
            continue
        index = rng.randrange(len(data))
        data[index] ^= 0xFF
        path.write_bytes(bytes(data))
        damaged += 1
    return damaged
