"""Typed event taxonomy for the observability layer.

Every event is one flat record: a monotonically increasing ``step`` (the
global access index maintained by the runner), an :class:`EventKind`, and
three optional coordinates -- ``block``, ``core``, and a free-form
``cause`` tag.  The taxonomy mirrors the transitions the paper reasons
about: protocol messages, directory-entry lifecycle (allocate / evict /
spill / fuse / extract), LLC entry eviction into memory (the
corrupted-memory transition), the ``GET_DE`` / ``DENF_NACK`` flows, and
private-cache invalidations tagged by what caused them.

The load-bearing tag is ``PRIV_INV`` with ``cause="dev"``: a ZeroDEV run
must never contain one (the paper's headline property), while a sparse
baseline produces them in volume -- asserted by ``tests/test_obs.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class EventKind(enum.Enum):
    """Every event type the instrumented simulator can emit."""

    # Interconnect.
    MSG = "msg"                    # one protocol message (cause = type)

    # Private-cache hierarchy.
    PRIV_INV = "priv_inv"          # private copy invalidated (cause-tagged)
    L2_EVICT = "l2_evict"          # capacity eviction -> notice to home

    # Sparse-directory lifecycle.
    DIR_INSERT = "dir_insert"      # entry installed in the sparse array
    DIR_REMOVE = "dir_remove"      # entry left the sparse array
    DIR_EVICT = "dir_evict"        # forced NRU eviction (the DEV source)

    # ZeroDEV entry caching in the LLC.
    ENTRY_SPILL = "entry_spill"    # entry allocated a spilled LLC frame
    ENTRY_FUSE = "entry_fuse"      # entry fused into its block's frame
    ENTRY_UNFUSE = "entry_unfuse"  # fused frame reconstructed to a block

    # ZeroDEV memory housing (Section III-D).
    ENTRY_WB_DE = "entry_wb_de"    # live entry evicted to memory (corrupts)
    ENTRY_EXTRACT = "entry_extract"  # housed entry promoted back on chip
    GET_DE = "get_de"              # read-update-writeback of a housed entry
    DENF_NACK = "denf_nack"        # "directory entry not found" NACK
    MEM_RESTORE = "mem_restore"    # corrupted block restored from a cache
    MEM_HEAL = "mem_heal"          # real-data writeback healed the image

    # Hybrid update/invalidate contender (repro.baselines.hybrid): a
    # write to a shared block pushes data to its sharers instead of
    # invalidating them, so these never coincide with a PRIV_INV --
    # update pushes must not be mistaken for eviction victims in the
    # DEV accounting (``core`` = the sharer receiving the update).
    UPDATE_PUSH = "update_push"

    # LLC.
    LLC_EVICT = "llc_evict"        # replacement victim (cause = frame kind)

    # Campaign harness (repro.harness.campaign): these are emitted by
    # the fault-tolerant execution layer, not the simulator, with
    # ``step`` carrying the run index within the campaign. ``repro
    # report`` renders them as the campaign-health section.
    RUN_RETRY = "run_retry"        # transient failure re-queued (cause)
    RUN_TIMEOUT = "run_timeout"    # per-run deadline fired
    WORKER_DEATH = "worker_death"  # worker died before delivering
    RESUME_SKIP = "resume_skip"    # journaled run replayed, not re-run

    # Modelcheck frontier (repro.verify.modelcheck): emitted by the
    # bounded-exhaustive explorer, with ``step`` carrying the BFS depth
    # just completed. ``MC_FRONTIER``'s cause packs the level counters
    # (``new/transitions/dedup``, with a fourth ``capped`` part when
    # max_states or the time budget stopped the level early) so a
    # progress sink can render the state-collapse rate live;
    # ``MC_MERGE`` reports each level's parallel partition/merge shape
    # (``core`` = worker partitions, cause packs
    # ``partitions/frontier/transitions-merged``); ``MC_CEX`` marks a
    # counterexample.
    MC_FRONTIER = "mc_frontier"    # one completed frontier level
    MC_MERGE = "mc_merge"          # per-level partition/merge stats
    MC_CEX = "mc_cex"              # counterexample found (cause=error type)


#: ``cause`` tags carried by PRIV_INV events.  ``DEV`` marks the paper's
#: directory-eviction victims; the rest are the legitimate coherence and
#: capacity causes every protocol shares.
class InvCause:
    DEV = "dev"                    # directory-entry eviction victim
    GETX = "getx"                  # write miss / upgrade killed a sharer
    FWD_GETX = "fwd_getx"          # ownership transferred to another core
    INCLUSION = "inclusion"        # inclusive-LLC back-invalidation
    SOCKET = "socket"              # remote-socket exclusive acquisition


@dataclass(frozen=True)
class Event:
    """One structured trace record (flat, JSON-friendly)."""

    __slots__ = ("step", "kind", "block", "core", "cause")

    step: int
    kind: EventKind
    block: int
    core: int
    cause: str

    def to_record(self) -> dict:
        """Plain-dict form used by the JSONL sink and the reports.

        ``_value_`` is the member's plain attribute: ``.value`` goes
        through a descriptor on every event."""
        record = {"step": self.step, "kind": self.kind._value_}
        if self.block >= 0:
            record["block"] = self.block
        if self.core >= 0:
            record["core"] = self.core
        if self.cause:
            record["cause"] = self.cause
        return record

    def key(self) -> str:
        """Aggregation key: ``kind`` or ``kind:cause``."""
        if self.cause:
            return f"{self.kind._value_}:{self.cause}"
        return self.kind._value_
