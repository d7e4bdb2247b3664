"""Per-core private cache hierarchy: split L1I/L1D over a unified L2.

The L2 is the coherence endpoint of a core (the sparse directory tracks L2
contents) and is inclusive of both L1s, so an L2 eviction back-invalidates
the L1 copy silently while the L2 eviction itself is notified to the
directory -- matching Section III-A: "All evictions from the private cache
hierarchy are notified to the sparse directory".

Every coherence action on the hierarchy (fill, invalidate, downgrade,
re-state, the lookups from the core) is one call that works on the three
arrays' index and LRU dicts (``_index``, ``_sets``) itself, as the
batched kernel does, instead of fanning out into :class:`SetAssocCache`
calls: a starved-directory run makes one or two of these actions per
access.  The arrays are reached through their own attributes, not
aliases on the hierarchy, so a pickled hierarchy (a model-checker
snapshot) holds nothing twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.caches.block import L1Line, L2Line, MESI
from repro.caches.set_assoc import SetAssocCache
from repro.common.config import CacheGeometry
from repro.common.errors import ProtocolInvariantError
from repro.obs.events import EventKind

# Read on every store and fill, bound once as module globals: on Python
# 3.11 each ``Enum.MEMBER`` read goes through ``EnumType.__getattr__``'s
# Python-level hook.
_M, _S = MESI.M, MESI.S


@dataclass
class EvictionNotice:
    """An L2 eviction to be reported to the home directory slice.

    ``state`` is the coherence state at eviction time; M-state notices
    carry the block data (a full writeback), E/S notices are dataless
    (ZeroDEV's E notices additionally carry the fused-block low bits).
    """

    __slots__ = ("core", "block", "state", "version", "is_code")

    core: int
    block: int
    state: MESI
    version: int
    is_code: bool


class PrivateHierarchy:
    """One core's L1I + L1D + L2 stack."""

    #: Observability seam (repro.obs): None = tracing disabled.
    obs = None

    def __init__(self, core: int, l1i: CacheGeometry, l1d: CacheGeometry,
                 l2: CacheGeometry) -> None:
        self.core = core
        self._l1i: SetAssocCache[L1Line] = SetAssocCache(l1i)
        self._l1d: SetAssocCache[L1Line] = SetAssocCache(l1d)
        self._l2: SetAssocCache[L2Line] = SetAssocCache(l2)
        #: Safety-shrink journal for the batched kernel (repro.kernel):
        #: ``epoch`` is bumped and the affected block appended to
        #: ``shrink_log`` by every mutation that can make a previously
        #: safe hit unsafe (invalidation, downgrade, re-state to S, and
        #: the L2 *victim* of a fill).  Mutations that only extend
        #: safety -- the fill itself, the upgrade grant to E, the
        #: silent E->M of commit_write -- deliberately do not, because
        #: the kernel's cached classification is allowed to
        #: under-approximate (an unclassified hit just takes the scalar
        #: hit path).  The kernel is the journal's single consumer and
        #: clears it as it reconciles.
        self.epoch = 0
        self.shrink_log: List[int] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def probe(self, block: int) -> Optional[MESI]:
        """Coherence state of ``block`` in this core, or None."""
        line = self._l2._index.get(block)
        return line.state if line else None

    def line_of(self, block: int) -> Optional[L2Line]:
        return self._l2._index.get(block)

    def cached_blocks(self):
        """All blocks resident in the L2 (the directory-visible set)."""
        return [line.block for line in self._l2.lines()]

    def __contains__(self, block: int) -> bool:
        return block in self._l2._index

    # ------------------------------------------------------------------
    # Lookups from the core
    # ------------------------------------------------------------------
    def read_hit_level(self, block: int, code: bool) -> Optional[str]:
        """Service a read/ifetch locally if possible.

        Returns ``"l1"`` or ``"l2"`` on a hit (filling the L1 on an L2
        hit), or None on a core-cache miss.
        """
        l1 = self._l1i if code else self._l1d
        l2 = self._l2
        if block in l1._index:
            l1._sets[block & l1._set_mask].move_to_end(block)
            # Keep L2 recency in sync (the L2 includes every L1 line).
            l2._sets[block & l2._set_mask].move_to_end(block)
            return "l1"
        if block not in l2._index:
            return None
        l2._sets[block & l2._set_mask].move_to_end(block)
        l1.insert(L1Line(block))        # L1 victim needs no action
        return "l2"

    def write_hit_state(self, block: int) -> Optional[MESI]:
        """Current state for a store to ``block`` (touches, fills L1D)."""
        l2 = self._l2
        line = l2._index.get(block)
        if line is None:
            return None
        l2._sets[block & l2._set_mask].move_to_end(block)
        l1d = self._l1d
        if block in l1d._index:
            l1d._sets[block & l1d._set_mask].move_to_end(block)
        else:
            l1d.insert(L1Line(block))
        return line.state

    def commit_write(self, block: int, version: int) -> None:
        """Commit a store: requires M or E; E upgrades to M silently."""
        line = self._l2._index.get(block)
        if line is None or line.state is _S:
            raise ProtocolInvariantError(
                f"core {self.core} writing block {block:#x} without "
                f"ownership (state={line.state if line else None})")
        line.state = _M
        line.dirty = True
        line.version = version

    # ------------------------------------------------------------------
    # Fills and coherence actions from the uncore
    # ------------------------------------------------------------------
    def fill(self, block: int, state: MESI, version: int,
             code: bool) -> Optional[EvictionNotice]:
        """Install ``block`` after a miss; returns the notice of the L2
        victim it evicted, if any."""
        l2 = self._l2
        l2_index = l2._index
        if block in l2_index:
            raise ProtocolInvariantError(
                f"double fill of block {block:#x} in core {self.core}")
        notice = None
        lru_set = l2._sets[block & l2._set_mask]
        if len(lru_set) >= l2._n_ways:
            victim_block, victim = lru_set.popitem(last=False)
            del l2_index[victim_block]
            self.epoch += 1
            self.shrink_log.append(victim_block)
            # Inclusion: the victim's L1 copies go silently.
            l1 = self._l1i
            if l1._index.pop(victim_block, None) is not None:
                del l1._sets[victim_block & l1._set_mask][victim_block]
            l1 = self._l1d
            if l1._index.pop(victim_block, None) is not None:
                del l1._sets[victim_block & l1._set_mask][victim_block]
            if self.obs is not None:
                self.obs.emit(EventKind.L2_EVICT, block=victim_block,
                              core=self.core, cause=victim.state.name)
            notice = EvictionNotice(self.core, victim_block, victim.state,
                                    victim.version, victim.is_code)
        lru_set[block] = l2_index[block] = L2Line(block, state, version,
                                                  state is _M, code)
        l1 = self._l1i if code else self._l1d
        l1.insert(L1Line(block))
        return notice

    def invalidate(self, block: int, cause: str = "") -> Optional[L2Line]:
        """Remove ``block`` everywhere; returns the L2 line if present.

        ``cause`` tags the resulting PRIV_INV trace event with what made
        the copy die (``dev`` / ``getx`` / ``inclusion`` / ``socket`` --
        see :class:`repro.obs.events.InvCause`).
        """
        self.epoch += 1
        self.shrink_log.append(block)
        l1 = self._l1i
        if l1._index.pop(block, None) is not None:
            del l1._sets[block & l1._set_mask][block]
        l1 = self._l1d
        if l1._index.pop(block, None) is not None:
            del l1._sets[block & l1._set_mask][block]
        l2 = self._l2
        line = l2._index.pop(block, None)
        if line is not None:
            del l2._sets[block & l2._set_mask][block]
            if self.obs is not None:
                self.obs.emit(EventKind.PRIV_INV, block=block,
                              core=self.core, cause=cause)
        return line

    def downgrade_to_s(self, block: int) -> L2Line:
        """Owner response to a forwarded GETS: M/E -> S, supply data."""
        line = self._l2._index.get(block)
        if line is None or line.state is _S:
            raise ProtocolInvariantError(
                f"core {self.core} asked to downgrade block {block:#x} "
                f"it does not own")
        self.epoch += 1
        self.shrink_log.append(block)
        line.state = _S
        line.dirty = False
        return line

    def refresh_version(self, block: int, version: int) -> None:
        """Apply a hybrid UPDATE push: refresh an S copy's data in place.

        The line stays S (the update protocol keeps every sharer
        readable, nobody gains ownership) and stays clean -- the writer
        writes the new version through to the LLC, so the pushed copy
        never needs writing back.  No journal entry: safety shrinks only
        when membership or S-ness changes, and a version refresh changes
        neither (S writes are already classified unsafe).
        """
        line = self._l2._index.get(block)
        if line is None or line.state is not _S:
            raise ProtocolInvariantError(
                f"core {self.core} received an update for block "
                f"{block:#x} it does not share "
                f"(state={line.state if line else None})")
        line.version = version

    def set_state(self, block: int, state: MESI) -> None:
        line = self._l2._index.get(block)
        if line is None:
            raise ProtocolInvariantError(
                f"core {self.core} has no block {block:#x} to re-state")
        if state is _S:
            # Losing ownership shrinks store safety; gaining it (the
            # upgrade grant to E) only extends safety and needs no
            # journal entry.
            self.epoch += 1
            self.shrink_log.append(block)
        line.state = state
