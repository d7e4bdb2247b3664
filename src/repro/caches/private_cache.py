"""Per-core private cache hierarchy: split L1I/L1D over a unified L2.

The L2 is the coherence endpoint of a core (the sparse directory tracks L2
contents) and is inclusive of both L1s, so an L2 eviction back-invalidates
the L1 copy silently while the L2 eviction itself is notified to the
directory -- matching Section III-A: "All evictions from the private cache
hierarchy are notified to the sparse directory".

The hierarchy owns its three arrays as plain attributes.  Each array is
a list of per-set ``OrderedDict``s in LRU-to-MRU order (first entry is
LRU, last is MRU), so a recency touch, an install and an eviction are
O(1) dict moves.  The L2 also keeps ``l2_index`` (block -> line) for
one-probe lookups; the L1s only shorten hit latency, so their sets map
block -> None (presence, nothing else).  Every coherence action on the
hierarchy (fill, invalidate, downgrade, re-state, the store touch) is
one call that does its own dict work.  Private *hits* retire inside
``CMPSystem.access``, which reads and moves these dicts itself -- the
one reader outside this module on the simulation path (DESIGN.md
section 8).  There are no aliases: every attribute is pickled into
each model-checker snapshot.

The batched kernel's shrink journal (``epoch``, ``shrink_log``) is
kept only while a ``SlotKernel`` drives the hierarchy: ``shrink_log``
is None until the kernel gives it a list, so a scalar run, the model
checker and the fuzz oracle hold no per-run record that grows with
the number of invalidations and L2 victims (DESIGN.md section 11).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional

from repro.caches.block import L2Line, MESI
from repro.common.config import CacheGeometry
from repro.common.errors import ProtocolInvariantError
from repro.obs.events import EventKind

# Read on every store and fill, bound once as module globals: on Python
# 3.11 each ``Enum.MEMBER`` read goes through ``EnumType.__getattr__``'s
# Python-level hook.
_M, _S = MESI.M, MESI.S


def _lru_sets(geometry: CacheGeometry) -> List["OrderedDict"]:
    return [OrderedDict() for _ in range(geometry.sets)]


class PrivateHierarchy:
    """One core's L1I + L1D + L2 stack."""

    #: Observability seam (repro.obs): None = tracing disabled.
    obs = None

    def __init__(self, core: int, l1i: CacheGeometry, l1d: CacheGeometry,
                 l2: CacheGeometry) -> None:
        self.core = core
        #: Resident L2 lines by block, and the L2's LRU sets (set of a
        #: block: ``block & l2_mask``).
        self.l2_index: Dict[int, L2Line] = {}
        self.l2_sets: List["OrderedDict[int, L2Line]"] = _lru_sets(l2)
        self.l2_mask = l2.sets - 1
        self.l2_ways = l2.ways
        #: The L1s' LRU sets: presence only (block -> None).
        self.l1i_sets: List["OrderedDict[int, None]"] = _lru_sets(l1i)
        self.l1i_mask = l1i.sets - 1
        self.l1i_ways = l1i.ways
        self.l1d_sets: List["OrderedDict[int, None]"] = _lru_sets(l1d)
        self.l1d_mask = l1d.sets - 1
        self.l1d_ways = l1d.ways
        #: Safety-shrink journal for the batched kernel (repro.kernel),
        #: recorded only once a ``SlotKernel`` has set ``shrink_log`` to
        #: a list (None: nobody reads it, nothing is recorded).  While
        #: it is a list, ``epoch`` is bumped and the affected block
        #: appended by every mutation that can make a previously safe
        #: hit unsafe (invalidation, downgrade, re-state to S, and the
        #: L2 *victim* of a fill).  Mutations that only extend safety
        #: -- the fill itself, the upgrade grant to E, the silent E->M
        #: of a store hit -- deliberately do not, because the kernel's
        #: cached classification is allowed to under-approximate (an
        #: unclassified hit just takes the scalar hit path).  The
        #: kernel is the journal's single consumer and clears it as it
        #: reconciles.
        self.epoch = 0
        self.shrink_log: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def probe(self, block: int) -> Optional[MESI]:
        """Coherence state of ``block`` in this core, or None."""
        line = self.l2_index.get(block)
        return line.state if line else None

    def line_of(self, block: int) -> Optional[L2Line]:
        return self.l2_index.get(block)

    def cached_blocks(self):
        """All blocks resident in the L2 (the directory-visible set)."""
        return list(self.l2_index)

    def __contains__(self, block: int) -> bool:
        return block in self.l2_index

    # ------------------------------------------------------------------
    # Stores from the core
    # ------------------------------------------------------------------
    def write_hit_state(self, block: int) -> Optional[MESI]:
        """Current state for a store to ``block`` (touches, fills L1D).

        The M/E store hit retires inside ``CMPSystem.access``; this is
        the recency work of a store to an S copy (an upgrade, or a
        hybrid update push) before its uncore transaction.
        """
        line = self.l2_index.get(block)
        if line is None:
            return None
        self.l2_sets[block & self.l2_mask].move_to_end(block)
        l1 = self.l1d_sets[block & self.l1d_mask]
        if block in l1:
            l1.move_to_end(block)
        else:
            if len(l1) >= self.l1d_ways:
                l1.popitem(last=False)          # L1 victims go silently
            l1[block] = None
        return line.state

    def commit_write(self, block: int, version: int) -> None:
        """Commit a store: requires M or E; E upgrades to M silently."""
        line = self.l2_index.get(block)
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
             code: bool) -> Optional[L2Line]:
        """Install ``block`` after a miss; returns the L2 line it
        evicted, if any.

        That line is the eviction notice the home processes: it is out
        of the index and the LRU sets, and it holds the block, state,
        version and code bit it had at eviction.  An M notice carries
        the block data (a full writeback), E/S notices are dataless
        (ZeroDEV's E notices also carry the fused-block low bits).
        """
        l2_index = self.l2_index
        if block in l2_index:
            raise ProtocolInvariantError(
                f"double fill of block {block:#x} in core {self.core}")
        victim = None
        lru_set = self.l2_sets[block & self.l2_mask]
        if len(lru_set) >= self.l2_ways:
            victim_block, victim = lru_set.popitem(last=False)
            del l2_index[victim_block]
            if self.shrink_log is not None:
                self.epoch += 1
                self.shrink_log.append(victim_block)
            # Inclusion: the victim's L1 copies go silently.
            self.l1i_sets[victim_block & self.l1i_mask].pop(victim_block,
                                                            None)
            self.l1d_sets[victim_block & self.l1d_mask].pop(victim_block,
                                                            None)
            if self.obs is not None:
                self.obs.emit(EventKind.L2_EVICT, block=victim_block,
                              core=self.core, cause=victim.state._name_)
        lru_set[block] = l2_index[block] = L2Line(block, state, version,
                                                  state is _M, code)
        if code:
            l1 = self.l1i_sets[block & self.l1i_mask]
            ways = self.l1i_ways
        else:
            l1 = self.l1d_sets[block & self.l1d_mask]
            ways = self.l1d_ways
        if len(l1) >= ways:
            l1.popitem(last=False)              # L1 victims go silently
        l1[block] = None
        return victim

    def invalidate(self, block: int, cause: str = "") -> Optional[L2Line]:
        """Remove ``block`` everywhere; returns the L2 line if present.

        ``cause`` tags the resulting PRIV_INV trace event with what made
        the copy die (``dev`` / ``getx`` / ``inclusion`` / ``socket`` --
        see :class:`repro.obs.events.InvCause`).
        """
        if self.shrink_log is not None:
            self.epoch += 1
            self.shrink_log.append(block)
        self.l1i_sets[block & self.l1i_mask].pop(block, None)
        self.l1d_sets[block & self.l1d_mask].pop(block, None)
        line = self.l2_index.pop(block, None)
        if line is not None:
            del self.l2_sets[block & self.l2_mask][block]
            if self.obs is not None:
                self.obs.emit(EventKind.PRIV_INV, block=block,
                              core=self.core, cause=cause)
        return line

    def downgrade_to_s(self, block: int) -> L2Line:
        """Owner response to a forwarded GETS: M/E -> S, supply data."""
        line = self.l2_index.get(block)
        if line is None or line.state is _S:
            raise ProtocolInvariantError(
                f"core {self.core} asked to downgrade block {block:#x} "
                f"it does not own")
        if self.shrink_log is not None:
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
        line = self.l2_index.get(block)
        if line is None or line.state is not _S:
            raise ProtocolInvariantError(
                f"core {self.core} received an update for block "
                f"{block:#x} it does not share "
                f"(state={line.state if line else None})")
        line.version = version

    def set_state(self, block: int, state: MESI) -> None:
        line = self.l2_index.get(block)
        if line is None:
            raise ProtocolInvariantError(
                f"core {self.core} has no block {block:#x} to re-state")
        if state is _S and self.shrink_log is not None:
            # Losing ownership shrinks store safety; gaining it (the
            # upgrade grant to E) only extends safety and needs no
            # journal entry.
            self.epoch += 1
            self.shrink_log.append(block)
        line.state = state
