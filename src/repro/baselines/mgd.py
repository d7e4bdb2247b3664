"""Multi-grain Directory (MgD): dual-grain coherence tracking.

Re-implementation of Zebchuk et al., MICRO 2013, as the paper's
space-efficiency baseline (Figure 26). The directory array holds two kinds
of entries in the same sets:

* **Region entries** track an entire 1 KB private region (16 blocks) with
  a single entry, as long as exactly one core touches it. This is what
  lets MgD track private data with one-sixteenth the entries.
* **Block entries** track individual blocks exactly like the baseline
  (used for shared data and code).

When a second core touches a region, the region entry is *demoted*: block
entries are allocated for every block of the region the owner actually
caches, and tracking proceeds at block grain. Evicting a region entry
invalidates all of the owner's cached blocks in that region -- a
multi-block DEV event, which is why MgD (unlike ZeroDEV) still degrades as
the directory shrinks.

Internally, per-block :class:`DirectoryEntry` views exist for every
tracked block so the generic protocol machinery applies unchanged; *region
coverage* determines whether a view occupies directory capacity (covered
views ride on their region entry).  A covered view never changes state in
place: another core's access demotes its region before the transaction
touches the entry, and the owner never misses on a block it owns.  An
inclusive LLC's eviction of a covered block touches no other block of
the region, so it kills the owner's copy and frees the view without
demoting the region, whichever core's fill evicted the line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.caches.block import LLCLine, MESI
from repro.caches.llc import LLCBank
from repro.coherence.entry import DirectoryEntry, DirState
from repro.coherence.protocol import CMPSystem
from repro.common.addressing import set_index
from repro.common.config import Protocol
from repro.common.errors import ProtocolInvariantError
from repro.common.messages import MessageType as MT
from repro.obs.events import InvCause
from repro.workloads.trace import Op


@dataclass
class RegionEntry:
    """One region-grain directory entry: a private region of one core."""

    region: int
    owner: int
    block_count: int = 0
    nru_ref: bool = True


class MgDDirectory:
    """A set-associative array holding region and block entries mixed."""

    def __init__(self, entries: int, ways: int) -> None:
        self.sets = max(1, entries // ways)
        self.ways = ways
        self._sets: List[List[object]] = [[] for _ in range(self.sets)]
        self.block_entries: Dict[int, DirectoryEntry] = {}
        self.region_entries: Dict[int, RegionEntry] = {}

    # ------------------------------------------------------------------
    def _set_of(self, key: int) -> int:
        return set_index(key, self.sets)

    def set_for(self, item) -> List[object]:
        if isinstance(item, RegionEntry):
            return self._sets[self._set_of(item.region)]
        return self._sets[self._set_of(item.block)]

    def has_room(self, key: int) -> bool:
        return len(self._sets[self._set_of(key)]) < self.ways

    def choose_victim(self, key: int):
        """1-bit NRU over the mixed entries of the target set."""
        ways = self._sets[self._set_of(key)]
        for item in ways:
            if not item.nru_ref:       # type: ignore[union-attr]
                return item
        for item in ways:
            item.nru_ref = False       # type: ignore[union-attr]
        return ways[0]

    def insert_region(self, entry: RegionEntry) -> None:
        self.region_entries[entry.region] = entry
        self._sets[self._set_of(entry.region)].append(entry)

    def remove(self, item) -> None:
        self.set_for(item).remove(item)
        if isinstance(item, RegionEntry):
            del self.region_entries[item.region]
        else:
            del self.block_entries[item.block]


class MgDSystem(CMPSystem):
    """Baseline socket with the Multi-grain Directory organization."""

    PROTOCOL = Protocol.MGD

    def _build_directory(self):
        self._mgd = MgDDirectory(self.config.directory_entries,
                                 self.config.directory.ways)
        self._region_blocks = self.config.mgd_region_blocks
        #: Per-block views of blocks covered by a region entry.
        self._covered: Dict[int, DirectoryEntry] = {}
        self._requester: Optional[int] = None
        return None

    def _region_of(self, block: int) -> int:
        return block // self._region_blocks

    # ------------------------------------------------------------------
    def access(self, core: int, op: Op, address: int) -> int:
        self._requester = core
        try:
            return super().access(core, op, address)
        finally:
            self._requester = None

    def _back_invalidate(self, bank: LLCBank, victim: LLCLine) -> None:
        # The fill that evicted ``victim`` is no access to its region:
        # look its entry up as no core's.
        requester, self._requester = self._requester, None
        try:
            super()._back_invalidate(bank, victim)
        finally:
            self._requester = requester

    # ------------------------------------------------------------------
    def _find_entry(self, block: int
                    ) -> Tuple[Optional[DirectoryEntry], int]:
        entry = self._mgd.block_entries.get(block)
        if entry is not None:
            entry.nru_ref = True
            return entry, 0
        region = self._mgd.region_entries.get(self._region_of(block))
        if region is None:
            return None, 0
        region.nru_ref = True
        if self._requester is not None and self._requester != region.owner:
            # A second core touched the region: demote to block grain.
            self._demote_region(region)
            return self._mgd.block_entries.get(block), 0
        return self._covered.get(block), 0

    def _find_entry_for_notice(self, block: int, bank: LLCBank
                               ) -> Optional[DirectoryEntry]:
        return self._peek_entry(block)

    def _peek_entry(self, block: int) -> Optional[DirectoryEntry]:
        entry = self._mgd.block_entries.get(block)
        if entry is not None:
            return entry
        return self._covered.get(block)

    # ------------------------------------------------------------------
    def _allocate_entry(self, block: int, state: DirState, requester: int,
                        owner: Optional[int], bank: LLCBank
                        ) -> DirectoryEntry:
        self.stats.dir_allocations += 1
        entry = DirectoryEntry(block, state, owner=owner,
                               sharers=1 << requester)
        region_id = self._region_of(block)
        region = self._mgd.region_entries.get(region_id)
        if state is DirState.ME:
            if region is not None and region.owner == requester:
                # Covered by the requester's own region entry.
                region.block_count += 1
                self._covered[block] = entry
                return entry
            if region is not None:
                self._demote_region(region)
            elif self._region_is_private_to(region_id, requester):
                self._insert_with_eviction(
                    RegionEntry(region_id, requester, block_count=1),
                    region_id)
                self._covered[block] = entry
                return entry
        elif region is not None:
            # A shared fill inside a region tracked as private.
            self._demote_region(region)
        self._insert_with_eviction(entry, block)
        self._mgd.block_entries[block] = entry
        # insert_with_eviction appended a placeholder; fix bookkeeping.
        return entry

    def _region_is_private_to(self, region_id: int,
                              requester: int) -> bool:
        """A region entry is allocated only when no other core currently
        caches any block of the region (MgD's private-region test)."""
        base = region_id * self._region_blocks
        for offset in range(self._region_blocks):
            entry = self._mgd.block_entries.get(base + offset)
            if entry is None:
                entry = self._covered.get(base + offset)
            if entry is None:
                continue
            for core in entry.sharer_cores():
                if core != requester:
                    return False
        return True

    def _insert_with_eviction(self, item, key: int) -> None:
        """Insert a region or block entry, evicting an NRU victim if the
        set is full (the DEV-generating step)."""
        if not self._mgd.has_room(key):
            victim = self._mgd.choose_victim(key)
            self._mgd.remove(victim)
            if isinstance(victim, RegionEntry):
                self._region_dev(victim)
            else:
                self._process_dev(victim)
        if isinstance(item, RegionEntry):
            self._mgd.insert_region(item)
        else:
            self._mgd.set_for(item).append(item)

    def _demote_region(self, region: RegionEntry) -> None:
        """Convert a private region to block-grain entries for every
        block the owner caches (no invalidations)."""
        self.stats.region_demotions += 1
        self._mgd.remove(region)
        base = region.region * self._region_blocks
        for offset in range(self._region_blocks):
            block = base + offset
            entry = self._covered.pop(block, None)
            if entry is None:
                continue
            self._insert_with_eviction(entry, block)
            self._mgd.block_entries[block] = entry

    def _region_dev(self, region: RegionEntry) -> None:
        """Evicting a region entry invalidates every cached block of the
        owner in that region -- a multi-block DEV event."""
        self.stats.dir_evictions += 1
        base = region.region * self._region_blocks
        generated = False
        for offset in range(self._region_blocks):
            block = base + offset
            entry = self._covered.pop(block, None)
            if entry is None:
                continue
            bank = self.bank_of(block)
            for sharer in list(entry.sharer_cores()):
                generated = True
                self.stats.dev_invalidations += 1
                self.stats.invalidations_sent += 1
                self.mesh.send_core_to_bank(MT.INV, sharer, bank.bank_id)
                line = self.cores[sharer].invalidate(
                    block, cause=InvCause.DEV)
                assert line is not None
                if line.state is MESI.M:
                    self.mesh.send_core_to_bank(MT.WRITEBACK, sharer,
                                                bank.bank_id)
                    self._install_llc_data(bank, block, line.version,
                                           dirty=True)
                else:
                    self.mesh.send_core_to_bank(MT.INV_ACK, sharer,
                                                bank.bank_id)
                entry.remove_sharer(sharer)
        if generated:
            self.stats.dev_events += 1

    # ------------------------------------------------------------------
    def _free_entry(self, entry: DirectoryEntry, bank: LLCBank,
                    evictor_version: int = 0,
                    evictor_core: Optional[int] = None) -> None:
        block = entry.block
        if block in self._covered:
            del self._covered[block]
            region = self._mgd.region_entries.get(self._region_of(block))
            if region is None:
                raise ProtocolInvariantError(
                    f"covered block {block:#x} has no region entry")
            region.block_count -= 1
            if region.block_count == 0:
                self._mgd.remove(region)
            return
        item = self._mgd.block_entries.get(block)
        if item is None:
            raise ProtocolInvariantError(
                f"no MgD entry to free for block {block:#x}")
        self._mgd.remove(item)
