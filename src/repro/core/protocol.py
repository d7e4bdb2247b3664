"""The ZeroDEV protocol (Section III): a DEV-free coherence system.

:class:`ZeroDEVSystem` extends the baseline socket with the paper's two
mechanisms:

1. **Directory-entry caching in the LLC** (Section III-C). The sparse
   directory -- if present at all -- is *replacement-disabled*: a new
   entry takes an invalid way or overflows straight into the LLC, either
   *fused* into the tracked block's own frame or *spilled* into a frame of
   its own, according to the configured :class:`DirCachingPolicy`
   (SpillAll / FusePrivateSpillShared / FuseAll).

2. **Invalidation-free entry eviction from the LLC** (Section III-D). A
   live entry evicted from the LLC overwrites the home-memory image of its
   block (``WB_DE``); the image is *corrupted* until healed by a real-data
   writeback or restored from the last evicting core. Demand accesses that
   find their entry in memory promote it back on chip (one extra cycle to
   extract, plus the DRAM read); eviction notices use the ``GET_DE``
   read-update-writeback flow instead.

The result, asserted at runtime: the private core caches **never** receive
an invalidation caused by directory-entry eviction, for any directory size
including no directory at all.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.caches.block import LLCLine, LineKind, MESI
from repro.caches.llc import LLCBank
from repro.coherence.directory import SparseDirectory
from repro.coherence.entry import DirectoryEntry, DirState, EntryLocation
from repro.coherence.protocol import CMPSystem
from repro.common.config import DirCachingPolicy, Protocol, SystemConfig
from repro.common.errors import ProtocolInvariantError
from repro.common.messages import MessageType as MT
from repro.core.housing import MemoryHousing
from repro.obs.events import EventKind, InvCause


# Enum members read by the transaction paths, bound once as module
# globals (see repro.coherence.protocol: on Python 3.11 each
# ``Enum.MEMBER`` read goes through ``EnumType.__getattr__``'s hook).
_MESI_M = MESI.M
_DIR_ME, _DIR_S = DirState.ME, DirState.S
_DATA_LINE, _FUSED_LINE, _SPILLED_LINE = (LineKind.DATA, LineKind.FUSED,
                                          LineKind.SPILLED)
_SPARSE, _MEMORY = EntryLocation.SPARSE, EntryLocation.MEMORY
_LLC_FUSED, _LLC_SPILLED = EntryLocation.LLC_FUSED, EntryLocation.LLC_SPILLED
_SPILL_ALL, _FPSS, _FUSE_ALL = (DirCachingPolicy.SPILL_ALL,
                                DirCachingPolicy.FPSS,
                                DirCachingPolicy.FUSE_ALL)
_INV, _INV_ACK, _WB_DE, _GET_DE, _DE_DATA = (MT.INV, MT.INV_ACK, MT.WB_DE,
                                             MT.GET_DE, MT.DE_DATA)
_EVICT_CLEAN_BITS, _EVICT_ACK = MT.EVICT_CLEAN_BITS, MT.EVICT_ACK
_SOCKET_RESTORE = MT.SOCKET_RESTORE


class ZeroDEVSystem(CMPSystem):
    """One socket running the ZeroDEV protocol."""

    PROTOCOL = Protocol.ZERODEV
    #: E-state notices carry the 3 + ceil(log2 N) low-order bits used to
    #: reconstruct a fused frame (Section III-C2).
    E_NOTICE = _EVICT_CLEAN_BITS

    def __init__(self, config: SystemConfig) -> None:
        super().__init__(config)
        self._housing = MemoryHousing()
        self._policy = config.dir_caching

    def _build_directory(self) -> Optional[SparseDirectory]:
        dcfg = self.config.directory
        if not dcfg.present:
            return None
        # ZeroDEV normally disables sparse-directory replacement: strictly
        # better, because an entry then disturbs at most one structure in
        # its whole life (Section III-C4). The replacement-enabled variant
        # is kept for the ablation study: a directory victim is relocated
        # to the LLC (never invalidated), disturbing two structures.
        return SparseDirectory(
            self.config.directory_entries, dcfg.ways,
            unbounded=dcfg.unbounded,
            replacement_disabled=not dcfg.zerodev_replacement_enabled)

    # ------------------------------------------------------------------
    # Entry lookup
    # ------------------------------------------------------------------
    def _lookup_in_socket(self, block: int) -> Optional[DirectoryEntry]:
        """Sparse directory, then spilled frame, then fused frame (one
        bank call; a spilled frame is touched: the entry is accessed)."""
        if self.directory is not None:
            entry = self.directory.lookup(block)
            if entry is not None:
                return entry
        return self.banks[block & self._bank_mask].entry_of(block)

    def _find_entry(self, block: int
                    ) -> Tuple[Optional[DirectoryEntry], int]:
        entry = self._lookup_in_socket(block)
        if entry is not None:
            return entry, 0
        if self._housing.peek(block) is None:
            return None, 0
        # The home-memory image is corrupted and holds the entry: read the
        # block, extract the entry (one additional cycle, Section III-D3),
        # and re-cache it on chip -- which also preserves the case-(iiib)
        # invariant when the data block is subsequently re-installed.
        self.stats.corrupted_block_reads += 1
        extra = self._entry_memory_read(block) + 1
        entry = self._housing.promote(block)
        if self.obs is not None:
            self.obs.emit(EventKind.ENTRY_EXTRACT, block=block)
        self._place_entry(entry, self.banks[block & self._bank_mask])
        return entry, extra

    def _find_entry_for_notice(self, block: int, bank: LLCBank
                               ) -> Optional[DirectoryEntry]:
        """Eviction notices use GET_DE (Section III-D4): the housed entry
        is read, updated in place, and written back -- not promoted."""
        entry = self._lookup_in_socket(block)
        if entry is not None:
            return entry
        entry = self._housing.peek(block)
        if entry is None:
            return None
        self.stats.get_de_messages += 1
        self.stats.record_message(_GET_DE)
        self.stats.record_message(_DE_DATA)
        if self.obs is not None:
            self.obs.emit(EventKind.GET_DE, block=block)
        self._entry_memory_read(block)
        return entry

    def _notice_done(self, entry: DirectoryEntry, bank: LLCBank) -> None:
        if entry.location is _MEMORY:
            # Step 6 of Figure 16: the updated entry is written back.
            self._entry_memory_write(entry)

    # ------------------------------------------------------------------
    # Memory-side seams (re-routed by the multi-socket layer)
    # ------------------------------------------------------------------
    def _entry_memory_read(self, block: int) -> int:
        """Read the corrupted home block holding a directory entry."""
        if self.memory_side is not None:
            return self.memory_side.entry_read(self, block)
        return self.dram.read(block)

    def _entry_memory_write(self, entry: DirectoryEntry) -> int:
        """Write a (new or updated) housed entry to the home block."""
        if self.memory_side is not None:
            return self.memory_side.entry_write(self, entry)
        return self.dram.write(entry.block, from_entry_eviction=True)

    def _peek_entry(self, block: int) -> Optional[DirectoryEntry]:
        if self.directory is not None:
            entry = self.directory.peek(block)
            if entry is not None:
                return entry
        entry = self.banks[block & self._bank_mask].entry_of(block,
                                                             touch=False)
        if entry is not None:
            return entry
        return self._housing.peek(block)

    # ------------------------------------------------------------------
    # Entry allocation and placement
    # ------------------------------------------------------------------
    def _allocate_entry(self, block: int, state: DirState, requester: int,
                        owner: Optional[int], bank: LLCBank
                        ) -> DirectoryEntry:
        self.stats.dir_allocations += 1
        entry = DirectoryEntry(block, state, owner=owner,
                               sharers=1 << requester)
        if self.directory is None:
            self._place_entry_in_llc(entry, bank)
        else:
            self._place_entry(entry, bank)
        return entry

    def _place_entry(self, entry: DirectoryEntry, bank: LLCBank) -> None:
        """Sparse directory if an invalid way exists, else the LLC
        (``bank`` is the entry's home bank).

        With the replacement-enabled ablation variant, a full set instead
        evicts its NRU victim and relocates it to the LLC -- no DEVs
        either way, but the entry disturbs two structures over its life
        (the design Section III-C4 argues against).
        """
        directory = self.directory
        if directory is not None:
            if self.config.directory.zerodev_replacement_enabled:
                victim = directory.evict_for(entry.block)
                if victim is not None:
                    self.stats.dir_evictions += 1
                    self._place_entry_in_llc(victim,
                                             self.bank_of(victim.block))
                directory.insert(entry)
                return
            if directory.has_room(entry.block):
                directory.insert(entry)
                return
        self._place_entry_in_llc(entry, bank)

    def _place_entry_in_llc(self, entry: DirectoryEntry,
                            bank: LLCBank) -> None:
        """Apply the configured directory-entry caching policy.

        Under EPD, owned blocks are not LLC-resident, so fusion is never
        possible (Section III-E) -- every overflowing entry spills.
        """
        if self._policy is not _SPILL_ALL and not self._epd:
            fuse_ok = entry.state is _DIR_ME or self._policy is _FUSE_ALL
            if fuse_ok and bank.fuse(entry.block, entry):
                self.stats.entries_fused += 1
                return
        self._spill(entry, bank)

    def _spill(self, entry: DirectoryEntry, bank: LLCBank) -> None:
        """Allocate a full LLC frame for ``entry`` in its block's set."""
        self.stats.entries_spilled += 1
        entry.location = _LLC_SPILLED
        victim = bank.insert(LLCLine(entry.block, _SPILLED_LINE,
                                     entry=entry))
        if victim is not None:
            self._handle_llc_victim(bank, victim)

    # ------------------------------------------------------------------
    # Entry lifecycle transitions (the FPSS invariants, Section III-C2)
    # ------------------------------------------------------------------
    def _entry_state_changed(self, entry: DirectoryEntry,
                             old_state: DirState, bank: LLCBank) -> None:
        if entry.state is old_state:
            return
        if self._policy is not _FPSS:
            return
        if (entry.state is _DIR_ME
                and entry.location is _LLC_SPILLED
                and not self._epd):
            # S -> M/E with a spilled entry: fuse it with the block and
            # free the spill frame, keeping the read fast-path invariant.
            line = bank.peek_data(entry.block)
            if line is not None and line.kind is _DATA_LINE:
                bank.free_spill(entry.block)
                fused = bank.fuse(entry.block, entry)
                assert fused
                self.stats.spill_to_fuse += 1
        elif entry.state is _DIR_S and entry.location is _LLC_FUSED:
            # M/E -> S with a fused entry: the block is being
            # reconstructed (the busy-clear carries the low bits), and the
            # entry is spilled into the same set.
            bank.unfuse(entry.block)
            self.stats.fuse_to_spill += 1
            self._spill(entry, bank)

    def _data_allocated(self, bank: LLCBank, block: int) -> None:
        """A DATA frame was just installed: re-fuse a spilled entry when
        the policy wants it fused (FuseAll always; FPSS for M/E)."""
        if self._epd:
            return
        spill = bank.peek_spill(block)
        if spill is None:
            return
        entry = spill.entry
        assert entry is not None
        fuse_ok = (self._policy is _FUSE_ALL
                   or (self._policy is _FPSS and entry.state is _DIR_ME))
        if fuse_ok:
            bank.free_spill(block)
            fused = bank.fuse(block, entry)
            assert fused
            self.stats.spill_to_fuse += 1

    def _data_arrived_at_fused(self, bank: LLCBank, line: LLCLine) -> None:
        """Fresh data written around the fused bits: nothing to do -- the
        frame keeps both the entry and the (refreshed) data."""

    # ------------------------------------------------------------------
    # Freeing entries
    # ------------------------------------------------------------------
    def _free_entry(self, entry: DirectoryEntry, bank: LLCBank,
                    evictor_version: int = 0,
                    evictor_core: Optional[int] = None) -> None:
        block = entry.block
        location = entry.location
        if location is _SPARSE:
            assert self.directory is not None
            self.directory.remove(block)
        elif location is _LLC_SPILLED:
            bank.free_spill(block)
        elif location is _LLC_FUSED:
            bank.unfuse(block)
            if (self._policy is _FUSE_ALL
                    and entry.state is _DIR_S
                    and evictor_core is not None):
                # Retrieve the 4+N low bits from the last sharer's
                # eviction buffer to reconstruct the block (Sec III-C3).
                self.mesh.send_core_to_bank(_EVICT_ACK, evictor_core,
                                            bank.bank_id)
                self.mesh.send_core_to_bank(_EVICT_CLEAN_BITS,
                                            evictor_core, bank.bank_id)
        elif location is not _MEMORY:
            raise ProtocolInvariantError(
                f"entry for block {block:#x} in unknown location")
        if location is _MEMORY:
            if "skip-corrupt-restore" in self.mutations:
                # Seeded bug: the restore message is dropped -- the entry
                # bits stay housed in home memory (garbage marker and
                # all) while the protocol forgets the entry existed.
                return
            self._housing.restore(block)
        if self.memory_side is not None:
            # Multi-socket: only the home knows whether this was the
            # system-wide last copy; the presence-lost notice that follows
            # carries the data for a potential restore.
            return
        if self._housing.is_garbage(block) or (
                location is _MEMORY):
            # The last private copy is going away while home memory is
            # corrupted: the block is retrieved from the evicting core and
            # written over the housed entry (Section III-D4).
            self._restore_memory(block, evictor_version, evictor_core,
                                 bank)

    def _restore_memory(self, block: int, version: int,
                        evictor_core: Optional[int],
                        bank: LLCBank) -> None:
        self.stats.corrupted_blocks_restored += 1
        if self.obs is not None:
            self.obs.emit(EventKind.MEM_RESTORE, block=block)
        if evictor_core is not None:
            self.stats.record_message(_SOCKET_RESTORE)
        self.dram.write(block)
        self._dram_version[block] = version
        self._housing.restore(block)

    # ------------------------------------------------------------------
    # LLC eviction handling (the second ZeroDEV mechanism)
    # ------------------------------------------------------------------
    def _entry_frame_evicted(self, bank: LLCBank, victim: LLCLine) -> None:
        entry = victim.entry
        assert entry is not None
        if self._inclusive:
            if victim.kind is _SPILLED_LINE:
                self._inclusive_spilled_eviction(bank, victim, entry)
            else:
                self._inclusive_fused_eviction(bank, victim, entry)
            return
        if self._housing.peek(victim.block) is not None:
            raise ProtocolInvariantError(
                f"block {victim.block:#x} would house two entries")
        # The fused frame's data (if any) survives in the private caches
        # the entry is tracking; only the entry needs a home.
        self._writeback_entry_to_memory(entry)

    def _inclusive_spilled_eviction(self, bank: LLCBank, victim: LLCLine,
                                    entry: DirectoryEntry) -> None:
        """Inclusive LLC: a spilled-entry victim means the block itself
        must go -- inclusion invalidates the private copies, the entry
        dies with them, and the block's own frame is freed as well, so
        no entry is ever written to memory (Section III-F)."""
        data = bank.peek_data(victim.block)
        version = data.version if data is not None else 0
        dirty = data.dirty if data is not None else False
        for sharer in list(entry.sharer_cores()):
            self.stats.inclusion_invalidations += 1
            self.stats.record_message(_INV)
            self.stats.record_message(_INV_ACK)
            line = self.cores[sharer].invalidate(victim.block,
                                                 cause=InvCause.INCLUSION)
            assert line is not None
            if line.state is _MESI_M:
                version, dirty = line.version, True
            entry.remove_sharer(sharer)
        if data is not None:
            bank.remove(data)
        if dirty:
            self.stats.llc_writebacks_to_dram += 1
            if self.memory_side is not None:
                self.memory_side.writeback(self, victim.block, version)
            else:
                self.dram.write(victim.block)
                self._dram_version[victim.block] = version
                self._memory_healed(victim.block)
        self._presence_lost(victim.block, version)

    def _inclusive_fused_eviction(self, bank: LLCBank, victim: LLCLine,
                                  entry: DirectoryEntry) -> None:
        """Inclusive LLC: evicting a fused frame back-invalidates the
        private copies, which frees the entry -- so no directory entry is
        ever written to memory (Section III-F)."""
        version, dirty = victim.version, victim.dirty
        for sharer in list(entry.sharer_cores()):
            self.stats.inclusion_invalidations += 1
            self.stats.record_message(_INV)
            self.stats.record_message(_INV_ACK)
            line = self.cores[sharer].invalidate(victim.block,
                                                 cause=InvCause.INCLUSION)
            assert line is not None
            if line.state is _MESI_M:
                version, dirty = line.version, True
            entry.remove_sharer(sharer)
        if dirty:
            self.stats.llc_writebacks_to_dram += 1
            if self.memory_side is not None:
                self.memory_side.writeback(self, victim.block, version)
            else:
                self.dram.write(victim.block)
                self._dram_version[victim.block] = version
                self._memory_healed(victim.block)
        self._presence_lost(victim.block, version)

    def _writeback_entry_to_memory(self, entry: DirectoryEntry) -> None:
        """WB_DE: the evicted live entry overwrites its home block."""
        if self._inclusive:
            raise ProtocolInvariantError(
                "inclusive LLC must never evict a live directory entry")
        self.stats.entry_llc_evictions += 1
        self.stats.wb_de_messages += 1
        self.stats.record_message(_WB_DE)
        if self.obs is not None:
            self.obs.emit(EventKind.ENTRY_WB_DE, block=entry.block)
        entry.location = _MEMORY
        self._housing.house(entry.block, entry)
        self._entry_memory_write(entry)

    def _memory_healed(self, block: int) -> None:
        if self._housing.peek(block) is not None:
            raise ProtocolInvariantError(
                f"real data written over the housed entry of {block:#x}")
        if self._housing.is_garbage(block):
            self._housing.heal(block)
            if self.obs is not None:
                self.obs.emit(EventKind.MEM_HEAL, block=block)

    def _memory_fetch_latency(self, block: int) -> int:
        if self._housing.is_garbage(block):
            raise ProtocolInvariantError(
                f"demand fetch of corrupted home block {block:#x}")
        return self.dram.read(block)

    # ------------------------------------------------------------------
    # Critical-path effects of the caching policies
    # ------------------------------------------------------------------
    def _llc_serves_shared_read(self, entry: DirectoryEntry,
                                llc_line: Optional[LLCLine],
                                bank: LLCBank) -> Tuple[bool, int]:
        if llc_line is None:
            return False, 0
        if llc_line.kind is _FUSED_LINE:
            # FuseAll: a fused shared block cannot supply data; the read
            # is forwarded to an elected sharer (three hops).
            self.stats.fused_read_forwards += 1
            return False, 0
        penalty = 0
        if self._policy is _SPILL_ALL and entry.location is _LLC_SPILLED:
            # Two tag matches: SpillAll reads the entry out of the data
            # array before the block (Section III-C1).
            self.stats.extra_data_array_reads += 1
            penalty = self._lat.llc_data
        return True, penalty

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """The base checks plus ZeroDEV's: no DEV, every spilled or
        fused frame's entry where its frame says, the FPSS placement
        rule, and case (iiib).  Walks each bank's frame lists directly;
        returns what the base check returns."""
        found = super().check_invariants()
        if self.stats.dev_invalidations or self.stats.dev_events:
            raise ProtocolInvariantError(
                "ZeroDEV generated directory eviction victims")
        fpss = self._policy is _FPSS
        for bank in self.banks:
            for frames in bank._frames:
                for frame in frames:
                    kind = frame.kind
                    if kind is _SPILLED_LINE:
                        entry = frame.entry
                        assert entry is not None
                        if entry.location is not _LLC_SPILLED:
                            raise ProtocolInvariantError(
                                f"spill frame/location mismatch for block "
                                f"{frame.block:#x}")
                        if (fpss
                                and entry.state is _DIR_ME
                                and bank.peek_data(frame.block)
                                is not None):
                            raise ProtocolInvariantError(
                                f"FPSS invariant: M/E entry of resident "
                                f"block {frame.block:#x} is spilled, not "
                                f"fused")
                    elif kind is _FUSED_LINE:
                        entry = frame.entry
                        assert entry is not None
                        if entry.location is not _LLC_FUSED:
                            raise ProtocolInvariantError(
                                f"fused frame/location mismatch for block "
                                f"{frame.block:#x}")
                        if fpss and entry.state is not _DIR_ME:
                            raise ProtocolInvariantError(
                                f"FPSS invariant: fused entry of block "
                                f"{frame.block:#x} is not M/E")
        for block in self._housing.housed_blocks():
            if self.bank_of(block).peek_data(block) is not None:
                raise ProtocolInvariantError(
                    f"case (iiib): block {block:#x} resident in LLC while "
                    "its entry is housed in memory")
        return found
