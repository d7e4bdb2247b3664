"""SecDir: a secure directory to defeat directory side-channel attacks.

Re-implementation of Yan et al., ISCA 2019, as the paper's security
baseline (Figure 27). The sparse directory is split into a *shared*
partition and one *private* partition per core:

* A new entry starts life in the shared partition.
* An entry evicted from the shared partition migrates into the private
  partitions of its sharer cores (one presence slot per sharer; private
  slots carry no sharer list, which is the iso-storage saving).
* A cross-core conflict in the shared partition therefore no longer
  directly invalidates private copies -- but a private-partition
  *self-conflict* evicts a presence slot and must invalidate that core's
  copy: an (indirect) DEV. Internal fragmentation of the per-core
  partitions is what degrades SecDir at small directory ratios
  (Section V: 11% average loss, 18% max, for the 128-core server group at
  one-eighth size).

Sizing follows the paper's iso-storage rule: for a baseline slice of
``S`` sets x 8 ways, SecDir gets a shared partition of ``S`` sets x 5 ways
and per-core private partitions of ``S/16`` sets x 7 ways.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.caches.block import L2Line, MESI
from repro.caches.llc import LLCBank
from repro.coherence.directory import SparseDirectory
from repro.coherence.entry import DirectoryEntry, DirState, EntryLocation
from repro.coherence.protocol import CMPSystem
from repro.common.addressing import set_index
from repro.common.config import Protocol, SystemConfig
from repro.common.errors import ConfigError, ProtocolInvariantError
from repro.common.messages import MessageType as MT
from repro.obs.events import InvCause


class _PrivatePartition:
    """One core's private partition: presence slots in LRU sets."""

    def __init__(self, sets: int, ways: int) -> None:
        self.sets = sets
        self.ways = ways
        self._sets: List[List[int]] = [[] for _ in range(sets)]
        self._resident: Dict[int, int] = {}      # block -> set index

    def __contains__(self, block: int) -> bool:
        return block in self._resident

    def touch(self, block: int) -> None:
        idx = self._resident.get(block)
        if idx is not None:
            slots = self._sets[idx]
            slots.remove(block)
            slots.append(block)

    def insert(self, block: int) -> Optional[int]:
        """Insert a presence slot; returns a victim block if one was
        displaced by a self-conflict."""
        idx = set_index(block, self.sets)
        slots = self._sets[idx]
        victim = None
        if len(slots) >= self.ways:
            victim = slots.pop(0)
            del self._resident[victim]
        slots.append(block)
        self._resident[block] = idx
        return victim

    def remove(self, block: int) -> None:
        idx = self._resident.pop(block, None)
        if idx is not None:
            self._sets[idx].remove(block)


class SecDirDirectory:
    """Shared partition + per-core private partitions."""

    def __init__(self, baseline_entries: int, baseline_ways: int,
                 n_cores: int, shared_ways: int, private_ways: int
                 ) -> None:
        if baseline_entries <= 0:
            raise ConfigError("SecDir needs a sized baseline directory")
        sets = max(1, baseline_entries // baseline_ways)
        self.shared = SparseDirectory(sets * shared_ways, shared_ways)
        private_sets = max(1, sets // 16)
        self.privates = [
            _PrivatePartition(private_sets, private_ways)
            for _ in range(n_cores)
        ]
        #: Entries evicted from the shared partition, now represented by
        #: per-core presence slots. Maps block -> entry.
        self.private_resident: Dict[int, DirectoryEntry] = {}

    def lookup(self, block: int) -> Optional[DirectoryEntry]:
        entry = self.shared.lookup(block)
        if entry is not None:
            return entry
        entry = self.private_resident.get(block)
        if entry is not None:
            for core in entry.sharer_cores():
                self.privates[core].touch(block)
        return entry

    def peek(self, block: int) -> Optional[DirectoryEntry]:
        entry = self.shared.peek(block)
        if entry is not None:
            return entry
        return self.private_resident.get(block)


class SecDirSystem(CMPSystem):
    """Baseline socket with the SecDir directory organization."""

    PROTOCOL = Protocol.SECDIR

    def _build_directory(self):
        config = self.config
        self._secdir = SecDirDirectory(
            config.directory_entries, config.directory.ways,
            config.n_cores, config.secdir_shared_ways,
            config.secdir_private_ways)
        return None   # the base-class sparse directory is unused

    # ------------------------------------------------------------------
    def _find_entry(self, block: int
                    ) -> Tuple[Optional[DirectoryEntry], int]:
        entry = self._secdir.lookup(block)
        if entry is not None and block in self._secdir.private_resident:
            # A demand access re-unifies a private-resident entry into
            # the shared partition.
            self._unify(entry)
        return entry, 0

    def _find_entry_for_notice(self, block: int, bank: LLCBank
                               ) -> Optional[DirectoryEntry]:
        return self._secdir.lookup(block)

    def _peek_entry(self, block: int) -> Optional[DirectoryEntry]:
        return self._secdir.peek(block)

    # ------------------------------------------------------------------
    def _allocate_entry(self, block: int, state: DirState, requester: int,
                        owner: Optional[int], bank: LLCBank
                        ) -> DirectoryEntry:
        self.stats.dir_allocations += 1
        entry = DirectoryEntry(block, state, owner=owner,
                               sharers=1 << requester)
        self._insert_shared(entry)
        return entry

    def _insert_shared(self, entry: DirectoryEntry) -> None:
        shared = self._secdir.shared
        victim = shared.evict_for(entry.block)
        if victim is not None:
            self._migrate_to_private(victim)
        shared.insert(entry)

    def _unify(self, entry: DirectoryEntry) -> None:
        """Move a private-resident entry back into the shared partition."""
        del self._secdir.private_resident[entry.block]
        for core in entry.sharer_cores():
            self._secdir.privates[core].remove(entry.block)
        self._insert_shared(entry)

    def _migrate_to_private(self, entry: DirectoryEntry) -> None:
        """A shared-partition victim migrates to its sharers' private
        partitions; private self-conflicts generate (indirect) DEVs."""
        self._secdir.private_resident[entry.block] = entry
        entry.location = EntryLocation.SPARSE
        for core in list(entry.sharer_cores()):
            victim_block = self._secdir.privates[core].insert(entry.block)
            if victim_block is not None:
                self._private_slot_dev(core, victim_block)

    def _private_slot_dev(self, core: int, block: int) -> None:
        """A private-partition self-conflict invalidates ``core``'s copy
        of ``block`` -- the DEV path SecDir cannot close."""
        entry = self._secdir.peek(block)
        if entry is None or not entry.is_sharer(core):
            raise ProtocolInvariantError(
                f"private slot for untracked block {block:#x}")
        bank = self.bank_of(block)
        self.stats.dev_invalidations += 1
        self.stats.dev_events += 1
        self.stats.invalidations_sent += 1
        self.mesh.send_core_to_bank(MT.INV, core, bank.bank_id)
        line = self.cores[core].invalidate(block, cause=InvCause.DEV)
        assert line is not None
        if line.state is MESI.M:
            self.mesh.send_core_to_bank(MT.WRITEBACK, core, bank.bank_id)
            self._install_llc_data(bank, block, line.version, dirty=True)
        else:
            self.mesh.send_core_to_bank(MT.INV_ACK, core, bank.bank_id)
        entry.remove_sharer(core)
        if entry.empty:
            self._drop_entry(entry)

    def _drop_entry(self, entry: DirectoryEntry) -> None:
        if entry.block in self._secdir.private_resident:
            del self._secdir.private_resident[entry.block]
            for core in entry.sharer_cores():
                self._secdir.privates[core].remove(entry.block)
        else:
            self._secdir.shared.remove(entry.block)

    def _free_entry(self, entry: DirectoryEntry, bank: LLCBank,
                    evictor_version: int = 0,
                    evictor_core: Optional[int] = None) -> None:
        if entry.block in self._secdir.private_resident:
            del self._secdir.private_resident[entry.block]
        else:
            self._secdir.shared.remove(entry.block)

    def _process_notice(self, core: int, line: L2Line) -> None:
        # Keep the evicting core's private slot (if any) in sync before
        # the generic notice handling updates the entry.
        self._secdir.privates[core].remove(line.block)
        super()._process_notice(core, line)
