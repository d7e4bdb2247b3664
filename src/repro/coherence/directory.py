"""The sparse directory structure.

An eight-way set-associative array of :class:`DirectoryEntry` with 1-bit
NRU replacement (Table I). Three provisioning modes:

* **sized** (``ratio`` given): the classic baseline. A full set forces an
  NRU victim whose private copies become DEVs -- the caller handles that.
* **unbounded**: unlimited capacity, never evicts (the Figure 2/3
  reference system).
* **replacement-disabled** (ZeroDEV, Section III-C4): a new entry only
  takes an invalid way; when the set is full the entry overflows to the
  LLC instead, so the structure itself never evicts anything.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.coherence.entry import DirectoryEntry, EntryLocation
from repro.common.errors import ProtocolInvariantError, SimulationError
from repro.obs.events import EventKind

# Bound once: on Python 3.11 each ``Enum.MEMBER`` read goes through
# ``EnumType.__getattr__``'s Python-level hook.
_SPARSE = EntryLocation.SPARSE


class SparseDirectory:
    """Set-associative sparse directory with 1-bit NRU replacement."""

    #: Observability seam (repro.obs): None = tracing disabled.
    obs = None

    def __init__(self, entries: int, ways: int, unbounded: bool = False,
                 replacement_disabled: bool = False) -> None:
        if unbounded:
            self.sets = 0
            self.ways = 0
        else:
            if entries % ways:
                raise SimulationError(
                    f"{entries} entries not divisible by {ways} ways")
            self.sets = entries // ways
            self.ways = ways
        self.unbounded = unbounded
        self.replacement_disabled = replacement_disabled
        # Unbounded: one (unused) set, and every block maps to it.
        self._set_mask = max(self.sets - 1, 0)
        self._sets: List[List[DirectoryEntry]] = [
            [] for _ in range(max(self.sets, 1))]
        self._index: Dict[int, DirectoryEntry] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, block: int) -> bool:
        return block in self._index

    def set_of(self, block: int) -> int:
        return block & self._set_mask

    # ------------------------------------------------------------------
    def lookup(self, block: int) -> Optional[DirectoryEntry]:
        """Find the entry tracking ``block``; marks it recently used."""
        entry = self._index.get(block)
        if entry is not None:
            entry.nru_ref = True
        return entry

    def peek(self, block: int) -> Optional[DirectoryEntry]:
        """Lookup without touching NRU metadata (invariant checks)."""
        return self._index.get(block)

    def has_room(self, block: int) -> bool:
        """True when ``block``'s set has an invalid way (or unbounded)."""
        if self.unbounded:
            return True
        return len(self._sets[block & self._set_mask]) < self.ways

    def insert(self, entry: DirectoryEntry) -> None:
        """Install ``entry``; the caller must have made room."""
        block = entry.block
        if block in self._index:
            raise ProtocolInvariantError(
                f"duplicate directory entry for block {block:#x}")
        if not self.unbounded:
            ways = self._sets[block & self._set_mask]
            if len(ways) >= self.ways:
                raise ProtocolInvariantError(
                    f"directory set {block & self._set_mask} is full; "
                    "caller must evict (baseline) or overflow to LLC "
                    "(ZeroDEV)")
            ways.append(entry)
        entry.location = _SPARSE
        entry.nru_ref = True
        self._index[block] = entry
        if self.obs is not None:
            self.obs.emit(EventKind.DIR_INSERT, block=block)

    def choose_victim(self, block: int) -> DirectoryEntry:
        """NRU victim of ``block``'s set (baseline DEV generation).

        Picks the first way with a clear reference bit; if every bit is
        set, all bits are cleared first (the standard 1-bit NRU sweep).
        """
        if self.unbounded or self.replacement_disabled:
            raise ProtocolInvariantError(
                "victim requested from a directory that never evicts")
        ways = self._sets[block & self._set_mask]
        if len(ways) < self.ways:
            raise ProtocolInvariantError(
                "victim requested although the set has room")
        for entry in ways:
            if not entry.nru_ref:
                return entry
        for entry in ways:
            entry.nru_ref = False
        return ways[0]

    def remove(self, block: int) -> DirectoryEntry:
        """Remove and return the entry for ``block``."""
        entry = self._index.pop(block, None)
        if entry is None:
            raise ProtocolInvariantError(
                f"no directory entry for block {block:#x} to remove")
        if not self.unbounded:
            self._sets[block & self._set_mask].remove(entry)
        if self.obs is not None:
            self.obs.emit(EventKind.DIR_REMOVE, block=block)
        return entry

    # ------------------------------------------------------------------
    def entries(self):
        return self._index.values()

    def occupancy(self) -> int:
        return len(self._index)
