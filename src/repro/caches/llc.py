"""One LLC bank, including ZeroDEV's spilled/fused directory-entry frames.

An LLC set may simultaneously hold a data block B (``V=1``) and B's spilled
directory entry (``V=0, D=1, b0=1``) under the same tag -- the "two tag
matches" case of Section III-C. Fused entries occupy no extra frame: the
block's own frame is re-marked ``V=0, D=1, b0=0`` and the entry rides in
its low-order bits.

The bank implements the three replacement policies of the study:

* ``LRU``     -- baseline true LRU.
* ``spLRU``   -- on a data access, the block is touched first and its
  spilled entry is then moved to MRU, so the block always ages out first.
* ``dataLRU`` -- the LRU *ordinary* (``V=1``) block is evicted before any
  spilled or fused entry in the set.

Each protocol action on the bank is one call that does its own dict
work (DESIGN.md §8): ``entry_of`` is ZeroDEV's whole in-bank entry
search (spilled frame, then fused frame), touching a spilled hit as an
access or leaving the order alone as a probe; ``insert`` and ``remove``
pick the frame's index themselves; ``fuse`` and ``unfuse`` read the
module-global enum members below.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.caches.block import LLCLine, LineKind
from repro.coherence.entry import DirectoryEntry, EntryLocation
from repro.common.config import LLCReplacement
from repro.common.errors import ProtocolInvariantError, SimulationError
from repro.obs.events import EventKind

# Enum members read on every insert, remove, fuse and unfuse, bound once
# as module globals: on Python 3.11 each ``Enum.MEMBER`` read goes
# through ``EnumType.__getattr__``'s Python-level hook.
_DATA, _FUSED, _SPILLED = LineKind.DATA, LineKind.FUSED, LineKind.SPILLED
_LLC_FUSED = EntryLocation.LLC_FUSED


class LLCBank:
    """Set-associative LLC bank with entry-aware replacement."""

    #: Observability seam (repro.obs): None = tracing disabled.
    obs = None
    #: Seeded-mutation seam (repro.verify.mutations): names of armed
    #: protocol mutations. Empty on every real run; the verify layer
    #: arms these to prove its checkers catch the seeded bug.
    mutations: frozenset = frozenset()

    def __init__(self, bank_id: int, sets: int, ways: int,
                 replacement: LLCReplacement, n_banks: int) -> None:
        self.bank_id = bank_id
        self.sets = sets
        self.ways = ways
        self.replacement = replacement
        self._sp_lru = replacement is LLCReplacement.SP_LRU
        self._data_lru = replacement is LLCReplacement.DATA_LRU
        self._bank_bits = n_banks.bit_length() - 1
        self._set_mask = sets - 1
        self._frames: List[List[LLCLine]] = [[] for _ in range(sets)]
        self._data_index: Dict[int, LLCLine] = {}   # DATA or FUSED frames
        self._spill_index: Dict[int, LLCLine] = {}  # SPILLED frames

    # ------------------------------------------------------------------
    def set_of(self, block: int) -> int:
        return (block >> self._bank_bits) & self._set_mask

    # ------------------------------------------------------------------
    # Lookup / recency
    # ------------------------------------------------------------------
    def lookup_data(self, block: int, touch: bool = True
                    ) -> Optional[LLCLine]:
        """The DATA or FUSED frame of ``block``, with policy-aware touch."""
        line = self._data_index.get(block)
        if line is not None and touch:
            frames = self._frames[(block >> self._bank_bits)
                                  & self._set_mask]
            if frames[-1] is not line:
                frames.remove(line)
                frames.append(line)
            if self._sp_lru:
                spill = self._spill_index.get(block)
                if spill is not None:
                    self._touch(spill)  # entry ends above its block
        return line

    def entry_of(self, block: int, touch: bool = True
                 ) -> Optional[DirectoryEntry]:
        """The directory entry ``block`` keeps in this bank: its spilled
        frame's, else its fused frame's, else None.  A spilled hit with
        ``touch`` moves that frame to MRU (the entry is being accessed;
        spLRU keeps it above its block that way); a fused frame is the
        block's own and is left where it is."""
        line = self._spill_index.get(block)
        if line is not None:
            if touch:
                frames = self._frames[(block >> self._bank_bits)
                                      & self._set_mask]
                if frames[-1] is not line:
                    frames.remove(line)
                    frames.append(line)
            return line.entry
        line = self._data_index.get(block)
        if line is not None and line.kind is _FUSED:
            return line.entry
        return None

    def _touch(self, line: LLCLine) -> None:
        """Move ``line`` to MRU (frames are found by identity)."""
        frames = self._frames[(line.block >> self._bank_bits)
                              & self._set_mask]
        if frames[-1] is not line:
            frames.remove(line)
            frames.append(line)

    def peek_data(self, block: int) -> Optional[LLCLine]:
        """The DATA/FUSED frame of ``block`` without touching recency."""
        return self._data_index.get(block)

    def peek_spill(self, block: int) -> Optional[LLCLine]:
        """The SPILLED frame of ``block`` without touching recency."""
        return self._spill_index.get(block)

    # ------------------------------------------------------------------
    # Insertion / eviction
    # ------------------------------------------------------------------
    def choose_victim(self, set_idx: int,
                      protect_block: Optional[int] = None) -> LLCLine:
        """Pick the replacement victim of ``set_idx`` per the policy.

        ``protect_block`` shields every frame of that block (the block a
        transaction is currently working on, held busy in hardware):
        evicting a block's own spilled entry while installing the block
        would recreate the case-(iiib) hazard of Section III-D2, and
        evicting the block itself while spilling its entry would, in an
        inclusive LLC, invalidate the very copies the entry tracks.

        The selection order is deterministic at every tier (``frames``
        is kept in LRU-to-MRU order, never iterated through a dict):

        1. dataLRU only: the least-recent unprotected *ordinary* (DATA)
           frame.
        2. The least-recent unprotected frame of any kind -- under
           dataLRU this is the all-protected-data fallback where the
           set holds nothing but spilled/fused entry frames (plus,
           possibly, the protected block), and the oldest *entry* frame
           is sacrificed (its directory entry escalates to WB_DE).
        3. Every frame belongs to ``protect_block`` (at most its data
           frame plus its spilled-entry frame, so only reachable in a
           2-way set): the overall LRU frame, as a last resort --
           callers installing a frame always have room in this case
           because insert() only evicts from a *full* set, which a
           2-frame protected set cannot be while inserting a third
           frame of the same block is banned by the duplicate check.
        """
        frames = self._frames[set_idx]
        if not frames:
            raise SimulationError(f"victim requested from empty set "
                                  f"{set_idx} of bank {self.bank_id}")
        # A block number never equals None, so ``protect_block=None``
        # protects nothing.
        if self._data_lru:
            for line in frames:                 # LRU-to-MRU order
                if line.kind is _DATA and line.block != protect_block:
                    return line
        for line in frames:                     # LRU-to-MRU order
            if line.block != protect_block:
                return line
        return frames[0]                        # overall LRU, last resort

    def insert(self, line: LLCLine,
               protect_block: Optional[int] = None) -> Optional[LLCLine]:
        """Insert ``line`` at MRU; returns the policy victim if one was
        displaced. The caller handles the victim (writeback / WB_DE).

        The inserted line's own block is always protected from victim
        selection (its other frame may be in the same set)."""
        block = line.block
        index = (self._spill_index if line.kind is _SPILLED
                 else self._data_index)
        if block in index:
            raise SimulationError(
                f"bank {self.bank_id}: duplicate {line.kind.value} frame "
                f"for block {block:#x}")
        set_idx = (block >> self._bank_bits) & self._set_mask
        frames = self._frames[set_idx]
        victim: Optional[LLCLine] = None
        if len(frames) >= self.ways:
            victim = self.choose_victim(
                set_idx, protect_block if protect_block is not None
                else block)
            frames.remove(victim)
            if victim.kind is _SPILLED:
                del self._spill_index[victim.block]
            else:
                del self._data_index[victim.block]
        frames.append(line)
        index[block] = line
        if self._sp_lru and line.kind is not _SPILLED:
            # spLRU orders a block's spilled entry *above* the block so
            # the block ages out first; a (re)inserted data frame lands
            # at MRU and would invert that, letting replacement evict
            # the live entry while its block stays resident (the
            # case-(iiib) hazard). Restore the entry-above-block order.
            spill = self._spill_index.get(block)
            if spill is not None and \
                    "drop-splru-reorder" not in self.mutations:
                self._touch(spill)
        if self.obs is not None:
            if line.kind is _SPILLED:
                self.obs.emit(EventKind.ENTRY_SPILL, block=line.block)
            if victim is not None:
                self.obs.emit(EventKind.LLC_EVICT, block=victim.block,
                              cause=victim.kind._value_)
        return victim

    def remove(self, line: LLCLine) -> None:
        block = line.block
        self._frames[(block >> self._bank_bits)
                     & self._set_mask].remove(line)
        if line.kind is _SPILLED:
            del self._spill_index[block]
        else:
            del self._data_index[block]

    # ------------------------------------------------------------------
    # ZeroDEV entry management on existing frames
    # ------------------------------------------------------------------
    def fuse(self, block: int, entry: DirectoryEntry) -> bool:
        """Fuse ``entry`` into the resident data frame of its block.

        Returns False when the block is not in this bank (the caller then
        spills instead). Fusing costs no extra frame; the frame becomes
        (V=0, D=1, b0=0) with the block's dirtiness preserved in b1.
        """
        line = self._data_index.get(block)
        if line is None or line.kind is not _DATA:
            return False
        line.kind = _FUSED
        line.entry = entry
        entry.location = _LLC_FUSED
        if self.obs is not None:
            self.obs.emit(EventKind.ENTRY_FUSE, block=block)
        return True

    def unfuse(self, block: int) -> DirectoryEntry:
        """Detach the fused entry, restoring the frame to an ordinary
        block (the reconstruction step of Section III-C2)."""
        line = self._data_index.get(block)
        if line is None or line.kind is not _FUSED:
            raise ProtocolInvariantError(
                f"no fused entry for block {block:#x} in bank "
                f"{self.bank_id}")
        entry = line.entry
        assert entry is not None
        line.kind = _DATA
        line.entry = None
        if self.obs is not None:
            self.obs.emit(EventKind.ENTRY_UNFUSE, block=block)
        return entry

    def free_spill(self, block: int) -> DirectoryEntry:
        """Free the spilled-entry frame of ``block`` (entry freed/moved)."""
        line = self._spill_index.get(block)
        if line is None:
            raise ProtocolInvariantError(
                f"no spilled entry for block {block:#x} in bank "
                f"{self.bank_id}")
        self.remove(line)
        entry = line.entry
        assert entry is not None
        return entry

    # ------------------------------------------------------------------
    # Introspection (occupancy probes, invariant checks, tests)
    # ------------------------------------------------------------------
    def frames_in_set(self, set_idx: int) -> List[LLCLine]:
        return self._frames[set_idx]

    def all_frames(self):
        for frames in self._frames:
            yield from frames

    def spilled_count(self) -> int:
        return len(self._spill_index)

    def fused_count(self) -> int:
        return sum(1 for line in self._data_index.values()
                   if line.kind is _FUSED)

    def data_block_count(self) -> int:
        return len(self._data_index)
