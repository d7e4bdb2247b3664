"""Directory entries and their locations.

A directory entry tracks all private copies of one block: the merged M/E
versus S distinction (the directory cannot tell M from E, footnote 2 of the
paper) plus a full-map sharer bit-vector and, for owned blocks, the owner
core. Under ZeroDEV an entry moves through up to four homes during its
life -- the sparse directory, an LLC frame (fused or spilled), and finally
the home memory block -- tracked by :class:`EntryLocation`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.common.errors import ProtocolInvariantError


class DirState(enum.Enum):
    """Stable directory states (M and E are merged at the directory)."""

    ME = "M/E"
    S = "S"


class EntryLocation(enum.Enum):
    """Where a directory entry currently lives (exactly one place)."""

    SPARSE = "sparse"
    LLC_FUSED = "llc-fused"
    LLC_SPILLED = "llc-spilled"
    MEMORY = "memory"


# Read on every entry allocation and state change, bound once as module
# globals: on Python 3.11 each ``Enum.MEMBER`` read goes through
# ``EnumType.__getattr__``'s Python-level hook.
_ME, _S = DirState.ME, DirState.S
_SPARSE = EntryLocation.SPARSE


@dataclass(eq=False, init=False)
class DirectoryEntry:
    """Coherence-tracking record for one privately cached block.

    Entries compare by identity (``eq=False``), like LLC frames: a
    directory set holds at most one entry per block and removes the
    very object it holds.
    """

    block: int
    state: DirState
    owner: Optional[int] = None
    sharers: int = 0                  # full-map bit-vector over cores
    location: EntryLocation = EntryLocation.SPARSE
    nru_ref: bool = True              # 1-bit NRU metadata (sparse dir)

    # Written out rather than generated: the generated ``__init__`` plus
    # a ``__post_init__`` for the owner check cost two calls on every
    # entry allocation, and a starved directory allocates on most misses.
    def __init__(self, block: int, state: DirState,
                 owner: Optional[int] = None, sharers: int = 0,
                 location: EntryLocation = _SPARSE,
                 nru_ref: bool = True) -> None:
        if state is _ME:
            if owner is None:
                raise ProtocolInvariantError(
                    f"M/E entry for block {block:#x} has no owner")
            sharers |= 1 << owner
        self.block = block
        self.state = state
        self.owner = owner
        self.sharers = sharers
        self.location = location
        self.nru_ref = nru_ref

    # ------------------------------------------------------------------
    @property
    def sharer_count(self) -> int:
        return bin(self.sharers).count("1")

    @property
    def empty(self) -> bool:
        """True once no private copy remains (entry can be freed)."""
        return self.sharers == 0

    def is_sharer(self, core: int) -> bool:
        return bool(self.sharers >> core & 1)

    def sharer_cores(self) -> Iterator[int]:
        """Yield the cores currently holding a copy, lowest id first."""
        bits = self.sharers
        core = 0
        while bits:
            if bits & 1:
                yield core
            bits >>= 1
            core += 1

    def any_sharer(self, exclude: Optional[int] = None) -> int:
        """An elected sharer (FuseAll read forwarding, Section III-C3)."""
        for core in self.sharer_cores():
            if core != exclude:
                return core
        raise ProtocolInvariantError(
            f"entry for block {self.block:#x} has no sharer to elect")

    # ------------------------------------------------------------------
    def add_sharer(self, core: int) -> None:
        self.sharers |= 1 << core

    def remove_sharer(self, core: int) -> None:
        if not self.sharers >> core & 1:
            raise ProtocolInvariantError(
                f"core {core} is not a sharer of block {self.block:#x}")
        self.sharers &= ~(1 << core)
        if self.owner == core:
            self.owner = None

    def make_owned(self, core: int) -> None:
        """Transition to M/E with ``core`` as the only copy-holder."""
        self.state = _ME
        self.owner = core
        self.sharers = 1 << core

    def make_shared(self) -> None:
        """Transition to S (owner downgraded or read-shared fill)."""
        self.state = _S
        self.owner = None

    # ------------------------------------------------------------------
    def storage_bits(self, n_cores: int) -> int:
        """Stable-state storage: N sharer bits + 1 state bit (Sec III-D)."""
        return n_cores + 1
