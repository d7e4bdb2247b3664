"""Cache line records and coherence states.

Data contents are modeled as monotonically increasing *versions*: every
committed store creates a fresh version number, and a shadow memory records
the latest version of every block. A protocol is data-correct exactly when
every load observes the latest version -- which the simulator asserts on
every access when ``check_data`` is enabled.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

if TYPE_CHECKING:  # avoid a runtime caches <-> coherence import cycle
    from repro.coherence.entry import DirectoryEntry


class MESI(enum.Enum):
    """Private-cache coherence states (directory merges M and E)."""

    M = "M"
    E = "E"
    S = "S"

    @property
    def is_owner(self) -> bool:
        """True for the states in which a core owns the only valid copy."""
        return self is not MESI.S


@dataclass
class L2Line:
    """One private L2 line, the coherence endpoint of a core."""

    block: int
    state: MESI
    version: int
    dirty: bool = False
    is_code: bool = False


class LineKind(enum.Enum):
    """LLC line kinds, encoding the paper's (V, D, b0) states.

    ========  =====  =====  ====
    kind      V      D      b0
    ========  =====  =====  ====
    DATA      1      d      --    ordinary code/data block
    SPILLED   0      1      1     full block holds a directory entry
    FUSED     0      1      0     data block with an entry in its low bits
    ========  =====  =====  ====
    """

    DATA = "data"
    SPILLED = "spilled"
    FUSED = "fused"


@dataclass(eq=False)
class LLCLine:
    """One LLC frame: a data block, a spilled entry, or a fused block.

    Frames compare by identity (``eq=False``): a bank's recency lists
    touch and remove the very frame they hold, and at most one frame per
    (block, kind) exists, so field-by-field equality would only make
    every ``list.remove`` slower.
    """

    block: int
    kind: LineKind
    dirty: bool = False               # data dirtiness (b1 when fused)
    version: int = 0                  # shadow data version (DATA/FUSED)
    entry: Optional["DirectoryEntry"] = field(default=None, repr=False)

    @property
    def holds_data(self) -> bool:
        """True when the frame carries (possibly corrupted) block data."""
        return self.kind is not LineKind.SPILLED

    @property
    def is_entry(self) -> bool:
        """True for the (V=0, D=1) states holding a directory entry."""
        return self.kind is not LineKind.DATA
