"""Cache line records and coherence states.

Data contents are modeled as monotonically increasing *versions*: every
committed store creates a fresh version number, and a shadow memory records
the latest version of every block. A protocol is data-correct exactly when
every load observes the latest version -- which the simulator asserts on
every GETS and GETX response.
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


@dataclass(slots=True)
class L2Line:
    """One private L2 line, the coherence endpoint of a core.

    Slotted, as are ``LLCLine`` and ``DirectoryEntry``: every L2 miss
    builds one, and a slotted instance is built without an instance
    dict.  An evicted line is also the eviction notice the home
    processes (``PrivateHierarchy.fill`` returns it).
    """

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


@dataclass(eq=False, slots=True)
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
