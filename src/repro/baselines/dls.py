"""DLS: the directoryless-shared-LLC contender (arXiv:1206.4753).

The opposite pole to ZeroDEV's unbounded directory: there is *no*
directory structure at all.  Coherence is resolved at the shared LLC --
the sharer vector for a block lives in the tag of the block's own LLC
line, so a block is tracked exactly while it is LLC-resident.  That
forces an inclusive LLC (enforced by ``SystemConfig`` validation):
evicting an LLC line must back-invalidate every private copy, because
the coherence state dies with the line.

Consequences the comparison figure (``fig_contenders``) measures:

* Zero DEVs by construction -- there is no directory to evict from --
  and zero directory SRAM.
* The loss mechanism is *inclusion victims*: LLC conflicts invalidate
  live private copies (``stats.inclusion_invalidations``), and the
  effective LLC capacity is bounded by inclusion.  ZeroDEV keeps a
  non-inclusive LLC and still has no DEVs, which is exactly the gap the
  paper's design targets.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.caches.block import L2Line, LLCLine, MESI
from repro.caches.llc import LLCBank
from repro.coherence.entry import DirectoryEntry, DirState, EntryLocation
from repro.coherence.protocol import CMPSystem
from repro.common.config import Protocol
from repro.common.errors import ProtocolInvariantError
from repro.common.messages import MessageType as MT
from repro.obs.events import InvCause


class DLSSystem(CMPSystem):
    """Socket resolving coherence at the shared LLC (no directory)."""

    PROTOCOL = Protocol.DLS

    def _build_directory(self):
        return None     # the LLC tag array *is* the directory

    # ------------------------------------------------------------------
    # Entry lifecycle: entries ride the block's own LLC line
    # ------------------------------------------------------------------
    def _find_entry(self, block: int
                    ) -> Tuple[Optional[DirectoryEntry], int]:
        # The entry is read in the same LLC tag lookup the request
        # performs anyway: zero extra latency, no extra recency touch
        # (the demand paths touch the data line themselves).
        line = self.bank_of(block).peek_data(block)
        return (line.entry if line is not None else None), 0

    def _peek_entry(self, block: int) -> Optional[DirectoryEntry]:
        line = self.bank_of(block).peek_data(block)
        return line.entry if line is not None else None

    def _allocate_entry(self, block: int, state: DirState, requester: int,
                        owner: Optional[int], bank: LLCBank
                        ) -> DirectoryEntry:
        line = bank.peek_data(block)
        if line is None:
            # Inclusive fills install the LLC line before the entry is
            # allocated, so a missing line is a protocol bug.
            raise ProtocolInvariantError(
                f"DLS cannot track block {block:#x}: no LLC line to "
                "carry the sharer vector")
        if line.entry is not None:
            raise ProtocolInvariantError(
                f"DLS double allocation for block {block:#x}")
        self.stats.dir_allocations += 1
        entry = DirectoryEntry(block, state, owner=owner,
                               sharers=1 << requester,
                               location=EntryLocation.LLC_FUSED)
        line.entry = entry
        return entry

    def _free_entry(self, entry: DirectoryEntry, bank: LLCBank,
                    evictor_version: int = 0,
                    evictor_core: Optional[int] = None) -> None:
        line = bank.peek_data(entry.block)
        if line is not None and line.entry is entry:
            line.entry = None

    # ------------------------------------------------------------------
    # LLC eviction: the coherence state dies with the line
    # ------------------------------------------------------------------
    def _back_invalidate(self, bank: LLCBank, victim: LLCLine) -> None:
        # The victim has already left the bank, so its entry can only be
        # reached through the line object itself (the base class's
        # lookup-by-block would come up empty).
        entry = victim.entry
        if entry is None:
            return
        for sharer in list(entry.sharer_cores()):
            self.stats.inclusion_invalidations += 1
            self.mesh.send_core_to_bank(MT.INV, sharer, bank.bank_id)
            self.mesh.send_core_to_bank(MT.INV_ACK, sharer, bank.bank_id)
            line = self.cores[sharer].invalidate(victim.block,
                                                 cause=InvCause.INCLUSION)
            assert line is not None
            if line.state is MESI.M:
                victim.version = line.version
                victim.dirty = True
            entry.remove_sharer(sharer)
        victim.entry = None

    # ------------------------------------------------------------------
    def _notice_without_entry(self, core: int, line: L2Line,
                              bank: LLCBank) -> None:
        raise ProtocolInvariantError(
            f"DLS eviction notice for block {line.block:#x} from core "
            f"{core} with no LLC-resident line: inclusion should "
            "have invalidated the private copy first")
