"""Hybrid update/invalidate contender (arXiv:1502.00101).

A sparse-directory MESI socket where the *write-hit-on-shared* path is
an update, not an invalidation: instead of upgrading to M and killing
every other sharer, the writer pushes the new data through the home to
each sharer, refreshes the LLC copy, and every copy -- including the
writer's -- stays in S.  Write *misses* keep the baseline invalidate
path (the "hybrid" half: a non-sharer writer gains ownership normally).

This stresses the DEV/obs accounting in a way no other model does:

* Sharers survive writes, so directory entries live longer and carry
  more sharers -- NRU evictions of those entries produce *bigger* DEVs
  than the baseline's.
* Update pushes are data movements that must never be counted as
  invalidations: ``stats.update_pushes``/``updates_sent`` and the
  ``UPDATE_PUSH`` obs event are disjoint from ``PRIV_INV`` by
  construction, which :func:`repro.verify.checks.check_hybrid` pins.
* Every S copy must equal the shadow's latest version at every quiesced
  point (the update-coherence invariant) -- a dropped UPDATE leaves a
  stale readable copy that a read *hit* would silently consume, so the
  per-step check is the detection mechanism, not the readback.

Single-socket only: the inter-socket layer speaks invalidate, and none
of the registered hybrid models compose sockets.
"""

from __future__ import annotations

from repro.caches.llc import LLCBank
from repro.coherence.protocol import CMPSystem
from repro.common.config import Protocol
from repro.common.errors import ProtocolInvariantError
from repro.common.messages import MessageType as MT
from repro.obs.events import EventKind


class HybridSystem(CMPSystem):
    """Baseline socket with update-on-shared-write semantics."""

    PROTOCOL = Protocol.HYBRID

    def _write(self, core: int, block: int, line) -> int:
        if line is None:
            # Write miss: the baseline invalidate path.
            return super()._write(core, block, line)
        # A store to an S copy (M/E store hits retire in access()).
        self.cores[core].write_hit_state(block)  # recency touch + L1D fill
        self.stats.l2_hits += 1
        self.stats.update_pushes += 1
        latency = (self._lat.l1_hit + self._lat.l2_hit
                   + self._push_update(core, block))
        exposed = self._lat.store_visibility_fraction
        return max(1, int(latency * exposed))

    # ------------------------------------------------------------------
    def _push_update(self, writer: int, block: int) -> int:
        """Write hit on an S copy: push the new data to every sharer.

        The writer sends the block through the home bank; the home
        forwards one UPDATE per other sharer and refreshes the LLC copy
        (write-through), so the shared state stays globally coherent
        and nobody changes MESI state.  The exposed latency is the home
        round-trip plus the slowest sharer acknowledgment.
        """
        bank = self.bank_of(block)
        latency = self.mesh.send_core_to_bank(MT.UPDATE, writer,
                                              bank.bank_id)
        latency += self._lat.queueing + self._lat.llc_tag
        entry, extra = self._find_entry(block)
        latency += extra
        if entry is None or not entry.is_sharer(writer):
            raise ProtocolInvariantError(
                f"update by core {writer} on block {block:#x} without a "
                "live directory entry: a private S copy must be tracked")
        version = self.shadow.commit_write(block)
        fan = 0
        for sharer in list(entry.sharer_cores()):
            if sharer == writer:
                continue
            fan = max(fan, self._deliver_update(writer, sharer, block,
                                                version, bank))
        self._install_llc_data(bank, block, version, dirty=True)
        self.cores[writer].refresh_version(block, version)
        return latency + fan

    def _deliver_update(self, writer: int, sharer: int, block: int,
                        version: int, bank: LLCBank) -> int:
        """Deliver one UPDATE to ``sharer``; returns its ack latency.

        This is the fault-injection seam for ``drop-update`` /
        ``dup-update`` (:mod:`repro.verify.faults`).
        """
        self.stats.updates_sent += 1
        to_sharer = self.mesh.send_core_to_bank(MT.UPDATE, sharer,
                                                bank.bank_id)
        to_writer = self.mesh.send_core_to_core(MT.UPDATE_ACK, sharer,
                                                writer)
        self.cores[sharer].refresh_version(block, version)
        if self.obs is not None:
            self.obs.emit(EventKind.UPDATE_PUSH, block=block, core=sharer)
        return to_sharer + self._lat.l2_hit + to_writer
