"""The baseline intra-socket coherence protocol (Section III-A).

One :class:`CMPSystem` models a socket: per-core private L1/L2 caches, a
banked shared LLC, a sparse directory slice beside each bank, a write-
invalidate MESI protocol with three-hop owner forwarding, eviction notices
for every private eviction, and -- the phenomenon this paper is about --
**directory eviction victims** (DEVs): private copies invalidated because
their sparse-directory entry was evicted.

Coherence transactions execute atomically in global order (see DESIGN.md
Section 2): the message sequences and their latency/traffic costs follow
the paper's protocol, while transient-race interleavings are serialized.
Data correctness is continuously verified against a shadow memory.

Subclasses (ZeroDEV in ``repro.core``, SecDir/MgD in ``repro.baselines``)
specialize the protected hook methods: entry lookup/allocation/free, LLC
victim handling, and the shared-read critical path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.caches.block import L2Line, LLCLine, LineKind, MESI
from repro.caches.llc import LLCBank
from repro.caches.private_cache import PrivateHierarchy
from repro.coherence.directory import SparseDirectory
from repro.coherence.entry import DirectoryEntry, DirState, EntryLocation
from repro.coherence.shadow import ShadowMemory
from repro.common.addressing import BLOCK_SHIFT
from repro.common.config import LLCDesign, Protocol, SystemConfig
from repro.common.errors import ProtocolInvariantError
from repro.common.messages import MessageType as MT
from repro.common.stats import SystemStats, latency_bucket
from repro.dram.model import DramModel
from repro.interconnect.mesh import Mesh
from repro.obs.events import EventKind, InvCause
from repro.workloads.trace import Op


# Enum members the transaction paths read, bound once as module globals:
# on Python 3.11 every ``Enum.MEMBER`` read goes through
# ``EnumType.__getattr__``'s Python-level attribute hook (about 0.15 us,
# a few dozen per miss); 3.12 dropped the hook.
_WRITE, _IFETCH = Op.WRITE, Op.IFETCH
_MESI_M, _MESI_E, _MESI_S = MESI.M, MESI.E, MESI.S
_DIR_ME, _DIR_S = DirState.ME, DirState.S
_DATA_LINE, _FUSED_LINE = LineKind.DATA, LineKind.FUSED
_SPARSE = EntryLocation.SPARSE
_GETS, _GETX, _UPGRADE = MT.GETS, MT.GETX, MT.UPGRADE
_DATA, _ACK, _INV, _INV_ACK = MT.DATA, MT.ACK, MT.INV, MT.INV_ACK
_FWD_GETS, _FWD_GETX, _BUSY_CLEAR = MT.FWD_GETS, MT.FWD_GETX, MT.BUSY_CLEAR
_WRITEBACK, _EVICT_CLEAN = MT.WRITEBACK, MT.EVICT_CLEAN


class CMPSystem:
    """One socket running the baseline sparse-directory MESI protocol."""

    #: Which Protocol enum value this class implements (sanity check).
    PROTOCOL = Protocol.BASELINE

    #: Message type of a clean eviction notice from an E copy (ZeroDEV's
    #: carries the low-order bits that rebuild a fused frame); an S
    #: copy's clean notice is always EVICT_CLEAN.
    E_NOTICE = _EVICT_CLEAN

    #: Seeded-mutation seam (repro.verify.mutations): names of armed
    #: protocol mutations. Empty on every real run; the verify layer
    #: arms these to prove its checkers catch the seeded bug.
    mutations: frozenset = frozenset()

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.stats = SystemStats(config.n_cores)
        #: Observability seam (repro.obs): None = tracing disabled, set
        #: to an EventBus by repro.obs.trace.attach for traced runs.
        self.obs = None
        self.shadow = ShadowMemory()
        self.mesh = Mesh(config.mesh, config.n_cores, config.llc_banks,
                         config.latency, self.stats)
        self.dram = DramModel(config.dram, self.stats)
        self.cores = [
            PrivateHierarchy(i, config.l1i, config.l1d, config.l2)
            for i in range(config.n_cores)
        ]
        self.banks = [
            LLCBank(b, config.llc_bank_sets, config.llc.ways,
                    config.llc_replacement, config.llc_banks)
            for b in range(config.llc_banks)
        ]
        self.directory = self._build_directory()
        self._dram_version = {}
        self._bank_mask = config.llc_banks - 1
        self._lat = config.latency
        # Read on every miss transaction; the config is frozen.
        self._epd = config.llc_design is LLCDesign.EPD
        self._inclusive = config.llc_design is LLCDesign.INCLUSIVE
        # The private hits access() retires itself: per class, the
        # core-visible latency, the clock step (latency plus compute)
        # and the latency bucket, as _read/_write would record them.
        lat = config.latency
        self._r1_lat = lat.l1_hit
        self._r2_lat = lat.l1_hit + lat.l2_hit
        self._w_lat = max(1, int(lat.l1_hit
                                 * lat.store_visibility_fraction))
        self._r1_step = self._r1_lat + lat.compute_per_access
        self._r2_step = self._r2_lat + lat.compute_per_access
        self._w_step = self._w_lat + lat.compute_per_access
        self._r1_bucket = latency_bucket(self._r1_lat)
        self._r2_bucket = latency_bucket(self._r2_lat)
        self._w_bucket = latency_bucket(self._w_lat)
        #: Multi-socket composition seam: when set (by MultiSocketSystem),
        #: memory-side operations route through the inter-socket layer.
        self.memory_side = None
        self.node_id = 0

    def _build_directory(self) -> Optional[SparseDirectory]:
        dcfg = self.config.directory
        if not dcfg.present:
            return None
        return SparseDirectory(
            self.config.directory_entries, dcfg.ways,
            unbounded=dcfg.unbounded)

    @property
    def sockets(self) -> Tuple["CMPSystem"]:
        """The sockets of this system: itself.  A multi-socket system
        lists its own, so the runner, the obs bus and the verify layer
        walk one sequence of sockets for either shape.  A property, not
        an attribute: a stored self-reference would make every
        single-socket state a reference cycle."""
        return (self,)

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def access(self, core: int, op: Op, address: int) -> int:
        """Execute one memory reference; returns its core-visible latency
        in cycles and advances the core's local clock.

        Private hits retire here without a further call: an L1 or L2
        read hit (READ or IFETCH; an L2 hit fills the L1 silently) and a
        store hit on an M/E line (E->M is silent).  They touch only the
        issuing core's arrays, clock and counters and the shadow's
        version of the block, emit no event and write no shrink-journal
        entry.  A store to an S copy and every L2 miss go to
        ``_write``/``_read`` with the L2 probe's result.
        """
        block = address >> BLOCK_SHIFT
        hier = self.cores[core]
        line = hier.l2_index.get(block)
        if op is _WRITE:
            if line is None or line.state is _MESI_S:
                latency = self._write(core, block, line)
                self.stats.record_access(
                    core, True, latency,
                    latency + self._lat.compute_per_access)
                return latency
            hier.l2_sets[block & hier.l2_mask].move_to_end(block)
            l1 = hier.l1d_sets[block & hier.l1d_mask]
            if block in l1:
                l1.move_to_end(block)
            else:
                if len(l1) >= hier.l1d_ways:
                    l1.popitem(last=False)      # L1 victims go silently
                l1[block] = None
            latest = self.shadow._latest        # noqa: SLF001
            version = latest.get(block, 0) + 1
            latest[block] = version
            line.state = _MESI_M
            line.dirty = True
            line.version = version
            stats = self.stats
            stats.write_latency_buckets[self._w_bucket] += 1
            stats.cycles[core] += self._w_step
            stats.accesses[core] += 1
            return self._w_lat
        if line is None:
            latency = self._read(core, block, op is _IFETCH)
            self.stats.record_access(core, False, latency,
                                     latency + self._lat.compute_per_access)
            return latency
        hier.l2_sets[block & hier.l2_mask].move_to_end(block)
        code = op is _IFETCH
        if code:
            l1 = hier.l1i_sets[block & hier.l1i_mask]
        else:
            l1 = hier.l1d_sets[block & hier.l1d_mask]
        stats = self.stats
        if block in l1:
            l1.move_to_end(block)
            stats.l1_hits += 1
            stats.read_latency_buckets[self._r1_bucket] += 1
            stats.cycles[core] += self._r1_step
            stats.accesses[core] += 1
            return self._r1_lat
        if len(l1) >= (hier.l1i_ways if code else hier.l1d_ways):
            l1.popitem(last=False)              # L1 victims go silently
        l1[block] = None
        stats.l2_hits += 1
        stats.read_latency_buckets[self._r2_bucket] += 1
        stats.cycles[core] += self._r2_step
        stats.accesses[core] += 1
        return self._r2_lat

    def bank_of(self, block: int) -> LLCBank:
        return self.banks[block & self._bank_mask]

    # ------------------------------------------------------------------
    # Core-side paths
    # ------------------------------------------------------------------
    def _read(self, core: int, block: int, code: bool) -> int:
        """A read or instruction fetch that missed the L2: a GETS."""
        self.stats.core_cache_misses += 1
        bank = self.banks[block & self._bank_mask]   # home, once
        lat = self._lat
        latency = (self.mesh.send_core_to_bank(_GETS, core, bank.bank_id)
                   + lat.queueing + lat.llc_tag)
        entry, extra = self._find_entry(block)
        latency += extra
        llc_line = bank.lookup_data(block)

        if entry is None:
            latency, version, entry = self._fill_from_uncore(
                core, block, code, bank, llc_line, latency, exclusive=False)
        elif entry.state is _DIR_ME:
            if entry.owner == core:
                raise ProtocolInvariantError(
                    f"core {core} missed on block {block:#x} it owns")
            fwd_latency, version = self._forward_gets(core, block, entry,
                                                      bank, llc_line)
            latency += fwd_latency
        else:
            serve_latency, version = self._shared_read(core, block, entry,
                                                       bank, llc_line)
            latency += serve_latency
            entry.add_sharer(core)

        state = _MESI_S if (code or entry.state is _DIR_S) else _MESI_E
        victim = self.cores[core].fill(block, state, version, code)
        if victim is not None:
            self._process_notice(core, victim)
        self.shadow.check_read(block, version, "GETS response")
        # The OOO window hides part of the uncore latency (MLP).
        exposed = max(1, int(latency * lat.load_visibility_fraction))
        return lat.l1_hit + lat.l2_hit + exposed

    def _write(self, core: int, block: int,
               line: Optional[L2Line]) -> int:
        """A store that needs the uncore: an upgrade of the core's S copy
        ``line``, or a write miss (``line`` is None)."""
        hier = self.cores[core]
        lat = self._lat
        if line is not None:
            hier.write_hit_state(block)     # recency touch + L1D fill
            self.stats.l2_hits += 1
            self.stats.upgrades += 1
            latency = lat.l1_hit + lat.l2_hit + self._upgrade(core, block)
        else:
            latency = lat.l1_hit + lat.l2_hit + self._getx(core, block)
        version = self.shadow.commit_write(block)
        hier.commit_write(block, version)
        # Stores drain through the store buffer; only a fraction of the
        # miss latency is exposed on the critical path.
        return max(1, int(latency * lat.store_visibility_fraction))

    # ------------------------------------------------------------------
    # GETS paths: the entry is M/E (three hops) or S
    # ------------------------------------------------------------------
    def _forward_gets(self, core: int, block: int, entry: DirectoryEntry,
                      bank: LLCBank, llc_line: Optional[LLCLine]
                      ) -> Tuple[int, int]:
        """Three-hop read: home forwards to the owner, owner responds."""
        owner = entry.owner
        assert owner is not None
        self.stats.forwarded_requests += 1
        owner_line = self.cores[owner].line_of(block)
        if owner_line is None:
            raise ProtocolInvariantError(
                f"directory says core {owner} owns block {block:#x} but "
                "it holds no copy")
        was_dirty = owner_line.state is _MESI_M
        latency = self.mesh.send_core_to_bank(_FWD_GETS, owner,
                                              bank.bank_id)
        latency += self._lat.l2_hit
        latency += self.mesh.send_core_to_core(_DATA, owner, core)
        line = self.cores[owner].downgrade_to_s(block)
        version = line.version
        # Busy-clear back to home; dirty data is written through to the
        # LLC so the shared copy has a safe backing (off critical path).
        self.mesh.send_core_to_bank(
            _WRITEBACK if was_dirty else _BUSY_CLEAR, owner,
            bank.bank_id)
        old_state = entry.state
        entry.make_shared()
        entry.add_sharer(core)
        self._entry_state_changed(entry, old_state, bank)
        self._install_llc_data(bank, block, version, dirty=was_dirty)
        return latency, version

    def _shared_read(self, core: int, block: int, entry: DirectoryEntry,
                     bank: LLCBank, llc_line: Optional[LLCLine]
                     ) -> Tuple[int, int]:
        """Read of a block in directory state S."""
        usable, penalty = self._llc_serves_shared_read(entry, llc_line,
                                                       bank)
        if usable:
            assert llc_line is not None
            self.stats.llc_data_hits += 1
            latency = penalty + self._lat.llc_data
            latency += self.mesh.send_bank_to_core(_DATA, bank.bank_id,
                                                   core)
            return latency, llc_line.version
        # Block not (usably) in the LLC: forward to an elected sharer,
        # which responds directly (three hops), and refresh the LLC copy.
        self.stats.llc_data_misses += 1
        self.stats.llc_read_misses += 1
        self.stats.forwarded_requests += 1
        sharer = entry.any_sharer(exclude=core)
        sharer_line = self.cores[sharer].line_of(block)
        if sharer_line is None:
            raise ProtocolInvariantError(
                f"directory lists core {sharer} for block {block:#x} but "
                "it holds no copy")
        latency = penalty + self.mesh.send_core_to_bank(
            _FWD_GETS, sharer, bank.bank_id)
        latency += self._lat.l2_hit
        latency += self.mesh.send_core_to_core(_DATA, sharer, core)
        self.mesh.send_core_to_bank(_WRITEBACK, sharer, bank.bank_id)
        self._install_llc_data(bank, block, sharer_line.version,
                               dirty=sharer_line.dirty)
        return latency, sharer_line.version

    # ------------------------------------------------------------------
    # GETX / upgrade: write misses
    # ------------------------------------------------------------------
    def _getx(self, core: int, block: int) -> int:
        """Service a write miss (read-exclusive)."""
        self.stats.core_cache_misses += 1
        bank = self.banks[block & self._bank_mask]   # home, once
        lat = self._lat
        latency = (self.mesh.send_core_to_bank(_GETX, core, bank.bank_id)
                   + lat.queueing + lat.llc_tag)
        entry, extra = self._find_entry(block)
        latency += extra
        llc_line = bank.lookup_data(block)
        if self.memory_side is not None and (
                entry is not None or (llc_line is not None
                                      and llc_line.kind is _DATA_LINE)):
            # The socket holds a valid copy: remote read copies (if any)
            # must be invalidated before granting ownership.  That rules
            # out a remote owner, so at most remote S sharers exist.
            latency += self.memory_side.acquire_exclusive(self, block)

        if entry is not None and entry.state is _DIR_ME:
            if entry.owner == core:
                raise ProtocolInvariantError(
                    f"core {core} write-missed on block {block:#x} it owns")
            owner = entry.owner
            assert owner is not None
            self.stats.forwarded_requests += 1
            latency += self.mesh.send_core_to_bank(_FWD_GETX, owner,
                                                   bank.bank_id)
            latency += lat.l2_hit
            latency += self.mesh.send_core_to_core(_DATA, owner, core)
            self.mesh.send_core_to_bank(_BUSY_CLEAR, owner, bank.bank_id)
            line = self.cores[owner].invalidate(block,
                                                cause=InvCause.FWD_GETX)
            assert line is not None
            version = line.version
            old_state = entry.state
            entry.make_owned(core)
            self._entry_state_changed(entry, old_state, bank)
        elif entry is not None:
            # Shared block: invalidate every sharer; data from the LLC if
            # usable, else combined forward+invalidate to one sharer.
            version, inv_latency = self._invalidate_sharers(
                core, block, entry, bank, llc_line, need_data=True)
            latency += inv_latency
            old_state = entry.state
            entry.make_owned(core)
            self._entry_state_changed(entry, old_state, bank)
        else:
            latency, version, entry = self._fill_from_uncore(
                core, block, code=False, bank=bank, llc_line=llc_line,
                latency=latency, exclusive=True)
        self.shadow.check_read(block, version, "GETX response")
        if self._epd:
            # The block is now private: EPD de-allocates its LLC copy.
            self._epd_deallocate(bank, block)
        victim = self.cores[core].fill(block, _MESI_M, version, False)
        if victim is not None:
            self._process_notice(core, victim)
        return latency

    def _upgrade(self, core: int, block: int) -> int:
        """S -> M permission request; the requester keeps its data."""
        bank = self.banks[block & self._bank_mask]
        latency = self.mesh.send_core_to_bank(_UPGRADE, core,
                                              bank.bank_id)
        latency += self._lat.queueing + self._lat.llc_tag
        entry, extra = self._find_entry(block)
        latency += extra
        if entry is None or not entry.is_sharer(core):
            raise ProtocolInvariantError(
                f"upgrade by core {core} on block {block:#x} without a "
                "live directory entry: a private S copy must be tracked")
        if self.memory_side is not None:
            latency += self.memory_side.acquire_exclusive(self, block)
        _, inv_latency = self._invalidate_sharers(
            core, block, entry, bank, bank.lookup_data(block),
            need_data=False)
        latency += inv_latency
        latency += self.mesh.send_bank_to_core(_ACK, bank.bank_id, core)
        old_state = entry.state
        entry.make_owned(core)
        self._entry_state_changed(entry, old_state, bank)
        if self._epd:
            self._epd_deallocate(bank, block)
        self.cores[core].set_state(block, _MESI_E)   # grant; store makes M
        return latency

    def _invalidate_sharers(self, requester: int, block: int,
                            entry: DirectoryEntry, bank: LLCBank,
                            llc_line: Optional[LLCLine], need_data: bool
                            ) -> Tuple[int, int]:
        """Invalidate every sharer other than ``requester``.

        Returns (data version, critical-path latency). Acknowledgments are
        collected by the requester; the exposed latency is the slowest
        invalidation round plus the data-supply path when data is needed.
        """
        inv_path = 0
        data_version: Optional[int] = None
        victims = [c for c in entry.sharer_cores() if c != requester]
        for sharer in victims:
            self.stats.invalidations_sent += 1
            to_sharer = self.mesh.send_core_to_bank(_INV, sharer,
                                                    bank.bank_id)
            to_requester = self.mesh.send_core_to_core(
                _INV_ACK, sharer, requester)
            inv_path = max(inv_path, to_sharer + self._lat.l2_hit
                           + to_requester)
            line = self.cores[sharer].invalidate(block,
                                                 cause=InvCause.GETX)
            assert line is not None
            data_version = line.version
            entry.remove_sharer(sharer)
        if not need_data:
            return 0, inv_path
        if llc_line is not None and llc_line.kind is _DATA_LINE:
            self.stats.llc_data_hits += 1
            data_path = (self._lat.llc_data + self.mesh.send_bank_to_core(
                _DATA, bank.bank_id, requester))
            return llc_line.version, max(data_path, inv_path)
        if data_version is None:
            raise ProtocolInvariantError(
                f"GETX on shared block {block:#x} with no data source")
        # Data rode along with the last invalidation acknowledgment.
        self.stats.llc_data_misses += 1
        return data_version, inv_path

    # ------------------------------------------------------------------
    # Fills from LLC or memory when no directory entry exists
    # ------------------------------------------------------------------
    def _fill_from_uncore(self, core: int, block: int, code: bool,
                          bank: LLCBank, llc_line: Optional[LLCLine],
                          latency: int, exclusive: bool
                          ) -> Tuple[int, int, DirectoryEntry]:
        """No live directory entry: serve from the LLC or main memory and
        allocate a fresh entry (the DEV-generating step in the baseline).
        A fused frame is corrupted: it cannot supply data."""
        if llc_line is not None and llc_line.kind is _DATA_LINE:
            self.stats.llc_data_hits += 1
            latency += self._lat.llc_data
            latency += self.mesh.send_bank_to_core(_DATA, bank.bank_id,
                                                   core)
            version = llc_line.version
            if (not exclusive and not code and self.memory_side is not None
                    and not self.memory_side.exclusive_grant_ok(self,
                                                                block)):
                # Other sockets hold read copies: an E grant (and its
                # silent E->M) would leave them stale -- grant S.
                code = True
        else:
            if llc_line is not None and llc_line.kind is not _DATA_LINE:
                raise ProtocolInvariantError(
                    f"block {block:#x} has an LLC entry frame but no "
                    "directory entry was found")
            self.stats.llc_data_misses += 1
            if not exclusive:
                self.stats.llc_read_misses += 1
            if self.memory_side is None:
                latency += self._memory_fetch_latency(block)
                version = self._dram_version.get(block, 0)
                exclusive_ok = True
            else:
                # The inter-socket layer resolves the miss: home memory,
                # or a downgrade / invalidation of remote sockets.
                # ``exclusive_ok``: no other socket holds the block, so
                # an E grant is legal.
                fetch_latency, version, exclusive_ok = (
                    self.memory_side.fetch(self, block, exclusive))
                latency += fetch_latency
            latency += self.mesh.send_bank_to_core(_DATA, bank.bank_id,
                                                   core)
            self._fill_llc_from_memory(bank, block, version, code)
            if not exclusive_ok:
                # Other sockets hold read copies: only an S grant is
                # legal (a silent E->M would break socket-level MESI).
                code = True
        state = _DIR_S if code else _DIR_ME
        owner = None if code else core
        entry = self._allocate_entry(block, state, core, owner, bank)
        if not code and self._epd:
            # The block is now temporarily private: EPD de-allocates it.
            self._epd_deallocate(bank, block)
        return latency, version, entry

    def _memory_fetch_latency(self, block: int) -> int:
        """DRAM read for a single-socket demand fill (ZeroDEV overrides
        it to refuse a corrupted home block)."""
        return self.dram.read(block)

    def _presence_lost(self, block: int, version: int) -> None:
        """The last copy of ``block`` left this socket (notify home)."""
        if self.memory_side is not None:
            self.memory_side.presence_lost(self, block, version)

    def _fill_llc_from_memory(self, bank: LLCBank, block: int,
                              version: int, code: bool) -> None:
        """Demand fills allocate in the LLC -- except data fills in EPD.

        Only a miss that found no frame and no entry of ``block`` fills
        from memory (an entry frame without an entry raises first), so
        the frame is inserted without probing for one (``insert``
        refuses a duplicate), and ``_data_allocated`` has no spilled
        entry to re-fuse: the block's entry is allocated after the
        fill."""
        if self._epd and not code:
            return
        victim = bank.insert(LLCLine(block, _DATA_LINE, version=version))
        if victim is not None:
            self._handle_llc_victim(bank, victim)

    # ------------------------------------------------------------------
    # LLC management
    # ------------------------------------------------------------------
    def _llc_serves_shared_read(self, entry: DirectoryEntry,
                                llc_line: Optional[LLCLine],
                                bank: LLCBank) -> Tuple[bool, int]:
        """Hook: can the LLC serve a read to this shared block, and at
        what extra critical-path cost? (ZeroDEV policies override.)"""
        if llc_line is None or llc_line.kind is not _DATA_LINE:
            return False, 0
        return True, 0

    def _install_llc_data(self, bank: LLCBank, block: int, version: int,
                          dirty: bool) -> None:
        """Allocate or refresh the LLC copy of ``block``."""
        line = bank.lookup_data(block, touch=False)
        if line is not None:
            line.version = version
            line.dirty = line.dirty or dirty
            if line.kind is _FUSED_LINE:
                self._data_arrived_at_fused(bank, line)
            return
        victim = bank.insert(LLCLine(block, _DATA_LINE, dirty=dirty,
                                     version=version))
        if victim is not None:
            self._handle_llc_victim(bank, victim)
        self._data_allocated(bank, block)

    def _epd_deallocate(self, bank: LLCBank, block: int) -> None:
        line = bank.lookup_data(block, touch=False)
        if line is None:
            return
        if line.kind is not _DATA_LINE:
            raise ProtocolInvariantError(
                f"EPD de-allocation of block {block:#x} found a "
                f"{line.kind.value} frame")
        if line.dirty:
            # The owner has (or is about to produce) a newer version; the
            # LLC copy is redundant but must not be silently lost if it is
            # the only clean backing. Writing it back keeps memory sound.
            self._writeback_to_memory(line)
        bank.remove(line)

    def _data_arrived_at_fused(self, bank: LLCBank, line: LLCLine) -> None:
        """Hook: fresh data written into a frame holding a fused entry."""
        # Baseline never has fused frames.
        raise ProtocolInvariantError("fused frame in baseline protocol")

    def _data_allocated(self, bank: LLCBank, block: int) -> None:
        """Hook called after a new DATA frame is installed (FuseAll uses
        this to re-fuse a spilled entry with its returning block)."""

    def _writeback_to_memory(self, line: LLCLine) -> None:
        self.stats.llc_writebacks_to_dram += 1
        if self.memory_side is not None:
            self.memory_side.writeback(self, line.block, line.version)
            return
        self.dram.write(line.block)
        self._dram_version[line.block] = line.version
        self._memory_healed(line.block)

    def _memory_healed(self, block: int) -> None:
        """Hook: a real-data DRAM write un-corrupts the home block."""

    def _handle_llc_victim(self, bank: LLCBank, victim: LLCLine) -> None:
        """Process an LLC replacement victim: a data frame is written
        back if dirty (an inclusive LLC back-invalidates its private
        copies first); a spilled or fused frame goes to
        ``_entry_frame_evicted``."""
        self.stats.llc_evictions += 1
        if victim.kind is not _DATA_LINE:
            self._entry_frame_evicted(bank, victim)
            return
        if self._inclusive:
            self._back_invalidate(bank, victim)
        if victim.dirty:
            self._writeback_to_memory(victim)
        if (self.memory_side is not None
                and self._peek_entry(victim.block) is None):
            # The LLC copy was the socket's last: tell the home socket.
            self._presence_lost(victim.block, victim.version)

    def _entry_frame_evicted(self, bank: LLCBank, victim: LLCLine) -> None:
        """Hook: the LLC evicted a spilled or fused entry frame (ZeroDEV
        writes the entry back to memory)."""
        raise ProtocolInvariantError(
            "baseline LLC should never hold directory-entry frames")

    def _back_invalidate(self, bank: LLCBank, victim: LLCLine) -> None:
        """Inclusive LLC: evicting a block invalidates private copies."""
        entry, _ = self._find_entry(victim.block)
        if entry is None:
            return
        for sharer in list(entry.sharer_cores()):
            self.stats.inclusion_invalidations += 1
            self.mesh.send_core_to_bank(_INV, sharer, bank.bank_id)
            self.mesh.send_core_to_bank(_INV_ACK, sharer, bank.bank_id)
            line = self.cores[sharer].invalidate(victim.block,
                                                 cause=InvCause.INCLUSION)
            assert line is not None
            if line.state is _MESI_M:
                victim.version = line.version
                victim.dirty = True
            entry.remove_sharer(sharer)
        self._free_entry(entry, bank, evictor_version=victim.version)

    # ------------------------------------------------------------------
    # Directory-entry lifecycle (hooks overridden by ZeroDEV and others)
    # ------------------------------------------------------------------
    def _find_entry(self, block: int
                    ) -> Tuple[Optional[DirectoryEntry], int]:
        """Locate the directory entry for ``block``.

        Returns (entry or None, extra critical-path latency). The baseline
        only looks in the sparse directory, in parallel with the LLC tag
        lookup (zero extra latency).
        """
        assert self.directory is not None
        return self.directory.lookup(block), 0

    def _allocate_entry(self, block: int, state: DirState, requester: int,
                        owner: Optional[int], bank: LLCBank
                        ) -> DirectoryEntry:
        """Allocate a fresh entry, evicting an NRU victim if the set is
        full -- the step that manufactures DEVs in the baseline."""
        directory = self.directory
        assert directory is not None
        self.stats.dir_allocations += 1
        victim = directory.evict_for(block)
        if victim is not None:
            self._process_dev(victim)
        entry = DirectoryEntry(block, state, owner, 1 << requester)
        directory.insert(entry)
        return entry

    def _process_dev(self, victim: DirectoryEntry) -> None:
        """Invalidate every private copy the evicted entry was tracking.

        The entry is already out of the directory and dies here: its
        sharer set is read and cleared once, up front.
        """
        stats, mesh, cores = self.stats, self.mesh, self.cores
        block = victim.block
        stats.dir_evictions += 1
        if self.obs is not None:
            self.obs.emit(EventKind.DIR_EVICT, block=block,
                          cause=InvCause.DEV)
        bank = self.banks[block & self._bank_mask]
        bank_id = bank.bank_id
        sharers = victim.sharers
        victim.sharers = 0
        victim.owner = None
        if sharers and "dev-leak-sharer" in self.mutations:
            # Seeded bug: the home drops the first sharer from the entry
            # without sending its invalidation, leaving a live private
            # copy the directory no longer tracks.
            sharers &= sharers - 1
        invalidated = 0
        last_version = 0
        while sharers:                  # lowest core first
            low = sharers & -sharers
            sharers ^= low
            sharer = low.bit_length() - 1
            invalidated += 1
            mesh.send_core_to_bank(_INV, sharer, bank_id)
            line = cores[sharer].invalidate(block, InvCause.DEV)
            assert line is not None
            last_version = line.version
            if line.state is _MESI_M:
                # The dirty block is retrieved into the LLC (Section I-A1:
                # "dirty blocks were retrieved from the owner cores as
                # DEVs due to directory entry eviction").
                mesh.send_core_to_bank(_WRITEBACK, sharer, bank_id)
                self._install_llc_data(bank, block, line.version,
                                       dirty=True)
            else:
                mesh.send_core_to_bank(_INV_ACK, sharer, bank_id)
        if invalidated:
            stats.dev_invalidations += invalidated
            stats.invalidations_sent += invalidated
            stats.dev_events += 1
            if (self.memory_side is not None
                    and bank.peek_data(block) is None):
                self._presence_lost(block, last_version)

    def _free_entry(self, entry: DirectoryEntry, bank: LLCBank,
                    evictor_version: int = 0,
                    evictor_core: Optional[int] = None) -> None:
        """Release an entry whose last private copy went away."""
        if entry.location is not _SPARSE:
            raise ProtocolInvariantError(
                "baseline entries live only in the sparse directory")
        assert self.directory is not None
        self.directory.remove(entry.block)

    def _entry_state_changed(self, entry: DirectoryEntry,
                             old_state: DirState, bank: LLCBank) -> None:
        """Hook: entry moved between M/E and S (FPSS re-locates here)."""

    # ------------------------------------------------------------------
    # Private-cache eviction notices
    # ------------------------------------------------------------------
    def _process_notice(self, core: int, line: L2Line) -> None:
        """Handle at the home the eviction notice of ``line``, the L2
        victim ``core``'s fill returned (``PrivateHierarchy.fill``)."""
        block = line.block
        bank = self.banks[block & self._bank_mask]
        entry = self._find_entry_for_notice(block, bank)
        if entry is None:
            self._notice_without_entry(core, line, bank)
            return
        if line.state is _MESI_M:
            self.mesh.send_core_to_bank(_WRITEBACK, core, bank.bank_id)
            self._install_llc_data(bank, block, line.version, dirty=True)
        else:
            e_copy = line.state is _MESI_E
            self.mesh.send_core_to_bank(
                self.E_NOTICE if e_copy else _EVICT_CLEAN, core,
                bank.bank_id)
            if e_copy and self._epd:
                # EPD allocates the block in the LLC when it is evicted
                # from the owner core's private hierarchy (Section III-E).
                self._install_llc_data(bank, block, line.version,
                                       dirty=False)
        entry.remove_sharer(core)
        if entry.empty:
            self._free_entry(entry, bank, evictor_version=line.version,
                             evictor_core=core)
            if (self.memory_side is not None
                    and bank.peek_data(block) is None):
                # No LLC copy either: the block has left the socket.
                self._presence_lost(block, line.version)
        else:
            self._notice_done(entry, bank)

    def _find_entry_for_notice(self, block: int, bank: LLCBank
                               ) -> Optional[DirectoryEntry]:
        """Entry lookup for the eviction-notice path.

        ZeroDEV overrides this with the GET_DE flow of Section III-D4
        (memory-housed entries are read and updated in place rather than
        promoted back into the socket).
        """
        entry, _ = self._find_entry(block)
        return entry

    def _notice_done(self, entry: DirectoryEntry, bank: LLCBank) -> None:
        """Hook after a notice updated a still-live entry (ZeroDEV writes
        memory-housed entries back here)."""

    def _notice_without_entry(self, core: int, line: L2Line,
                              bank: LLCBank) -> None:
        """An eviction notice found no directory entry in the socket.

        Impossible in the baseline: a private copy always has a live entry
        (DEV invalidations enforce it). ZeroDEV overrides this with the
        GET_DE flow of Section III-D4.
        """
        raise ProtocolInvariantError(
            f"baseline eviction notice for untracked block "
            f"{line.block:#x} from core {core}")

    # ------------------------------------------------------------------
    # Invariant checking support (used heavily by the test-suite)
    # ------------------------------------------------------------------
    def _peek_entry(self, block: int) -> Optional[DirectoryEntry]:
        """Side-effect-free entry lookup (invariant checking only)."""
        assert self.directory is not None
        return self.directory.peek(block)

    def check_invariants(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Verify SWMR and directory precision over the whole socket.

        One pass over each core's L2 index records, per block, the
        bitmask of the cores holding it and whether one of them owns it
        (M or E); the bitmask is compared with the entry's sharer bits,
        and the holder lists are built only to word an error.
        Returns the holder masks (block -> bitmask of the cores holding
        it) and the owned blocks (block -> owning core), both in the
        order the pass met them, which the multi-socket check reads
        instead of walking the caches again.
        """
        holders: Dict[int, int] = {}
        owned: Dict[int, int] = {}
        for core, hier in enumerate(self.cores):
            bit = 1 << core
            for block, line in hier.l2_index.items():
                holders[block] = holders.get(block, 0) | bit
                if line.state is not _MESI_S:
                    owned[block] = core
        for block, mask in holders.items():
            owner = block in owned
            if owner and mask & (mask - 1):
                raise ProtocolInvariantError(
                    f"SWMR violated for block {block:#x}: "
                    f"{self._holders(block, mask)}")
            entry = self._peek_entry(block)
            if entry is None:
                raise ProtocolInvariantError(
                    f"block {block:#x} privately cached but untracked")
            if entry.sharers != mask:
                holder_cores = [c for c, _ in self._holders(block, mask)]
                raise ProtocolInvariantError(
                    f"directory imprecise for block {block:#x}: entry "
                    f"{list(entry.sharer_cores())} vs caches "
                    f"{holder_cores}")
            if owner and entry.state is not _DIR_ME:
                raise ProtocolInvariantError(
                    f"entry state S but core owns block {block:#x}")
        return holders, owned

    def _holders(self, block: int, mask: int) -> List[Tuple[int, MESI]]:
        """(core, state) of each core in ``mask`` holding ``block``,
        lowest core first."""
        return [(core, hier.l2_index[block].state)
                for core, hier in enumerate(self.cores)
                if mask >> core & 1]
