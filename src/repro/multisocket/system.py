"""Multi-socket system: home-based socket-level MESI (Section III-D).

:class:`MultiSocketSystem` composes several single-socket systems (baseline
or ZeroDEV) behind the ``memory_side`` seam of
:class:`~repro.coherence.protocol.CMPSystem`. Each block has a *home*
socket whose memory backs it and whose socket-level directory entry tracks
which sockets hold copies -- using the paper's solution 1 (a directory
cache backed in home memory, so socket-level entries are never lost and
never generate DEVs).

ZeroDEV extensions implemented here:

* ``WB_DE``: an intra-socket entry evicted from a socket's LLC is written
  into the per-socket segment of the home memory block (Figure 14),
  including the read-modify-write when another socket's segment is
  already live. The block's memory image becomes *corrupted*.
* Socket misses to corrupted blocks (Figure 15): forward to a sharer
  socket ``F``; if ``F`` cannot find its intra-socket entry (it is housed
  at the home), ``F`` answers ``DENF_NACK`` and the home re-forwards the
  request together with the entry extracted from memory.
* ``GET_DE`` / entry write-back for evictions (Figure 16) arrive through
  the per-socket seams and are costed against the home memory.
* Restore: when the system-wide last copy of a corrupted block is
  evicted, the block is retrieved from the evicting socket and written
  over the housed entries.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.coherence.entry import DirectoryEntry, DirState
from repro.coherence.protocol import CMPSystem
from repro.coherence.shadow import ShadowMemory
from repro.common.config import Protocol, SystemConfig
from repro.common.errors import ConfigError, ProtocolInvariantError
from repro.common.messages import MessageType as MT
from repro.common.stats import SystemStats
from repro.core.housing import DirEvictBitmap
from repro.harness.system_builder import build_system
from repro.obs.events import EventKind, InvCause

# Read once per owned block by every check, bound once as a module
# global like the protocols' enum members.
_DIR_ME = DirState.ME


class SocketEntry:
    """Socket-level directory entry: M/E-S-I plus the corrupted marker."""

    __slots__ = ("state", "owner", "sharers")

    def __init__(self, state: DirState, owner: Optional[int],
                 sharers: int) -> None:
        self.state = state
        self.owner = owner
        self.sharers = sharers

    def is_sharer(self, socket: int) -> bool:
        return bool(self.sharers >> socket & 1)

    def sharer_sockets(self):
        bits, socket = self.sharers, 0
        while bits:
            if bits & 1:
                yield socket
            bits >>= 1
            socket += 1

    def add(self, socket: int) -> None:
        self.sharers |= 1 << socket

    def remove(self, socket: int) -> None:
        self.sharers &= ~(1 << socket)
        if self.owner == socket:
            self.owner = None

    @property
    def empty(self) -> bool:
        return self.sharers == 0


class MultiSocketSystem:
    """Several sockets behind one socket-level coherence layer.

    A reference issues on its socket:
    ``system.sockets[socket].access(core, op, address)``, as on a single
    socket, whose ``sockets`` is itself alone."""

    #: Observability seam (repro.obs): None = tracing disabled.
    obs = None
    #: Seeded-mutation seam (repro.verify.mutations): names of armed
    #: protocol mutations. Empty on every real run; the verify layer
    #: arms these to prove its checkers catch the seeded bug.
    mutations: frozenset = frozenset()

    def __init__(self, config: SystemConfig, n_sockets: int = 4,
                 dir_cache_blocks: int = 4096,
                 dir_solution: int = 1) -> None:
        """``dir_solution`` selects how socket-level directory entries
        survive directory-cache eviction (Section III-D5): solution 1
        backs the whole directory in home memory (a cache miss costs one
        memory read); solution 2 houses the evicted entry in the memory
        block's reserved partition and keeps one DirEvict bit per block,
        served by a small on-chip bit cache (constant 0.2% DRAM
        overhead). Both are latency models here -- entries are never
        lost and never generate DEVs either way."""
        if config.protocol not in (Protocol.BASELINE, Protocol.ZERODEV):
            raise ConfigError(
                "multi-socket evaluation supports baseline and ZeroDEV")
        if dir_solution not in (1, 2):
            raise ConfigError("dir_solution must be 1 or 2")
        self.config = config
        self.n_sockets = n_sockets
        self.sockets: List[CMPSystem] = []
        shadow = ShadowMemory()
        for node in range(n_sockets):
            socket = build_system(config)
            socket.shadow = shadow
            socket.node_id = node
            socket.memory_side = self
            self.sockets.append(socket)
        self.shadow = shadow
        self._link = config.latency.socket_link
        self._entries: Dict[int, SocketEntry] = {}
        self._garbage: set = set()
        self._dram_version: Dict[int, int] = {}
        self._dir_cache: "OrderedDict[int, None]" = OrderedDict()
        self._dir_cache_blocks = dir_cache_blocks
        self._dir_solution = dir_solution
        self._dir_evict_bits = DirEvictBitmap()
        self.denf_nacks = 0
        self.restores = 0
        self.socket_invalidations = 0

    # ------------------------------------------------------------------
    def home_of(self, block: int) -> int:
        return block % self.n_sockets

    @property
    def stats(self) -> List[SystemStats]:
        return [socket.stats for socket in self.sockets]

    def total_cycles(self) -> int:
        return max(socket.stats.total_cycles for socket in self.sockets)

    # ------------------------------------------------------------------
    # Socket-level directory cache (solution 1: backed in home memory)
    # ------------------------------------------------------------------
    def _dir_lookup_latency(self, block: int) -> int:
        """Directory-cache hit is free at this granularity; a miss costs
        the solution-specific backing lookup (never an invalidation)."""
        cache = self._dir_cache
        if block in cache:
            cache.move_to_end(block)
            return 0
        evicted = None
        if len(cache) >= self._dir_cache_blocks:
            evicted, _ = cache.popitem(last=False)
        cache[block] = None
        home = self.sockets[self.home_of(block)]
        if self._dir_solution == 1:
            # The full directory is backed in home memory: one read.
            return home.dram.read(block)
        # Solution 2: the evicted entry went into the block's reserved
        # partition; record its DirEvict bit, then on a miss consult the
        # bit (cheap when the bit-group is in the 8 KB bit cache) and
        # read the home block only when the bit is set.
        if evicted is not None:
            self._dir_evict_bits.set(evicted)
        bit_set, bit_cached = self._dir_evict_bits.test(block)
        latency = 0 if bit_cached else home.dram.read(block)
        if bit_set:
            latency += home.dram.read(block)
            self._dir_evict_bits.clear(block)
        return latency

    def _link_latency(self, src: int, dst: int) -> int:
        return 0 if src == dst else self._link

    def _record(self, socket: CMPSystem, kind: MT, src: int,
                dst: int) -> None:
        if src != dst:
            socket.stats.record_message(kind)

    # ------------------------------------------------------------------
    # memory_side interface: demand fetch
    # ------------------------------------------------------------------
    def fetch(self, socket: CMPSystem, block: int, exclusive: bool
              ) -> Tuple[int, int, bool]:
        """Resolve a socket miss; returns (latency, version,
        exclusive_ok)."""
        requester = socket.node_id
        home_id = self.home_of(block)
        home = self.sockets[home_id]
        kind = MT.SOCKET_GETX if exclusive else MT.SOCKET_GETS
        self._record(socket, kind, requester, home_id)
        latency = self._link_latency(requester, home_id)
        latency += self._dir_lookup_latency(block)
        entry = self._entries.get(block)

        if entry is None or entry.empty:
            # Step 2 of Figure 15: baseline flow from home memory.
            if block in self._garbage:
                raise ProtocolInvariantError(
                    f"corrupted block {block:#x} has no socket sharers")
            latency += home.dram.read(block)
            version = self._dram_version.get(block, 0)
            self._entries[block] = SocketEntry(
                DirState.ME, requester, 1 << requester)
            self._record(socket, MT.SOCKET_DATA, home_id, requester)
            latency += self._link_latency(home_id, requester)
            return latency, version, True

        if entry.state is DirState.ME:
            owner_id = entry.owner
            assert owner_id is not None and owner_id != requester
            latency += self._link_latency(home_id, owner_id)
            if exclusive:
                version = self._socket_invalidate(owner_id, block)
                entry.state = DirState.ME
                entry.owner = requester
                entry.sharers = 1 << requester
            else:
                version = self._socket_downgrade(owner_id, block)
                entry.state = DirState.S
                entry.owner = None
                entry.add(requester)
                if block not in self._garbage:
                    # Socket-level M->S writes the data home, keeping
                    # memory a valid backing for the shared copies.
                    home.dram.write(block)
                    self._dram_version[block] = version
            self._record(socket, MT.SOCKET_DATA, owner_id, requester)
            latency += self._link_latency(owner_id, requester)
            return latency, version, exclusive

        # Socket-level S state.
        if exclusive:
            version = None
            for sharer in list(entry.sharer_sockets()):
                latency = max(latency, self._link_latency(home_id, sharer)
                              + self._link_latency(sharer, requester))
                v = self._socket_invalidate(sharer, block)
                if v is not None:
                    version = v if version is None else max(version, v)
            if version is None:
                version = self._dram_version.get(block, 0)
            entry.state = DirState.ME
            entry.owner = requester
            entry.sharers = 1 << requester
            return latency, version, True

        # skip-denf-nack seeded bug: a corrupted shared block is treated
        # as a normal home-memory read, so the requester is served the
        # garbage/stale image instead of the Figure 15 forward (the
        # shadow oracle flags the stale load value).
        if block in self._garbage and \
                "skip-denf-nack" not in self.mutations:
            latency += self._forward_corrupted_read(socket, block, entry,
                                                    home_id)
            version = self._serve_from_sharer(entry, block, requester)
        else:
            latency += home.dram.read(block)
            version = self._dram_version.get(block, 0)
            self._record(socket, MT.SOCKET_DATA, home_id, requester)
            latency += self._link_latency(home_id, requester)
        entry.add(requester)
        return latency, version, False

    def _forward_corrupted_read(self, socket: CMPSystem, block: int,
                                entry: SocketEntry, home_id: int) -> int:
        """Figure 15 steps 4-11: forward to a sharer socket, handling the
        DENF_NACK resend when its intra-socket entry is housed at home."""
        requester = socket.node_id
        forward_id = next(s for s in entry.sharer_sockets()
                          if s != requester)
        forward = self.sockets[forward_id]
        latency = self._link_latency(home_id, forward_id)
        self._record(socket, MT.FWD_GETS, home_id, forward_id)
        # A housed entry lives at the *home's* memory: socket F cannot
        # see it, so the in-socket lookup decides the DENF_NACK path.
        found = forward._lookup_in_socket(block)  # noqa: SLF001
        if found is None:
            # Step 7: F cannot find the entry -- it is housed at home.
            self.denf_nacks += 1
            if self.obs is not None:
                self.obs.emit(EventKind.DENF_NACK, block=block,
                              cause=f"socket{forward_id}")
            self._record(socket, MT.DENF_NACK, forward_id, home_id)
            latency += self._link_latency(forward_id, home_id)
            home = self.sockets[home_id]
            latency += home.dram.read(block)        # extract F's segment
            self._record(socket, MT.FWD_WITH_DE, home_id, forward_id)
            latency += self._link_latency(home_id, forward_id)
        latency += self._link_latency(forward_id, requester)
        self._record(socket, MT.SOCKET_DATA_CORRUPTED, forward_id,
                     requester)
        return latency

    def _serve_from_sharer(self, entry: SocketEntry, block: int,
                           requester: int) -> int:
        for sharer in entry.sharer_sockets():
            if sharer == requester:
                continue
            version = self._socket_peek_version(sharer, block)
            if version is not None:
                return version
        raise ProtocolInvariantError(
            f"no sharer socket can supply block {block:#x}")

    # ------------------------------------------------------------------
    # memory_side interface: exclusivity, writebacks, presence
    # ------------------------------------------------------------------
    def exclusive_grant_ok(self, socket: CMPSystem, block: int) -> bool:
        """An E grant from a local LLC hit is only legal when this socket
        is the sole holder; a sole S-sharer is promoted to socket-level
        M/E on the spot (no other copies exist to invalidate)."""
        entry = self._entries.get(block)
        node = socket.node_id
        if entry is None or entry.empty:
            return True
        if entry.sharers == 1 << node:
            entry.state = DirState.ME
            entry.owner = node
            return True
        return False

    def acquire_exclusive(self, socket: CMPSystem, block: int) -> int:
        requester = socket.node_id
        entry = self._entries.get(block)
        if entry is None:
            raise ProtocolInvariantError(
                f"socket {requester} holds untracked block {block:#x}")
        others = [s for s in entry.sharer_sockets() if s != requester]
        if not others:
            entry.state = DirState.ME
            entry.owner = requester
            return 0
        home_id = self.home_of(block)
        latency = self._link_latency(requester, home_id)
        latency += self._dir_lookup_latency(block)
        worst = 0
        for sharer in others:
            self._record(socket, MT.INV, home_id, sharer)
            self._record(socket, MT.INV_ACK, sharer, requester)
            worst = max(worst, self._link_latency(home_id, sharer)
                        + self._link_latency(sharer, requester))
            self._socket_invalidate(sharer, block)
        entry.state = DirState.ME
        entry.owner = requester
        entry.sharers = 1 << requester
        return latency + worst

    def writeback(self, socket: CMPSystem, block: int,
                  version: int) -> None:
        """A socket wrote back dirty data for ``block``."""
        home = self.sockets[self.home_of(block)]
        self._record(socket, MT.WRITEBACK, socket.node_id,
                     self.home_of(block))
        entry = self._entries.get(block)
        others = (entry is not None
                  and any(s != socket.node_id
                          for s in entry.sharer_sockets()))
        if block in self._garbage and others:
            # Writing would destroy another socket's housed entry; the
            # data stays cached at the sharers (Section III-D3 keeps
            # corrupted blocks served by forwarding).
            return
        home.dram.write(block)
        self._dram_version[block] = version
        if block in self._garbage:
            self._garbage.discard(block)
            self._heal_socket_housings(block)

    def _heal_socket_housings(self, block: int) -> None:
        """Real data reached home memory: every socket's segment of the
        block is overwritten, so per-socket corrupted-bitmap entries must
        drop too (they would otherwise stay set forever -- the count
        never returning to zero). A socket still *housing* an entry here
        would mean the write destroyed a live entry; ``heal`` raises."""
        for socket in self.sockets:
            housing = getattr(socket, "_housing", None)
            if housing is not None and housing.is_garbage(block):
                housing.heal(block)

    def presence_lost(self, socket: CMPSystem, block: int,
                      version: int) -> None:
        """The last copy of ``block`` left ``socket``."""
        node = socket.node_id
        entry = self._entries.get(block)
        if entry is None or not entry.is_sharer(node):
            return
        self._record(socket, MT.SOCKET_EVICT, node, self.home_of(block))
        entry.remove(node)
        if not entry.empty:
            return
        del self._entries[block]
        if block in self._garbage:
            if "skip-socket-restore" in self.mutations:
                # Seeded bug: the system-wide last copy of a corrupted
                # block leaves and the socket-level Section III-D4
                # restore is dropped -- home memory keeps entry bits
                # with no sharer left to serve the block.
                return
            # System-wide last copy of a corrupted block: retrieve it
            # from the evicting socket and heal home memory.
            self.restores += 1
            if self.obs is not None:
                self.obs.emit(EventKind.MEM_RESTORE, block=block,
                              cause=InvCause.SOCKET)
            self._record(socket, MT.SOCKET_RESTORE, node,
                         self.home_of(block))
            home = self.sockets[self.home_of(block)]
            home.dram.write(block)
            self._dram_version[block] = version
            self._garbage.discard(block)
            self._heal_socket_housings(block)
            socket.stats.corrupted_blocks_restored += 1

    # ------------------------------------------------------------------
    # memory_side interface: ZeroDEV entry housing
    # ------------------------------------------------------------------
    def entry_read(self, socket: CMPSystem, block: int) -> int:
        home_id = self.home_of(block)
        self._record(socket, MT.GET_DE, socket.node_id, home_id)
        self._record(socket, MT.DE_DATA, home_id, socket.node_id)
        latency = 2 * self._link_latency(socket.node_id, home_id)
        return latency + self.sockets[home_id].dram.read(block)

    def entry_write(self, socket: CMPSystem, entry: DirectoryEntry) -> int:
        """WB_DE / housed-entry update (Figure 14)."""
        block = entry.block
        home_id = self.home_of(block)
        home = self.sockets[home_id]
        self._record(socket, MT.WB_DE, socket.node_id, home_id)
        latency = self._link_latency(socket.node_id, home_id)
        others_housed = any(
            other._housing.peek(block) is not None  # noqa: SLF001
            for other in self.sockets
            if other is not socket and hasattr(other, "_housing"))
        if block in self._garbage and others_housed:
            # Another socket's segment is live: read-modify-write.
            latency += home.dram.read(block)
        latency += home.dram.write(block, from_entry_eviction=True)
        if self.obs is not None:
            self.obs.emit(EventKind.ENTRY_WB_DE, block=block,
                          cause=InvCause.SOCKET)
        self._garbage.add(block)
        return latency

    def is_garbage(self, block: int) -> bool:
        return block in self._garbage

    # ------------------------------------------------------------------
    # Operations executed inside a remote socket
    # ------------------------------------------------------------------
    def _socket_invalidate(self, node: int, block: int) -> Optional[int]:
        """Remove every copy of ``block`` from socket ``node``; returns
        the freshest version found (None if the socket had nothing)."""
        target = self.sockets[node]
        bank = target.bank_of(block)
        version: Optional[int] = None
        entry = target._peek_entry(block)  # noqa: SLF001
        if entry is not None:
            for core in list(entry.sharer_cores()):
                self.socket_invalidations += 1
                line = target.cores[core].invalidate(
                    block, cause=InvCause.SOCKET)
                assert line is not None
                version = (line.version if version is None
                           else max(version, line.version))
                entry.remove_sharer(core)
            target._free_entry(entry, bank)  # noqa: SLF001
        llc_line = bank.peek_data(block)
        if llc_line is not None:
            bank.remove(llc_line)
            version = (llc_line.version if version is None
                       else max(version, llc_line.version))
        return version

    def _socket_downgrade(self, node: int, block: int) -> int:
        """Demote socket ``node``'s exclusive copy to shared; returns the
        current version.

        Uses the promoting entry lookup: a housed entry is re-cached in
        the socket before its block data re-enters the socket's LLC,
        preserving the case-(iiib) invariant of Section III-D2.
        """
        target = self.sockets[node]
        bank = target.bank_of(block)
        entry, _ = target._find_entry(block)  # noqa: SLF001
        if entry is not None and entry.state is DirState.ME:
            owner = entry.owner
            assert owner is not None
            line = target.cores[owner].downgrade_to_s(block)
            old_state = entry.state
            entry.make_shared()
            target._entry_state_changed(entry, old_state, bank)  # noqa: SLF001
            target._install_llc_data(bank, block, line.version,  # noqa: SLF001
                                     dirty=True)
            return line.version
        version = self._socket_peek_version(node, block)
        if version is None:
            raise ProtocolInvariantError(
                f"socket {node} cannot downgrade block {block:#x} it "
                "does not hold")
        return version

    def _socket_peek_version(self, node: int, block: int) -> Optional[int]:
        target = self.sockets[node]
        entry = target._peek_entry(block)  # noqa: SLF001
        if entry is not None:
            for core in entry.sharer_cores():
                line = target.cores[core].line_of(block)
                if line is not None:
                    return line.version
        llc_line = target.bank_of(block).peek_data(block)
        if llc_line is not None and llc_line.kind.value == "data":
            return llc_line.version
        return None

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Every socket's own checks, then socket-level SWMR over the
        blocks the sockets' checks report owned, then socket-level
        directory precision, then the corrupted bitmaps.

        Precision: an entry's sharer bits are exactly the sockets that
        hold the block, in a core's cache or as LLC data -- a socket's
        bit clears only when its last copy leaves (``presence_lost``).
        The core side comes from the holder masks the sockets' checks
        report; the LLC side from each bank's data index."""
        owners: Dict[int, int] = {}       # block -> owning-socket bits
        present: Dict[int, int] = {}      # block -> holding-socket bits
        for socket in self.sockets:
            bit = 1 << socket.node_id
            holders, owned = socket.check_invariants()
            for block in owned:
                owners[block] = owners.get(block, 0) | bit
            for block in holders:
                present[block] = present.get(block, 0) | bit
            for bank in socket.banks:
                for block in bank._data_index:  # noqa: SLF001
                    present[block] = present.get(block, 0) | bit
        entries = self._entries
        for block, sockets in owners.items():
            entry = entries.get(block)
            if entry is None:
                raise ProtocolInvariantError(
                    f"owned block {block:#x} untracked at socket level")
            if entry.state is not _DIR_ME or sockets & (sockets - 1):
                raise ProtocolInvariantError(
                    f"socket-level SWMR violated for block {block:#x}")
        for block, sockets in present.items():
            entry = entries.get(block)
            if entry is None or entry.sharers != sockets:
                self._imprecise(block, sockets)
        for block, entry in entries.items():
            if entry.sharers and block not in present:
                self._imprecise(block, 0)
        # Corrupted-bitmap consistency: a socket-local garbage bit means
        # the socket's segment of home memory holds entry bits, which is
        # only possible while the home image is corrupted system-wide;
        # and a corrupted block must still have socket sharers to serve
        # reads from (else it should have been restored).
        for socket in self.sockets:
            housing = getattr(socket, "_housing", None)
            if housing is None:
                continue
            for block in housing.garbage_blocks():
                if block not in self._garbage:
                    raise ProtocolInvariantError(
                        f"socket {socket.node_id} marks block {block:#x} "
                        "corrupted but home memory is clean")
        for block in self._garbage:
            entry = self._entries.get(block)
            if entry is None or entry.empty:
                raise ProtocolInvariantError(
                    f"corrupted block {block:#x} has no socket sharers")

    def _imprecise(self, block: int, sockets: int) -> None:
        """Word a socket-level precision failure: ``sockets`` hold
        ``block`` but its entry lists others."""
        entry = self._entries.get(block)
        listed = [] if entry is None else list(entry.sharer_sockets())
        holding = [node for node in range(self.n_sockets)
                   if sockets >> node & 1]
        raise ProtocolInvariantError(
            f"socket-level directory imprecise for block {block:#x}: "
            f"entry {listed} vs sockets holding {holding}")
