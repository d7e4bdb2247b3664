"""Tests for the 4-socket composition and the Section III-D flows."""

import pytest

from repro.caches.block import MESI
from repro.common.addressing import BLOCK_SHIFT
from repro.common.config import (CacheGeometry, DirCachingPolicy,
                                 DirectoryConfig, LLCReplacement, Protocol)
from repro.common.errors import ConfigError, ProtocolInvariantError
from repro.coherence.entry import DirState
from repro.harness.system_builder import build_system
from repro.multisocket.system import SocketEntry
from repro.workloads.trace import Op

from tests.conftest import fails_with, tiny_config


def make_multi(n_sockets=2, **kw):
    return build_system(tiny_config(n_sockets=n_sockets, **kw))


def make_multi_zerodev(n_sockets=2, **kw):
    defaults = dict(
        protocol=Protocol.ZERODEV,
        directory=DirectoryConfig(ratio=None),
        llc_replacement=LLCReplacement.DATA_LRU,
        dir_caching=DirCachingPolicy.FPSS,
    )
    defaults.update(kw)
    return build_system(tiny_config(n_sockets=n_sockets, **defaults))


def access(system, socket, core, op, block):
    system.sockets[socket].access(
        core, {"R": Op.READ, "W": Op.WRITE, "I": Op.IFETCH}[op],
        block << BLOCK_SHIFT)


class TestSocketLevelMESI:
    def test_single_socket_fetch_grants_exclusive(self):
        system = make_multi()
        access(system, 0, 0, "R", 8)
        entry = system._entries[8]
        assert entry.state is DirState.ME and entry.owner == 0
        assert system.sockets[0].cores[0].probe(8) is MESI.E
        system.check_invariants()
        # The socket-level checks read the blocks the sockets' own
        # checks report owned.
        entry.state = DirState.S
        with fails_with(ProtocolInvariantError,
                        "socket-level SWMR violated for block 0x8"):
            system.check_invariants()
        del system._entries[8]
        with fails_with(ProtocolInvariantError,
                        "owned block 0x8 untracked at socket level"):
            system.check_invariants()

    def test_cross_socket_read_downgrades_owner(self):
        system = make_multi()
        access(system, 0, 0, "W", 8)
        access(system, 1, 0, "R", 8)
        entry = system._entries[8]
        assert entry.state is DirState.S
        assert sorted(entry.sharer_sockets()) == [0, 1]
        assert system.sockets[0].cores[0].probe(8) is MESI.S
        system.check_invariants()

    def test_second_socket_gets_shared_grant(self):
        system = make_multi()
        access(system, 0, 0, "R", 8)
        access(system, 1, 0, "R", 8)
        # Socket 1's core must be S (a silent E->M would be incoherent).
        assert system.sockets[1].cores[0].probe(8) is MESI.S
        system.check_invariants()
        # Plant owned copies in both sockets, each consistent with its
        # own socket's entry, under an M/E socket-level entry: two
        # owning sockets.
        for socket in system.sockets:
            socket.cores[0].set_state(8, MESI.M)
            socket._peek_entry(8).make_owned(0)
        system._entries[8].state = DirState.ME
        with fails_with(ProtocolInvariantError,
                        "socket-level SWMR violated for block 0x8"):
            system.check_invariants()

    def test_cross_socket_write_invalidates(self):
        system = make_multi()
        access(system, 0, 0, "R", 8)
        access(system, 0, 1, "R", 8)
        access(system, 1, 0, "W", 8)
        assert system.sockets[0].cores[0].probe(8) is None
        assert system.sockets[0].cores[1].probe(8) is None
        assert system._entries[8].owner == 1
        system.check_invariants()

    def test_upgrade_acquires_socket_exclusivity(self):
        system = make_multi()
        access(system, 0, 0, "R", 8)
        access(system, 1, 0, "R", 8)
        access(system, 0, 0, "W", 8)     # upgrade through socket level
        assert system.sockets[1].cores[0].probe(8) is None
        assert system._entries[8].owner == 0
        system.check_invariants()

    def test_data_correct_across_sockets(self):
        system = make_multi()
        # Writes and reads ping-pong across sockets; the shared shadow
        # memory asserts every read sees the latest version.
        for round_ in range(6):
            socket = round_ % 2
            access(system, socket, 0, "W", 8)
            access(system, 1 - socket, 1, "R", 8)
        system.check_invariants()

    def test_presence_lost_updates_socket_directory(self):
        system = make_multi()
        access(system, 0, 0, "R", 8)
        # Evict via L2 conflicts, then evict the LLC copy too.
        for k in range(1, 5):
            access(system, 0, 0, "R", 8 + 8 * k)
        bank = system.sockets[0].bank_of(8)
        line = bank.peek_data(8)
        if line is not None:
            # Force LLC eviction by filling the set.
            set_blocks = [8 + 32 * t for t in range(1, 6)]
            for b in set_blocks:
                access(system, 0, 1, "R", b)
        entry = system._entries.get(8)
        assert entry is None or not entry.is_sharer(0) or \
            bank.peek_data(8) is not None

    def test_rejects_secdir(self):
        with pytest.raises(ConfigError):
            make_multi(protocol=Protocol.SECDIR)


class TestMultiSocketZeroDev:
    def cramped(self):
        return make_multi_zerodev(
            llc=CacheGeometry(2048, 2))      # 2-way LLC forces WB_DE

    def force_wb_de(self, system, socket=0):
        target = system.sockets[socket]
        blocks = [32 * t for t in range(4)]  # one LLC set of socket 0
        for block in blocks:
            access(system, socket, 0, "I", block)
            access(system, socket, 1, "I", block)
            if target.stats.wb_de_messages:
                break
        assert target.stats.wb_de_messages >= 1
        housed = [b for b in blocks
                  if target._housing.peek(b) is not None]
        assert housed
        return housed[0]

    def test_wb_de_corrupts_home_memory(self):
        system = self.cramped()
        block = self.force_wb_de(system)
        assert system.is_garbage(block)
        assert system.sockets[0].cores[0].probe(block) is MESI.S
        system.check_invariants()
        # The corrupted bitmaps must agree: a socket's garbage bit
        # needs a corrupted home image, and that needs a sharer socket.
        system.sockets[1]._housing._garbage.add(999)
        with fails_with(ProtocolInvariantError, "socket 1 marks block "
                        "0x3e7 corrupted but home memory is clean"):
            system.check_invariants()
        system.sockets[1]._housing._garbage.discard(999)
        system._garbage.add(999)
        with fails_with(ProtocolInvariantError,
                        "corrupted block 0x3e7 has no socket sharers"):
            system.check_invariants()

    def test_owner_socket_serves_corrupted_block(self):
        system = self.cramped()
        block = self.force_wb_de(system, socket=0)
        # Socket 1 reads the corrupted block: socket-level owner is 0,
        # the data comes from socket 0 and memory stays corrupted.
        access(system, 1, 0, "R", block)
        assert system.is_garbage(block)
        entry = system._entries[block]
        assert sorted(entry.sharer_sockets()) == [0, 1]
        system.check_invariants()

    def test_denf_nack_flow(self):
        system = make_multi_zerodev(n_sockets=4,
                                    llc=CacheGeometry(2048, 2))
        # Socket 0 shares block 0 between two cores (S entry, spilled),
        # then socket 1 reads it too: socket-level S state.
        access(system, 0, 0, "I", 0)
        access(system, 0, 1, "I", 0)
        access(system, 1, 0, "I", 0)
        # Thrash socket 0's LLC set until its spilled entry is evicted
        # to home memory (WB_DE) while the block stays socket-shared.
        tag = 1
        while (system.sockets[0]._housing.peek(0) is None and tag < 24):
            access(system, 0, 2, "I", 16 * tag)
            access(system, 0, 3, "I", 16 * tag)
            tag += 1
        assert system.sockets[0]._housing.peek(0) is not None
        # A third socket reads: home forwards to sharer socket 0, whose
        # intra-socket entry is housed at home -> DENF_NACK ->
        # re-forward with the extracted entry (Figure 15 steps 7-11).
        access(system, 2, 0, "R", 0)
        assert system.denf_nacks >= 1
        system.check_invariants()

    def test_restore_on_system_wide_last_copy(self):
        system = self.cramped()
        block = self.force_wb_de(system)
        target = system.sockets[0]
        conflicts = [block + 8 * k for k in range(1, 5)]
        for core in (0, 1):
            for b in conflicts:
                access(system, 0, core, "I", b)
        assert system.restores >= 1
        assert not system.is_garbage(block)
        # The healed block is readable from memory by another socket.
        access(system, 1, 0, "R", block)
        system.check_invariants()

    def test_zero_devs_multisocket(self):
        system = self.cramped()
        for k in range(120):
            for socket in range(2):
                for core in range(4):
                    access(system, socket, core, "RWI"[k % 3],
                           (k * 3 + core + socket * 7) % 64)
        for socket_stats in system.stats:
            assert socket_stats.dev_invalidations == 0
        system.check_invariants()

    def test_four_sockets(self):
        system = make_multi_zerodev(n_sockets=4)
        for k in range(60):
            for socket in range(4):
                access(system, socket, k % 4, "RW"[k % 2],
                       (k * 5 + socket) % 48)
        system.check_invariants()
        assert sum(s.dev_invalidations for s in system.stats) == 0


def matrix_system(name="zerodev-2socket-sol1"):
    """A 2-socket model of the verification matrix (2 cores a socket)."""
    from repro.verify.models import model_by_name
    return model_by_name(name).build()


IMPRECISE = "socket-level directory imprecise for block "


class TestSocketDirectoryPrecision:
    """A socket-level entry lists exactly the sockets that hold its
    block, in a core's cache or as LLC data."""

    def owned_by_socket_0(self):
        system = matrix_system()
        access(system, 0, 0, "R", 8)
        entry = system._entries[8]
        assert (entry.state, entry.sharers) == (DirState.ME, 0b1)
        system.check_invariants()
        return system, entry

    def shared_by_both(self):
        system = matrix_system()
        access(system, 0, 0, "R", 8)
        access(system, 1, 0, "R", 8)
        entry = system._entries[8]
        assert (entry.state, entry.sharers) == (DirState.S, 0b11)
        system.check_invariants()
        return system, entry

    def test_owned_entry_listing_a_socket_without_a_copy(self):
        system, entry = self.owned_by_socket_0()
        entry.sharers = 0b11
        with fails_with(ProtocolInvariantError, IMPRECISE +
                        "0x8: entry [0, 1] vs sockets holding [0]"):
            system.check_invariants()

    def test_owned_entry_missing_the_owning_socket(self):
        system, entry = self.owned_by_socket_0()
        entry.sharers = 0b10
        with fails_with(ProtocolInvariantError, IMPRECISE +
                        "0x8: entry [1] vs sockets holding [0]"):
            system.check_invariants()

    def test_shared_entry_missing_socket_1(self):
        system, entry = self.shared_by_both()
        entry.sharers = 0b01
        with fails_with(ProtocolInvariantError, IMPRECISE +
                        "0x8: entry [0] vs sockets holding [0, 1]"):
            system.check_invariants()

    def test_shared_entry_missing_socket_0(self):
        system, entry = self.shared_by_both()
        entry.sharers = 0b10
        with fails_with(ProtocolInvariantError, IMPRECISE +
                        "0x8: entry [1] vs sockets holding [0, 1]"):
            system.check_invariants()

    def test_llc_copy_keeps_its_socket_listed(self):
        # Socket 0 writes block 0, then two same-set reads push it out
        # of the core's L2: the dirty copy lives on in the LLC alone,
        # and the socket stays a sharer until that copy leaves too.
        system = matrix_system()
        for block in (0, 8, 16):
            access(system, 0, 0, "W" if block == 0 else "R", block)
        socket = system.sockets[0]
        assert all(hier.probe(0) is None for hier in socket.cores)
        assert socket.bank_of(0).peek_data(0) is not None
        assert system._entries[0].sharers == 0b1
        system.check_invariants()
        del system._entries[0]
        with fails_with(ProtocolInvariantError, IMPRECISE +
                        "0x0: entry [] vs sockets holding [0]"):
            system.check_invariants()

    def test_entry_for_a_block_no_socket_holds(self):
        system, _entry = self.owned_by_socket_0()
        system._entries[5] = SocketEntry(DirState.S, None, 0b10)
        with fails_with(ProtocolInvariantError, IMPRECISE +
                        "0x5: entry [1] vs sockets holding []"):
            system.check_invariants()

    @pytest.mark.parametrize("name", ["baseline-2socket",
                                      "zerodev-2socket-sol1",
                                      "zerodev-2socket-sol2"])
    def test_last_copy_leaving_clears_the_bit(self, name):
        # Socket 1's reads of blocks 0 and 16 evict its copies of block
        # 8 (same L2 and LLC set): its bit clears and the entry keeps
        # socket 0 alone; every state in between is precise.
        system = matrix_system(name)
        for socket, block in ((0, 8), (1, 8), (1, 0)):
            access(system, socket, 0, "R", block)
            system.check_invariants()
        assert system._entries[8].sharers == 0b11
        access(system, 1, 0, "R", 16)
        system.check_invariants()
        entry = system._entries[8]
        assert (entry.state, entry.sharers) == (DirState.S, 0b1)
        assert all(hier.probe(8) is None
                   for hier in system.sockets[1].cores)


class TestSocketDirectoryCache:
    def test_miss_costs_memory_lookup(self):
        system = make_multi()
        latency = system._dir_lookup_latency(12345)
        assert latency > 0
        assert system._dir_lookup_latency(12345) == 0   # now cached

    def test_lru_eviction(self):
        system = build_system(tiny_config(n_sockets=2,
                                          socket_dir_cache_blocks=2))
        system._dir_lookup_latency(1)
        system._dir_lookup_latency(2)
        system._dir_lookup_latency(3)    # evicts 1
        assert system._dir_lookup_latency(1) > 0
