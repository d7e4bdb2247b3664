"""Deeper multi-socket flow scenarios (Sections III-D3..D5)."""

import pytest

from repro.caches.block import MESI
from repro.common.addressing import BLOCK_SHIFT
from repro.common.config import (CacheGeometry, DirCachingPolicy,
                                 DirectoryConfig, LLCDesign, LLCReplacement,
                                 Protocol)
from repro.coherence.entry import DirState
from repro.harness.system_builder import build_system
from repro.workloads.trace import Op

from tests.conftest import tiny_config


def access(system, socket, core, op, block):
    system.sockets[socket].access(
        core, {"R": Op.READ, "W": Op.WRITE, "I": Op.IFETCH}[op],
        block << BLOCK_SHIFT)


def make(n_sockets=2, **kw):
    return build_system(tiny_config(n_sockets=n_sockets, **kw))


class TestDirtyDataAcrossSockets:
    def test_remote_exclusive_fetch_carries_dirty_data(self):
        system = make()
        access(system, 0, 0, "W", 8)
        access(system, 1, 0, "W", 8)     # remote GETX: data must travel
        access(system, 0, 0, "R", 8)     # and come back intact
        system.check_invariants()

    def test_writeback_updates_home_memory(self):
        system = make()
        access(system, 0, 0, "W", 8)
        # Evict through L2 conflicts, then evict the dirty LLC copy.
        for k in range(1, 5):
            access(system, 0, 0, "R", 8 + 8 * k)
        for tag in range(1, 6):
            access(system, 0, 1, "R", 8 + 32 * tag)
        # Another socket reads: whatever path it takes, it must observe
        # the written version (the shared shadow enforces this).
        access(system, 1, 0, "R", 8)
        system.check_invariants()

    def test_upgrade_then_remote_read(self):
        system = make()
        access(system, 0, 0, "R", 8)
        access(system, 1, 0, "R", 8)     # socket-level S
        access(system, 0, 0, "W", 8)     # upgrade invalidates socket 1
        assert system.sockets[1].cores[0].probe(8) is None
        access(system, 1, 0, "R", 8)     # 3-socket-hop read-back
        assert system.sockets[0].cores[0].probe(8) is MESI.S
        system.check_invariants()


class TestSocketPresence:
    def test_socket_dir_entry_removed_when_both_leave(self):
        system = make()
        access(system, 0, 0, "R", 8)
        access(system, 1, 0, "R", 8)
        for node in (0, 1):
            for k in range(1, 5):
                access(system, node, 0, "R", 8 + 8 * k)
            target = system.sockets[node]
            # Force the LLC copy out as well.
            for tag in range(1, 6):
                access(system, node, 1, "R", 8 + 32 * tag)
        entry = system._entries.get(8)
        if entry is not None:
            # Presence may legitimately remain while an LLC copy does.
            held = [s for s in entry.sharer_sockets()
                    if system.sockets[s].bank_of(8).peek_data(8)
                    is not None
                    or system.sockets[s]._peek_entry(8) is not None]
            assert held
        system.check_invariants()

    def test_refetch_after_total_eviction(self):
        system = make()
        access(system, 0, 0, "W", 8)
        for k in range(1, 5):
            access(system, 0, 0, "R", 8 + 8 * k)
        for tag in range(1, 6):
            access(system, 0, 1, "R", 8 + 32 * tag)
        access(system, 1, 0, "R", 8)     # must read the written version
        system.check_invariants()


class TestZeroDevMultiSocketDesigns:
    def zconfig(self, **kw):
        defaults = dict(
            protocol=Protocol.ZERODEV,
            directory=DirectoryConfig(ratio=None),
            llc_replacement=LLCReplacement.DATA_LRU,
            llc=CacheGeometry(2048, 2), n_sockets=2)
        defaults.update(kw)
        return tiny_config(**defaults)

    def soak(self, system, rounds=120):
        for k in range(rounds):
            for socket in range(system.n_sockets):
                for core in range(4):
                    access(system, socket, core, "RWI"[k % 3],
                           (3 * k + 5 * core + socket) % 72)
        system.check_invariants()
        assert all(s.dev_invalidations == 0 for s in system.stats)

    def test_epd_zerodev_two_sockets(self):
        system = build_system(
            self.zconfig(llc_design=LLCDesign.EPD,
                         directory=DirectoryConfig(ratio=0.5)))
        self.soak(system)

    def test_spillall_two_sockets(self):
        system = build_system(
            self.zconfig(dir_caching=DirCachingPolicy.SPILL_ALL))
        self.soak(system)

    def test_fuseall_two_sockets(self):
        system = build_system(
            self.zconfig(dir_caching=DirCachingPolicy.FUSE_ALL))
        self.soak(system)

    def test_sp_lru_two_sockets(self):
        system = build_system(
            self.zconfig(llc_replacement=LLCReplacement.SP_LRU))
        self.soak(system)

    def test_solution2_zerodev(self):
        system = build_system(self.zconfig(socket_dir_cache_blocks=8,
                                           socket_dir_solution=2))
        self.soak(system, rounds=80)


class TestCorruptedBitmapAccounting:
    """WB_DE -> GET_DE flows must return corrupted-block counts to zero.

    Regression: the socket-level heal/restore paths cleared only the
    multi-level garbage set; the per-socket ``MemoryHousing`` bits stayed
    set forever, so a socket's corrupted-bitmap count never returned to
    zero once its home segment had housed an entry.
    """

    def zconfig(self, llc=CacheGeometry(2048, 2)):
        return tiny_config(
            protocol=Protocol.ZERODEV,
            directory=DirectoryConfig(ratio=None),
            llc_replacement=LLCReplacement.DATA_LRU,
            dir_caching=DirCachingPolicy.FPSS,
            llc=llc, n_sockets=2)

    def test_dirty_writeback_heals_socket_bitmap(self):
        system = build_system(self.zconfig())
        s0 = system.sockets[0]
        # Blocks 0/16/32/48 all map to bank 0 set 0 (2 ways) of socket 0.
        access(system, 0, 0, "W", 0)     # fused M entry for block 0
        access(system, 0, 1, "R", 16)
        access(system, 0, 2, "R", 32)    # WB_DE: block 0's entry housed
        assert s0._housing.is_garbage(0) and system.is_garbage(0)
        access(system, 0, 3, "R", 0)     # GET_DE promotes the entry back
        assert s0._housing.peek(0) is None
        assert s0._housing.is_garbage(0)   # image still corrupt
        # Evicting the dirty LLC copy writes real data home: both the
        # multi-level marker and the socket bit must clear, exactly once.
        access(system, 0, 1, "R", 48)
        assert not system.is_garbage(0)
        assert not s0._housing.is_garbage(0)
        system.check_invariants()

    def test_last_copy_eviction_restores_and_clears_bitmaps(self):
        import random
        system = build_system(self.zconfig(CacheGeometry(1024, 2)))
        rng = random.Random(0)
        ops = "RWI"
        # Hot sharing phases over a small pool, then cold sweeps that
        # evict every copy -- driving WB_DE housing, DENF_NACK forwards,
        # and last-copy restores, with invariants checked per step.
        for phase in range(8):
            for _ in range(40):
                access(system, rng.randrange(2), rng.randrange(4),
                       ops[rng.randrange(3)], rng.randrange(12))
                system.check_invariants()
            for block in range(64, 128):
                for socket in range(2):
                    access(system, socket, rng.randrange(4), "R", block)
                    system.check_invariants()
        assert system.restores > 0
        assert system.denf_nacks > 0
        # No stale socket-local corruption bits: every remaining bit is
        # backed by an actually-corrupted home image (no double count).
        for socket in system.sockets:
            for block in socket._housing.garbage_blocks():
                assert system.is_garbage(block)


class TestHomeDistribution:
    def test_blocks_map_to_all_homes(self):
        system = make(n_sockets=4)
        homes = {system.home_of(block) for block in range(16)}
        assert homes == {0, 1, 2, 3}

    def test_remote_access_costs_link_latency(self):
        system = make(n_sockets=2)
        # Block 0 homes at socket 0: socket 1's miss pays the link.
        link = system._link
        s1 = system.sockets[1]
        before = s1.stats.cycles[0]
        access(system, 1, 0, "R", 0)
        remote_latency = s1.stats.cycles[0] - before
        s0 = system.sockets[0]
        before = s0.stats.cycles[0]
        access(system, 0, 0, "R", 2)     # also homes at socket 0
        local_latency = s0.stats.cycles[0] - before
        assert remote_latency > local_latency
