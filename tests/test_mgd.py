"""Tests for the Multi-grain Directory comparison baseline (MICRO'13)."""

import pytest

from repro.caches.block import MESI
from repro.common.config import DirectoryConfig, LLCDesign, Protocol
from repro.harness.system_builder import build_system

from tests.conftest import drive, tiny_config


def mgd(ratio=0.25, **kw):
    return build_system(tiny_config(
        protocol=Protocol.MGD,
        directory=DirectoryConfig(ratio=ratio), **kw))


class TestRegionCoverage:
    def test_private_fill_allocates_region_entry(self):
        system = mgd()
        drive(system, [(0, "R", 5)])
        assert 0 in system._mgd.region_entries        # region 5 // 16
        assert 5 in system._covered
        assert not system._mgd.block_entries

    def test_region_covers_sixteen_blocks_with_one_entry(self):
        system = mgd()
        drive(system, [(0, "R", b) for b in range(8)])
        assert len(system._mgd.region_entries) == 1
        assert system._mgd.region_entries[0].block_count == 8

    def test_code_fill_uses_block_entry(self):
        system = mgd()
        drive(system, [(0, "I", 5)])
        assert 5 in system._mgd.block_entries
        assert not system._mgd.region_entries

    def test_second_core_demotes_region(self):
        system = mgd()
        drive(system, [(0, "R", 0), (0, "R", 1), (1, "R", 2)])
        assert system.stats.region_demotions == 1
        assert 0 not in system._mgd.region_entries
        assert 0 in system._mgd.block_entries
        assert 1 in system._mgd.block_entries
        # No invalidations: demotion is DEV-free.
        assert system.cores[0].probe(0) is not None
        assert system.stats.dev_invalidations == 0

        # An inclusive LLC's eviction is no access to the region: core
        # 1's fill that evicts core 0's block 0 from the LLC kills core
        # 0's copy as an inclusion victim and leaves the region private.
        system = mgd(ratio=1.0, llc_design=LLCDesign.INCLUSIVE)
        drive(system, [(0, "R", 0), (0, "R", 1)])
        bank = system.bank_of(0)
        conflicts = [block for block in range(16, 1024)
                     if system.bank_of(block) is bank
                     and bank.set_of(block) == bank.set_of(0)]
        drive(system, [(1, "R", block) for block in conflicts[:4]])
        assert system.cores[0].probe(0) is None
        assert system.cores[0].probe(1) is MESI.E
        assert system.stats.inclusion_invalidations == 1
        assert system.stats.region_demotions == 0
        assert system._mgd.region_entries[0].block_count == 1
        assert 0 not in system._covered and 1 in system._covered
        system.check_invariants()

    def test_region_entry_freed_when_owner_evicts_all(self):
        system = mgd()
        drive(system, [(0, "R", 0)])
        conflicts = [8 * k for k in range(1, 5)]     # evict block 0
        drive(system, [(0, "R", b) for b in conflicts])
        assert 0 not in system._covered

    def test_write_within_own_region_covered(self):
        system = mgd()
        drive(system, [(0, "R", 0), (0, "W", 1), (0, "W", 0)])
        assert len(system._mgd.region_entries) == 1
        assert system.cores[0].probe(0) is MESI.M


class TestRegionDEVs:
    def test_region_eviction_invalidates_owner_blocks(self):
        # 1/32 directory: 4 entries in one 4-way... ratio 1/32 of 128 =
        # 4 entries -> 1 set of 8 ways is rounded; use ratio so sets=1.
        system = mgd(ratio=1 / 16)                   # 8 entries, 1 set
        # 9 live regions (spread over L2 sets so all stay cached) must
        # evict a region entry from the 8-entry directory.
        script = [(0, "R", 16 * r + r % 8) for r in range(9)]
        drive(system, script)
        assert system.stats.dir_evictions >= 1
        assert system.stats.dev_invalidations >= 1

    def test_region_dev_kills_multiple_blocks(self):
        system = mgd(ratio=1 / 16)
        # Populate one region densely, then thrash the directory set.
        drive(system, [(0, "R", b) for b in range(4)])
        before = system.stats.dev_invalidations
        drive(system, [(1, "R", 16 * r + 8) for r in range(1, 10)])
        if system.cores[0].probe(0) is None:
            assert system.stats.dev_invalidations - before >= 2


class TestMgDCoherence:
    def test_cross_core_write_after_demotion(self):
        system = mgd()
        drive(system, [(0, "R", 0), (1, "W", 0), (0, "R", 0)])
        assert system.cores[0].probe(0) is MESI.S
        assert system.cores[1].probe(0) is MESI.S

    def test_sharing_a_covered_block(self):
        system = mgd()
        drive(system, [(0, "W", 0), (1, "R", 0)])
        entry = system._peek_entry(0)
        assert sorted(entry.sharer_cores()) == [0, 1]

    def test_scales_better_than_baseline_at_small_sizes(self):
        def misses(protocol):
            system = build_system(tiny_config(
                protocol=protocol, directory=DirectoryConfig(ratio=0.125)))
            script = [(c, "R", (32 * c) + k % 28)
                      for k in range(200) for c in range(4)]
            drive(system, script)
            return system.stats.core_cache_misses
        assert misses(Protocol.MGD) <= misses(Protocol.BASELINE)

    def test_soak_run_stays_invariant_clean(self):
        system = mgd(ratio=0.125)
        script = [(c, "RWI"[k % 3], (7 * k + 5 * c) % 160)
                  for k in range(250) for c in range(4)]
        drive(system, script)
