"""Directed scenarios for the baseline MESI + sparse-directory protocol."""

import pytest

from repro.caches.block import LineKind, MESI
from repro.coherence.entry import DirState
from repro.common.config import DirectoryConfig, LLCDesign
from repro.common.messages import MessageType
from repro.harness.system_builder import build_system

from tests.conftest import drive, tiny_config


class TestFillsAndHits:
    def test_read_miss_fills_exclusive(self, baseline):
        drive(baseline, [(0, "R", 5)])
        assert baseline.cores[0].probe(5) is MESI.E
        entry = baseline._peek_entry(5)
        assert entry.state is DirState.ME and entry.owner == 0

    def test_second_read_hits_l1(self, baseline):
        lat = drive(baseline, [(0, "R", 5), (0, "R", 5)])
        assert lat[1] == baseline.config.latency.l1_hit
        assert baseline.stats.l1_hits == 1
        assert baseline.stats.core_cache_misses == 1

    def test_code_fetch_fills_shared(self, baseline):
        drive(baseline, [(0, "I", 5)])
        assert baseline.cores[0].probe(5) is MESI.S
        assert baseline._peek_entry(5).state is DirState.S

    def test_demand_fill_allocates_in_llc(self, baseline):
        drive(baseline, [(0, "R", 5)])
        line = baseline.bank_of(5).peek_data(5)
        assert line is not None and line.kind is LineKind.DATA

    def test_write_miss_fills_modified(self, baseline):
        drive(baseline, [(0, "W", 5)])
        assert baseline.cores[0].probe(5) is MESI.M

    def test_silent_e_to_m_upgrade(self, baseline):
        drive(baseline, [(0, "R", 5), (0, "W", 5)])
        assert baseline.cores[0].probe(5) is MESI.M
        assert baseline.stats.upgrades == 0


class TestSharingTransitions:
    def test_read_of_owned_block_forwards_three_hop(self, baseline):
        drive(baseline, [(0, "W", 5), (1, "R", 5)])
        assert baseline.stats.forwarded_requests == 1
        assert baseline.cores[0].probe(5) is MESI.S
        assert baseline.cores[1].probe(5) is MESI.S
        entry = baseline._peek_entry(5)
        assert entry.state is DirState.S
        assert sorted(entry.sharer_cores()) == [0, 1]

    def test_downgrade_writes_dirty_data_to_llc(self, baseline):
        drive(baseline, [(0, "W", 5), (1, "R", 5)])
        line = baseline.bank_of(5).peek_data(5)
        assert line.dirty
        assert line.version == baseline.shadow.latest(5)

    def test_write_invalidates_sharers(self, baseline):
        drive(baseline, [(0, "R", 5), (1, "R", 5), (2, "W", 5)])
        assert baseline.cores[0].probe(5) is None
        assert baseline.cores[1].probe(5) is None
        assert baseline.cores[2].probe(5) is MESI.M
        assert baseline.stats.invalidations_sent >= 2

    def test_upgrade_from_shared(self, baseline):
        drive(baseline, [(0, "R", 5), (1, "R", 5), (1, "W", 5)])
        assert baseline.stats.upgrades == 1
        assert baseline.cores[1].probe(5) is MESI.M
        assert baseline.cores[0].probe(5) is None

    def test_getx_on_owned_block_transfers_ownership(self, baseline):
        drive(baseline, [(0, "W", 5), (1, "W", 5)])
        assert baseline.cores[0].probe(5) is None
        assert baseline.cores[1].probe(5) is MESI.M
        entry = baseline._peek_entry(5)
        assert entry.owner == 1

    def test_read_write_read_data_flows(self, baseline):
        # The shadow-memory checker inside drive() verifies every read
        # observes the latest version through all these transitions.
        drive(baseline, [(0, "R", 5), (1, "W", 5), (2, "R", 5),
                         (3, "R", 5), (0, "W", 5), (1, "R", 5)])


class TestEvictionNotices:
    def test_l2_eviction_frees_directory_entry(self, baseline):
        # L2 is 4-way with 8 sets: five same-set blocks force an eviction.
        same_set = [s * 8 for s in range(5)]
        drive(baseline, [(0, "R", b) for b in same_set])
        assert baseline._peek_entry(same_set[0]) is None
        assert baseline.cores[0].probe(same_set[0]) is None

    def test_m_eviction_writes_back_to_llc(self, baseline):
        same_set = [s * 8 for s in range(5)]
        drive(baseline, [(0, "W", same_set[0])]
              + [(0, "R", b) for b in same_set[1:]])
        line = baseline.bank_of(same_set[0]).peek_data(same_set[0])
        assert line is not None and line.dirty
        assert line.version == baseline.shadow.latest(same_set[0])

    def test_shared_eviction_keeps_entry_for_others(self, baseline):
        same_set = [s * 8 for s in range(5)]
        drive(baseline, [(0, "R", same_set[0]), (1, "R", same_set[0])]
              + [(0, "R", b) for b in same_set[1:]])
        entry = baseline._peek_entry(same_set[0])
        assert entry is not None
        assert list(entry.sharer_cores()) == [1]


def dev_prone_config(**kw):
    """1/8-size directory: 16 entries in 2 sets of 8 ways."""
    return tiny_config(directory=DirectoryConfig(ratio=0.125), **kw)


class TestDirectoryEvictionVictims:
    def test_conflict_generates_devs(self):
        system = build_system(dev_prone_config())
        blocks = [2 * k for k in range(9)]     # all map to dir set 0
        drive(system, [(0, "R", b) for b in blocks])
        assert system.stats.dir_evictions >= 1
        assert system.stats.dev_invalidations >= 1
        victims = [b for b in blocks if system.cores[0].probe(b) is None]
        assert victims                          # some private copy died

    def test_dev_invalidates_all_sharers(self):
        system = build_system(dev_prone_config())
        drive(system, [(0, "R", 0), (1, "R", 0), (2, "R", 0),
                       (3, "R", 0)])
        stats = system.stats
        victim = system._peek_entry(0)
        assert victim.sharers == 0b1111
        before = (stats.dev_invalidations, stats.invalidations_sent,
                  stats.messages.get(MessageType.INV, 0))
        # Blocks 2..16 fill directory set 0. The ninth entry finds every
        # reference bit set, so the NRU sweep evicts the first way:
        # block 0's entry.
        drive(system, [(0, "R", 2 * k) for k in range(1, 9)])
        assert system._peek_entry(0) is None
        assert all(system.cores[core].probe(0) is None
                   for core in range(4))
        after = (stats.dev_invalidations, stats.invalidations_sent,
                 stats.messages.get(MessageType.INV, 0))
        assert [a - b for a, b in zip(after, before)] == [4, 4, 4]
        assert victim.sharers == 0 and victim.owner is None

    def test_dirty_dev_retrieved_into_llc(self):
        system = build_system(dev_prone_config())
        drive(system, [(0, "W", 0)])
        version = system.shadow.latest(0)
        drive(system, [(1, "R", 2 * k) for k in range(1, 9)])
        if system.cores[0].probe(0) is None:    # block 0 was the victim
            line = system.bank_of(0).peek_data(0)
            assert line is not None and line.dirty
            assert line.version == version

    def test_unbounded_directory_has_no_devs(self):
        system = build_system(tiny_config(
            directory=DirectoryConfig(unbounded=True)))
        drive(system, [(c, "R", 2 * k) for k in range(30)
                       for c in range(4)])
        assert system.stats.dev_invalidations == 0
        assert system.stats.dir_evictions == 0

    def test_smaller_directory_more_devs(self):
        def devs(ratio):
            system = build_system(tiny_config(
                directory=DirectoryConfig(ratio=ratio)))
            drive(system, [(c, "R", 4 * k + c) for k in range(40)
                           for c in range(4)])
            return system.stats.dev_invalidations
        assert devs(0.125) >= devs(1.0)


class TestInclusiveLLC:
    def test_llc_eviction_back_invalidates(self):
        system = build_system(tiny_config(
            llc_design=LLCDesign.INCLUSIVE))
        # LLC sets per bank: 16, 4 ways. Five blocks in bank 0, set 0.
        blocks = [t << 5 for t in range(5)]
        drive(system, [(0, "R", b) for b in blocks])
        assert system.stats.inclusion_invalidations >= 1
        assert system.cores[0].probe(blocks[0]) is None
        assert system._peek_entry(blocks[0]) is None

    def test_dirty_inclusion_victim_written_back(self):
        system = build_system(tiny_config(
            llc_design=LLCDesign.INCLUSIVE))
        blocks = [t << 5 for t in range(5)]
        drive(system, [(0, "W", blocks[0])]
              + [(0, "R", b) for b in blocks[1:]])
        assert system.stats.dram_writes >= 1
        # Re-read returns the stored version (checked by the shadow).
        drive(system, [(1, "R", blocks[0])])


class TestEPD:
    def test_data_fill_skips_llc(self):
        system = build_system(tiny_config(llc_design=LLCDesign.EPD))
        drive(system, [(0, "R", 5)])
        assert system.bank_of(5).peek_data(5) is None
        assert system.cores[0].probe(5) is MESI.E

    def test_code_fill_allocates_llc(self):
        system = build_system(tiny_config(llc_design=LLCDesign.EPD))
        drive(system, [(0, "I", 5)])
        assert system.bank_of(5).peek_data(5) is not None

    def test_owner_eviction_allocates_llc(self):
        system = build_system(tiny_config(llc_design=LLCDesign.EPD))
        same_set = [s * 8 for s in range(5)]
        drive(system, [(0, "R", b) for b in same_set])
        assert system.bank_of(same_set[0]).peek_data(same_set[0]) \
            is not None

    def test_sharing_allocates_llc(self):
        system = build_system(tiny_config(llc_design=LLCDesign.EPD))
        drive(system, [(0, "R", 5), (1, "R", 5)])
        assert system.bank_of(5).peek_data(5) is not None

    def test_write_deallocates_from_llc(self):
        system = build_system(tiny_config(llc_design=LLCDesign.EPD))
        drive(system, [(0, "R", 5), (1, "R", 5), (1, "W", 5)])
        assert system.bank_of(5).peek_data(5) is None


class TestTrafficAccounting:
    def test_messages_recorded(self, baseline):
        drive(baseline, [(0, "W", 5), (1, "R", 5)])
        assert baseline.stats.traffic_bytes > 0
        from repro.common.messages import MessageType
        assert baseline.stats.messages[MessageType.FWD_GETS] == 1

    def test_store_latency_partially_hidden(self, baseline):
        read_lat = drive(baseline, [(0, "R", 5)])[0]
        write_lat = drive(baseline, [(1, "W", 7)])[0]
        assert write_lat < read_lat
