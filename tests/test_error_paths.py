"""Error-path and guard-rail tests: the invariant machinery itself.

A protocol checker is only trustworthy if its guards actually fire;
these tests corrupt state deliberately and assert the right error
surfaces.
"""

import pytest

from repro.caches.block import LLCLine, LineKind, MESI
from repro.coherence.entry import DirectoryEntry, DirState, EntryLocation
from repro.coherence.shadow import ShadowMemory
from repro.common.errors import (ProtocolInvariantError, SimulationError)
from repro.harness.system_builder import build_system

from tests.conftest import drive, fails_with, tiny_config, zerodev_config


class TestShadowMemory:
    def test_detects_stale_read(self):
        shadow = ShadowMemory()
        version = shadow.commit_write(5)
        shadow.check_read(5, version, "test")           # fine
        shadow.commit_write(5)
        with pytest.raises(ProtocolInvariantError, match="stale"):
            shadow.check_read(5, version, "test")

    def test_unwritten_block_is_version_zero(self):
        shadow = ShadowMemory()
        shadow.check_read(7, 0, "test")
        assert shadow.latest(7) == 0

    def test_versions_monotonic(self):
        shadow = ShadowMemory()
        versions = [shadow.commit_write(1) for _ in range(5)]
        assert versions == sorted(versions)
        assert len(set(versions)) == 5


class TestDataCheck:
    @pytest.mark.parametrize("op, response", [("R", "GETS"),
                                              ("W", "GETX")])
    def test_stale_response_is_refused(self, baseline, op, response):
        # Every uncore response is checked against the shadow, with no
        # switch to turn it off: a store committed behind the caches'
        # back makes core 0's copy stale for core 1's request.
        drive(baseline, [(0, "R", 5)])
        baseline.shadow.commit_write(5)
        with fails_with(ProtocolInvariantError,
                        f"stale data: block 0x5 read from {response} "
                        "response returned version 0, latest is 1"):
            drive(baseline, [(1, op, 5)])


class TestInvariantDetection:
    def test_swmr_violation_detected(self, baseline):
        drive(baseline, [(0, "W", 5)])
        # Corrupt: give core 1 a second owned copy behind the
        # protocol's back.
        baseline.cores[1].fill(5, MESI.M, 99, code=False)
        # The holder list is only built to word the error.
        with fails_with(ProtocolInvariantError,
                        "SWMR violated for block 0x5: [(0, <MESI.M: 'M'>)"
                        ", (1, <MESI.M: 'M'>)]"):
            baseline.check_invariants()

    def test_untracked_block_detected(self, baseline):
        drive(baseline, [(0, "R", 5)])
        baseline.directory.remove(5)
        with fails_with(ProtocolInvariantError,
                        "block 0x5 privately cached but untracked"):
            baseline.check_invariants()

    def test_imprecise_sharer_vector_detected(self, baseline):
        drive(baseline, [(0, "R", 5)])
        entry = baseline._peek_entry(5)
        entry.add_sharer(3)                    # core 3 has no copy
        with fails_with(ProtocolInvariantError,
                        "directory imprecise for block 0x5: entry [0, 3] "
                        "vs caches [0]"):
            baseline.check_invariants()
        entry.remove_sharer(3)
        baseline.check_invariants()
        entry.state = DirState.S               # core 0 still holds E
        with fails_with(ProtocolInvariantError,
                        "entry state S but core owns block 0x5"):
            baseline.check_invariants()

    def test_fused_state_mismatch_detected(self, zerodev):
        drive(zerodev, [(0, "R", 5)])          # fused M/E entry (FPSS)
        bank = zerodev.bank_of(5)
        line = bank.peek_data(5)
        assert line.kind is LineKind.FUSED
        line.entry.state = DirState.S          # corrupt: fused but S
        with pytest.raises(ProtocolInvariantError,
                           match="FPSS|state S but core owns"):
            zerodev.check_invariants()
        # With core 0's copy in S too, only FPSS's own rule is broken:
        # a fused entry must be M/E.
        zerodev.cores[0].set_state(5, MESI.S)
        with fails_with(ProtocolInvariantError,
                        "FPSS invariant: fused entry of block 0x5 is not "
                        "M/E"):
            zerodev.check_invariants()
        # And an M/E entry must not be spilled while its block is
        # resident: spill it beside the block.
        zerodev.cores[0].set_state(5, MESI.E)
        entry = bank.unfuse(5)
        entry.state = DirState.ME
        entry.location = EntryLocation.LLC_SPILLED
        bank.insert(LLCLine(5, LineKind.SPILLED, entry=entry))
        with fails_with(ProtocolInvariantError,
                        "FPSS invariant: M/E entry of resident block 0x5 "
                        "is spilled, not fused"):
            zerodev.check_invariants()

    def test_location_mismatch_detected(self, zerodev):
        drive(zerodev, [(0, "R", 5)])
        bank = zerodev.bank_of(5)
        line = bank.peek_data(5)
        line.entry.location = EntryLocation.MEMORY
        with fails_with(ProtocolInvariantError,
                        "fused frame/location mismatch for block 0x5"):
            zerodev.check_invariants()
        entry = bank.unfuse(5)
        bank.insert(LLCLine(5, LineKind.SPILLED, entry=entry))
        with fails_with(ProtocolInvariantError,
                        "spill frame/location mismatch for block 0x5"):
            zerodev.check_invariants()
        bank.free_spill(5)
        assert bank.fuse(5, entry)
        zerodev.check_invariants()
        # Case (iiib): a second entry for the resident block housed in
        # memory.
        zerodev._housing.house(5, DirectoryEntry(5, DirState.ME, owner=0))
        with fails_with(ProtocolInvariantError,
                        "case (iiib): block 0x5 resident in LLC while its "
                        "entry is housed in memory"):
            zerodev.check_invariants()

    def test_dev_counter_guard(self, zerodev):
        drive(zerodev, [(0, "R", 5)])
        zerodev.stats.dev_invalidations = 1    # should be impossible
        with fails_with(ProtocolInvariantError,
                        "ZeroDEV generated directory eviction victims"):
            zerodev.check_invariants()


class TestProtocolGuards:
    def test_notice_without_entry_raises_in_baseline(self, baseline):
        # An eviction notice is the victim line the core's fill returned.
        from repro.caches.block import L2Line
        with pytest.raises(ProtocolInvariantError,
                           match="untracked block 0x4d from core 0"):
            baseline._process_notice(0, L2Line(77, MESI.S, 0))

    def test_fused_frame_in_baseline_rejected(self, baseline):
        from repro.caches.block import LLCLine
        from repro.coherence.entry import DirectoryEntry
        bank = baseline.bank_of(5)
        entry = DirectoryEntry(5, DirState.ME, owner=0)
        bank.insert(LLCLine(5, LineKind.FUSED, entry=entry))
        victim = bank.peek_data(5)
        with pytest.raises(ProtocolInvariantError):
            baseline._handle_llc_victim(bank, victim)

    def test_demand_fetch_of_corrupted_block_rejected(self, zerodev):
        from repro.coherence.entry import DirectoryEntry
        entry = DirectoryEntry(42, DirState.ME, owner=0)
        zerodev._housing.house(42, entry)
        with pytest.raises(ProtocolInvariantError, match="corrupted"):
            zerodev._memory_fetch_latency(42)

    def test_wb_de_under_inclusion_rejected(self):
        from repro.common.config import DirCachingPolicy, LLCDesign
        from repro.coherence.entry import DirectoryEntry
        system = build_system(zerodev_config(
            llc_design=LLCDesign.INCLUSIVE))
        entry = DirectoryEntry(5, DirState.ME, owner=0)
        with pytest.raises(ProtocolInvariantError, match="inclusive"):
            system._writeback_entry_to_memory(entry)

        # An inclusive LLC keeps a spilled entry's block resident in the
        # same set, and both replacement policies age the block out
        # before its entry: a spilled frame is never the victim, and
        # the protocol refuses one rather than evict its block.
        system = build_system(zerodev_config(
            llc_design=LLCDesign.INCLUSIVE,
            dir_caching=DirCachingPolicy.SPILL_ALL))
        drive(system, [(0, "R", 5)])
        bank = system.bank_of(5)
        frame = bank.peek_spill(5)
        bank.remove(frame)
        with fails_with(ProtocolInvariantError,
                        "inclusive LLC evicted the spilled entry frame "
                        "of block 0x5"):
            system._handle_llc_victim(bank, frame)
