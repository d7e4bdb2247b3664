"""Unit tests for the LLC bank: frame kinds, policies, fuse/spill."""

from types import SimpleNamespace

import pytest

from repro.caches.block import LLCLine, LineKind
from repro.caches.llc import LLCBank
from repro.coherence.entry import DirectoryEntry, DirState, EntryLocation
from repro.common.config import LLCReplacement
from repro.common.errors import ProtocolInvariantError, SimulationError
from repro.verify.checks import DivergenceError, check_llc_structure
from repro.verify.models import ModelSpec, micro_config

from tests.conftest import fails_with


def make_bank(ways=4, sets=4, replacement=LLCReplacement.LRU):
    return LLCBank(0, sets, ways, replacement, n_banks=1)


def llc_check(bank):
    """The verify layer's ``check_llc_structure`` on a socket whose only
    bank is ``bank``."""
    spec = ModelSpec("one-bank",
                     micro_config(llc_replacement=bank.replacement))
    check_llc_structure(spec, SimpleNamespace(banks=[bank]))


def data(block, dirty=False, version=0):
    return LLCLine(block, LineKind.DATA, dirty=dirty, version=version)


def entry_for(block, state=DirState.S, owner=None, sharers=0b1):
    if state is DirState.ME and owner is None:
        owner = 0
    return DirectoryEntry(block, state, owner=owner, sharers=sharers)


def spill(block):
    line = LLCLine(block, LineKind.SPILLED, entry=entry_for(block))
    line.entry.location = EntryLocation.LLC_SPILLED
    return line


class TestBasicFrames:
    def test_insert_and_lookup_data(self):
        bank = make_bank()
        bank.insert(data(4))
        assert bank.lookup_data(4).block == 4
        assert bank.lookup_spill(4) is None

    def test_data_and_spill_coexist_under_same_tag(self):
        bank = make_bank()
        bank.insert(data(4))
        bank.insert(spill(4))
        assert bank.lookup_data(4).kind is LineKind.DATA
        assert bank.lookup_spill(4).kind is LineKind.SPILLED
        assert len(bank.frames_in_set(bank.set_of(4))) == 2
        llc_check(bank)
        del bank._spill_index[4]               # the frame stays resident
        with fails_with(DivergenceError, "spilled frame for block 0x4 "
                        "missing from the spill index"):
            llc_check(bank)

    def test_duplicate_data_frame_rejected(self):
        bank = make_bank()
        bank.insert(data(4))
        with pytest.raises(SimulationError):
            bank.insert(data(4))
        # The checker catches one planted behind the bank's back.
        bank.frames_in_set(bank.set_of(4)).append(data(4))
        with fails_with(DivergenceError,
                        "duplicate DATA frame for block 0x4 in bank 0"):
            llc_check(bank)

    def test_lru_victim(self):
        bank = make_bank(ways=2)
        bank.insert(data(0))
        bank.insert(data(4))
        victim = bank.insert(data(8))
        assert victim.block == 0
        llc_check(bank)
        bank.frames_in_set(0).append(data(12))
        with fails_with(DivergenceError,
                        "bank 0 set 0 holds 3 frames in 2 ways"):
            llc_check(bank)

    def test_counts(self):
        bank = make_bank()
        bank.insert(data(0))
        bank.insert(spill(4))
        entry = entry_for(8, DirState.ME, owner=1)
        bank.insert(data(8))
        assert bank.fuse(8, entry)
        assert bank.data_block_count() == 2
        assert bank.spilled_count() == 1
        assert bank.fused_count() == 1
        llc_check(bank)
        bank._spill_index[12] = spill(12)      # indexed, not resident
        with fails_with(DivergenceError, "bank 0 spill index tracks 2 "
                        "entries but 1 spilled frames are resident"):
            llc_check(bank)


class TestFuseUnfuse:
    def test_fuse_marks_frame_and_location(self):
        bank = make_bank()
        bank.insert(data(4, dirty=True, version=3))
        entry = entry_for(4, DirState.ME, owner=2)
        assert bank.fuse(4, entry)
        line = bank.lookup_data(4)
        assert line.kind is LineKind.FUSED
        assert line.dirty and line.version == 3
        assert entry.location is EntryLocation.LLC_FUSED

    def test_fuse_fails_when_absent(self):
        bank = make_bank()
        assert not bank.fuse(4, entry_for(4, DirState.ME, owner=0))

    def test_fuse_fails_on_already_fused(self):
        bank = make_bank()
        bank.insert(data(4))
        bank.fuse(4, entry_for(4, DirState.ME, owner=0))
        assert not bank.fuse(4, entry_for(4, DirState.ME, owner=1))

    def test_unfuse_restores_data(self):
        bank = make_bank()
        bank.insert(data(4))
        entry = entry_for(4, DirState.ME, owner=0)
        bank.fuse(4, entry)
        assert bank.unfuse(4) is entry
        assert bank.lookup_data(4).kind is LineKind.DATA

    def test_unfuse_without_fused_raises(self):
        bank = make_bank()
        bank.insert(data(4))
        with pytest.raises(ProtocolInvariantError):
            bank.unfuse(4)

    def test_free_spill(self):
        bank = make_bank()
        line = spill(4)
        bank.insert(line)
        assert bank.free_spill(4) is line.entry
        assert bank.lookup_spill(4) is None

    def test_free_spill_missing_raises(self):
        with pytest.raises(ProtocolInvariantError):
            make_bank().free_spill(4)


class TestSpLRU:
    def test_insert_keeps_resident_spill_above_its_block(self):
        # Regression: re-installing a block's data frame used to land at
        # MRU *above* the block's resident spilled entry, inverting the
        # spLRU order; replacement would then evict the live entry
        # (WB_DE) while its block stayed resident -- case (iiib).
        bank = make_bank(ways=3, replacement=LLCReplacement.SP_LRU)
        bank.insert(spill(4))
        bank.insert(data(8))
        bank.insert(data(4))
        frames = bank.frames_in_set(bank.set_of(4))
        assert [(f.block, f.kind) for f in frames[-2:]] == [
            (4, LineKind.DATA), (4, LineKind.SPILLED)]
        assert bank.choose_victim(bank.set_of(4)).block == 8
        llc_check(bank)
        frames[-2:] = frames[-1:-3:-1]         # the pre-fix order
        with fails_with(DivergenceError, "spLRU order inverted for block "
                        "0x4: spilled entry is older than its block"):
            llc_check(bank)

    def test_spill_insert_not_reordered(self):
        # The reorder applies to data inserts only; a freshly spilled
        # entry already lands at MRU, above its block.
        bank = make_bank(ways=3, replacement=LLCReplacement.SP_LRU)
        bank.insert(data(4))
        bank.insert(spill(4))
        frames = bank.frames_in_set(bank.set_of(4))
        assert frames[-1].kind is LineKind.SPILLED

    def test_promotion_with_spill_already_at_mru(self):
        # Spilled entry at MRU, then a data access to the same block:
        # the touch sequence (block first, entry second) must leave the
        # entry above the block, not below it.
        bank = make_bank(ways=3, replacement=LLCReplacement.SP_LRU)
        bank.insert(data(4))
        bank.insert(data(8))
        bank.insert(spill(4))           # spill4 is MRU
        bank.lookup_data(4)
        frames = bank.frames_in_set(bank.set_of(4))
        assert [(f.block, f.kind) for f in frames] == [
            (8, LineKind.DATA), (4, LineKind.DATA), (4, LineKind.SPILLED)]

    def test_data_access_promotes_its_spill_above_it(self):
        bank = make_bank(ways=3, replacement=LLCReplacement.SP_LRU)
        bank.insert(spill(4))
        bank.insert(data(4))
        bank.insert(data(8))
        # Access block 4: B to MRU, then its spill above it.
        bank.lookup_data(4)
        frames = bank.frames_in_set(bank.set_of(4))
        assert [f.kind for f in frames[-2:]] == [LineKind.DATA,
                                                 LineKind.SPILLED]
        victim = bank.choose_victim(bank.set_of(4))
        assert victim.block == 8        # block 8 is now LRU

    def test_block_evicted_before_its_spill(self):
        bank = make_bank(ways=2, replacement=LLCReplacement.SP_LRU)
        bank.insert(data(4))
        bank.insert(spill(4))
        bank.lookup_data(4)
        assert bank.choose_victim(bank.set_of(4)).kind is LineKind.DATA


class TestDataLRU:
    def test_data_blocks_evicted_before_entries(self):
        bank = make_bank(ways=3, replacement=LLCReplacement.DATA_LRU)
        bank.insert(spill(4))
        bank.insert(data(8))
        bank.insert(data(12))
        bank.lookup_data(8)     # 12 is now the LRU data block? no: 12 newer
        victim = bank.choose_victim(bank.set_of(4))
        assert victim.kind is LineKind.DATA
        assert victim.block == 12 or victim.block == 8
        # precisely: LRU-to-MRU = [spill4, 12, 8] -> first DATA is 12
        assert victim.block == 12

    def test_entries_only_evicted_when_no_data_left(self):
        bank = make_bank(ways=2, replacement=LLCReplacement.DATA_LRU)
        bank.insert(spill(4))
        entry = entry_for(8, DirState.ME, owner=0)
        bank.insert(data(8))
        bank.fuse(8, entry)     # set now: spill + fused, no plain data
        victim = bank.choose_victim(bank.set_of(4))
        assert victim.kind is LineKind.SPILLED

    def test_protection_of_own_spill_during_fill(self):
        bank = make_bank(ways=2, replacement=LLCReplacement.DATA_LRU)
        bank.insert(spill(4))
        other = spill(8)
        bank.insert(other)
        victim = bank.choose_victim(bank.set_of(4), protect_block=4)
        assert victim is other

    def test_protection_covers_data_frames_too(self):
        bank = make_bank(ways=2, replacement=LLCReplacement.DATA_LRU)
        bank.insert(data(4))
        bank.insert(spill(8))
        victim = bank.choose_victim(bank.set_of(4), protect_block=4)
        assert victim.block == 8

    def test_protection_falls_back_when_alone(self):
        bank = make_bank(ways=1, replacement=LLCReplacement.DATA_LRU)
        own = spill(4)
        bank.insert(own)
        assert bank.choose_victim(bank.set_of(4),
                                  protect_block=4) is own

    def test_insert_protects_own_block(self):
        # Spilling an entry must not evict its own block's data frame.
        bank = make_bank(ways=2, replacement=LLCReplacement.DATA_LRU)
        bank.insert(data(4))
        bank.insert(data(8))
        victim = bank.insert(spill(4))
        assert victim.block == 8

    def test_choose_victim_empty_set_raises(self):
        with pytest.raises(SimulationError):
            make_bank().choose_victim(0)

    def test_all_entries_set_falls_back_to_lru_entry(self):
        # A set with no V=1 block (all spilled/fused frames) has no
        # dataLRU candidate; the policy falls back to plain LRU over the
        # entry frames -- the *oldest* entry is the WB_DE victim.
        bank = make_bank(ways=3, replacement=LLCReplacement.DATA_LRU)
        bank.insert(spill(4))
        bank.insert(spill(8))
        bank.insert(data(12))
        bank.fuse(12, entry_for(12, DirState.ME, owner=0))
        victim = bank.choose_victim(bank.set_of(4))
        assert victim.kind is LineKind.SPILLED and victim.block == 4

    def test_all_protected_data_set_picks_lru_entry_frame(self):
        # dataLRU tier 2 pinned: the only DATA frame is the protected
        # block's own, the rest are entry frames -- the victim is the
        # least-recent *unprotected* frame in LRU order, deterministic
        # because frames is an ordered list, never a dict walk.
        bank = make_bank(ways=4, replacement=LLCReplacement.DATA_LRU)
        bank.insert(spill(4))
        bank.insert(spill(8))
        bank.insert(spill(12))
        bank.insert(data(0))
        bank.lookup_spill(4)            # 4 to MRU; LRU order: 8, 12, 0, 4
        victim = bank.choose_victim(bank.set_of(0), protect_block=0)
        assert victim.kind is LineKind.SPILLED and victim.block == 8
        # Recency, not insertion order, decides: repeatable.
        assert bank.choose_victim(bank.set_of(0),
                                  protect_block=0) is victim

    def test_every_frame_protected_returns_overall_lru(self):
        # dataLRU tier 3 pinned: both frames of a 2-way set belong to
        # the protected block itself, so the documented last resort is
        # the overall LRU frame -- here the block's data frame, which
        # was inserted (and last touched) before its spilled entry.
        bank = make_bank(ways=2, replacement=LLCReplacement.DATA_LRU)
        own_data = data(4)
        bank.insert(own_data)
        bank.insert(spill(4))
        victim = bank.choose_victim(bank.set_of(4), protect_block=4)
        assert victim is own_data


class TestEndToEndSpLRU:
    """Protocol-level regression for the spLRU insert-ordering bug."""

    def test_reinstalled_block_does_not_doom_its_own_entry(self):
        from repro.common.config import DirCachingPolicy
        from tests.conftest import OPS, zerodev_config
        from repro.common.addressing import BLOCK_SHIFT
        from repro.harness.system_builder import build_system

        system = build_system(zerodev_config(
            llc_replacement=LLCReplacement.SP_LRU,
            dir_caching=DirCachingPolicy.FPSS))
        # Spill block 0's entry (shared ifetch), re-install its data at
        # MRU, then storm the same LLC set with fused fills. Before the
        # fix the spilled entry sat *below* its block, got evicted to
        # memory, and the case-(iiib) invariant fired on the next fill.
        script = [(0, "I", 0), (1, "I", 0),
                  (2, "R", 32), (2, "R", 64), (2, "R", 96),
                  (3, "I", 0),
                  (2, "R", 128), (2, "R", 160), (2, "R", 192)]
        for core, op, block in script:
            system.access(core, OPS[op], block << BLOCK_SHIFT)
            system.check_invariants()
        assert system.stats.dev_invalidations == 0


class TestFullSetRecency:
    """A full 16-way set: after touches, inserts and removes, the frame
    order is exactly the LRU-to-MRU list each policy prescribes. Frames
    are found by identity, so every step must move or drop the very
    frame named."""

    LRU, SP_LRU, DATA_LRU = (LLCReplacement.LRU, LLCReplacement.SP_LRU,
                             LLCReplacement.DATA_LRU)

    @staticmethod
    def order(bank):
        return [("s" if line.kind is LineKind.SPILLED else "d")
                + str(line.block) for line in bank.frames_in_set(0)]

    @pytest.mark.parametrize("policy", [LRU, SP_LRU, DATA_LRU])
    def test_order_after_touches_inserts_and_removes(self, policy):
        bank = LLCBank(0, 1, 16, policy, n_banks=1)
        middle = [f"d{b}" for b in (2, 3, 4, 6, 7)]
        tail = [f"d{b}" for b in range(9, 14)]
        bank.insert(spill(100))
        for block in range(14):
            bank.insert(data(block))
        bank.insert(spill(5))
        assert self.order(bank) == (["s100"] + [f"d{b}" for b in range(14)]
                                    + ["s5"])

        bank.lookup_data(5)                  # touch: spLRU lifts s5 too
        bank.lookup_data(0)
        bank.lookup_data(1, touch=False)     # a peek moves nothing
        head = ["d1"] + middle + ["d8"] + tail
        if policy is self.SP_LRU:
            assert self.order(bank) == ["s100"] + head + ["d5", "s5", "d0"]
        else:
            assert self.order(bank) == ["s100"] + head + ["s5", "d5", "d0"]

        victim = bank.insert(data(20))       # full: a policy victim
        if policy is self.DATA_LRU:
            assert (victim.kind, victim.block) == (LineKind.DATA, 1)
            assert self.order(bank) == (["s100"] + middle + ["d8"] + tail
                                        + ["s5", "d5", "d0", "d20"])
        elif policy is self.SP_LRU:
            assert (victim.kind, victim.block) == (LineKind.SPILLED, 100)
            assert self.order(bank) == (head + ["d5", "s5", "d0", "d20"])
        else:
            assert (victim.kind, victim.block) == (LineKind.SPILLED, 100)
            assert self.order(bank) == (head + ["s5", "d5", "d0", "d20"])

        bank.remove(bank.peek_data(8))       # drop a frame mid-set
        bank.remove(bank.peek_data(5))
        bank.insert(data(5))                 # spLRU: s5 back above d5
        bank.lookup_spill(5)                 # touch the entry frame
        lead = ["s100"] if policy is self.DATA_LRU else ["d1"]
        assert self.order(bank) == (lead + middle + tail
                                    + ["d0", "d20", "d5", "s5"])

        bank.insert(data(21))                # 15 frames: no eviction
        victim = bank.insert(data(22))       # full again
        expected_victim = "d2" if policy is self.DATA_LRU else lead[0]
        assert ("d" if victim.kind is LineKind.DATA else "s") + str(
            victim.block) == expected_victim
        survivors = [f for f in lead + middle if f != expected_victim]
        assert self.order(bank) == (survivors + tail
                                    + ["d0", "d20", "d5", "s5", "d21",
                                       "d22"])
        spilled = 2 if policy is self.DATA_LRU else 1
        assert bank.spilled_count() == spilled
        assert bank.data_block_count() == 16 - spilled
