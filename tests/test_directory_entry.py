"""Unit tests for directory entries and the sparse directory (NRU)."""

import pytest

from repro.coherence.directory import SparseDirectory
from repro.coherence.entry import DirectoryEntry, DirState, EntryLocation
from repro.common.errors import ProtocolInvariantError
from repro.common.stats import SystemStats


def me_entry(block, owner=0):
    return DirectoryEntry(block, DirState.ME, owner=owner)


def s_entry(block, sharers):
    return DirectoryEntry(block, DirState.S, sharers=sharers)


class TestDirectoryEntry:
    def test_me_entry_owner_is_sharer(self):
        entry = me_entry(1, owner=3)
        assert entry.is_sharer(3)
        assert entry.sharer_count == 1

    def test_me_without_owner_rejected(self):
        with pytest.raises(ProtocolInvariantError):
            DirectoryEntry(1, DirState.ME)

    def test_add_remove_sharer(self):
        entry = s_entry(1, 0b0010)
        entry.add_sharer(3)
        assert sorted(entry.sharer_cores()) == [1, 3]
        entry.remove_sharer(1)
        assert list(entry.sharer_cores()) == [3]
        assert not entry.empty
        entry.remove_sharer(3)
        assert entry.empty

    def test_remove_non_sharer_raises(self):
        with pytest.raises(ProtocolInvariantError):
            s_entry(1, 0b1).remove_sharer(3)

    def test_remove_owner_clears_owner(self):
        entry = me_entry(1, owner=2)
        entry.remove_sharer(2)
        assert entry.owner is None and entry.empty

    def test_make_owned_and_shared(self):
        entry = s_entry(1, 0b111)
        entry.make_owned(2)
        assert entry.state is DirState.ME
        assert entry.owner == 2
        assert list(entry.sharer_cores()) == [2]
        entry.make_shared()
        assert entry.state is DirState.S and entry.owner is None

    def test_any_sharer_excludes(self):
        entry = s_entry(1, 0b101)
        assert entry.any_sharer(exclude=0) == 2
        assert entry.any_sharer() == 0

    def test_any_sharer_none_raises(self):
        with pytest.raises(ProtocolInvariantError):
            s_entry(1, 0b1).any_sharer(exclude=0)

    def test_storage_bits(self):
        assert me_entry(1).storage_bits(8) == 9


class TestSparseDirectory:
    def make(self, entries=16, ways=4, **kw):
        return SparseDirectory(entries, ways, **kw)

    def test_insert_lookup_remove(self):
        directory = self.make()
        directory.insert(me_entry(5))
        assert directory.lookup(5).block == 5
        assert directory.peek(5) is directory.lookup(5)
        directory.remove(5)
        assert directory.lookup(5) is None

    def test_remove_missing_raises(self):
        with pytest.raises(ProtocolInvariantError):
            self.make().remove(5)

    def test_duplicate_insert_raises(self):
        directory = self.make()
        directory.insert(me_entry(5))
        with pytest.raises(ProtocolInvariantError):
            directory.insert(me_entry(5))

    def test_has_room_per_set(self):
        directory = self.make(entries=8, ways=2)   # 4 sets
        directory.insert(me_entry(0))
        directory.insert(me_entry(4))
        assert not directory.has_room(8)    # set 0 full
        assert directory.has_room(1)

    def test_insert_full_set_raises(self):
        directory = self.make(entries=8, ways=2)
        directory.insert(me_entry(0))
        directory.insert(me_entry(4))
        with pytest.raises(ProtocolInvariantError):
            directory.insert(me_entry(8))

    def test_nru_victim_prefers_unreferenced(self):
        directory = self.make(entries=12, ways=3)  # 4 sets
        directory.insert(me_entry(0))
        directory.insert(me_entry(4))
        assert directory.evict_for(8) is None      # set 0 has room
        assert len(directory) == 2
        directory.insert(me_entry(8))              # all referenced
        victim = directory.evict_for(12)
        # All referenced: bits cleared, first way chosen and removed.
        assert victim.block == 0
        assert 0 not in directory and directory.peek(0) is None
        assert [e.block for e in directory._sets[0]] == [4, 8]
        assert not directory.peek(4).nru_ref
        assert not directory.peek(8).nru_ref
        assert directory.has_room(12)
        directory.insert(me_entry(12))
        directory.lookup(4)                # re-reference 4 only
        # The first way with a clear bit goes, ahead of way 0.
        assert directory.evict_for(16).block == 8
        assert sorted(directory._index) == [4, 12]
        assert [e.block for e in directory._sets[0]] == [4, 12]

    def test_unbounded_never_full(self):
        directory = self.make(unbounded=True, stats=SystemStats(1))
        for block in range(1000):
            assert directory.has_room(block)
            assert directory.evict_for(block) is None
            directory.insert(me_entry(block))
        assert len(directory) == 1000
        # It counts what its 1x geometry (4 sets x 4 ways here) could
        # not keep: six entries planted in set 0 overflow it by two.
        # Removing three lowers the live overflow to zero; the peak in
        # the stats holds.
        stats = SystemStats(1)
        directory = self.make(unbounded=True, stats=stats)
        for block in range(0, 24, 4):
            directory.insert(me_entry(block))
        directory.insert(me_entry(1))
        assert directory.overflow == stats.dir_overflow_peak == 2
        for block in (0, 4, 8):
            directory.remove(block)
        assert directory.overflow == 0
        assert stats.dir_overflow_peak == 2

    def test_replacement_disabled_refuses_victims(self):
        directory = self.make(entries=8, ways=2, replacement_disabled=True)
        directory.insert(me_entry(0))
        assert directory.evict_for(4) is None      # set 0 has room
        directory.insert(me_entry(4))
        with pytest.raises(ProtocolInvariantError):
            directory.evict_for(8)
        assert len(directory) == 2 and 0 in directory and 4 in directory

    def test_insert_sets_location(self):
        directory = self.make()
        entry = me_entry(3)
        entry.location = EntryLocation.MEMORY
        directory.insert(entry)
        assert entry.location is EntryLocation.SPARSE
