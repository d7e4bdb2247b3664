"""Unit tests for the per-core private hierarchy (L1I/L1D over L2)."""

import pytest

from repro.caches.block import MESI
from repro.caches.private_cache import PrivateHierarchy
from repro.common.config import CacheGeometry
from repro.common.errors import ProtocolInvariantError


def make_hierarchy():
    return PrivateHierarchy(
        core=0,
        l1i=CacheGeometry(256, 2),    # 4 blocks, 2 sets
        l1d=CacheGeometry(256, 2),
        l2=CacheGeometry(1024, 4),    # 16 blocks, 4 sets
    )


# The batched kernel's contract (repro.kernel): every mutation that can
# shrink hit safety bumps ``epoch`` once and journals its block once in
# ``shrink_log``; mutations that only extend safety do neither.
def journal(hier):
    return hier.epoch, list(hier.shrink_log)


def assert_no_copy(hier, block):
    """``block`` is gone from every array, index and LRU set alike."""
    for array in (hier._l1i, hier._l1d, hier._l2):
        assert block not in array
        assert block not in [line.block for line in
                             array.set_lines(array.set_of(block))]


class TestFillAndLookup:
    def test_fill_then_l1_hit(self):
        hier = make_hierarchy()
        hier.fill(5, MESI.E, version=0, code=False)
        assert hier.read_hit_level(5, code=False) == "l1"

    def test_l2_hit_refills_l1(self):
        hier = make_hierarchy()
        hier.fill(0, MESI.E, 0, code=False)
        # Evict 0 from L1D (2-way sets by low bits: 0, 2, 4 share set 0).
        hier.fill(2, MESI.E, 0, code=False)
        hier.fill(4, MESI.E, 0, code=False)
        assert hier.read_hit_level(0, code=False) == "l2"
        assert hier.read_hit_level(0, code=False) == "l1"

    def test_code_and_data_l1s_are_split(self):
        hier = make_hierarchy()
        hier.fill(5, MESI.S, 0, code=True)
        assert hier.read_hit_level(5, code=False) == "l2"

    def test_miss_returns_none(self):
        assert make_hierarchy().read_hit_level(9, code=False) is None

    def test_double_fill_rejected(self):
        hier = make_hierarchy()
        hier.fill(5, MESI.E, 0, code=False)
        with pytest.raises(ProtocolInvariantError):
            hier.fill(5, MESI.S, 0, code=False)


class TestEvictionNotices:
    def test_l2_eviction_produces_notice_and_back_invalidates(self):
        # 4-way L1s, so the L2 victim still has both L1 copies.
        hier = PrivateHierarchy(0, CacheGeometry(512, 4),
                                CacheGeometry(512, 4),
                                CacheGeometry(1024, 4))
        hier.fill(0, MESI.E, 0, code=True)
        hier.read_hit_level(0, code=False)
        for block in (4, 8, 12):      # fill L2 set 0, 0 is its LRU
            assert hier.fill(block, MESI.E, 0, code=False) is None
        assert 0 in hier._l1i and 0 in hier._l1d
        assert journal(hier) == (0, [])         # victimless fills
        # A code fill: the L1D set the victim shares stays untouched.
        notice = hier.fill(16, MESI.S, 0, code=True)
        assert notice is not None
        assert notice.block == 0
        assert notice.state is MESI.E
        assert journal(hier) == (1, [0])        # the victim, once
        assert_no_copy(hier, 0)
        assert hier.read_hit_level(0, code=False) is None

    def test_notice_carries_m_state_and_version(self):
        hier = make_hierarchy()
        hier.fill(0, MESI.E, 0, code=False)
        hier.commit_write(0, version=7)
        for block in (4, 8, 12):
            hier.fill(block, MESI.E, 0, code=False)
        notice = hier.fill(16, MESI.E, 0, code=False)
        assert notice.state is MESI.M
        assert notice.version == 7

    def test_l1_eviction_is_silent(self):
        hier = make_hierarchy()
        hier.fill(0, MESI.E, 0, code=False)
        hier.fill(2, MESI.E, 0, code=False)
        notice = hier.fill(4, MESI.E, 0, code=False)   # L1D set 0 full
        assert notice is None
        assert 0 in hier                               # still in L2


class TestCoherenceActions:
    def test_write_requires_ownership(self):
        hier = make_hierarchy()
        hier.fill(3, MESI.S, 0, code=False)
        with pytest.raises(ProtocolInvariantError):
            hier.commit_write(3, 1)

    def test_silent_e_to_m(self):
        hier = make_hierarchy()
        hier.fill(3, MESI.E, 0, code=False)
        hier.commit_write(3, 9)
        assert journal(hier) == (0, [])
        assert hier.probe(3) is MESI.M
        assert hier.line_of(3).version == 9

    def test_invalidate_returns_line(self):
        hier = make_hierarchy()
        hier.fill(3, MESI.E, 5, code=False)
        hier.read_hit_level(3, code=True)       # 3 in L1I and L1D too
        line = hier.invalidate(3)
        assert line.version == 5
        assert journal(hier) == (1, [3])
        assert_no_copy(hier, 3)
        assert hier.invalidate(3) is None

    def test_downgrade_to_s(self):
        hier = make_hierarchy()
        hier.fill(3, MESI.E, 0, code=False)
        hier.commit_write(3, 4)
        line = hier.downgrade_to_s(3)
        assert line.version == 4
        assert hier.probe(3) is MESI.S
        assert journal(hier) == (1, [3])

    def test_downgrade_requires_ownership(self):
        hier = make_hierarchy()
        hier.fill(3, MESI.S, 0, code=False)
        with pytest.raises(ProtocolInvariantError):
            hier.downgrade_to_s(3)

    def test_write_hit_state(self):
        hier = make_hierarchy()
        assert hier.write_hit_state(3) is None
        hier.fill(3, MESI.S, 0, code=False)
        assert hier.write_hit_state(3) is MESI.S
        hier.set_state(3, MESI.E)               # the upgrade grant
        assert hier.write_hit_state(3) is MESI.E
        assert journal(hier) == (0, [])
        hier.set_state(3, MESI.S)               # losing ownership
        assert hier.write_hit_state(3) is MESI.S
        assert journal(hier) == (1, [3])

    def test_cached_blocks(self):
        hier = make_hierarchy()
        hier.fill(1, MESI.E, 0, code=False)
        hier.fill(2, MESI.S, 0, code=True)
        assert sorted(hier.cached_blocks()) == [1, 2]
