"""Unit tests for the generic set-associative array."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.caches.block import L1Line, MESI
from repro.caches.private_cache import PrivateHierarchy
from repro.caches.set_assoc import SetAssocCache
from repro.common.config import CacheGeometry
from repro.common.errors import ProtocolInvariantError, SimulationError


def make_cache(size=512, ways=2):
    return SetAssocCache(CacheGeometry(size, ways))   # 8 blocks, 4 sets


class TestInsertLookup:
    def test_insert_and_lookup(self):
        cache = make_cache()
        cache.insert(L1Line(5))
        assert cache.lookup(5).block == 5
        assert 5 in cache

    def test_miss_returns_none(self):
        assert make_cache().lookup(3) is None

    def test_duplicate_insert_rejected(self):
        cache = make_cache()
        cache.insert(L1Line(5))
        with pytest.raises(SimulationError):
            cache.insert(L1Line(5))

    def test_eviction_returns_lru_victim(self):
        cache = make_cache()          # 2 ways, set = block % 4
        cache.insert(L1Line(0))
        cache.insert(L1Line(4))
        victim = cache.insert(L1Line(8))
        assert victim.block == 0

    def test_lookup_refreshes_lru(self):
        cache = make_cache()
        cache.insert(L1Line(0))
        cache.insert(L1Line(4))
        cache.lookup(0)               # 0 becomes MRU
        victim = cache.insert(L1Line(8))
        assert victim.block == 4

    def test_peek_does_not_refresh_lru(self):
        cache = make_cache()
        cache.insert(L1Line(0))
        cache.insert(L1Line(4))
        cache.peek(0)
        victim = cache.insert(L1Line(8))
        assert victim.block == 0

    def test_remove(self):
        cache = make_cache()
        cache.insert(L1Line(0))
        assert cache.remove(0).block == 0
        assert cache.remove(0) is None
        assert 0 not in cache

    def test_different_sets_do_not_conflict(self):
        cache = make_cache()
        for block in range(4):        # one per set
            cache.insert(L1Line(block))
        assert len(cache) == 4
        assert cache.insert(L1Line(4)) is None or True  # set 0 now full?
        # set 0 held block 0 only; inserting 4 must not evict.
        assert 0 in cache and 4 in cache


class TestCapacityProperty:
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=200))
    def test_never_exceeds_geometry(self, blocks):
        cache = make_cache(size=1024, ways=4)   # 16 blocks, 4 sets
        resident = set()
        for block in blocks:
            if block in resident:
                cache.lookup(block)
                continue
            victim = cache.insert(L1Line(block))
            resident.add(block)
            if victim is not None:
                resident.discard(victim.block)
            assert len(cache) == len(resident)
            assert len(cache) <= 16
            for set_idx in range(4):
                assert len(cache.set_lines(set_idx)) <= 4


#: One cache operation: (op name, block). Small block space over the
#: 4-set geometry keeps every set under constant conflict pressure.
operations = st.lists(
    st.tuples(st.sampled_from(["insert", "lookup", "peek", "remove"]),
              st.integers(min_value=0, max_value=31)),
    min_size=1, max_size=250)

PROP_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

#: One long seeded sequence: the generated ones stay short, and this
#: one evicts from every set many times over.
_rng = random.Random(7)
LONG_OPS = [(_rng.choice(["insert", "insert", "lookup", "peek", "remove"]),
             _rng.randrange(32)) for _ in range(2000)]


class TestLRUModelEquivalence:
    """Drive the O(1)-recency implementation and a brute-force reference
    model (plain lists, linear scans) through identical operation
    sequences; order, victims, and occupancy must match exactly."""

    WAYS = 4

    def _reference_apply(self, sets, op, block):
        """The obviously-correct model: list per set, index 0 is LRU."""
        lru = sets.setdefault(block % 4, [])
        if op == "insert":
            if block in lru:
                return "dup"
            victim = lru.pop(0) if len(lru) >= self.WAYS else None
            lru.append(block)
            return victim
        if op in ("lookup", "peek"):
            hit = block in lru
            if hit and op == "lookup":
                lru.remove(block)
                lru.append(block)
            return hit
        if block in lru:                       # remove
            lru.remove(block)
            return True
        return False

    @given(operations)
    @example(LONG_OPS)
    @PROP_SETTINGS
    def test_matches_reference_model(self, ops):
        cache = make_cache(size=1024, ways=self.WAYS)  # 4 sets x 4 ways
        # A core's L2 of the same geometry, driven through the private
        # hierarchy's coherence actions, which do the same LRU work on
        # the array's dicts themselves. L1s as large as the L2 never
        # evict, so only back-invalidation keeps them inside it.
        geometry = CacheGeometry(1024, self.WAYS)
        hier = PrivateHierarchy(0, geometry, geometry, geometry)
        sets = {}
        for step, (op, block) in enumerate(ops):
            expected = self._reference_apply(sets, op, block)
            if op == "insert":
                if expected == "dup":
                    with pytest.raises(SimulationError):
                        cache.insert(L1Line(block))
                    with pytest.raises(ProtocolInvariantError):
                        hier.fill(block, MESI.E, 0, code=False)
                    continue
                victim = cache.insert(L1Line(block))
                assert (victim.block if victim else None) == expected
                notice = hier.fill(block, MESI.E, 0, code=bool(step & 1))
                assert (notice.block if notice else None) == expected
            elif op == "lookup":
                assert (cache.lookup(block) is not None) is expected
                level = hier.read_hit_level(block, code=bool(step & 2))
                assert (level is not None) is expected
            elif op == "peek":
                assert (cache.peek(block) is not None) is expected
                assert (hier.line_of(block) is not None) is expected
            else:
                removed = cache.remove(block)
                assert (removed is not None) is expected
                assert (hier.invalidate(block) is not None) is expected
            for set_idx, lru in sets.items():
                got = [line.block for line in cache.set_lines(set_idx)]
                assert got == lru, (
                    f"set {set_idx} LRU order diverged after "
                    f"{op}({block})")
                assert [line.block for line in
                        hier._l2.set_lines(set_idx)] == lru
            l1_blocks = [line.block for l1 in (hier._l1i, hier._l1d)
                         for line in l1.lines()]
            assert set(l1_blocks) <= set(hier.cached_blocks())

    @given(operations)
    @PROP_SETTINGS
    def test_index_and_sets_stay_consistent(self, ops):
        cache = make_cache(size=1024, ways=self.WAYS)
        for op, block in ops:
            try:
                getattr(cache, op)(L1Line(block) if op == "insert"
                                   else block)
            except SimulationError:
                pass                       # duplicate insert, rejected
            placed = [line.block
                      for set_idx in range(4)
                      for line in cache.set_lines(set_idx)]
            assert len(placed) == len(set(placed)) == len(cache)
            for resident in placed:
                line = cache.peek(resident)
                assert line is not None and line.block == resident
            for set_idx in range(4):
                for line in cache.set_lines(set_idx):
                    assert cache.set_of(line.block) == set_idx

    @given(operations)
    @PROP_SETTINGS
    def test_peek_and_untouched_lookup_preserve_order(self, ops):
        cache = make_cache(size=1024, ways=self.WAYS)
        for op, block in ops:
            if op == "insert":
                if cache.peek(block) is None:
                    cache.insert(L1Line(block))
                continue
            before = {idx: [line.block
                            for line in cache.set_lines(idx)]
                      for idx in range(4)}
            cache.peek(block)
            cache.lookup(block, touch=False)
            after = {idx: [line.block for line in cache.set_lines(idx)]
                     for idx in range(4)}
            assert before == after
