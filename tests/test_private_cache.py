"""Unit tests for the per-core private hierarchy (L1I/L1D over L2).

The hierarchy owns its arrays (``l2_index``, ``l2_sets``, ``l1i_sets``,
``l1d_sets``); fills and coherence actions are its methods, and private
hits retire inside ``CMPSystem.access``, so the hit classes are pinned
through ``access`` on a socket whose core 0 has ``make_hierarchy()``'s
geometry.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.caches.block import MESI
from repro.caches.private_cache import PrivateHierarchy
from repro.common.addressing import BLOCK_SHIFT
from repro.common.config import CacheGeometry
from repro.common.errors import ProtocolInvariantError
from repro.harness.system_builder import build_system
from repro.kernel import SlotKernel
from repro.obs import EventBus, attach
from repro.workloads.trace import Op

from tests.conftest import fails_with, tiny_config

L1 = CacheGeometry(256, 2)      # 4 blocks, 2 sets: set = block % 2
L2 = CacheGeometry(1024, 4)     # 16 blocks, 4 sets: set = block % 4


def make_hierarchy():
    return PrivateHierarchy(core=0, l1i=L1, l1d=L1, l2=L2)


def make_system():
    """A socket whose cores have ``make_hierarchy()``'s geometry, with
    an event bus attached and core 0's journal on; returns ``(system,
    core 0, events)``."""
    system = build_system(tiny_config(l1i=L1, l1d=L1, l2=L2))
    events = []
    bus = EventBus()
    bus.subscribe(type("Sink", (), {
        "handle": staticmethod(events.append)})())
    attach(system, bus)
    return system, armed(system.cores[0], system), events


def armed(hier, system=None):
    """``hier`` with its shrink journal on, as a ``SlotKernel`` built
    over it leaves it (an empty trace: the kernel only arms it)."""
    system = system or build_system(tiny_config())
    SlotKernel(hier.core, hier, system.stats, system.shadow,
               system.config.latency, np.zeros(0, np.int8),
               np.zeros(0, np.int64))
    return hier


# The batched kernel's contract (repro.kernel): once a kernel drives a
# hierarchy, every mutation that can shrink hit safety bumps ``epoch``
# once and journals its block once in ``shrink_log``; mutations that
# only extend safety do neither.  Before that (every scalar run) the
# hierarchy records nothing: ``shrink_log`` is None, ``epoch`` 0.
def journal(hier):
    return hier.epoch, list(hier.shrink_log)


def order(sets, index):
    """Blocks of one LRU set, LRU first."""
    return list(sets[index])


def assert_no_copy(hier, block):
    """``block`` is gone from every array, index and LRU set alike."""
    assert block not in hier.l2_index
    assert block not in hier.l2_sets[block & hier.l2_mask]
    assert block not in hier.l1i_sets[block & hier.l1i_mask]
    assert block not in hier.l1d_sets[block & hier.l1d_mask]


def hit(system, events, op, block, latency, step, bucket, l1_hits=0,
        l2_hits=0):
    """Core 0 issues ``op`` on ``block`` and it retires as a private hit:
    the latency, clock step, latency bucket and hit counters of its
    class, and no event, no journal entry and no uncore work."""
    stats = system.stats
    hier = system.cores[0]
    buckets = (stats.write_latency_buckets if op is Op.WRITE
               else stats.read_latency_buckets)
    expected = list(buckets)
    expected[bucket] += 1
    before = (stats.cycles[0], stats.accesses[0], stats.l1_hits,
              stats.l2_hits, stats.core_cache_misses, stats.upgrades,
              stats.traffic_bytes, journal(hier), len(events))
    assert system.access(0, op, block << BLOCK_SHIFT) == latency
    assert buckets == expected
    assert stats.cycles[0] == before[0] + step
    assert stats.accesses[0] == before[1] + 1
    assert stats.l1_hits == before[2] + l1_hits
    assert stats.l2_hits == before[3] + l2_hits
    assert (stats.core_cache_misses, stats.upgrades, stats.traffic_bytes,
            journal(hier), len(events)) == before[4:]


# Latency, clock step (latency + 6 compute) and bucket of each hit
# class under the default LatencyConfig (l1_hit 3, l2_hit 12, stores
# expose 0.3 of l1_hit, at least 1 cycle).
L1_HIT = dict(latency=3, step=9, bucket=1, l1_hits=1)
L2_HIT = dict(latency=15, step=21, bucket=3, l2_hits=1)
STORE_HIT = dict(latency=1, step=7, bucket=0)


class TestFillAndLookup:
    def test_fill_then_l1_hit(self):
        system, hier, events = make_system()
        hier.fill(5, MESI.E, version=0, code=False)
        hier.fill(9, MESI.E, version=0, code=False)     # same sets as 5
        assert order(hier.l2_sets, 1) == [5, 9]
        assert order(hier.l1d_sets, 1) == [5, 9]
        hit(system, events, Op.READ, 5, **L1_HIT)
        # The L1 hit moved the block to MRU in its L1D set and in the
        # L2 (which includes every L1 line), and left the L1I alone.
        assert order(hier.l1d_sets, 1) == [9, 5]
        assert order(hier.l2_sets, 1) == [9, 5]
        assert order(hier.l1i_sets, 1) == []
        assert events == []

    def test_l2_hit_refills_l1(self):
        system, hier, events = make_system()
        hier.fill(0, MESI.E, 0, code=False)
        # Evict 0 from L1D (2-way sets by low bits: 0, 2, 4 share set 0).
        hier.fill(2, MESI.E, 0, code=False)
        hier.fill(4, MESI.E, 0, code=False)
        assert order(hier.l1d_sets, 0) == [2, 4]
        assert order(hier.l2_sets, 0) == [0, 4]
        hit(system, events, Op.READ, 0, **L2_HIT)
        # The full L1D set dropped its LRU block (2) silently: 2 is
        # still in the L2, and nothing was sent.
        assert order(hier.l1d_sets, 0) == [4, 0]
        assert order(hier.l2_sets, 0) == [4, 0]
        assert hier.probe(2) is MESI.E
        hit(system, events, Op.READ, 0, **L1_HIT)
        assert order(hier.l1d_sets, 0) == [4, 0]
        assert events == []

    def test_code_and_data_l1s_are_split(self):
        system, hier, events = make_system()
        hier.fill(5, MESI.S, 0, code=True)
        assert order(hier.l1i_sets, 1) == [5]
        hit(system, events, Op.READ, 5, **L2_HIT)       # L1D miss
        assert order(hier.l1d_sets, 1) == [5]
        hit(system, events, Op.IFETCH, 5, **L1_HIT)     # in the L1I
        hier.fill(9, MESI.S, 0, code=False)
        hier.fill(13, MESI.S, 0, code=False)            # L1D set 1 full
        assert order(hier.l1d_sets, 1) == [9, 13]
        assert order(hier.l2_sets, 1) == [5, 9, 13]
        hit(system, events, Op.IFETCH, 9, **L2_HIT)
        # The ifetch filled the L1I and left the L1D's order alone.
        assert order(hier.l1i_sets, 1) == [5, 9]
        assert order(hier.l1d_sets, 1) == [9, 13]
        assert order(hier.l2_sets, 1) == [5, 13, 9]
        assert events == []

    def test_miss_returns_none(self):
        hier = make_hierarchy()
        assert hier.line_of(9) is None and hier.probe(9) is None
        # Through access, an L2 miss leaves the core (a GETS).
        system, hier, events = make_system()
        assert system.access(0, Op.READ, 9 << BLOCK_SHIFT) > 15
        assert system.stats.core_cache_misses == 1
        assert system.stats.l1_hits == system.stats.l2_hits == 0
        assert hier.probe(9) is MESI.E
        assert events
        # A read probes its L1 set first, and inclusion lets an L1 hit
        # skip the L2 probe: a block planted in an L1 set that the L2
        # does not hold is an inclusion break, refused by name, never
        # served as a miss -- and the per-step check refuses it before
        # any access reads it.
        for op, sets, mask, name in (
                (Op.READ, "l1d_sets", "l1d_mask", "L1D"),
                (Op.IFETCH, "l1i_sets", "l1i_mask", "L1I")):
            system, hier, events = make_system()
            getattr(hier, sets)[6 & getattr(hier, mask)][6] = None
            with fails_with(ProtocolInvariantError,
                            f"inclusion broken: core 0's {name} holds "
                            "block 0x6 but its L2 does not"):
                system.check_invariants()
            with fails_with(ProtocolInvariantError,
                            "inclusion broken: core 0's L1 holds block "
                            "0x6 but its L2 does not"):
                system.access(0, op, 6 << BLOCK_SHIFT)
            assert system.stats.accesses[0] == 0

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
        # Unarmed (every scalar run), a victim, an invalidation, a
        # downgrade and a re-state to S record nothing.
        for block in (0, 4, 8, 12, 16):
            hier.fill(block, MESI.E, 0, code=False)
        hier.invalidate(16)
        hier.downgrade_to_s(12)
        hier.set_state(8, MESI.S)
        assert (hier.epoch, hier.shrink_log) == (0, None)
        for block in (4, 8, 12):
            hier.invalidate(block)
        armed(hier)
        hier.fill(0, MESI.E, 0, code=True)
        hier.write_hit_state(0)                 # 0 in the L1D too
        for block in (4, 8, 12):      # fill L2 set 0, 0 is its LRU
            assert hier.fill(block, MESI.E, 0, code=False) is None
        assert 0 in hier.l1i_sets[0] and 0 in hier.l1d_sets[0]
        assert journal(hier) == (0, [])         # victimless fills
        # A code fill: the L1D set the victim shares stays untouched.
        notice = hier.fill(16, MESI.S, 0, code=True)
        assert notice is not None
        assert notice.block == 0
        assert notice.state is MESI.E
        assert journal(hier) == (1, [0])        # the victim, once
        assert_no_copy(hier, 0)
        assert hier.line_of(0) is None

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
        hier = armed(make_hierarchy())
        hier.fill(0, MESI.E, 0, code=False)
        hier.fill(2, MESI.E, 0, code=False)
        notice = hier.fill(4, MESI.E, 0, code=False)   # L1D set 0 full
        assert notice is None
        assert 0 in hier                               # still in L2
        assert order(hier.l1d_sets, 0) == [2, 4]
        assert journal(hier) == (0, [])


class TestCoherenceActions:
    def test_write_requires_ownership(self):
        hier = make_hierarchy()
        hier.fill(3, MESI.S, 0, code=False)
        with pytest.raises(ProtocolInvariantError):
            hier.commit_write(3, 1)

    def test_silent_e_to_m(self):
        hier = armed(make_hierarchy())
        hier.fill(3, MESI.E, 0, code=False)
        hier.commit_write(3, 9)
        assert journal(hier) == (0, [])
        assert hier.probe(3) is MESI.M
        assert hier.line_of(3).version == 9
        # The same store hits through access: E and M lines go to M,
        # dirty, at the shadow's new version, filling the L1D.
        system, hier, events = make_system()
        hier.fill(3, MESI.E, 0, code=True)
        hier.fill(7, MESI.E, 0, code=False)
        hier.fill(11, MESI.E, 0, code=False)            # L1D set 1 full
        hit(system, events, Op.WRITE, 3, **STORE_HIT)
        line = hier.line_of(3)
        assert (line.state, line.dirty) == (MESI.M, True)
        assert line.version == system.shadow.latest(3) == 1
        assert order(hier.l1d_sets, 1) == [11, 3]       # 7 dropped
        assert order(hier.l2_sets, 3) == [7, 11, 3]
        hit(system, events, Op.WRITE, 3, **STORE_HIT)           # M hit
        assert line.version == system.shadow.latest(3) == 2
        hit(system, events, Op.WRITE, 11, **STORE_HIT)
        assert order(hier.l1d_sets, 1) == [3, 11]
        assert hier.line_of(11).version == system.shadow.latest(11) == 1
        assert system.stats.l1_hits == system.stats.l2_hits == 0
        assert events == []

    def test_invalidate_returns_line(self):
        hier = armed(make_hierarchy())
        hier.fill(3, MESI.E, 5, code=True)
        hier.write_hit_state(3)                 # 3 in L1I and L1D too
        line = hier.invalidate(3)
        assert line.version == 5
        assert journal(hier) == (1, [3])
        assert_no_copy(hier, 3)
        assert hier.invalidate(3) is None

    def test_downgrade_to_s(self):
        hier = armed(make_hierarchy())
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
        hier = armed(make_hierarchy())
        assert hier.write_hit_state(3) is None
        hier.fill(3, MESI.S, 0, code=False)
        assert hier.write_hit_state(3) is MESI.S
        hier.set_state(3, MESI.E)               # the upgrade grant
        assert hier.write_hit_state(3) is MESI.E
        assert journal(hier) == (0, [])
        hier.set_state(3, MESI.S)               # losing ownership
        assert hier.write_hit_state(3) is MESI.S
        assert journal(hier) == (1, [3])
        # Through access, a store to an S copy is no private hit: it
        # takes the upgrade path to the home and invalidates the other
        # sharer.
        system, hier, events = make_system()
        block = 3 << BLOCK_SHIFT
        system.access(0, Op.READ, block)
        system.access(1, Op.READ, block)
        assert hier.probe(3) is MESI.S
        del events[:]
        hits = system.stats.l2_hits
        system.access(0, Op.WRITE, block)
        assert system.stats.upgrades == 1
        assert system.stats.l2_hits == hits + 1
        assert hier.probe(3) is MESI.M
        assert system.cores[1].probe(3) is None
        assert hier.line_of(3).version == system.shadow.latest(3) == 1
        assert [e.kind.value for e in events].count("priv_inv") == 1
        system.check_invariants()

    def test_cached_blocks(self):
        hier = make_hierarchy()
        hier.fill(1, MESI.E, 0, code=False)
        hier.fill(2, MESI.S, 0, code=True)
        assert sorted(hier.cached_blocks()) == [1, 2]


# ----------------------------------------------------------------------
# The arrays (formerly tests/test_set_assoc.py, against SetAssocCache)
# ----------------------------------------------------------------------
class TestInsertLookup:
    def test_insert_and_lookup(self):
        hier = make_hierarchy()
        hier.fill(5, MESI.E, 0, code=False)
        assert hier.line_of(5).block == 5
        assert 5 in hier and hier.l2_index[5] is hier.l2_sets[1][5]
        assert order(hier.l1d_sets, 1) == [5]
        assert order(hier.l1i_sets, 1) == []

    def test_miss_returns_none(self):
        hier = make_hierarchy()
        assert hier.line_of(3) is None
        assert hier.probe(3) is None
        assert 3 not in hier

    def test_duplicate_insert_rejected(self):
        hier = make_hierarchy()
        hier.fill(5, MESI.E, 0, code=False)
        hier.fill(1, MESI.E, 0, code=False)
        with pytest.raises(ProtocolInvariantError):
            hier.fill(5, MESI.E, 0, code=True)
        # The rejected fill moved nothing.
        assert order(hier.l2_sets, 1) == [5, 1]
        assert order(hier.l1d_sets, 1) == [5, 1]
        assert order(hier.l1i_sets, 1) == []

    def test_eviction_returns_lru_victim(self):
        hier = make_hierarchy()       # 4 ways, set = block % 4
        for block in (0, 4, 8, 12):
            assert hier.fill(block, MESI.E, 0, code=False) is None
        notice = hier.fill(16, MESI.E, 0, code=False)
        assert notice.block == 0
        assert order(hier.l2_sets, 0) == [4, 8, 12, 16]
        assert_no_copy(hier, 0)

    def test_lookup_refreshes_lru(self):
        system, hier, _ = make_system()
        for block in (0, 4, 8, 12):
            hier.fill(block, MESI.E, 0, code=False)
        system.access(0, Op.READ, 0)                    # 0 becomes MRU
        assert order(hier.l2_sets, 0) == [4, 8, 12, 0]
        assert hier.fill(16, MESI.E, 0, code=False).block == 4

    def test_peek_does_not_refresh_lru(self):
        hier = make_hierarchy()
        for block in (0, 4, 8, 12):
            hier.fill(block, MESI.E, 0, code=False)
        assert hier.line_of(0) is not None and hier.probe(0) is MESI.E
        assert 0 in hier and 0 in hier.cached_blocks()
        assert hier.fill(16, MESI.E, 0, code=False).block == 0

    def test_remove(self):
        hier = make_hierarchy()
        hier.fill(0, MESI.E, 0, code=False)
        assert hier.invalidate(0).block == 0
        assert hier.invalidate(0) is None
        assert 0 not in hier

    def test_different_sets_do_not_conflict(self):
        hier = make_hierarchy()
        for block in range(4):        # one per set
            hier.fill(block, MESI.E, 0, code=False)
        assert len(hier.l2_index) == 4
        # set 0 held block 0 only; inserting 4 must not evict.
        assert hier.fill(4, MESI.E, 0, code=False) is None
        assert 0 in hier and 4 in hier


class TestCapacityProperty:
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=200))
    def test_never_exceeds_geometry(self, blocks):
        hier = make_hierarchy()       # L2 16 blocks, 4 sets x 4 ways
        resident = set()
        for step, block in enumerate(blocks):
            if block in resident:
                hier.write_hit_state(block)
                continue
            notice = hier.fill(block, MESI.E, 0, code=bool(step & 1))
            resident.add(block)
            if notice is not None:
                resident.discard(notice.block)
            assert set(hier.l2_index) == resident
            assert len(resident) <= 16
            for sets, ways in ((hier.l2_sets, 4), (hier.l1i_sets, 2),
                               (hier.l1d_sets, 2)):
                assert all(len(lru) <= ways for lru in sets)


#: One array operation: (op name, block). Small block space over the
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

#: The access a ``lookup`` issues, by step: the three hit classes.
LOOKUP_OPS = (Op.READ, Op.IFETCH, Op.WRITE)


def apply(system, op, block, step):
    """Issue one operation on core 0's arrays: fills and invalidations
    through the hierarchy, lookups through ``CMPSystem.access`` (only
    on resident blocks: every fill is E and needs no directory entry,
    so every lookup is a private hit)."""
    hier = system.cores[0]
    if op == "insert":
        return hier.fill(block, MESI.E, 0, code=bool(step & 1))
    if op == "lookup":
        if block in hier:
            system.access(0, LOOKUP_OPS[step % 3], block << BLOCK_SHIFT)
            return True
        return False
    if op == "peek":
        return (hier.line_of(block) is not None, hier.probe(block),
                block in hier)
    return hier.invalidate(block)


class TestLRUModelEquivalence:
    """Drive a core's arrays and a brute-force reference model (plain
    lists, linear scans) through identical operation sequences; LRU
    order, victims, occupancy and hit counts must match exactly, in the
    L2 and in both L1s."""

    WAYS = 4

    def _reference_apply(self, model, op, block, step):
        """The obviously-correct model: list per set, index 0 is LRU."""
        l2 = model.setdefault(("l2", block % 4), [])
        if op == "insert":
            if block in l2:
                return "dup"
            victim = l2.pop(0) if len(l2) >= self.WAYS else None
            if victim is not None:
                for kind in ("l1i", "l1d"):
                    l1 = model.setdefault((kind, victim % 2), [])
                    if victim in l1:
                        l1.remove(victim)
            l2.append(block)
            l1 = model.setdefault(("l1i" if step & 1 else "l1d",
                                   block % 2), [])
            if len(l1) >= 2:
                l1.pop(0)
            l1.append(block)
            return victim
        if op == "lookup":
            if block not in l2:
                return None
            l2.remove(block)
            l2.append(block)
            l1 = model.setdefault(
                ("l1i" if LOOKUP_OPS[step % 3] is Op.IFETCH else "l1d",
                 block % 2), [])
            if block in l1:
                l1.remove(block)
                level = "l1"
            else:
                if len(l1) >= 2:
                    l1.pop(0)
                level = "l2"
            l1.append(block)
            return level
        if op == "peek":
            return block in l2
        for key in (("l1i", block % 2), ("l1d", block % 2)):
            if block in model.get(key, []):
                model[key].remove(block)
        if block in l2:                        # remove
            l2.remove(block)
            return True
        return False

    @given(operations)
    @example(LONG_OPS)
    @PROP_SETTINGS
    def test_matches_reference_model(self, ops):
        system, hier, events = make_system()
        stats = system.stats
        model = {}
        hits = {"l1": 0, "l2": 0, "store": 0}
        for step, (op, block) in enumerate(ops):
            expected = self._reference_apply(model, op, block, step)
            if expected == "dup":
                with pytest.raises(ProtocolInvariantError):
                    apply(system, op, block, step)
                continue
            got = apply(system, op, block, step)
            if op == "insert":
                assert (got.block if got else None) == expected
            elif op == "lookup":
                assert got is (expected is not None)
                if expected is not None:
                    kind = ("store" if LOOKUP_OPS[step % 3] is Op.WRITE
                            else expected)
                    hits[kind] += 1
            elif op == "peek":
                present, state, member = got
                assert present is member is expected
                assert (state is not None) is expected
            else:
                assert (got is not None) is expected
            for (kind, set_idx), lru in model.items():
                sets = getattr(hier, f"{kind}_sets")
                assert order(sets, set_idx) == lru, (
                    f"{kind} set {set_idx} LRU order diverged after "
                    f"{op}({block})")
            assert set(hier.l2_index) == {
                b for (kind, _), lru in model.items() if kind == "l2"
                for b in lru}
        assert stats.l1_hits == hits["l1"]
        assert stats.l2_hits == hits["l2"]
        assert sum(stats.write_latency_buckets) == hits["store"]
        assert stats.total_accesses == sum(hits.values())
        assert stats.core_cache_misses == 0

    @given(operations)
    @PROP_SETTINGS
    def test_index_and_sets_stay_consistent(self, ops):
        system, hier, _ = make_system()
        for step, (op, block) in enumerate(ops):
            try:
                apply(system, op, block, step)
            except ProtocolInvariantError:
                pass                       # duplicate fill, rejected
            placed = [b for lru in hier.l2_sets for b in lru]
            assert len(placed) == len(set(placed)) == len(hier.l2_index)
            for set_idx, lru in enumerate(hier.l2_sets):
                for resident, line in lru.items():
                    assert hier.l2_index[resident] is line
                    assert line.block == resident
                    assert resident & hier.l2_mask == set_idx
            for sets, mask in ((hier.l1i_sets, hier.l1i_mask),
                               (hier.l1d_sets, hier.l1d_mask)):
                for set_idx, lru in enumerate(sets):
                    for resident, value in lru.items():
                        assert value is None        # presence only
                        assert resident & mask == set_idx
                        assert resident in hier.l2_index   # inclusion

    @given(operations)
    @PROP_SETTINGS
    def test_peek_and_untouched_lookup_preserve_order(self, ops):
        hier = make_hierarchy()
        for step, (op, block) in enumerate(ops):
            if op == "insert":
                if hier.line_of(block) is None:
                    hier.fill(block, MESI.E, 0, code=bool(step & 1))
                continue
            arrays = (hier.l2_sets, hier.l1i_sets, hier.l1d_sets)
            before = [[list(lru) for lru in sets] for sets in arrays]
            hier.line_of(block)
            hier.probe(block)
            assert (block in hier) is (block in hier.cached_blocks())
            after = [[list(lru) for lru in sets] for sets in arrays]
            assert before == after
