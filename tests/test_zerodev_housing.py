"""Directed tests for the second ZeroDEV mechanism: invalidation-free
directory-entry eviction from the LLC into home memory (Section III-D)."""

import pytest

from repro.caches.block import LLCLine, LineKind, MESI
from repro.coherence.entry import EntryLocation
from repro.common.config import (CacheGeometry, DirCachingPolicy,
                                 DirectoryConfig, LLCReplacement, Protocol)
from repro.common.errors import ProtocolInvariantError
from repro.core.housing import DirEvictBitmap, MemoryHousing
from repro.coherence.entry import DirectoryEntry, DirState
from repro.harness.system_builder import build_system
from repro.verify.checks import DivergenceError, check_housing
from repro.verify.models import ModelSpec

from tests.conftest import drive, fails_with, tiny_config


def cramped_zerodev(**kw):
    """ZeroDEV socket with a 2-way LLC so entry frames get evicted."""
    defaults = dict(
        protocol=Protocol.ZERODEV,
        directory=DirectoryConfig(ratio=None),
        llc_replacement=LLCReplacement.DATA_LRU,
        dir_caching=DirCachingPolicy.FPSS,
        llc=CacheGeometry(2048, 2),       # 32 blocks, 16 sets, 2 banks
    )
    defaults.update(kw)
    return build_system(tiny_config(**defaults))


def same_llc_set_blocks(system, count, bank=0, set_idx=0):
    """Blocks mapping to one (bank, set) of the LLC."""
    bank_bits = system.config.llc_banks.bit_length() - 1
    set_bits = system.config.llc_bank_sets.bit_length() - 1
    return [(tag << (bank_bits + set_bits)) | (set_idx << bank_bits) | bank
            for tag in range(count)]


def force_wb_de(system):
    """Drive shared reads until a live entry is evicted from the LLC.

    Returns the housed block. Each shared block leaves an S entry spilled
    in the same 2-way LLC set; dataLRU evicts the data blocks first and
    then a spilled entry, which must trigger WB_DE.
    """
    blocks = same_llc_set_blocks(system, 3)
    for block in blocks:
        drive(system, [(0, "I", block), (1, "I", block)])
        if system.stats.wb_de_messages:
            break
    assert system.stats.wb_de_messages >= 1
    housed = [b for b in blocks
              if system._housing.peek(b) is not None]
    assert housed
    return housed[0]


class TestWbDe:
    def test_entry_eviction_writes_to_memory_without_invalidation(self):
        system = cramped_zerodev()
        block = force_wb_de(system)
        # The paper's guarantee: the cores still hold their copies.
        assert system.cores[0].probe(block) is MESI.S
        assert system.cores[1].probe(block) is MESI.S
        assert system.stats.dev_invalidations == 0
        entry = system._housing.peek(block)
        assert entry.location is EntryLocation.MEMORY
        assert system.stats.dram_writes_entry_eviction >= 1

    def test_block_not_in_llc_while_housed(self):
        system = cramped_zerodev()
        block = force_wb_de(system)
        assert system.bank_of(block).peek_data(block) is None
        # The verify layer's housing check: a housed block is garbage
        # and has no LLC frame of either kind.
        spec = ModelSpec("cramped", system.config)
        check_housing(spec, system)
        system._housing._garbage.discard(block)
        with fails_with(DivergenceError, f"block {block:#x} houses an "
                        "entry but is not marked corrupted"):
            check_housing(spec, system)
        system._housing._garbage.add(block)
        system.bank_of(block)._spill_index[block] = LLCLine(
            block, LineKind.SPILLED)
        with fails_with(DivergenceError, f"block {block:#x} is "
                        "LLC-resident while its entry is housed in memory "
                        "(case iiib)"):
            check_housing(spec, system)

    def test_demand_access_promotes_entry(self):
        system = cramped_zerodev()
        block = force_wb_de(system)
        reads_before = system.stats.corrupted_block_reads
        drive(system, [(2, "I", block)])
        assert system.stats.corrupted_block_reads == reads_before + 1
        assert system._housing.peek(block) is None       # promoted
        entry = system._peek_entry(block)
        assert entry is not None and entry.is_sharer(2)

    def test_eviction_notice_uses_get_de(self):
        system = cramped_zerodev()
        block = force_wb_de(system)
        # Evict core 0's copy via L2 conflicts (L2: 4 ways, 8 sets).
        conflicts = [block + 8 * k for k in range(1, 5)]
        drive(system, [(0, "I", b) for b in conflicts])
        assert system.stats.get_de_messages >= 1
        housed = system._housing.peek(block)
        assert housed is not None and not housed.is_sharer(0)

    def test_last_copy_eviction_restores_memory(self):
        system = cramped_zerodev()
        block = force_wb_de(system)
        conflicts = [block + 8 * k for k in range(1, 5)]
        drive(system, [(0, "I", b) for b in conflicts])
        drive(system, [(1, "I", b) for b in conflicts])
        assert system.stats.corrupted_blocks_restored >= 1
        assert system._housing.peek(block) is None
        assert not system._housing.is_garbage(block)
        # The block is readable again straight from memory.
        drive(system, [(3, "I", block)])

    def test_dirty_writeback_heals_corruption(self):
        system = cramped_zerodev()
        block = force_wb_de(system)
        drive(system, [(2, "W", block)])     # promote + own + write
        version = system.shadow.latest(block)
        # Evict the dirty copy down to memory.
        conflicts = [block + 8 * k for k in range(1, 5)]
        drive(system, [(2, "W", b) for b in conflicts])
        blocks_set = same_llc_set_blocks(system, 6)[3:]
        drive(system, [(3, "R", b) for b in blocks_set])
        if not system._housing.is_garbage(block):
            assert system._dram_version.get(block, 0) in (0, version)

    def test_zero_devs_through_the_whole_housing_lifecycle(self):
        system = cramped_zerodev()
        script = [(c, "RWI"[k % 3], (k + c * 17) % 96)
                  for k in range(300) for c in range(4)]
        drive(system, script)
        assert system.stats.dev_invalidations == 0


class TestMemoryHousingUnit:
    def test_house_peek_promote(self):
        housing = MemoryHousing()
        entry = DirectoryEntry(5, DirState.ME, owner=0)
        housing.house(5, entry)
        assert housing.peek(5) is entry
        assert housing.is_garbage(5)
        assert housing.promote(5) is entry
        assert housing.peek(5) is None
        assert housing.is_garbage(5)      # garbage survives promotion

    def test_double_house_rejected(self):
        housing = MemoryHousing()
        housing.house(5, DirectoryEntry(5, DirState.ME, owner=0))
        with pytest.raises(ProtocolInvariantError):
            housing.house(5, DirectoryEntry(5, DirState.ME, owner=1))

    def test_promote_missing_rejected(self):
        with pytest.raises(ProtocolInvariantError):
            MemoryHousing().promote(5)

    def test_heal_clears_garbage(self):
        housing = MemoryHousing()
        housing.house(5, DirectoryEntry(5, DirState.ME, owner=0))
        housing.promote(5)
        housing.heal(5)
        assert not housing.is_garbage(5)

    def test_heal_with_housed_entry_rejected(self):
        housing = MemoryHousing()
        housing.house(5, DirectoryEntry(5, DirState.ME, owner=0))
        with pytest.raises(ProtocolInvariantError):
            housing.heal(5)

    def test_restore_clears_everything(self):
        housing = MemoryHousing()
        housing.house(5, DirectoryEntry(5, DirState.ME, owner=0))
        housing.restore(5)
        assert housing.peek(5) is None
        assert not housing.is_garbage(5)
        assert housing.housed_count == 0


class TestDirEvictBitmap:
    def test_set_test_clear(self):
        bitmap = DirEvictBitmap()
        bitmap.set(100)
        value, _ = bitmap.test(100)
        assert value
        bitmap.clear(100)
        value, _ = bitmap.test(100)
        assert not value

    def test_cache_hit_within_group(self):
        bitmap = DirEvictBitmap(cached_groups=2)
        bitmap.set(0)
        _, hit = bitmap.test(1)            # same 512-block group
        assert hit

    def test_cache_miss_across_groups(self):
        bitmap = DirEvictBitmap(cached_groups=1)
        bitmap.set(0)
        _, hit = bitmap.test(512)
        assert not hit
        _, hit = bitmap.test(0)            # evicted by the miss above
        assert not hit

    def test_len_counts_set_bits(self):
        bitmap = DirEvictBitmap()
        for block in range(10):
            bitmap.set(block)
        assert len(bitmap) == 10
