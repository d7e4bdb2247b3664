"""Unit tests for the message catalogue and statistics counters."""

import pickle

import pytest

from repro.common.messages import (CTRL_BYTES, DATA_BYTES, MessageType,
                                   message_bytes)
from repro.common.stats import (SystemStats, makespan_speedup,
                                weighted_speedup)


class TestMessageBytes:
    def test_control_message(self):
        assert message_bytes(MessageType.GETS) == CTRL_BYTES

    def test_data_message(self):
        assert message_bytes(MessageType.DATA) == DATA_BYTES
        assert DATA_BYTES == CTRL_BYTES + 64

    def test_writeback_carries_data(self):
        assert message_bytes(MessageType.WRITEBACK) == DATA_BYTES

    def test_wb_de_carries_a_block(self):
        # A WB_DE message carries the 64-byte image W (Section III-D).
        assert message_bytes(MessageType.WB_DE) == DATA_BYTES

    def test_e_state_notice_carries_reconstruction_bits(self):
        assert message_bytes(MessageType.EVICT_CLEAN_BITS) == CTRL_BYTES + 1
        assert message_bytes(MessageType.EVICT_CLEAN) == CTRL_BYTES

    def test_denf_nack_is_control(self):
        assert message_bytes(MessageType.DENF_NACK) == CTRL_BYTES

    def test_every_type_has_a_size(self):
        for kind in MessageType:
            assert message_bytes(kind) >= CTRL_BYTES


class TestSystemStats:
    def test_record_message_accumulates_bytes(self):
        stats = SystemStats(2)
        stats.record_message(MessageType.GETS)
        stats.record_message(MessageType.DATA, count=2)
        assert stats.traffic_bytes == CTRL_BYTES + 2 * DATA_BYTES
        assert stats.messages[MessageType.DATA] == 2

    def test_traffic_is_bytes_times_count_over_every_type(self):
        stats = SystemStats(2)
        kinds = list(MessageType)
        # Every type, forwards, backwards and strided, some in bulk.
        sequence = kinds + kinds[::-1] + kinds[::3]
        expected = {}
        for step, kind in enumerate(sequence):
            count = 1 + step % 3
            stats.record_message(kind, count=count)
            expected[kind] = expected.get(kind, 0) + count
        assert stats.messages == expected
        assert set(stats.messages) == set(kinds)
        assert stats.traffic_bytes == sum(
            message_bytes(kind) * count
            for kind, count in stats.messages.items())

    def test_message_counts_survive_pickling(self):
        stats = SystemStats(2)
        for kind in MessageType:
            stats.record_message(kind, count=kind.value)
        clone = pickle.loads(pickle.dumps(stats))
        for kind in MessageType:
            assert clone.messages[kind] == kind.value
        assert clone.messages[MessageType.WB_DE] == MessageType.WB_DE.value
        assert clone.traffic_bytes == stats.traffic_bytes
        clone.record_message(MessageType.GETS)
        assert clone.messages[MessageType.GETS] == (
            MessageType.GETS.value + 1)
        assert len(clone.messages) == len(MessageType)

    def test_advance_core(self):
        stats = SystemStats(2)
        stats.advance_core(0, 10)
        stats.advance_core(1, 30)
        stats.advance_core(0, 5)
        assert stats.cycles == [15, 30]
        assert stats.accesses == [2, 1]
        assert stats.total_cycles == 30
        assert stats.total_accesses == 3

    def test_misses_per_kilo_access(self):
        stats = SystemStats(1)
        stats.advance_core(0, 1)
        stats.advance_core(0, 1)
        stats.core_cache_misses = 1
        assert stats.misses_per_kilo_access() == pytest.approx(500.0)

    def test_fractions_guard_division_by_zero(self):
        stats = SystemStats(1)
        assert stats.dram_write_entry_fraction() == 0.0
        assert stats.corrupted_read_fraction() == 0.0

    def test_dram_write_entry_fraction(self):
        stats = SystemStats(1)
        stats.dram_writes = 200
        stats.dram_writes_entry_eviction = 1
        assert stats.dram_write_entry_fraction() == pytest.approx(0.005)

    def test_as_dict_contains_scalars(self):
        stats = SystemStats(1)
        stats.core_cache_misses = 7
        flat = stats.as_dict()
        assert flat["core_cache_misses"] == 7
        assert "total_cycles" in flat


class TestSpeedupMetrics:
    def test_weighted_speedup_identity(self):
        assert weighted_speedup([100, 200], [100, 200]) == 1.0

    def test_weighted_speedup_mean_of_ratios(self):
        assert weighted_speedup([100, 100], [50, 200]) == pytest.approx(
            (2.0 + 0.5) / 2)

    def test_weighted_speedup_rejects_mismatched(self):
        with pytest.raises(ValueError):
            weighted_speedup([1], [1, 2])

    def test_makespan_speedup(self):
        base, new = SystemStats(1), SystemStats(1)
        base.advance_core(0, 200)
        new.advance_core(0, 100)
        assert makespan_speedup(base, new) == 2.0
