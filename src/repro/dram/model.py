"""Open-page DRAM timing and traffic model.

The paper models memory with DRAMSim2 (DDR3-2133, two single-channel
controllers, eight banks, 1 KB row buffers). The figures only consume
aggregate DRAM latency and read/write traffic, so this substitute keeps the
pieces that shape those quantities: channel/bank address interleaving and
an open-page row buffer per bank that converts spatial locality into
row-hit latencies.
"""

from __future__ import annotations

from typing import List

from repro.common.addressing import BLOCK_BYTES
from repro.common.config import DramConfig
from repro.common.stats import SystemStats


class DramModel:
    """Latency and traffic accounting for one socket's memory channels."""

    def __init__(self, config: DramConfig, stats: SystemStats) -> None:
        self._config = config
        self._stats = stats
        self._blocks_per_row = config.row_bytes // BLOCK_BYTES
        n_banks = config.channels * config.banks_per_channel
        self._open_rows: List[int] = [-1] * n_banks

    # ------------------------------------------------------------------
    # ``read`` and ``write`` each do the open-row arithmetic themselves
    # rather than call a shared helper: one of them runs on every LLC
    # miss, dirty LLC eviction and ZeroDEV entry writeback.
    def read(self, block: int) -> int:
        """Read ``block``; returns the access latency in core cycles."""
        config = self._config
        stats = self._stats
        stats.dram_reads += 1
        row = block // (config.channels * self._blocks_per_row)
        bank = ((block % config.channels) * config.banks_per_channel
                + row % config.banks_per_channel)
        if self._open_rows[bank] == row:
            stats.dram_row_hits += 1
            return config.row_hit_cycles
        self._open_rows[bank] = row
        stats.dram_row_misses += 1
        return config.row_miss_cycles

    def write(self, block: int, from_entry_eviction: bool = False) -> int:
        """Write ``block``; returns latency (off the critical path for
        ordinary writebacks, but charged for ZeroDEV's synchronous
        read-modify-write of corrupted blocks).

        ``from_entry_eviction`` tags DRAM writes caused by directory-entry
        eviction, the <0.5% statistic of Section III-D3.
        """
        config = self._config
        stats = self._stats
        stats.dram_writes += 1
        if from_entry_eviction:
            stats.dram_writes_entry_eviction += 1
        row = block // (config.channels * self._blocks_per_row)
        bank = ((block % config.channels) * config.banks_per_channel
                + row % config.banks_per_channel)
        if self._open_rows[bank] == row:
            stats.dram_row_hits += 1
            return config.row_hit_cycles
        self._open_rows[bank] = row
        stats.dram_row_misses += 1
        return config.row_miss_cycles
