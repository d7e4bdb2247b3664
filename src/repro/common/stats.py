"""Statistics collected during a simulation run.

One :class:`SystemStats` instance is owned by each simulated socket. The
counters mirror the quantities the paper reports: core cache misses,
interconnect traffic (bytes), DEV volume, DRAM read/write traffic, the
fraction of DRAM writes caused by directory-entry eviction, and the
fraction of LLC read misses that access corrupted memory blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.messages import MESSAGE_BYTES, MessageType


@dataclass
class SystemStats:
    """Aggregate counters for one socket (or one single-socket system)."""

    n_cores: int

    # Per-core progress.
    cycles: List[int] = field(default_factory=list)
    accesses: List[int] = field(default_factory=list)

    # Private-hierarchy events.
    l1_hits: int = 0
    l2_hits: int = 0
    core_cache_misses: int = 0      # L2 misses: requests leaving the core
    upgrades: int = 0

    # Uncore events.
    llc_data_hits: int = 0
    llc_data_misses: int = 0
    llc_read_misses: int = 0
    llc_evictions: int = 0
    llc_writebacks_to_dram: int = 0
    forwarded_requests: int = 0     # 3-hop transfers via an owner/sharer
    invalidations_sent: int = 0

    # Directory events.
    dir_allocations: int = 0
    dir_evictions: int = 0          # sparse-directory entry evictions
    dev_invalidations: int = 0      # private copies killed by dir eviction
    dev_events: int = 0             # dir evictions that generated >=1 DEV
    inclusion_invalidations: int = 0  # inclusive-LLC back-invalidations
    region_demotions: int = 0       # MgD region entries broken by sharing
    # Peak, over the run, of the entries an unbounded directory holds
    # beyond what a 1x set-associative directory's sets could keep:
    # sum over the 1x sets of max(0, entries in set - ways) (Figure 5).
    dir_overflow_peak: int = 0

    # Hybrid update/invalidate contender events (arXiv:1502.00101).
    update_pushes: int = 0          # S-state write hits served by pushing
    updates_sent: int = 0           # per-sharer UPDATE data messages

    # ZeroDEV-specific events.
    entries_spilled: int = 0        # entries allocated in LLC, spilled form
    entries_fused: int = 0          # entries allocated in LLC, fused form
    spill_to_fuse: int = 0          # S->M/E transitions re-locating an entry
    fuse_to_spill: int = 0          # M/E->S transitions re-locating an entry
    entry_llc_evictions: int = 0    # live entries evicted from the LLC
    wb_de_messages: int = 0
    get_de_messages: int = 0
    denf_nacks: int = 0
    corrupted_block_reads: int = 0  # LLC read misses that hit corrupted mem
    corrupted_blocks_restored: int = 0
    extra_data_array_reads: int = 0 # SpillAll critical-path penalty events
    fused_read_forwards: int = 0    # FuseAll 3-hop reads to shared blocks

    # DRAM events.
    dram_reads: int = 0
    dram_writes: int = 0
    dram_writes_entry_eviction: int = 0
    dram_row_hits: int = 0
    dram_row_misses: int = 0

    # Interconnect traffic.
    traffic_bytes: int = 0
    messages: Dict[MessageType, int] = field(default_factory=dict)

    # Latency distribution: power-of-two buckets per operation class
    # (bucket i counts accesses with latency in [2^i, 2^(i+1))).
    read_latency_buckets: List[int] = field(default_factory=list)
    write_latency_buckets: List[int] = field(default_factory=list)

    LATENCY_BUCKETS = 20

    def __post_init__(self) -> None:
        if not self.cycles:
            self.cycles = [0] * self.n_cores
        if not self.accesses:
            self.accesses = [0] * self.n_cores
        if not self.read_latency_buckets:
            self.read_latency_buckets = [0] * self.LATENCY_BUCKETS
        if not self.write_latency_buckets:
            self.write_latency_buckets = [0] * self.LATENCY_BUCKETS

    # ------------------------------------------------------------------
    # Recording helpers
    # ------------------------------------------------------------------
    def record_message(self, kind: MessageType, count: int = 1) -> None:
        """Account ``count`` messages of ``kind`` on the interconnect."""
        messages = self.messages
        messages[kind] = messages.get(kind, 0) + count
        self.traffic_bytes += MESSAGE_BYTES[kind] * count

    def advance_core(self, core: int, latency: int) -> None:
        """Advance ``core``'s local clock by ``latency`` cycles."""
        self.cycles[core] += latency
        self.accesses[core] += 1

    def record_latency(self, is_write: bool, latency: int) -> None:
        """Bucket one access latency (powers of two)."""
        bucket = latency.bit_length() - 1 if latency > 1 else 0
        if bucket >= self.LATENCY_BUCKETS:
            bucket = self.LATENCY_BUCKETS - 1
        if is_write:
            self.write_latency_buckets[bucket] += 1
        else:
            self.read_latency_buckets[bucket] += 1

    def record_access(self, core: int, is_write: bool, latency: int,
                      cycles: int) -> None:
        """One executed access in one call: ``record_latency(is_write,
        latency)`` then ``advance_core(core, cycles)``."""
        bucket = latency.bit_length() - 1 if latency > 1 else 0
        if bucket >= self.LATENCY_BUCKETS:
            bucket = self.LATENCY_BUCKETS - 1
        if is_write:
            self.write_latency_buckets[bucket] += 1
        else:
            self.read_latency_buckets[bucket] += 1
        self.cycles[core] += cycles
        self.accesses[core] += 1

    def latency_percentile(self, fraction: float,
                           writes: bool = False) -> int:
        """Approximate latency percentile (upper bucket bound).

        The resolution is the power-of-two bucket width -- enough to
        separate L1 hits, L2 hits, 2-hop LLC hits, 3-hop forwards, and
        DRAM misses, which is what the tail analysis needs.
        """
        buckets = (self.write_latency_buckets if writes
                   else self.read_latency_buckets)
        total = sum(buckets)
        if not total:
            return 0
        target = fraction * total
        running = 0
        for index, count in enumerate(buckets):
            running += count
            if running >= target:
                return 1 << index + 1
        return 1 << self.LATENCY_BUCKETS

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def total_cycles(self) -> int:
        """Makespan: the clock of the slowest core (multi-threaded view)."""
        return max(self.cycles) if self.cycles else 0

    @property
    def total_accesses(self) -> int:
        return sum(self.accesses)

    def misses_per_kilo_access(self) -> float:
        """Core cache misses per 1000 core references (proxy for MPKI)."""
        total = self.total_accesses
        return 1000.0 * self.core_cache_misses / total if total else 0.0

    def dram_write_entry_fraction(self) -> float:
        """Fraction of DRAM writes caused by directory-entry eviction.

        The paper reports this is below 0.5% thanks to dataLRU.
        """
        if not self.dram_writes:
            return 0.0
        return self.dram_writes_entry_eviction / self.dram_writes

    def corrupted_read_fraction(self) -> float:
        """Fraction of LLC read misses that access corrupted home blocks.

        The paper reports this is below 0.05%.
        """
        if not self.llc_read_misses:
            return 0.0
        return self.corrupted_block_reads / self.llc_read_misses

    def reset(self) -> None:
        """Zero every counter in place (end-of-warm-up ROI boundary).

        In-place so that components holding a reference to this object
        (mesh, DRAM) keep recording into it.
        """
        fresh = SystemStats(self.n_cores)
        self.__dict__.update(fresh.__dict__)

    def as_dict(self) -> Dict[str, float]:
        """Flatten all scalar counters for reporting."""
        result: Dict[str, float] = {}
        for name, value in vars(self).items():
            if isinstance(value, int):
                result[name] = value
        result["total_cycles"] = self.total_cycles
        result["total_accesses"] = self.total_accesses
        result["misses_per_kilo_access"] = self.misses_per_kilo_access()
        return result


def latency_bucket(latency: int) -> int:
    """The histogram bucket ``record_latency`` files ``latency`` under."""
    bucket = latency.bit_length() - 1 if latency > 1 else 0
    return min(bucket, SystemStats.LATENCY_BUCKETS - 1)


def weighted_speedup(base_cycles: List[int], new_cycles: List[int]) -> float:
    """Weighted speedup of a multi-programmed run versus a baseline run.

    Defined as ``mean_i(base_i / new_i)`` over cores, the per-core speedup
    averaged with equal weights -- the metric Figure 2/21/23 normalize to 1
    for the baseline.
    """
    if len(base_cycles) != len(new_cycles):
        raise ValueError("core counts differ between runs")
    ratios = [b / n for b, n in zip(base_cycles, new_cycles) if n]
    return sum(ratios) / len(ratios) if ratios else 1.0


def makespan_speedup(base: SystemStats, new: SystemStats) -> float:
    """Speedup of a multi-threaded run: ratio of makespans."""
    if not new.total_cycles:
        return 1.0
    return base.total_cycles / new.total_cycles
