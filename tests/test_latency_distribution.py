"""Tests for the latency-distribution instrumentation."""

import pytest

from repro.common.config import DirCachingPolicy
from repro.common.stats import SystemStats
from repro.harness.runner import run_workload
from repro.harness.system_builder import build_system
from repro.workloads import make_multithreaded
from repro.workloads.suites import find_profile

from tests.conftest import drive, tiny_config, zerodev_config


class TestBucketing:
    def test_bucket_boundaries(self):
        stats = SystemStats(1)
        stats.record_latency(False, 1)     # bucket 0
        stats.record_latency(False, 3)     # bucket 1
        stats.record_latency(False, 4)     # bucket 2
        stats.record_latency(False, 300)   # bucket 8
        assert stats.read_latency_buckets[0] == 1
        assert stats.read_latency_buckets[1] == 1
        assert stats.read_latency_buckets[2] == 1
        assert stats.read_latency_buckets[8] == 1
        # record_access (the per-access path) buckets as record_latency
        # and advances the clock as advance_core.
        one, both = SystemStats(2), SystemStats(2)
        for core, is_write, latency in ((0, False, 1), (1, True, 3),
                                        (0, True, 4), (1, False, 300),
                                        (0, False, 1 << 20)):
            one.record_access(core, is_write, latency, latency + 2)
            both.record_latency(is_write, latency)
            both.advance_core(core, latency + 2)
        assert one.read_latency_buckets == both.read_latency_buckets
        assert one.write_latency_buckets == both.write_latency_buckets
        assert one.cycles == both.cycles and one.accesses == both.accesses
        assert sum(one.read_latency_buckets) == 3

    def test_reads_and_writes_separate(self):
        stats = SystemStats(1)
        stats.record_latency(True, 10)
        assert sum(stats.read_latency_buckets) == 0
        assert sum(stats.write_latency_buckets) == 1

    def test_percentile_empty(self):
        assert SystemStats(1).latency_percentile(0.99) == 0

    def test_percentile_ordering(self):
        stats = SystemStats(1)
        for _ in range(99):
            stats.record_latency(False, 3)
        stats.record_latency(False, 500)
        assert stats.latency_percentile(0.50) == 4
        assert stats.latency_percentile(0.999) == 512


class TestEndToEndDistribution:
    def run(self, config):
        system = build_system(config)
        workload = make_multithreaded(find_profile("streamcluster"),
                                      config, 1500, seed=4)
        run_workload(system, workload)
        return system.stats

    def test_distribution_populated(self):
        stats = self.run(tiny_config())
        assert sum(stats.read_latency_buckets) > 0
        assert sum(stats.write_latency_buckets) > 0
        total = sum(stats.read_latency_buckets) \
            + sum(stats.write_latency_buckets)
        assert total == stats.total_accesses
        # The batched kernel buckets its bulk-retired hits the same way.
        batched = self.run(tiny_config(kernel="batched"))
        assert batched.read_latency_buckets == stats.read_latency_buckets
        assert batched.write_latency_buckets == stats.write_latency_buckets

    def test_median_is_l1_like(self):
        stats = self.run(tiny_config())
        # Most accesses hit the L1 (3 cycles): median bucket <= 4.
        assert stats.latency_percentile(0.5) <= 8

    def test_fuseall_has_heavier_read_tail_than_fpss(self):
        fpss = self.run(zerodev_config())
        fuse = self.run(zerodev_config(
            dir_caching=DirCachingPolicy.FUSE_ALL))
        # FuseAll forwards shared reads 3-hop: its high-latency read
        # population is at least as large as FPSS's.
        def tail(stats):
            return sum(stats.read_latency_buckets[5:])
        assert tail(fuse) >= tail(fpss)
