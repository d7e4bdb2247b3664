"""Tests for the ablation knobs: replacement-enabled ZeroDEV directories
and the solution-2 socket-level directory backing."""

import pytest

from repro.common.config import (CacheGeometry, DirectoryConfig, Protocol)
from repro.common.errors import ConfigError
from repro.harness.system_builder import build_system
from repro.harness.system_builder import build_system
from repro.workloads.trace import Op

from tests.conftest import drive, tiny_config, zerodev_config


class TestReplacementEnabledZeroDev:
    def config(self):
        return zerodev_config(directory=DirectoryConfig(
            ratio=0.125, zerodev_replacement_enabled=True))

    def test_directory_has_replacement(self):
        system = build_system(self.config())
        assert not system.directory.replacement_disabled

    def test_victim_relocates_to_llc_without_dev(self):
        system = build_system(self.config())
        # 1/8x: 16 entries in 2 sets; nine live even blocks overflow
        # set 0 and must relocate a victim into the LLC.
        blocks = [2 * k for k in range(9)]
        drive(system, [(0, "R", b) for b in blocks])
        assert system.stats.dir_evictions >= 1
        assert system.stats.dev_invalidations == 0
        in_llc = system.stats.entries_fused + system.stats.entries_spilled
        assert in_llc >= 1
        # Every block is still privately cached and still tracked.
        for block in blocks:
            assert system.cores[0].probe(block) is not None
            assert system._peek_entry(block) is not None

    def test_disabled_variant_disturbs_fewer_structures(self):
        script = [(c, "RW"[k % 2], (3 * k + c) % 64)
                  for k in range(200) for c in range(4)]
        enabled = build_system(self.config())
        drive(enabled, script)
        disabled = build_system(zerodev_config(
            directory=DirectoryConfig(ratio=0.125)))
        drive(disabled, script)
        # The replacement-disabled design never touches a second
        # structure after placement: zero directory evictions.
        assert disabled.stats.dir_evictions == 0
        assert enabled.stats.dir_evictions >= 0
        assert disabled.stats.dev_invalidations == 0
        assert enabled.stats.dev_invalidations == 0


class TestSocketDirectorySolutions:
    def run_system(self, solution, cache_blocks=4):
        system = build_system(tiny_config(
            n_sockets=2, socket_dir_cache_blocks=cache_blocks,
            socket_dir_solution=solution))
        for k in range(150):
            for socket in range(2):
                system.sockets[socket].access(
                    k % 4, Op.READ, ((7 * k + socket) % 64) << 6)
        system.check_invariants()
        return system

    def test_solution_values_validated(self):
        with pytest.raises(ConfigError):
            tiny_config(n_sockets=4, socket_dir_solution=3)

    def test_solution1_misses_cost_memory_reads(self):
        system = self.run_system(1)
        assert system.sockets[0].stats.dram_reads > 0

    def test_solution2_runs_and_uses_bitmap(self):
        system = self.run_system(2)
        # The tiny directory cache forces evictions, which set DirEvict
        # bits that later lookups consult.
        assert (system._dir_evict_bits.cache_hits
                + system._dir_evict_bits.cache_misses) > 0

    def test_solutions_agree_on_coherence(self):
        stats1 = self.run_system(1).sockets[0].stats
        stats2 = self.run_system(2).sockets[0].stats
        # Identical coherence behaviour; only lookup latency differs.
        assert stats1.core_cache_misses == stats2.core_cache_misses
        assert stats1.dev_invalidations == stats2.dev_invalidations
