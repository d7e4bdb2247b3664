"""Property-based protocol verification with hypothesis.

Every random access sequence, on every protocol, must terminate with

* data correctness (every load observes the latest committed version --
  checked by the shadow memory on every GETS and GETX response),
* SWMR and directory precision (``check_invariants``), and
* for ZeroDEV: zero DEV invalidations, ever.

The block space is kept small relative to the tiny caches so sequences
exercise evictions, conflicts, sharing, spills, and memory housing.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.config import (CacheGeometry, DirCachingPolicy,
                                 DirectoryConfig, LLCDesign, LLCReplacement,
                                 Protocol)
from repro.harness.system_builder import build_system
from repro.harness.system_builder import build_system
from repro.workloads.trace import Op

from tests.conftest import tiny_config, zerodev_config

OPS = [Op.READ, Op.WRITE, Op.IFETCH]

accesses = st.lists(
    st.tuples(st.integers(0, 3),            # core
              st.sampled_from(OPS),         # operation
              st.integers(0, 95)),          # block
    min_size=1, max_size=300)

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def execute(system, script):
    for core, op, block in script:
        system.access(core, op, block << 6)
    system.check_invariants()
    return system


class TestBaselineProperties:
    @SETTINGS
    @given(accesses)
    def test_baseline_invariants(self, script):
        execute(build_system(tiny_config()), script)

    @SETTINGS
    @given(accesses)
    def test_small_directory_invariants(self, script):
        execute(build_system(tiny_config(
            directory=DirectoryConfig(ratio=0.125))), script)

    @SETTINGS
    @given(accesses)
    def test_inclusive_invariants(self, script):
        execute(build_system(tiny_config(
            llc_design=LLCDesign.INCLUSIVE)), script)

    @SETTINGS
    @given(accesses)
    def test_epd_invariants(self, script):
        execute(build_system(tiny_config(llc_design=LLCDesign.EPD)),
                script)

    @SETTINGS
    @given(accesses)
    def test_unbounded_never_evicts(self, script):
        system = execute(build_system(tiny_config(
            directory=DirectoryConfig(unbounded=True))), script)
        assert system.stats.dev_invalidations == 0


class TestZeroDevProperties:
    @SETTINGS
    @given(accesses, st.sampled_from(list(DirCachingPolicy)))
    def test_policies_are_dev_free(self, script, policy):
        system = execute(
            build_system(zerodev_config(dir_caching=policy)), script)
        assert system.stats.dev_invalidations == 0
        assert system.stats.dev_events == 0

    @SETTINGS
    @given(accesses, st.sampled_from([None, 0.125, 1.0]))
    def test_directory_sizes_are_dev_free(self, script, ratio):
        system = execute(build_system(zerodev_config(
            directory=DirectoryConfig(ratio=ratio))), script)
        assert system.stats.dev_invalidations == 0

    @SETTINGS
    @given(accesses)
    def test_cramped_llc_housing_lifecycle(self, script):
        """A 2-way LLC forces WB_DE / GET_DE / promote / restore."""
        system = execute(build_system(zerodev_config(
            llc=CacheGeometry(2048, 2))), script)
        assert system.stats.dev_invalidations == 0

    @SETTINGS
    @given(accesses, st.sampled_from(
        [LLCReplacement.SP_LRU, LLCReplacement.DATA_LRU]))
    def test_replacement_policies(self, script, replacement):
        system = execute(build_system(zerodev_config(
            llc_replacement=replacement,
            llc=CacheGeometry(2048, 2))), script)
        assert system.stats.dev_invalidations == 0

    @SETTINGS
    @given(accesses)
    def test_inclusive_zerodev_never_houses(self, script):
        system = execute(build_system(zerodev_config(
            llc_design=LLCDesign.INCLUSIVE)), script)
        assert system.stats.wb_de_messages == 0

    @SETTINGS
    @given(accesses)
    def test_epd_zerodev(self, script):
        system = execute(build_system(zerodev_config(
            llc_design=LLCDesign.EPD, llc=CacheGeometry(2048, 2))),
            script)
        assert system.stats.dev_invalidations == 0
        assert system.stats.entries_fused == 0


class TestComparisonBaselinesProperties:
    @SETTINGS
    @given(accesses, st.sampled_from([1.0, 0.25]))
    def test_secdir_invariants(self, script, ratio):
        execute(build_system(tiny_config(
            protocol=Protocol.SECDIR,
            directory=DirectoryConfig(ratio=ratio))), script)

    @SETTINGS
    @given(accesses, st.sampled_from([0.5, 0.125]))
    def test_mgd_invariants(self, script, ratio):
        execute(build_system(tiny_config(
            protocol=Protocol.MGD,
            directory=DirectoryConfig(ratio=ratio))), script)


multi_accesses = st.lists(
    st.tuples(st.integers(0, 1),             # socket
              st.integers(0, 3),             # core
              st.sampled_from(OPS),
              st.integers(0, 63)),
    min_size=1, max_size=200)


class TestMultiSocketProperties:
    @SETTINGS
    @given(multi_accesses)
    def test_baseline_two_sockets(self, script):
        system = build_system(tiny_config(n_sockets=2))
        for socket, core, op, block in script:
            system.sockets[socket].access(core, op, block << 6)
        system.check_invariants()

    @SETTINGS
    @given(multi_accesses)
    def test_zerodev_two_sockets_cramped(self, script):
        system = build_system(
            zerodev_config(llc=CacheGeometry(2048, 2), n_sockets=2))
        for socket, core, op, block in script:
            system.sockets[socket].access(core, op, block << 6)
        system.check_invariants()
        assert all(s.dev_invalidations == 0 for s in system.stats)
