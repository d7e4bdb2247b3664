"""Additional coverage for suite/mix builders and experiment helpers."""

import numpy as np
import pytest

from repro.common.stats import SystemStats
from repro.harness import experiments
from repro.workloads import (make_heterogeneous_mixes, make_multithreaded,
                             make_rate_workload, make_server_workload)
from repro.workloads.suites import find_profile, suite_profiles

from tests.conftest import tiny_config


class TestMixProperties:
    def test_rate_workload_deterministic(self):
        profile = find_profile("mcf")
        a = make_rate_workload(profile, tiny_config(), 300, seed=5)
        b = make_rate_workload(profile, tiny_config(), 300, seed=5)
        for trace_a, trace_b in zip(a.traces, b.traces):
            assert np.array_equal(trace_a.addresses, trace_b.addresses)

    def test_het_mixes_use_distinct_apps_per_mix(self):
        mixes = make_heterogeneous_mixes(tiny_config(), 4, 100, seed=1)
        for mix in mixes:
            # Distinct apps => disjoint data address spaces per core.
            data_sets = []
            for trace in mix.traces:
                is_data = trace.ops != 2     # not IFETCH
                data_sets.append(set(
                    np.unique(trace.addresses[is_data])))
            for i in range(len(data_sets)):
                for j in range(i + 1, len(data_sets)):
                    assert not data_sets[i] & data_sets[j]

    def test_het_mix_seeds_differ_across_mixes(self):
        mixes = make_heterogeneous_mixes(tiny_config(), 2, 200, seed=1)
        assert mixes[0].name != mixes[1].name

    def test_server_workload_spans_all_cores(self):
        workload = make_server_workload(find_profile("TPC-C"),
                                        tiny_config(), 200, seed=0)
        assert workload.n_cores == 4

    def test_multithreaded_length_exact(self):
        workload = make_multithreaded(find_profile("fftw"),
                                      tiny_config(), 777, seed=0)
        assert all(len(t) == 777 for t in workload.traces)


class TestExperimentHelpers:
    def test_speedup_of_multithreaded_uses_makespan(self):
        base = experiments.RunResult("w", SystemStats(2))
        new = experiments.RunResult("w", SystemStats(2))
        base.stats.cycles = [100, 200]
        new.stats.cycles = [100, 100]
        assert experiments.speedup_of(base, new, "PARSEC") == 2.0

    def test_speedup_of_rate_uses_weighted(self):
        base = experiments.RunResult("w", SystemStats(2))
        new = experiments.RunResult("w", SystemStats(2))
        base.stats.cycles = [100, 100]
        new.stats.cycles = [50, 200]
        assert experiments.speedup_of(base, new, "CPU2017") == \
            pytest.approx(1.25)
        # A multi-socket result weighs every core of every socket.
        base = experiments.RunResult("w", [SystemStats(1), SystemStats(1)])
        new = experiments.RunResult("w", [SystemStats(1), SystemStats(1)])
        base.stats[0].cycles, base.stats[1].cycles = [100], [100]
        new.stats[0].cycles, new.stats[1].cycles = [50], [200]
        assert experiments.speedup_of(base, new, "CPU2017") == \
            pytest.approx(1.25)

    def test_workload_for_dispatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_ACCESSES", "100")
        config = tiny_config()
        rate = experiments.workload_for(find_profile("leela"),
                                        "CPU2017", config)
        assert rate.name.endswith(".rate")
        mt = experiments.workload_for(find_profile("fftw"), "FFTW",
                                      config)
        assert mt.name == "fftw"

    def test_zerodev_config_builder(self):
        from repro.common.config import Protocol
        config = experiments.zerodev_config(tiny_config(), ratio=0.5)
        assert config.protocol is Protocol.ZERODEV
        assert config.directory.ratio == 0.5

    def test_default_config_respects_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "8")
        config = experiments.default_config()
        assert config.llc.size_bytes == 8 * 1024 * 1024 // 8


class TestSuiteIntegrity:
    @pytest.mark.parametrize("suite", ["PARSEC", "SPLASH2X", "SPECOMP",
                                       "FFTW", "CPU2017", "SERVER"])
    def test_profiles_have_sane_ranges(self, suite):
        for profile in suite_profiles(suite):
            assert 0 < profile.ws_private_x_l2 <= 16
            assert 0 <= profile.ws_shared_x_llc <= 1
            assert 0 <= profile.shared_fraction < 1
            assert 0 <= profile.code_fraction < 1
            assert 0 <= profile.locality <= 1
            assert 0 < profile.hot_fraction <= 1
