"""Tests for directory-ratio comparisons, warm-up support, and report
extras."""

import pytest

from repro.common.config import DirectoryConfig
from repro.harness.experiments import compare, speedup_of
from repro.harness.parallel import telemetry_since, telemetry_snapshot
from repro.harness.reporting import ascii_bars, traffic_breakdown
from repro.harness.result_cache import reset_session_cache
from repro.harness.runner import run_workload
from repro.harness.system_builder import build_system
from repro.workloads import make_multithreaded
from repro.workloads.suites import find_profile
from repro.workloads.trace import CoreTrace, Workload

from tests.conftest import tiny_config


def small_workload(name="blackscholes", accesses=300, seed=3):
    return make_multithreaded(find_profile(name), tiny_config(),
                              accesses, seed=seed)


class TestWarmup:
    def test_warmup_resets_statistics(self):
        config = tiny_config()
        workload = small_workload()
        cold = run_workload(build_system(config), workload)
        warm = run_workload(build_system(config), small_workload(),
                            warmup=400)
        assert warm.stats.total_accesses == workload.total_accesses - 400
        # Warm caches: the post-warm-up miss ratio is no worse.
        cold_rate = cold.stats.core_cache_misses / cold.stats.total_accesses
        warm_rate = warm.stats.core_cache_misses / warm.stats.total_accesses
        assert warm_rate <= cold_rate + 0.02

        # A 2-socket run restarts every socket's statistics at the
        # boundary, identically on both kernels.
        workload = make_multithreaded(find_profile("canneal"),
                                      tiny_config(n_cores=8), 300, seed=5)
        per_kernel = {}
        for kernel in ("scalar", "batched"):
            system = build_system(tiny_config(kernel=kernel, n_sockets=2))
            result = run_workload(system, workload, warmup=900)
            assert result.stats == system.stats
            accesses = [stats.total_accesses for stats in result.stats]
            assert all(accesses)
            assert sum(accesses) == workload.total_accesses - 900
            per_kernel[kernel] = [vars(stats) for stats in result.stats]
        assert per_kernel["scalar"] == per_kernel["batched"]

    def test_warmup_longer_than_workload_rejected(self):
        with pytest.raises(ValueError):
            run_workload(build_system(tiny_config()), small_workload(),
                         warmup=10_000)

        # Nothing to warm up and nothing to run is a zero-access result;
        # only a positive warm-up that is not shorter than the workload
        # is refused.
        idle = [CoreTrace.from_events(core, []) for core in range(4)]
        for kernel in ("scalar", "batched"):
            for workload in (Workload("empty", []), Workload("idle", idle)):
                result = run_workload(
                    build_system(tiny_config(kernel=kernel)), workload)
                assert result.stats.total_accesses == 0, kernel
                assert result.stats.total_cycles == 0, kernel
                with pytest.raises(ValueError, match="warm-up longer"):
                    run_workload(build_system(tiny_config(kernel=kernel)),
                                 workload, warmup=1)

    def test_stats_reset_in_place(self):
        system = build_system(tiny_config())
        mesh_stats = system.mesh._stats
        system.stats.core_cache_misses = 5
        system.stats.reset()
        assert system.stats.core_cache_misses == 0
        assert mesh_stats is system.stats   # references stay valid


class TestSweep:
    def test_directory_ratio_sweep(self):
        reference = tiny_config()
        ratios = [1.0, 0.125]
        work = [("PARSEC", "canneal", small_workload("canneal", 400))]

        def designs(*values):
            return {r: reference.with_(directory=DirectoryConfig(ratio=r))
                    for r in values}

        reset_session_cache()
        try:
            pairs = compare(reference, designs(*ratios), work)
            before = telemetry_snapshot()
            compare(reference, designs(0.5), work)
            delta = telemetry_since(before)
        finally:
            reset_session_cache()
        assert list(pairs) == ratios
        [(base, full)], [(small_base, small)] = pairs.values()
        # Every design is paired with the one base run, and the pairs are
        # summaries: no live system rides along.
        assert small_base is base
        for run in (base, full, small):
            assert run.cycles > 0
        # At the reference ratio the speedup is exactly 1 (same config).
        assert speedup_of(base, full, "PARSEC") == pytest.approx(1.0)
        assert (speedup_of(base, small, "PARSEC")
                <= speedup_of(base, full, "PARSEC"))
        assert (small.stats.dev_invalidations
                >= full.stats.dev_invalidations)
        # Extending the sweep by one ratio simulates only that design:
        # the base run comes from the session cache.
        assert delta["runs"] == 1 and delta["cache_hits"] == 1


class TestReportExtras:
    def test_traffic_breakdown(self):
        system = build_system(tiny_config())
        run_workload(system, small_workload())
        text = traffic_breakdown(system.stats)
        assert "GETS" in text and "%" in text

    def test_ascii_bars(self):
        chart = ascii_bars([1.0, 0.5], ["a", "bb"])
        assert chart.count("|") == 4
        assert "bb" in chart and "0.500" in chart

    def test_ascii_bars_empty(self):
        assert ascii_bars([], []) == "(no data)"

    def test_ascii_bars_constant_values(self):
        chart = ascii_bars([1.0, 1.0], ["x", "y"])
        assert "1.000" in chart
