"""Smoke tests for the experiment layer at minimal scale.

These keep ``repro.harness.experiments`` exercised by the unit suite; the
full-scale versions run under ``pytest benchmarks/ --benchmark-only``.
"""

import itertools
import os
from types import SimpleNamespace

import pytest

from repro.harness import experiments
from repro.harness.reporting import Table


@pytest.fixture(autouse=True)
def minimal_scale(monkeypatch):
    monkeypatch.setenv("REPRO_ACCESSES", "400")
    monkeypatch.setenv("REPRO_FULL", "0")


class TestExperimentSmoke:
    def test_scaling_knobs(self, monkeypatch):
        assert experiments.accesses_per_core() == 400
        monkeypatch.setenv("REPRO_ACCESSES", "123")
        assert experiments.accesses_per_core() == 123
        assert not experiments.run_full()
        monkeypatch.setenv("REPRO_FULL", "1")
        assert experiments.run_full()

    def test_representative_subsets_cover_named_apps(self):
        for suite, names in experiments.REPRESENTATIVE.items():
            available = {p.name for p in
                         experiments.apps_of(suite)}
            assert set(names) == available or set(names) <= available

    def test_fig19_structure(self):
        table, results = experiments.fig19_parsec()
        assert isinstance(table, Table)
        assert set(results) == {"1x", "1/8x", "NoDir", "_aggregates"}
        assert results["_aggregates"]["NoDir"]["dev_invalidations"] == 0
        assert set(results["NoDir"]) == {"PARSEC"}
        apps = results["NoDir"]["PARSEC"]
        assert "freqmine" in apps
        for speedup in apps.values():
            assert 0.5 < speedup < 2.0

    def test_fig5_occupancy_structure(self):
        table, results = experiments.fig5_llc_occupancy()
        for suite, maxima in results.items():
            assert all(m >= 0 for m in maxima)
        # Every probed run is counted in the figure's telemetry.
        meta = table.metadata
        assert meta["runs_executed"] == 21
        assert meta["runs_executed"] == sum(map(len, results.values()))
        assert meta["simulated_accesses"] > 0

    def test_energy_structure(self):
        table, results = experiments.energy_comparison()
        assert -1.0 < results["saving"] < 1.0

    def test_multisocket_structure(self):
        table, results = experiments.multisocket_comparison(2)
        assert results["speedups"]
        # Two multi-socket runs per app, all in the figure's telemetry.
        meta = table.metadata
        assert meta["runs_executed"] == 2 * len(results["speedups"])
        assert meta["simulated_accesses"] > 0
        assert meta["accesses_per_second"] > 0

    def test_fig23_mix_count(self):
        table, results = experiments.fig23_heterogeneous(n_mixes=2)
        assert all(len(v) == 2 for v in results.values())

    def test_fig12_design_space(self):
        from benchmarks.test_fig12_design_space import fig12_design_space
        table, measured = fig12_design_space()
        assert set(measured) == {"SpillAll", "FPSS", "FuseAll"}
        assert measured["FPSS"]["extra_array_reads"] == 0
        # Instrumented like every figure: 10 apps under 3 policies.
        meta = table.metadata
        assert meta["runs_executed"] + meta["cache_hits"] == 30

    def test_ablation_functions(self):
        from benchmarks.test_ablations import (
            ablation_notice_bits_overhead, ablation_replacement_disabled)
        table, notice = ablation_notice_bits_overhead()
        assert max(notice["fractions"]) < 0.05
        meta = table.metadata
        assert meta["runs_executed"] + meta["cache_hits"] \
            == len(notice["fractions"])
        _, repl = ablation_replacement_disabled()
        assert repl["disturbances"]["disabled"] == 0


class TestInstrumentedThroughput:
    """Figure metadata under oversubscription: the summed per-run wall
    exceeds the experiment wall, and only the aggregate rate (accesses
    over the experiment wall) is the figure's throughput."""

    ACCESSES = 1_200_000

    @pytest.fixture
    def oversubscribed(self, monkeypatch):
        # A 10 s experiment whose runs report 20 s of summed run wall,
        # as two workers sharing one CPU would.
        clock = itertools.cycle([100.0, 110.0])
        monkeypatch.setattr(experiments, "time", SimpleNamespace(
            perf_counter=lambda: next(clock)))
        monkeypatch.setattr(experiments, "telemetry_snapshot",
                            lambda: {"effective_jobs": 2})
        monkeypatch.setattr(experiments, "telemetry_since", lambda _: {
            "runs": 4, "cache_hits": 0, "wall_seconds": 20.0,
            "accesses": self.ACCESSES, "cache_dropped_puts": 0,
            "run_retries": 0, "run_failures": 0})
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)

        @experiments._instrumented       # noqa: SLF001
        def figure():
            return Table("stub figure"), {}
        return figure

    def test_metadata_reports_both_rates(self, oversubscribed,
                                         monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        table, _ = oversubscribed()
        meta = table.metadata
        assert meta["experiment_wall_seconds"] == 10.0
        assert meta["run_wall_seconds"] == 20.0
        assert meta["accesses_per_second"] == self.ACCESSES // 20
        assert meta["aggregate_accesses_per_second"] == self.ACCESSES // 10
        assert meta["cpu_count"] == 3
        # The timing names the kernel that produced it.
        assert meta["kernel"] == "scalar"
        monkeypatch.setenv("REPRO_KERNEL", "batched")
        table, _ = oversubscribed()
        assert table.metadata["kernel"] == "batched"
        assert table.metadata["accesses_per_second"] == self.ACCESSES // 20

    def test_run_summary_prints_aggregate_rate(self, oversubscribed,
                                               monkeypatch, capsys):
        from repro import cli
        monkeypatch.setitem(cli.EXPERIMENTS, "fig19", oversubscribed)
        assert cli.main(["run", "fig19"]) == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        assert "10.0s wall" in summary
        assert (f"{self.ACCESSES // 10:,} simulated accesses/s"
                in summary)
        assert f"({self.ACCESSES // 20:,}/s per run)" in summary
        assert "cpus=3" in summary
