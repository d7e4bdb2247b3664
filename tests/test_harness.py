"""Tests for the runner, reporting, energy model, and system builder."""

import pytest

from repro.common.config import (DirectoryConfig, LLCReplacement, Protocol)
from repro.harness.energy import EnergyModel, estimate_energy
from repro.harness.reporting import Row, Table, geomean
from repro.harness.runner import run_workload
from repro.harness.system_builder import build_system
from repro.workloads import make_multithreaded
from repro.workloads.suites import find_profile

from tests.conftest import tiny_config, zerodev_config


class TestRunner:
    def run(self, config, accesses=400):
        system = build_system(config)
        workload = make_multithreaded(find_profile("blackscholes"),
                                      config, accesses, seed=1)
        return run_workload(system, workload, check_invariants_every=200)

    def test_runs_to_completion(self):
        result = self.run(tiny_config())
        assert result.stats.total_accesses == 4 * 400
        assert result.cycles > 0
        assert len(result.per_core_cycles) == 4

        # In memory that does not grow with the run: on a DEV-heavy
        # socket whose footprint the shorter run already covers, four
        # times the accesses per core raise the run's peak by less than
        # a fixed budget.  A whole-trace decode would add about 48
        # bytes per access (an op reference, an int and its list slot),
        # and a shrink journal one entry per invalidation and L2
        # victim.
        import tracemalloc

        import numpy as np

        from repro.workloads.trace import CoreTrace, Workload

        def peak(per_core):
            rng = np.random.default_rng(5)
            workload = Workload("random", [
                CoreTrace(core, (rng.random(per_core) < 0.3).astype(
                    np.int8), rng.integers(0, 256, per_core) << 6)
                for core in range(4)])
            system = build_system(tiny_config(
                directory=DirectoryConfig(ratio=0.125)))
            tracemalloc.start()
            try:
                run_workload(system, workload)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert system.stats.dev_invalidations > per_core
            # No kernel read a journal, so no hierarchy kept one.
            assert all((hier.shrink_log, hier.epoch) == (None, 0)
                       for hier in system.cores)
            return peak

        assert peak(6000) - peak(1500) < 128 * 1024

    def test_deterministic(self):
        a = self.run(tiny_config())
        b = self.run(tiny_config())
        assert a.per_core_cycles == b.per_core_cycles
        assert a.stats.traffic_bytes == b.stats.traffic_bytes
        # The batched kernel, with the same invariant sweeps.
        c = self.run(tiny_config(kernel="batched"))
        assert c.stats.as_dict() == a.stats.as_dict()

    def test_interleaves_by_local_time(self):
        result = self.run(tiny_config())
        cycles = result.per_core_cycles
        assert max(cycles) < 2 * min(cycles)   # no core raced far ahead

    def test_sampling_callback(self):
        config = tiny_config()
        system = build_system(config)
        workload = make_multithreaded(find_profile("blackscholes"),
                                      config, 200, seed=1)
        samples = []
        run_workload(system, workload, sample_every=100,
                     sample_fn=lambda s: samples.append(
                         s.stats.total_accesses))
        assert samples and samples == sorted(samples)

    def test_rejects_oversized_workload(self):
        config = tiny_config()
        system = build_system(config)
        workload = make_multithreaded(
            find_profile("blackscholes"),
            tiny_config(n_cores=8), 10, seed=1)
        with pytest.raises(ValueError):
            run_workload(system, workload)


class TestWarmupBoundary:
    """The ROI reset with unequal per-core trace lengths.

    A core whose trace ends *inside* the warm-up window must simply be
    absent from the region of interest -- never replayed, never counted
    twice -- and every surviving core must re-enter the ROI with a zero
    local clock.
    """

    def test_drive_interleaved_issues_each_access_exactly_once(
            self, monkeypatch):
        from types import SimpleNamespace

        import numpy as np

        from repro.harness import runner
        from repro.workloads.trace import OP_BY_CODE

        def brute_force(lengths, warmup, bump):
            """The issue order by definition: the slot with references
            left whose ``(clock, slot)`` is least, every clock zero at
            the start and again after the warm-up."""
            n = len(lengths)
            clocks = [0] * n
            positions = [0] * n
            order = []
            for step in range(sum(lengths)):
                if warmup and step == warmup:
                    clocks = [0] * n
                slot = min((clocks[s], s) for s in range(n)
                           if positions[s] < lengths[s])[1]
                order.append((slot, positions[slot]))
                clocks[slot] += bump(slot, positions[slot])
                positions[slot] += 1
            return order

        def drive(lengths, check_every, sample_every, warmup,
                  bump=lambda slot, index: 7 + slot):
            issued = []
            log = []
            stats = SimpleNamespace(cycles=[0] * len(lengths))
            obs = SimpleNamespace(step=0)

            def access(slot, op, address):
                # The bus step already counts this access, and the
                # reference arrives decoded: its op enum and its
                # address as a Python int (here, its trace index).
                assert obs.step == len(issued) + 1
                assert type(address) is int
                assert op is OP_BY_CODE[address % 3]
                issued.append((slot, address))
                stats.cycles[slot] += bump(slot, address)

            def boundary(name):
                return lambda: log.append((name, len(issued)))

            def on_warmup():
                boundary("warmup")()
                # As ``SystemStats.reset``: a fresh clock list, so a
                # slot still reading the old one issues out of order.
                stats.cycles = [0] * len(lengths)

            slots = [(access, slot, stats,
                      (np.arange(length) % 3).astype(np.int8),
                      np.arange(length, dtype=np.int64))
                     for slot, length in enumerate(lengths)]
            total = sum(lengths)
            steps = runner._drive_interleaved(
                slots, check=boundary("check"), check_every=check_every,
                sample=boundary("sample"), sample_every=sample_every,
                warmup=warmup, on_warmup=on_warmup, obs=obs)
            assert steps == obs.step == total
            # Exactly once each: no access replayed across the warm-up
            # boundary or a chunk edge, none dropped, per-core counts
            # equal the trace lengths.
            assert len(issued) == len(set(issued)) == total
            for slot, length in enumerate(lengths):
                assert [i for s, i in issued if s == slot] == list(
                    range(length))
            # In the order the minimum over (clock, slot) gives.
            assert issued == brute_force(lengths, warmup, bump)
            # Every boundary fires once at its step; where they
            # coincide, the check and the sample see the warm-up's last
            # state.
            def every(name, period):
                return [(name, k) for k in range(period, total + 1,
                                                 period)] if period else []

            expected = sorted(
                every("check", check_every) + every("sample", sample_every)
                + [("warmup", warmup)] * (warmup > 0),
                key=lambda event: (event[1],
                                   ("check", "sample", "warmup").index(
                                       event[0])))
            assert log == expected
            if warmup:
                # Every slot re-entered the ROI at clock 0: after the
                # boundary the slot with the smallest index goes first.
                assert issued[warmup][0] == min(
                    slot for slot in range(len(lengths))
                    if sum(1 for s, _ in issued[:warmup] if s == slot)
                    < lengths[slot])
            return issued

        drive([5, 50, 50], 10, 15, 30)         # one chunk per slot
        # Slots longer than one chunk, one of them exactly one chunk
        # long: check and sample boundaries fall on both sides of every
        # chunk edge, and the warm-up ends past the first edges.
        chunk = runner.CHUNK
        warmup = 3 * chunk + 17
        issued = drive([5, 2 * chunk + 300, chunk, chunk + 1], 97, 131,
                       warmup)
        assert sum(1 for s, _ in issued[:warmup] if s == 1) > chunk
        # Chunks of one and of four references: edges everywhere, the
        # warm-up boundary on each side of one, slot 3's trace ending
        # exactly at an edge, and slot 0's inside the warm-up.
        for size in (1, 4):
            monkeypatch.setattr(runner, "CHUNK", size)
            for warmup in range(24, 36):
                drive([5, 50, 50, 8], 10, 15, warmup)
        # The heap packs ``clock << slot_bits | slot``: slot counts on
        # both sides of every key-width step, under uneven, equal and
        # jittered clocks (equal clocks break every tie by slot).
        bumps = (lambda slot, index: 7 + slot,
                 lambda slot, index: 7,
                 lambda slot, index: 1 + (5 * index + 3 * slot) % 11)
        for n in (1, 2, 3, 5, 8, 9, 17):
            lengths = [3 + (7 * slot) % 23 for slot in range(n)]
            for bump in bumps:
                drive(lengths, 0, 0, 0, bump)
                drive(lengths, 10, 15, sum(lengths) // 2, bump)
        # Two slots ending on the same chunk edge at once, and empty
        # traces: alone, beside live ones, and before the warm-up.
        for bump in bumps:
            drive([8, 8, 3], 0, 0, 0, bump)
            drive([8, 8, 13], 4, 0, 5, bump)
            drive([0, 9, 0, 6], 0, 5, 7, bump)
        assert drive([0, 0], 1, 1, 0) == []

    def test_short_trace_contributes_no_roi_stats(self):
        from repro.workloads.trace import CoreTrace, Workload
        import numpy as np

        config = tiny_config()
        profile = find_profile("blackscholes")
        donor = make_multithreaded(profile, config, 400, seed=3)
        traces = []
        for core, trace in enumerate(donor.traces):
            n = 12 if core == 0 else 400   # core 0 dies inside warm-up
            traces.append(CoreTrace(core, np.asarray(trace.ops[:n]),
                                    np.asarray(trace.addresses[:n])))
        workload = Workload("uneven", traces)
        per_core = {}
        for kernel in ("scalar", "batched"):
            system = build_system(config.with_(kernel=kernel))
            result = run_workload(system, workload, warmup=200)
            stats = result.stats
            assert stats.accesses[0] == 0      # finished pre-boundary
            for core, trace in enumerate(traces):
                assert stats.accesses[core] <= len(trace)
            assert sum(stats.accesses) == sum(
                len(t) for t in traces) - 200
            per_core[kernel] = (list(stats.accesses),
                                list(stats.cycles))
        assert per_core["scalar"] == per_core["batched"]


class TestBuilder:
    def test_dispatch(self):
        from repro.baselines import MgDSystem, SecDirSystem
        from repro.coherence.protocol import CMPSystem
        from repro.core.protocol import ZeroDEVSystem
        assert type(build_system(tiny_config())) is CMPSystem
        assert isinstance(build_system(zerodev_config()), ZeroDEVSystem)
        assert isinstance(
            build_system(tiny_config(protocol=Protocol.SECDIR)),
            SecDirSystem)
        assert isinstance(
            build_system(tiny_config(protocol=Protocol.MGD)), MgDSystem)

    def test_mesh_autosizing_for_big_sockets(self):
        config = tiny_config(n_cores=32)
        system = build_system(config)
        mesh = system.config.mesh
        assert mesh.width * mesh.height >= 32 + config.llc_banks

    def test_zerodev_directory_is_replacement_disabled(self):
        system = build_system(zerodev_config(
            directory=DirectoryConfig(ratio=1.0)))
        assert system.directory.replacement_disabled


class TestReporting:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0
        assert geomean([1.0, 0.0, 4.0]) == pytest.approx(2.0)

    def test_table_render(self):
        table = Table("Figure X")
        table.add("app", 0.98, paper=0.99, note="ok")
        text = table.render()
        assert "Figure X" in text
        assert "0.980" in text and "0.990" in text and "ok" in text

    def test_row_without_paper_value(self):
        row = Row("label", 1.0)
        assert "1.000" in row.formatted(10)

    def test_table_to_dict(self):
        table = Table("T")
        table.add("x", 1.5, paper=2.0, note="n")
        data = table.to_dict()
        assert data["title"] == "T"
        assert data["rows"][0] == {"label": "x", "measured": 1.5,
                                   "paper": 2.0, "unit": "", "note": "n"}


class TestEnergy:
    def run_stats(self, config):
        system = build_system(config)
        workload = make_multithreaded(find_profile("canneal"), config,
                                      400, seed=1)
        run_workload(system, workload)
        return system.stats

    def test_components_positive(self):
        config = tiny_config()
        energy = estimate_energy(config, self.run_stats(config))
        assert energy["total_j"] > 0
        assert energy["dir_dynamic_j"] > 0
        assert energy["dir_leakage_j"] > 0

    def test_no_directory_zeroes_dir_energy(self):
        config = zerodev_config()
        energy = estimate_energy(config, self.run_stats(config))
        assert energy["dir_dynamic_j"] == 0.0
        assert energy["dir_leakage_j"] == 0.0

    def test_directory_storage_estimate(self):
        model = EnergyModel()
        config = tiny_config()
        mb = model.directory_mb(config)
        expected_bits = config.directory_entries * (26 + 4 + 1)
        assert mb == pytest.approx(expected_bits / 8 / 2**20)
