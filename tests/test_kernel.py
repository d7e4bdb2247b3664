"""Tests for the batched access kernel (repro.kernel).

The load-bearing property is *bit identity* with the scalar runner:
identical final stats, shadow memory, and event streams for every
protocol, workload shape, and driver feature (warm-up, invariant
checking, tracing, multi-socket). The classification machinery --
shrink-journal absorption, epoch staleness, adaptive mode switching --
gets targeted unit tests on top.
"""

import numpy as np
import pytest

from repro.caches.block import MESI
from repro.common.addressing import BLOCK_SHIFT
from repro.common.config import DirectoryConfig, Protocol, resolve_kernel
from repro.common.errors import ConfigError
from repro.harness.runner import run_workload
from repro.harness.system_builder import build_system
from repro.kernel import SlotKernel, drive_batched
from repro.obs import EventBus, attach
from repro.workloads import make_multithreaded
from repro.workloads.suites import find_profile
from repro.workloads.trace import CoreTrace, Op, Workload

from tests.conftest import tiny_config, zerodev_config


def final_state(config, workload, **kwargs):
    system = build_system(config)
    run_workload(system, workload, **kwargs)
    import copy
    return (copy.deepcopy(vars(system.stats)),
            dict(system.shadow._latest))        # noqa: SLF001


def assert_kernels_identical(config, workload, **kwargs):
    scalar = final_state(config.with_(kernel="scalar"), workload,
                         **kwargs)
    batched = final_state(config.with_(kernel="batched"), workload,
                          **kwargs)
    diffs = [k for k in scalar[0] if scalar[0][k] != batched[0][k]]
    assert not diffs, f"stats diverged on {diffs}"
    assert scalar[1] == batched[1], "shadow memories diverged"


class TestBitIdentity:
    def workload(self, config, accesses=600, app="blackscholes"):
        return make_multithreaded(find_profile(app), config, accesses,
                                  seed=11)

    @pytest.mark.parametrize("config", [
        tiny_config(),
        zerodev_config(),
        tiny_config(protocol=Protocol.SECDIR),
        tiny_config(protocol=Protocol.MGD),
        tiny_config(directory=DirectoryConfig(ratio=0.25)),
    ], ids=["baseline", "zerodev", "secdir", "mgd", "quarter-dir"])
    def test_across_protocols(self, config):
        assert_kernels_identical(config, self.workload(config))

    def test_share_heavy_workload(self):
        config = tiny_config()
        assert_kernels_identical(config,
                                 self.workload(config, app="canneal"))

    def test_with_warmup(self):
        config = tiny_config()
        assert_kernels_identical(config, self.workload(config),
                                 warmup=777)

    def test_with_invariant_checking(self):
        config = zerodev_config()
        assert_kernels_identical(config, self.workload(config),
                                 check_invariants_every=97)

    def test_event_streams_identical(self):
        config = zerodev_config()
        workload = self.workload(config)
        streams = {}
        for kernel in ("scalar", "batched"):
            system = build_system(config.with_(kernel=kernel))
            events = []
            bus = EventBus()
            bus.subscribe(type("Sink", (), {
                "handle": staticmethod(events.append)})())
            attach(system, bus)
            run_workload(system, workload)
            streams[kernel] = events
        # Order, payloads, and step tags all equal.
        assert streams["scalar"] == streams["batched"]

    def test_multisocket_identical(self):
        config = tiny_config(n_cores=2)
        workload = make_multithreaded(
            find_profile("blackscholes"), tiny_config(), 400, seed=4)
        per_kernel = {}
        for kernel in ("scalar", "batched"):
            system = build_system(config.with_(
                kernel=kernel, n_sockets=2, socket_dir_cache_blocks=4))
            run_workload(system, workload, check_invariants_every=50)
            per_kernel[kernel] = [
                {k: v for k, v in vars(s).items()}
                for s in system.stats]
        assert per_kernel["scalar"] == per_kernel["batched"]

    def test_sampling_forces_scalar_driver(self):
        # Gauges observe schedule-dependent mid-states; an instrumented
        # run must behave exactly like the scalar runner.
        config = tiny_config()
        workload = self.workload(config)
        samples = {}
        for kernel in ("scalar", "batched"):
            system = build_system(config.with_(kernel=kernel))
            seen = []
            run_workload(system, workload, sample_every=100,
                         sample_fn=lambda s: seen.append(
                             s.stats.total_accesses))
            samples[kernel] = seen
        assert samples["scalar"] == samples["batched"]


class TestKernelSelection:
    def test_env_override(self, monkeypatch):
        config = tiny_config()
        assert resolve_kernel(config) == "scalar"
        monkeypatch.setenv("REPRO_KERNEL", "batched")
        assert resolve_kernel(config) == "batched"
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        assert resolve_kernel(config.with_(kernel="batched")) == "scalar"

    def test_env_rejects_unknown(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "turbo")
        with pytest.raises(ConfigError):
            resolve_kernel(tiny_config())

    def test_config_rejects_unknown(self):
        with pytest.raises(ConfigError):
            tiny_config(kernel="bogus")

    def test_cache_keys_separate_kernels(self, monkeypatch):
        from repro.harness.result_cache import run_key
        config = tiny_config()
        workload = make_multithreaded(find_profile("blackscholes"),
                                      config, 50, seed=1)
        scalar_key = run_key(config, workload)
        assert run_key(config.with_(kernel="batched"), workload) != \
            scalar_key
        # The env override must also change the key, or a REPRO_KERNEL
        # run could replay results cached under the other kernel.
        monkeypatch.setenv("REPRO_KERNEL", "batched")
        assert run_key(config, workload) != scalar_key


class TestClassification:
    def hit_kernel(self, n=16):
        """A core with one L2-resident block and an all-hits trace."""
        system = build_system(tiny_config())
        system.access(0, Op.READ, 4 << BLOCK_SHIFT)
        hier = system.cores[0]
        ops = np.full(n, Op.READ.value, dtype=np.int8)
        addresses = np.full(n, 4 << BLOCK_SHIFT, dtype=np.int64)
        kernel = SlotKernel(0, hier, system.stats, system.shadow,
                            system.config.latency, ops, addresses)
        return system, hier, kernel

    def test_safe_prefix_classified(self):
        _, _, kernel = self.hit_kernel()
        assert kernel.safe_end(0) == 16

    def test_invalidation_shrinks_prefix_via_journal(self, monkeypatch):
        _, hier, kernel = self.hit_kernel()
        assert kernel.safe_end(0) == 16
        hier.invalidate(4, cause="test")
        # The epoch moved; absorption truncates at the first occurrence
        # of the journaled block without a rescan.
        assert kernel.safe_end(0) == 0
        assert not hier.shrink_log        # journal consumed

        # Over a whole DEV-heavy run, a hierarchy the kernel drives
        # journals each shrink exactly once (its epoch counts them; the
        # kernel clears the log as it reads it), and under the scalar
        # kernel no hierarchy journals at all.
        from collections import Counter

        from repro.caches.private_cache import PrivateHierarchy

        shrinks = Counter()
        fill = PrivateHierarchy.fill

        def counted_fill(self, block, state, version, code):
            victim = fill(self, block, state, version, code)
            shrinks[self.core] += victim is not None
            return victim

        def counted(method, shrinks_if=lambda *args: True):
            def wrapper(self, *args, **kwargs):
                shrinks[self.core] += shrinks_if(*args)
                return method(self, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(PrivateHierarchy, "fill", counted_fill)
        for name in ("invalidate", "downgrade_to_s"):
            monkeypatch.setattr(PrivateHierarchy, name,
                                counted(getattr(PrivateHierarchy, name)))
        monkeypatch.setattr(PrivateHierarchy, "set_state", counted(
            PrivateHierarchy.set_state,
            lambda block, state: state is MESI.S))
        config = tiny_config(directory=DirectoryConfig(ratio=0.125))
        workload = make_multithreaded(find_profile("canneal"), config,
                                      1500, seed=11)
        for kernel in ("scalar", "batched"):
            shrinks.clear()
            system = build_system(config.with_(kernel=kernel))
            run_workload(system, workload)
            assert system.stats.dev_invalidations > 1000
            assert all(shrinks[core] > 100 for core in range(4))
            epochs = [hier.epoch for hier in system.cores]
            if kernel == "scalar":
                assert epochs == [0] * 4
                assert all(hier.shrink_log is None
                           for hier in system.cores)
            else:
                assert epochs == [shrinks[core] for core in range(4)]

    def test_unrelated_invalidation_keeps_prefix(self):
        _, hier, kernel = self.hit_kernel()
        assert kernel.safe_end(0) == 16
        hier.epoch += 1
        hier.shrink_log.append(999)       # not in this slot's window
        assert kernel.safe_end(0) == 16

    def test_downgrade_to_s_makes_store_unsafe(self):
        system = build_system(tiny_config())
        system.access(0, Op.WRITE, 4 << BLOCK_SHIFT)
        hier = system.cores[0]
        assert hier.probe(4) is MESI.M
        ops = np.full(8, Op.WRITE.value, dtype=np.int8)
        addresses = np.full(8, 4 << BLOCK_SHIFT, dtype=np.int64)
        kernel = SlotKernel(0, hier, system.stats, system.shadow,
                            system.config.latency, ops, addresses)
        assert kernel.safe_end(0) == 8
        hier.downgrade_to_s(4)
        assert kernel.safe_end(0) == 0    # S write = upgrade = unsafe

    def test_write_to_shared_is_unsafe_boundary(self):
        system = build_system(tiny_config())
        # Core 0 and core 1 both read: line ends S in both.
        system.access(0, Op.READ, 4 << BLOCK_SHIFT)
        system.access(1, Op.READ, 4 << BLOCK_SHIFT)
        hier = system.cores[0]
        assert hier.probe(4) is MESI.S
        ops = np.array([Op.READ.value, Op.WRITE.value, Op.READ.value],
                       dtype=np.int8)
        addresses = np.full(3, 4 << BLOCK_SHIFT, dtype=np.int64)
        kernel = SlotKernel(0, hier, system.stats, system.shadow,
                            system.config.latency, ops, addresses)
        assert kernel.safe_end(0) == 1    # read safe, S-write not

    def test_retire_run_matches_scalar_hit_path(self):
        system_a = build_system(tiny_config())
        system_b = build_system(tiny_config())
        for system in (system_a, system_b):
            system.access(0, Op.WRITE, 4 << BLOCK_SHIFT)
            system.access(0, Op.READ, 12 << BLOCK_SHIFT)
        ops = np.array([Op.READ.value, Op.WRITE.value, Op.READ.value,
                        Op.IFETCH.value], dtype=np.int8)
        blocks = [12, 4, 4, 12]
        addresses = np.array([b << BLOCK_SHIFT for b in blocks],
                             dtype=np.int64)
        # Scalar path on system_a; the ifetch of a data-resident block
        # is an L2 hit through the L1I, same as the kernel's path.
        for op, address in zip([Op.READ, Op.WRITE, Op.READ, Op.IFETCH],
                               addresses.tolist()):
            system_a.access(0, op, address)
        kernel = SlotKernel(0, system_b.cores[0], system_b.stats,
                            system_b.shadow, system_b.config.latency,
                            ops, addresses)
        end = kernel.safe_end(0)
        assert end == 4
        kernel.retire_run(0, end, system_b.stats.cycles[0], 1 << 62)
        assert vars(system_a.stats) == vars(system_b.stats)
        assert (system_a.shadow._latest        # noqa: SLF001
                == system_b.shadow._latest)    # noqa: SLF001


class TestAdaptiveModes:
    def two_phase_workload(self, config, per_core=1200):
        """Miss-heavy phase (degrades) then hit-heavy phase (promotes)."""
        rng = np.random.default_rng(3)
        traces = []
        for core in range(config.n_cores):
            span_base = 1 << 16
            miss_blocks = rng.integers(span_base,
                                       span_base + 4096, per_core // 2)
            hot = span_base + 8192 + core * 8
            hit_blocks = np.array([hot + (i % 4)
                                   for i in range(per_core // 2)])
            blocks = np.concatenate([miss_blocks, hit_blocks])
            ops = np.where(rng.random(per_core) < 0.2,
                           Op.WRITE.value, Op.READ.value).astype(np.int8)
            traces.append(CoreTrace(
                core, ops, (blocks << BLOCK_SHIFT).astype(np.int64)))
        return Workload("two-phase", traces)

    def test_mode_transitions_preserve_identity(self, monkeypatch):
        import repro.kernel.batched as batched

        monkeypatch.setattr(batched, "ADAPT_WINDOW", 192)
        config = tiny_config()
        workload = self.two_phase_workload(config)
        calls = []
        real_reset = SlotKernel.reset_classification
        real_retire = SlotKernel.retire_run

        def spy_reset(self):
            calls.append("degraded-eval")
            return real_reset(self)

        def spy_retire(self, *args):
            if not calls or calls[-1] != "bulk":
                calls.append("bulk")
            return real_retire(self, *args)

        monkeypatch.setattr(SlotKernel, "reset_classification",
                            spy_reset)
        monkeypatch.setattr(SlotKernel, "retire_run", spy_retire)
        batched_state = final_state(config.with_(kernel="batched"),
                                    workload)
        # The miss phase degraded the driver at least once, and the hit
        # phase promoted it back (bulk retirement after a degraded
        # window evaluation).
        assert "degraded-eval" in calls
        assert "bulk" in calls[calls.index("degraded-eval"):]
        monkeypatch.setattr(SlotKernel, "reset_classification",
                            real_reset)
        monkeypatch.setattr(SlotKernel, "retire_run", real_retire)
        scalar_state = final_state(config.with_(kernel="scalar"),
                                   workload)
        assert scalar_state == batched_state

    def test_degraded_mode_with_warmup_boundary(self, monkeypatch):
        import repro.kernel.batched as batched

        monkeypatch.setattr(batched, "ADAPT_WINDOW", 192)
        config = tiny_config()
        workload = self.two_phase_workload(config)
        # Warm-up boundary lands inside the miss phase, where the
        # driver is (or is about to be) degraded.
        assert_kernels_identical(config, workload, warmup=900)


class TestKernelDiff:
    def test_workload_of_splits_per_core(self):
        from repro.kernel.diff import workload_of
        from repro.verify.tracegen import FuzzTrace

        trace = FuzzTrace("t", 3, ((0, 0, 5), (1, 1, 6), (0, 2, 7),
                                   (2, 0, 5)))
        workload = workload_of(trace)
        assert workload.n_cores == 3
        assert workload.traces[0].ops.tolist() == [0, 2]
        assert (workload.traces[0].addresses.tolist()
                == [5 << BLOCK_SHIFT, 7 << BLOCK_SHIFT])
        assert workload.traces[1].ops.tolist() == [1]
        assert len(workload.traces[2]) == 1

    def test_diff_runs_detects_divergence(self):
        from repro.kernel.diff import KernelRun, diff_runs

        a = KernelRun([{"l1_hits": 3}], [{4: 1}], [])
        b = KernelRun([{"l1_hits": 4}], [{4: 1}], [])
        diffs = diff_runs(a, b)
        assert diffs and "l1_hits" in diffs[0]
        assert not diff_runs(a, a)

    def test_campaign_clean_on_model_subset(self):
        from repro.kernel.diff import run_kernel_diff
        from repro.verify.models import model_matrix

        specs = [s for s in model_matrix()
                 if s.name in ("baseline-1x",
                               "zerodev-fuse-private-spill-shared",
                               "zerodev-2socket-sol1")]
        assert len(specs) == 3
        report = run_kernel_diff(seed=13, budget=5, models=specs,
                                 check_every=12)
        assert report.ok, report.summary()
        assert report.runs == 15


class TestDriveBatchedDirect:
    def test_empty_and_unequal_slots(self):
        system = build_system(tiny_config())
        lengths = [6, 0, 3, 6]
        traces = []
        for core, n in enumerate(lengths):
            ops = np.full(n, Op.READ.value, dtype=np.int8)
            addresses = np.array(
                [(core * 64 + i) << BLOCK_SHIFT for i in range(n)],
                dtype=np.int64)
            traces.append(CoreTrace(core, ops, addresses))
        assert_kernels_identical(tiny_config(),
                                 Workload("unequal", traces))

    def test_returns_total_steps(self):
        system = build_system(tiny_config())
        system.access(0, Op.READ, 4 << BLOCK_SHIFT)
        hier = system.cores[0]
        ops = np.full(5, Op.READ.value, dtype=np.int8)
        addresses = np.full(5, 4 << BLOCK_SHIFT, dtype=np.int64)
        slot = SlotKernel(0, hier, system.stats, system.shadow,
                          system.config.latency, ops, addresses)

        def issue(core, index):
            system.access(core, Op.READ, int(addresses[index]))
            return system.stats.cycles[core]

        assert drive_batched([slot], issue) == 5
