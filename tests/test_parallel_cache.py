"""Tests for the parallel run layer and the content-addressed cache.

The load-bearing property is *bit-identical determinism*: the heap
scheduler must replay the seed's linear-scan interleaving exactly, the
fork-worker path must reproduce the serial path exactly, and cached
results must be indistinguishable (statistically) from fresh ones. Each
is asserted here against small fig17-style comparisons.
"""

from __future__ import annotations

import pickle
import warnings

import pytest

from repro.common.config import DirCachingPolicy, DirectoryConfig
from repro.common.errors import ConfigError
from repro.harness.parallel import run_many
from repro.harness.result_cache import (ResultCache, run_key,
                                        reset_session_cache,
                                        session_cache)
from repro.harness.runner import RunResult, run_workload
from repro.harness.system_builder import build_system
from repro.workloads import make_multithreaded
from repro.workloads.suites import find_profile
from repro.workloads.trace import OP_BY_CODE, Workload

from tests.conftest import tiny_config, zerodev_config


def small_workload(name="blackscholes", accesses=250, seed=3):
    return make_multithreaded(find_profile(name), tiny_config(),
                              accesses, seed=seed)


def fig17_style_specs():
    """Baseline + the three ZeroDEV policies, over two workloads."""
    base = tiny_config()
    policies = (DirCachingPolicy.SPILL_ALL, DirCachingPolicy.FPSS,
                DirCachingPolicy.FUSE_ALL)
    configs = [base] + [zerodev_config(dir_caching=policy)
                        for policy in policies]
    workloads = [small_workload("blackscholes"),
                 small_workload("canneal")]
    return [(config, workload) for config in configs
            for workload in workloads]


@pytest.fixture(autouse=True)
def fresh_session_cache():
    reset_session_cache()
    yield
    reset_session_cache()


def stats_dicts(results):
    return [result.stats.as_dict() for result in results]


class TestLinearScanEquivalence:
    def test_heap_matches_reference_linear_scan(self):
        """The heap scheduler replays the seed's O(n) min-clock scan."""
        config = tiny_config()
        workload = small_workload("freqmine", accesses=400)

        reference = build_system(config)
        traces = workload.traces
        positions = [0] * len(traces)
        lengths = [len(trace) for trace in traces]
        # The original runner: scan for the lowest-clock unfinished core
        # (ties to the lowest index) and issue its next reference.
        while True:
            best, best_clock = -1, None
            for core in range(len(traces)):
                if positions[core] >= lengths[core]:
                    continue
                clock = reference.stats.cycles[core]
                if best_clock is None or clock < best_clock:
                    best, best_clock = core, clock
            if best < 0:
                break
            trace = traces[best]
            index = positions[best]
            reference.access(best, OP_BY_CODE[trace.ops[index]],
                             int(trace.addresses[index]))
            positions[best] += 1

        # Both kernels: batched must land on the same statistics.
        for kernel in ("scalar", "batched"):
            heap_run = run_workload(
                build_system(config.with_(kernel=kernel)), workload)
            assert heap_run.stats.as_dict() == reference.stats.as_dict()


class TestRunMany:
    def test_serial_matches_individual_runs(self):
        specs = fig17_style_specs()
        expected = [run_workload(build_system(config), workload).stats
                    for config, workload in specs]
        results = run_many(specs, jobs=1, cache=None)
        assert [r.workload for r in results] == [w.name for _, w in specs]
        assert stats_dicts(results) == [s.as_dict() for s in expected]

    def test_parallel_bit_identical_to_serial(self):
        specs = fig17_style_specs()
        serial = run_many(specs, jobs=1, cache=None)
        parallel = run_many(specs, jobs=4, cache=None)
        assert stats_dicts(parallel) == stats_dicts(serial)
        assert ([r.workload for r in parallel]
                == [r.workload for r in serial])

    def test_parallel_results_are_detached(self):
        results = run_many(fig17_style_specs()[:2], jobs=4, cache=None)
        assert all(result.system is None for result in results)

    def test_speedups_identical_serial_vs_parallel(self):
        """A fig17-style speedup table is unchanged by parallelism."""
        specs = fig17_style_specs()
        n_workloads = 2

        def speedups(results):
            base = results[:n_workloads]
            return [base[i % n_workloads].cycles / results[i].cycles
                    for i in range(n_workloads, len(results))]

        assert (speedups(run_many(specs, jobs=4, cache=None))
                == speedups(run_many(specs, jobs=1, cache=None)))

    def test_duplicate_specs_run_once(self):
        config = tiny_config()
        workload = small_workload()
        cache = ResultCache()
        first, second = run_many([(config, workload)] * 2, jobs=1,
                                 cache=cache)
        assert len(cache) == 1             # one execution, one alias
        assert not first.cached and second.cached
        assert second.stats.as_dict() == first.stats.as_dict()


class TestResultCache:
    def test_second_batch_is_served_from_cache(self):
        specs = fig17_style_specs()[:4]
        cache = ResultCache()
        fresh = run_many(specs, jobs=1, cache=cache)
        cached = run_many(specs, jobs=1, cache=cache)
        assert all(not r.cached for r in fresh)
        assert all(r.cached for r in cached)
        assert stats_dicts(cached) == stats_dicts(fresh)

    def test_session_cache_shared_across_batches(self):
        spec = (tiny_config(), small_workload())
        assert not run_many([spec], jobs=1)[0].cached
        assert run_many([spec], jobs=1)[0].cached
        assert len(session_cache()) == 1

    def test_disk_cache_survives_new_instance(self, tmp_path):
        config, workload = tiny_config(), small_workload()
        key = run_key(config, workload)
        writer = ResultCache(tmp_path)
        run_many([(config, workload)], jobs=1, cache=writer)
        reader = ResultCache(tmp_path)
        hit = reader.get(key)
        assert hit is not None and hit.cached
        fresh = run_workload(build_system(config), workload)
        assert hit.stats.as_dict() == fresh.stats.as_dict()

    @pytest.mark.parametrize("garbage", [
        b"not a pickle",      # UnpicklingError
        b"garbage\n",         # ValueError ('g' opcode parses an int line)
        b"",                  # EOFError
    ])
    def test_corrupt_disk_entry_recomputed(self, tmp_path, garbage):
        config, workload = tiny_config(), small_workload()
        key = run_key(config, workload)
        (tmp_path / f"{key}.pkl").write_bytes(garbage)
        cache = ResultCache(tmp_path)
        assert cache.get(key) is None
        result = run_many([(config, workload)], jobs=1, cache=cache)[0]
        assert not result.cached

    def _damaged_entry_recomputes_identically(self, tmp_path, damage):
        """Write a real cache entry, damage it, assert the re-read misses
        and the recomputation matches an uncached run bit-for-bit."""
        config, workload = tiny_config(), small_workload()
        key = run_key(config, workload)
        expected = run_workload(build_system(config),
                                workload).stats.as_dict()
        writer = ResultCache(tmp_path)
        run_many([(config, workload)], jobs=1, cache=writer)
        path = tmp_path / f"{key}.pkl"
        path.write_bytes(damage(path.read_bytes()))
        cache = ResultCache(tmp_path)
        assert cache.get(key) is None
        result = run_many([(config, workload)], jobs=1, cache=cache)[0]
        assert not result.cached
        assert result.stats.as_dict() == expected
        # The recomputation republished a good entry: next read hits.
        assert ResultCache(tmp_path).get(key) is not None

    def test_truncated_disk_entry_recomputed_identically(self, tmp_path):
        """A torn write (interrupted process) must behave as a miss."""
        self._damaged_entry_recomputes_identically(
            tmp_path, lambda blob: blob[:len(blob) // 2])

    def test_bitflipped_disk_entry_recomputed_identically(self, tmp_path):
        """Bit rot in the pickle header must behave as a miss.

        Byte 1 is the pickle protocol number; flipping its bits makes
        every load raise "unsupported pickle protocol" deterministically.
        """
        self._damaged_entry_recomputes_identically(
            tmp_path,
            lambda blob: bytes([blob[0], blob[1] ^ 0xFF]) + blob[2:])

    def test_wrong_object_disk_entry_recomputed(self, tmp_path):
        """A pickle that decodes to a non-RunResult is treated as a miss."""
        import pickle
        config, workload = tiny_config(), small_workload()
        key = run_key(config, workload)
        (tmp_path / f"{key}.pkl").write_bytes(
            pickle.dumps({"not": "a RunResult"}))
        cache = ResultCache(tmp_path)
        assert cache.get(key) is None
        assert not run_many([(config, workload)], jobs=1,
                            cache=cache)[0].cached

    def test_repro_store_is_refused(self, tmp_path, monkeypatch):
        # REPRO_STORE was an alias of REPRO_CACHE_DIR that won over it;
        # any value, a directory or the old sqlite: spelling, is now an
        # error that names the variable to use instead.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "local"))
        for value in (str(tmp_path / "shared"),
                      f"sqlite:{tmp_path / 'x.db'}"):
            monkeypatch.setenv("REPRO_STORE", value)
            reset_session_cache()
            with pytest.raises(ConfigError, match="REPRO_CACHE_DIR"):
                session_cache()
        monkeypatch.delenv("REPRO_STORE")
        assert session_cache().directory == tmp_path / "local"
        assert not (tmp_path / "shared").exists()


def one_result(workload=None):
    """(key, detached result) of one small run."""
    config, workload = tiny_config(), workload or small_workload()
    return (run_key(config, workload),
            run_workload(build_system(config), workload).detached())


class TestDiskTier:
    def test_put_publishes_one_pkl_and_no_temp_file(self, tmp_path):
        key, result = one_result()
        ResultCache(tmp_path).put(key, result)
        assert [path.name for path in tmp_path.iterdir()] == [f"{key}.pkl"]

    def test_hand_written_entry_is_served(self, tmp_path):
        # The on-disk format is a plain pickle of the detached result
        # under <key>.pkl: directories written by earlier versions hit.
        key, result = one_result()
        (tmp_path / f"{key}.pkl").write_bytes(
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
        hit = ResultCache(tmp_path).get(key)
        assert hit is not None and hit.cached
        assert hit.stats.as_dict() == result.stats.as_dict()

    def test_directories_are_made_on_first_put(self, tmp_path):
        key, result = one_result()
        cache = ResultCache(tmp_path / "a" / "b")
        assert cache.get(key) is None
        assert not (tmp_path / "a").exists()    # a read creates nothing
        cache.put(key, result)
        assert (tmp_path / "a" / "b" / f"{key}.pkl").is_file()

    def test_put_replaces_an_existing_entry(self, tmp_path):
        key, first = one_result()
        _other_key, second = one_result(small_workload("canneal"))
        ResultCache(tmp_path).put(key, first)
        ResultCache(tmp_path).put(key, second)
        hit = ResultCache(tmp_path).get(key)
        assert hit.stats.as_dict() == second.stats.as_dict()
        assert hit.stats.as_dict() != first.stats.as_dict()

    def test_failed_rename_leaves_no_temp_file(self, tmp_path,
                                               monkeypatch):
        key, result = one_result()
        cache = ResultCache(tmp_path)

        def refuse(_source, _target):
            raise OSError("rename refused")

        monkeypatch.setattr("repro.harness.result_cache.os.replace",
                            refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cache.put(key, result)
        assert cache.dropped_puts == 1
        assert list(tmp_path.iterdir()) == []
        assert cache.get(key) is not None       # memory still serves

    def test_unreadable_entry_is_a_miss(self, tmp_path):
        key, _result = one_result()
        (tmp_path / f"{key}.pkl").mkdir()       # read_bytes raises
        cache = ResultCache(tmp_path)
        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_disk_hit_is_memoized(self, tmp_path):
        key, result = one_result()
        ResultCache(tmp_path).put(key, result)
        reader = ResultCache(tmp_path)
        assert reader.get(key) is not None
        (tmp_path / f"{key}.pkl").unlink()
        assert reader.get(key) is not None
        assert (reader.hits, reader.misses, len(reader)) == (2, 0, 1)

    def test_clear_forgets_memory_not_disk(self, tmp_path):
        key, result = one_result()
        cache = ResultCache(tmp_path)
        cache.put(key, result)
        cache.get(key)
        cache.clear()
        assert (len(cache), cache.hits, cache.misses) == (0, 0, 0)
        assert cache.get(key) is not None
        assert cache.hits == 1

    def test_memory_only_cache_writes_nothing(self, tmp_path,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        key, result = one_result()
        cache = ResultCache()
        cache.put(key, result)
        assert cache.get(key) is not None
        assert list(tmp_path.iterdir()) == []


class TestSessionCache:
    def test_no_environment_means_memory_only(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert session_cache().directory is None

    def test_blank_repro_store_falls_back_to_cache_dir(self, tmp_path,
                                                       monkeypatch):
        # A blank value of the retired REPRO_STORE counts as unset.
        for blank in ("", "  "):
            monkeypatch.setenv("REPRO_STORE", blank)
            monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
            assert session_cache().directory == tmp_path
            monkeypatch.delenv("REPRO_CACHE_DIR")
            assert session_cache().directory is None

    def test_reused_until_the_environment_changes(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "one"))
        first = session_cache()
        assert session_cache() is first
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "two"))
        second = session_cache()
        assert second is not first
        assert second.directory == tmp_path / "two"


class TestRunKey:
    def test_key_is_content_addressed(self):
        config = tiny_config()
        assert (run_key(config, small_workload(seed=3))
                == run_key(config, small_workload(seed=3)))

    def test_key_ignores_workload_name(self):
        config = tiny_config()
        renamed = small_workload()
        renamed = Workload("other-label", renamed.traces)
        assert run_key(config, small_workload()) == run_key(config,
                                                            renamed)

    def test_key_changes_with_inputs(self):
        config = tiny_config()
        workload = small_workload()
        baseline = run_key(config, workload)
        assert run_key(config, small_workload(seed=4)) != baseline
        assert run_key(config, small_workload(accesses=300)) != baseline
        assert run_key(zerodev_config(), workload) != baseline
        assert run_key(
            config.with_(directory=DirectoryConfig(ratio=0.5)),
            workload) != baseline


class TestRunResult:
    def test_detached_drops_live_system(self):
        run = run_workload(build_system(tiny_config()), small_workload())
        assert run.system is not None and run.wall_seconds > 0
        detached = run.detached()
        assert detached.system is None
        assert detached.stats is run.stats
        assert detached.wall_seconds == run.wall_seconds
