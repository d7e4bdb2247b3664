"""Harness throughput benchmark: serial vs parallel vs cached.

Runs a fixed fig17-style batch (baseline + three ZeroDEV policies over
two workloads) three ways -- in process, on fork workers,
and again from the warm result cache -- asserting the stats are
bit-identical, and appends the timings to ``results/BENCH_harness.json``.
That file is a *trajectory*: one entry per recorded run, so harness
performance over the repo's history stays inspectable. Parallel is not
asserted to be faster (CI may have a single CPU); the cached pass is
asserted to be near-instant since it performs no simulation.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from time import perf_counter

from repro.common.config import (CacheGeometry, DirCachingPolicy,
                                 DirectoryConfig, LLCReplacement,
                                 Protocol, SystemConfig)
from repro.common.ioutil import atomic_write_text
from repro.harness.parallel import run_many
from repro.harness.result_cache import ResultCache
from repro.workloads import make_multithreaded
from repro.workloads.suites import find_profile

BENCH_PATH = Path(__file__).resolve().parent.parent / "results" / \
    "BENCH_harness.json"
MAX_HISTORY = 50


def _bench_config(**overrides) -> SystemConfig:
    base = dict(
        n_cores=8,
        l1i=CacheGeometry(2048, 2), l1d=CacheGeometry(2048, 2),
        l2=CacheGeometry(8192, 4), llc=CacheGeometry(65536, 8),
        llc_banks=4,
    )
    base.update(overrides)
    return SystemConfig(**base)


def _zerodev(policy: DirCachingPolicy) -> SystemConfig:
    return _bench_config(
        protocol=Protocol.ZERODEV, directory=DirectoryConfig(ratio=None),
        llc_replacement=LLCReplacement.DATA_LRU, dir_caching=policy)


def _specs(accesses: int):
    base = _bench_config()
    configs = [base] + [_zerodev(policy) for policy in
                        (DirCachingPolicy.SPILL_ALL, DirCachingPolicy.FPSS,
                         DirCachingPolicy.FUSE_ALL)]
    workloads = [make_multithreaded(find_profile(name), base, accesses,
                                    seed=7)
                 for name in ("blackscholes", "canneal")]
    return [(config, workload) for config in configs
            for workload in workloads]


def _stats(results):
    return [result.stats.as_dict() for result in results]


def measure(accesses: int = 4000, jobs: int = 4, path=None) -> dict:
    """Time the three execution paths over one batch; returns the entry
    appended to ``path`` (None: don't write)."""
    specs = _specs(accesses)
    total_accesses = sum(w.total_accesses for _, w in specs)

    started = perf_counter()
    serial = run_many(specs, jobs=1, cache=None)
    serial_seconds = perf_counter() - started

    started = perf_counter()
    parallel = run_many(specs, jobs=jobs, cache=None)
    parallel_seconds = perf_counter() - started

    cache = ResultCache()
    run_many(specs, jobs=1, cache=cache)
    started = perf_counter()
    cached = run_many(specs, jobs=1, cache=cache)
    cached_seconds = perf_counter() - started

    assert _stats(parallel) == _stats(serial), \
        "parallel run diverged from serial"
    assert _stats(cached) == _stats(serial), \
        "cached run diverged from fresh"
    assert all(result.cached for result in cached)
    assert cached_seconds < serial_seconds

    entry = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "runs": len(specs),
        "accesses_total": total_accesses,
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "cached_seconds": round(cached_seconds, 4),
        "serial_accesses_per_second": int(total_accesses
                                          / serial_seconds),
    }
    if path is not None:
        path = Path(path)
        history = []
        if path.is_file():
            try:
                history = json.loads(path.read_text())
            except json.JSONDecodeError:
                history = []
        history.append(entry)
        path.parent.mkdir(exist_ok=True)
        atomic_write_text(path, json.dumps(history[-MAX_HISTORY:],
                                           indent=1) + "\n")
    return entry


def test_harness_throughput():
    entry = measure(path=BENCH_PATH)
    print(f"\nharness: {entry['runs']} runs, "
          f"{entry['accesses_total']:,} accesses | "
          f"serial {entry['serial_seconds']:.2f}s "
          f"({entry['serial_accesses_per_second']:,}/s), "
          f"parallel(j{entry['jobs']}) {entry['parallel_seconds']:.2f}s, "
          f"cached {entry['cached_seconds']:.3f}s")
