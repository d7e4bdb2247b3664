#!/usr/bin/env python
"""CI smoke: jobs=1, jobs=2, a cache replay and kernel=batched agree.

Runs a small fig17-style batch (baseline + ZeroDEV over two workloads,
plus a 2-socket baseline and a 2-socket ZeroDEV run of one 8-thread
workload) in process and on two fork workers, with caching disabled so
both paths actually simulate, and fails loudly on the first divergent
stat. The batch then runs twice through the session result cache, and
the second pass must replay every run from it. The same batch is then
re-run under the batched access kernel
(``kernel="batched"``), which must be bit-identical to the default
scalar kernel (the repro.kernel contract). The batched leg also runs
two specs where the figures run -- ``default_config()`` plus
``workload_for`` at seed 11, one Base-1/32x and one ZDev-NoDir -- so the
contract is asserted in the regime it claims to cover, not only on the
small batch. The simulator is deterministic, so any difference is a
harness or kernel bug (scheduling, pickling, result-ordering, or
run-ahead retirement), not noise.

Run from the repository root: ``PYTHONPATH=src python
scripts/check_parallel_determinism.py``.
"""

from __future__ import annotations

import sys

from repro.common.config import (CacheGeometry, DirCachingPolicy,
                                 DirectoryConfig, LLCReplacement,
                                 Protocol, SystemConfig)
from repro.harness import experiments
from repro.harness.parallel import run_many
from repro.harness.result_cache import reset_session_cache
from repro.workloads import make_multithreaded
from repro.workloads.suites import find_profile


def tiny(**overrides) -> SystemConfig:
    base = dict(
        n_cores=4,
        l1i=CacheGeometry(512, 2), l1d=CacheGeometry(512, 2),
        l2=CacheGeometry(2048, 4), llc=CacheGeometry(8192, 4),
        llc_banks=2,
    )
    base.update(overrides)
    return SystemConfig(**base)


def figure_specs():
    """A starved Base-1/32x run and a resident ZDev-NoDir run, built the
    way fig4/fig19 build theirs."""
    base = experiments.default_config()
    return [
        (base.with_(directory=DirectoryConfig(ratio=1 / 32)),
         experiments.workload_for(find_profile("canneal"), "PARSEC",
                                  base, seed=11)),
        (experiments.zerodev_config(base, ratio=None),
         experiments.workload_for(find_profile("blackscholes"), "PARSEC",
                                  base, seed=11)),
    ]


def as_batched(specs):
    return [(config.with_(kernel="batched"), workload)
            for config, workload in specs]


def diverged(label: str, reference, other) -> bool:
    """Print the first divergent run of ``other`` and return True."""
    for index, (a, b) in enumerate(zip(reference, other)):
        for socket, (left, right) in enumerate(zip(
                map(vars, a.socket_stats), map(vars, b.socket_stats))):
            if left != right:
                print(f"FAIL: spec {index} ({a.workload}) socket "
                      f"{socket} diverged between jobs=1 and {label}",
                      file=sys.stderr)
                for key in left:
                    if left[key] != right.get(key):
                        print(f"  {key}: serial={left[key]} "
                              f"{label}={right.get(key)}",
                              file=sys.stderr)
                return True
    return False


def main() -> int:
    zerodev = tiny(protocol=Protocol.ZERODEV,
                   directory=DirectoryConfig(ratio=None),
                   llc_replacement=LLCReplacement.DATA_LRU,
                   dir_caching=DirCachingPolicy.FPSS)
    workloads = [make_multithreaded(find_profile(name), tiny(), 600,
                                    seed=13)
                 for name in ("blackscholes", "canneal")]
    specs = [(config, workload) for config in (tiny(), zerodev)
             for workload in workloads]
    two_sockets = make_multithreaded(find_profile("canneal"),
                                     tiny(n_cores=8), 600, seed=13)
    specs += [(config.with_(n_sockets=2), two_sockets)
              for config in (tiny(), zerodev)]
    figure = figure_specs()

    serial = run_many(specs, jobs=1, cache=None)
    parallel = run_many(specs, jobs=2, cache=None)
    reset_session_cache()
    run_many(specs, jobs=2)
    replayed = run_many(specs, jobs=1)
    batched = run_many(as_batched(specs), jobs=1, cache=None)
    figure_scalar = run_many(figure, jobs=1, cache=None)
    figure_batched = run_many(as_batched(figure), jobs=1, cache=None)

    if not all(result.cached for result in replayed):
        print("FAIL: the second pass did not replay every run from the "
              "session cache", file=sys.stderr)
        return 1
    if (diverged("jobs=2", serial, parallel)
            or diverged("a session-cache replay", serial, replayed)
            or diverged("kernel=batched", serial, batched)
            or diverged("kernel=batched at figure scale", figure_scalar,
                        figure_batched)):
        return 1
    print(f"OK: {len(specs)} runs (2 of them 2-socket) bit-identical "
          f"between jobs=1, jobs=2, a session-cache replay and the "
          f"batched kernel; {len(figure)} figure-scale runs "
          f"bit-identical between the scalar and batched kernels")
    return 0


if __name__ == "__main__":
    sys.exit(main())
