#!/usr/bin/env python
"""CI smoke: jobs=1, jobs=2 and kernel=scalar agree.

Runs a small fig17-style batch (baseline + ZeroDEV over two workloads)
in process and on two fork workers, with caching disabled so
both paths actually simulate, and fails loudly on the first divergent
stat. The same batch is then re-run under the scalar access kernel
(``kernel="scalar"``), which must be bit-identical to the default
batched kernel (the repro.kernel contract). The scalar leg also runs
two specs where the figures run -- ``default_config()`` plus
``workload_for`` at seed 11, one Base-1/32x and one ZDev-NoDir -- so the
contract is asserted in the regime it claims to cover, not only on the
small batch. The simulator is deterministic, so any difference is a
harness or kernel bug (scheduling, pickling, result-ordering, or
run-ahead retirement), not noise.
"""

from __future__ import annotations

import sys

from repro.common.config import (CacheGeometry, DirCachingPolicy,
                                 DirectoryConfig, LLCReplacement,
                                 Protocol, SystemConfig)
from repro.harness import experiments
from repro.harness.parallel import run_many
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


def as_scalar(specs):
    return [(config.with_(kernel="scalar"), workload)
            for config, workload in specs]


def diverged(label: str, reference, other) -> bool:
    """Print the first divergent run of ``other`` and return True."""
    for index, (a, b) in enumerate(zip(reference, other)):
        left, right = vars(a.stats), vars(b.stats)
        if left != right:
            print(f"FAIL: spec {index} ({a.workload}) diverged "
                  f"between jobs=1 and {label}", file=sys.stderr)
            for key in left:
                if left[key] != right.get(key):
                    print(f"  {key}: serial={left[key]} "
                          f"{label}={right.get(key)}", file=sys.stderr)
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
    figure = figure_specs()

    serial = run_many(specs, jobs=1, cache=None)
    parallel = run_many(specs, jobs=2, cache=None)
    scalar = run_many(as_scalar(specs), jobs=1, cache=None)
    figure_batched = run_many(figure, jobs=1, cache=None)
    figure_scalar = run_many(as_scalar(figure), jobs=1, cache=None)

    if (diverged("jobs=2", serial, parallel)
            or diverged("kernel=scalar", serial, scalar)
            or diverged("kernel=scalar at figure scale", figure_batched,
                        figure_scalar)):
        return 1
    print(f"OK: {len(specs)} runs bit-identical between jobs=1, "
          f"jobs=2, and the scalar kernel; {len(figure)} figure-scale "
          f"runs bit-identical between the batched and scalar kernels")
    return 0


if __name__ == "__main__":
    sys.exit(main())
