#!/usr/bin/env python
"""Bounded-exhaustive verification of the ZeroDEV protocol.

Reaches EVERY state that four memory accesses can produce (two cores,
reads and writes, three conflict-chosen blocks) on a micro
configuration with a deliberately cramped LLC, checking after every
single step: SWMR, directory precision, entry-location exclusivity, the
FPSS invariants, case-(iiib) unreachability, data correctness, and the
zero-DEV guarantee.

This is the style of validation Section III-D6 alludes to ("generating
the rule-sets governing this protocol case and the related invariants
requires careful consideration") -- here the implementation is the
rule-set and the explorer is the checker.

Run:  python examples/exhaustive_verification.py
"""

import time

from repro.coherence.exhaustive import ExhaustiveExplorer
from repro.common.config import (CacheGeometry, DirCachingPolicy,
                                 DirectoryConfig, LLCReplacement, Protocol,
                                 SystemConfig)


def micro_zerodev(policy: DirCachingPolicy) -> SystemConfig:
    return SystemConfig(
        n_cores=2,
        l1i=CacheGeometry(256, 2), l1d=CacheGeometry(256, 2),
        l2=CacheGeometry(512, 2),
        llc=CacheGeometry(1024, 2),          # 16 frames: heavy conflict
        llc_banks=2,
        protocol=Protocol.ZERODEV,
        directory=DirectoryConfig(ratio=None),
        llc_replacement=LLCReplacement.DATA_LRU,
        dir_caching=policy)


def no_devs(system):
    assert system.stats.dev_invalidations == 0, "DEV under ZeroDEV!"


def main() -> None:
    for policy in DirCachingPolicy:
        explorer = ExhaustiveExplorer(
            lambda policy=policy: micro_zerodev(policy),
            cores=(0, 1), blocks=(0, 8, 1), extra_check=no_devs)
        start = time.time()
        report = explorer.explore_memoized(depth=4)
        elapsed = time.time() - start
        status = "OK" if report.ok else f"FAILED: "\
            f"{report.counterexample}"
        print(f"{policy.name:>10}: {report.unique_states:,} unique "
              f"states, {report.transitions:,} transitions checked "
              f"in {elapsed:.1f}s -> {status}")
        assert report.ok
    print("\nEvery reachable state up to the depth bound satisfies all "
          "protocol invariants, for all three caching policies.")


if __name__ == "__main__":
    main()
