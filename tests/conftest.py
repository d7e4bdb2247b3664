"""Shared fixtures and helpers for the test-suite.

``tiny_config`` builds a deliberately small socket (4 cores, 2-way L1s,
4-way L2s, a 4-way 128-block LLC over 2 banks, 1x directory) so targeted
scenarios can force conflicts, evictions, spills, and memory housing with
a handful of accesses.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import pytest

from repro.common.addressing import BLOCK_SHIFT
from repro.common.config import (CacheGeometry, DirCachingPolicy,
                                 DirectoryConfig, LLCDesign, LLCReplacement,
                                 Protocol, SystemConfig)
from repro.coherence.protocol import CMPSystem
from repro.harness.system_builder import build_system
from repro.workloads.trace import Op


def tiny_config(**overrides) -> SystemConfig:
    """A 4-core socket small enough to stress every structure quickly."""
    base = dict(
        n_cores=4,
        l1i=CacheGeometry(512, 2),       # 8 blocks, 4 sets
        l1d=CacheGeometry(512, 2),
        l2=CacheGeometry(2048, 4),       # 32 blocks, 8 sets
        llc=CacheGeometry(8192, 4),      # 128 blocks, 32 sets
        llc_banks=2,
    )
    base.update(overrides)
    return SystemConfig(**base)


def zerodev_config(**overrides) -> SystemConfig:
    """Tiny ZeroDEV socket with no sparse directory, FPSS + dataLRU."""
    defaults = dict(
        protocol=Protocol.ZERODEV,
        directory=DirectoryConfig(ratio=None),
        llc_replacement=LLCReplacement.DATA_LRU,
        dir_caching=DirCachingPolicy.FPSS,
    )
    defaults.update(overrides)
    return tiny_config(**defaults)


OPS = {"R": Op.READ, "W": Op.WRITE, "I": Op.IFETCH}


def drive(system: CMPSystem,
          script: Iterable[Tuple[int, str, int]]) -> List[int]:
    """Run (core, op-letter, block-number) steps; returns latencies."""
    latencies = []
    for core, op, block in script:
        latencies.append(system.access(core, OPS[op],
                                       block << BLOCK_SHIFT))
    system.check_invariants()
    return latencies


@pytest.fixture
def baseline():
    return build_system(tiny_config())


@pytest.fixture
def zerodev():
    return build_system(zerodev_config())


def block_in_bank_set(config: SystemConfig, bank: int, set_idx: int,
                      tag: int) -> int:
    """Construct a block number mapping to (bank, set) with ``tag``."""
    bank_bits = config.llc_banks.bit_length() - 1
    set_bits = config.llc_bank_sets.bit_length() - 1
    return (tag << (bank_bits + set_bits)) | (set_idx << bank_bits) | bank


def assert_self_contained(html: str) -> None:
    """No URL, script, stylesheet link or import: a rendered report
    shows the same offline as anywhere else."""
    lowered = html.lower()
    for needle in ("http://", "https://", "<script", "<link", "@import"):
        assert needle not in lowered, needle
