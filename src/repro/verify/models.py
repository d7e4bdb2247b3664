"""The differential model matrix.

Every model runs the *same* trace on the *same* micro geometry (two ways
everywhere, a 16-block LLC over two banks) so that conflict pressure --
the regime where WB_DE/GET_DE, spLRU/dataLRU ordering, and fuse/spill
transitions actually fire -- is reached within a few dozen accesses.

The matrix pits the paper's designs against each other:

* the 1x sparse-directory baseline (the ground truth MESI CMP),
* an *undersized* baseline (DEV storms -- values must still be right),
* SecDir and MgD (the related-work directory organisations),
* ZeroDEV under all three directory-caching policies, both replacement
  policies, and all three LLC designs,
* two-socket compositions (baseline and ZeroDEV, both directory-cache
  eviction solutions) where WB_DE escalates to the socket level and the
  corrupted-block machinery engages.

The equivalence claim checked downstream is behavioural, not timing:
identical load values (via the shared shadow oracle) and identical final
memory, for every model, on every trace.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.config import (CacheGeometry, DirCachingPolicy,
                                 DirectoryConfig, LLCDesign, LLCReplacement,
                                 Protocol, SystemConfig)

#: Cores the fuzz traces address; models with two sockets split them.
TRACE_CORES = 4


def micro_config(**overrides) -> SystemConfig:
    """The shared micro geometry of the fuzz and modelcheck models."""
    base = dict(
        n_cores=TRACE_CORES,
        l1i=CacheGeometry(256, 2),      # 4 blocks
        l1d=CacheGeometry(256, 2),
        l2=CacheGeometry(512, 2),       # 8 blocks
        llc=CacheGeometry(1024, 2),     # 16 blocks over 2 banks
        llc_banks=2,
        directory=DirectoryConfig(ratio=1.0),
    )
    base.update(overrides)
    return SystemConfig(**base)


def zerodev_config(**overrides) -> SystemConfig:
    defaults = dict(
        protocol=Protocol.ZERODEV,
        directory=DirectoryConfig(ratio=None),
        llc_replacement=LLCReplacement.DATA_LRU,
    )
    defaults.update(overrides)
    return micro_config(**defaults)


@dataclass(frozen=True)
class ModelSpec:
    """One model under differential test."""

    name: str
    config: SystemConfig
    n_sockets: int = 1
    #: Socket-level directory-cache capacity (multi-socket only); kept
    #: tiny so socket entries get evicted and Section III-D5 solutions
    #: actually run.
    dir_cache_blocks: int = 4
    dir_solution: int = 1

    @property
    def is_zerodev(self) -> bool:
        return self.config.protocol is Protocol.ZERODEV

    def map_core(self, trace_core: int) -> Tuple[int, int]:
        """Trace core -> (socket, local core).

        Interleaved (``socket = core % n_sockets``) so the migratory
        pattern's core walk crosses the socket boundary every step.
        """
        if self.n_sockets == 1:
            return 0, trace_core
        return (trace_core % self.n_sockets,
                trace_core // self.n_sockets)

    def build(self):
        """A fresh system for this spec (one per trace run)."""
        if self.n_sockets == 1:
            from repro.harness.system_builder import build_system
            return build_system(self.config)
        from repro.multisocket.system import MultiSocketSystem
        return MultiSocketSystem(self.config, n_sockets=self.n_sockets,
                                 dir_cache_blocks=self.dir_cache_blocks,
                                 dir_solution=self.dir_solution)


def model_matrix() -> List[ModelSpec]:
    """Every model, baseline first (it anchors the differential)."""
    models = [
        ModelSpec("baseline-1x", micro_config()),
        ModelSpec("baseline-quarter",
                  micro_config(directory=DirectoryConfig(ratio=0.25))),
        ModelSpec("secdir", micro_config(protocol=Protocol.SECDIR)),
        ModelSpec("mgd", micro_config(protocol=Protocol.MGD)),
        # Contender models (ROADMAP): the "no directory at all" pole and
        # the update-on-shared-write protocol.
        ModelSpec("dls", micro_config(
            protocol=Protocol.DLS,
            directory=DirectoryConfig(ratio=None),
            llc_design=LLCDesign.INCLUSIVE)),
        ModelSpec("hybrid", micro_config(protocol=Protocol.HYBRID)),
    ]
    for policy in DirCachingPolicy:
        models.append(ModelSpec(
            f"zerodev-{policy.value}", zerodev_config(dir_caching=policy)))
    for design in (LLCDesign.EPD, LLCDesign.INCLUSIVE):
        models.append(ModelSpec(
            f"zerodev-fpss-{design.value}",
            zerodev_config(llc_design=design)))
    for policy in (DirCachingPolicy.FPSS, DirCachingPolicy.SPILL_ALL):
        models.append(ModelSpec(
            f"zerodev-{policy.value}-splru",
            zerodev_config(dir_caching=policy,
                           llc_replacement=LLCReplacement.SP_LRU)))
    # Two-socket compositions (the layer supports baseline and ZeroDEV).
    half = dict(n_cores=TRACE_CORES // 2)
    models.append(ModelSpec("baseline-2socket", micro_config(**half),
                            n_sockets=2))
    for solution in (1, 2):
        models.append(ModelSpec(
            f"zerodev-2socket-sol{solution}", zerodev_config(**half),
            n_sockets=2, dir_solution=solution))
    return models


@functools.lru_cache(maxsize=1)
def _specs_by_name() -> Dict[str, ModelSpec]:
    """Memoized name -> spec table.

    The CLI, shrinking and the mutation gate resolve models by name;
    rebuilding every config on each lookup is pure waste (the matrix is
    immutable: ModelSpec and SystemConfig are frozen dataclasses).
    """
    return {m.name: m for m in model_matrix()}


def model_by_name(name: str) -> ModelSpec:
    by_name = _specs_by_name()
    try:
        return by_name[name]
    except KeyError:
        from repro.common.errors import ConfigError
        known = ", ".join(sorted(by_name))
        raise ConfigError(
            f"unknown model {name!r}; known models: {known}") from None
