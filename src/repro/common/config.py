"""System configuration dataclasses.

:func:`table1_socket` encodes Table I of the paper (one 8-core socket with
32 KB L1s, a 256 KB L2 per core, an 8 MB 16-way 8-bank LLC, an 8-way NRU
sparse directory, a 2D mesh, and DDR3-2133 memory). Because a pure-Python
run of paper-sized structures over full traces is impractically slow,
:func:`scaled_socket` shrinks every capacity by a common factor while
preserving associativities and all capacity *ratios* (the 4:1 LLC-to-
aggregate-L2 ratio and the R-times directory sizing that the paper's
analysis rests on).
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.common.addressing import BLOCK_BYTES
from repro.common.errors import ConfigError


def _is_pow2(value: int) -> bool:
    return value > 0 and not value & (value - 1)


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one set-associative cache array."""

    size_bytes: int
    ways: int
    block_bytes: int = BLOCK_BYTES

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.block_bytes):
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible by "
                f"{self.ways} ways x {self.block_bytes}B blocks")
        if not _is_pow2(self.sets):
            raise ConfigError(f"set count {self.sets} is not a power of two")

    @property
    def blocks(self) -> int:
        """Total number of block frames in the array."""
        return self.size_bytes // self.block_bytes

    @property
    def sets(self) -> int:
        return self.blocks // self.ways


#: Access-kernel identifiers: ``scalar`` (the default) issues every
#: access through ``CMPSystem.access``, which retires private hits
#: itself; ``batched`` (:mod:`repro.kernel`) pre-classifies private
#: hits and retires them in bulk under a bit-identity contract against
#: ``scalar``, enforced by ``repro verify --kernel-diff``.
#: ``REPRO_KERNEL=batched`` selects it at run time.
KERNELS = ("batched", "scalar")
KERNEL_ENV = "REPRO_KERNEL"


def resolve_kernel(config: "SystemConfig") -> str:
    """The kernel a run of ``config`` will use: env override, else the
    config field. Raises :class:`ConfigError` on unknown names."""
    env = os.environ.get(KERNEL_ENV)
    if env:
        if env not in KERNELS:
            raise ConfigError(
                f"{KERNEL_ENV}={env!r} is not a kernel; choose one of "
                f"{', '.join(KERNELS)}")
        return env
    return config.kernel


class LLCDesign(enum.Enum):
    """The three LLC designs the paper evaluates (Sections III-A, E, F)."""

    NON_INCLUSIVE = "non-inclusive"   # baseline: demand fills allocate in LLC
    EPD = "epd"                       # exclusive private data (Magny-Cours)
    INCLUSIVE = "inclusive"


class Protocol(enum.Enum):
    """Which coherence scheme drives the uncore."""

    BASELINE = "baseline"             # sized sparse directory, NRU, DEVs
    ZERODEV = "zerodev"               # the paper's contribution
    SECDIR = "secdir"                 # Yan et al., ISCA 2019
    MGD = "mgd"                       # Multi-grain Directory, MICRO 2013
    DLS = "dls"                       # directoryless shared LLC (1206.4753)
    HYBRID = "hybrid"                 # update/invalidate hybrid (1502.00101)


class DirCachingPolicy(enum.Enum):
    """ZeroDEV directory-entry caching policies (Section III-C)."""

    SPILL_ALL = "spill-all"
    FPSS = "fuse-private-spill-shared"
    FUSE_ALL = "fuse-all"


class LLCReplacement(enum.Enum):
    """LLC replacement policies (baseline LRU and Section III-D1)."""

    LRU = "lru"
    SP_LRU = "spLRU"                  # promote spilled entries above blocks
    DATA_LRU = "dataLRU"              # data blocks evicted before any entry


@dataclass(frozen=True)
class DirectoryConfig:
    """Sparse-directory provisioning.

    ``ratio`` is the paper's R: directory entries as a multiple of the
    aggregate private-L2 block count. ``ratio=None`` means *no* sparse
    directory structure at all (legal only for ZeroDEV); ``unbounded=True``
    means an unlimited-capacity directory (the Figure 2/3 reference).
    """

    ratio: Optional[float] = 1.0
    ways: int = 8
    unbounded: bool = False
    #: Ablation knob: run ZeroDEV with a replacement-*enabled* sparse
    #: directory -- a victim entry is relocated to the LLC instead of
    #: being invalidated. Section III-C4 argues the replacement-disabled
    #: design is strictly better (one structure disturbed per entry).
    zerodev_replacement_enabled: bool = False

    @property
    def present(self) -> bool:
        return self.ratio is not None or self.unbounded

    def entries_for(self, aggregate_l2_blocks: int) -> int:
        """Number of directory entries given the private-cache capacity."""
        if not self.present or self.unbounded:
            return 0
        assert self.ratio is not None
        entries = int(round(self.ratio * aggregate_l2_blocks))
        # Round to a power-of-two set count at the configured associativity.
        sets = max(1, entries // self.ways)
        sets = 2 ** max(0, round(math.log2(sets)))
        return sets * self.ways


@dataclass(frozen=True)
class LatencyConfig:
    """Fixed access latencies, in core cycles at 4 GHz (Table I + CACTI)."""

    l1_hit: int = 3
    l2_hit: int = 12
    llc_tag: int = 3
    llc_data: int = 4
    mesh_hop: int = 2                 # 1-cycle routing + 1-cycle link
    queueing: int = 4                 # interface-queue cost per uncore trip
    socket_link: int = 80             # 20 ns inter-socket routing at 4 GHz
    store_visibility_fraction: float = 0.3
    # Stores retire through a store buffer; only this fraction of their
    # memory latency is exposed to the core's critical path.
    load_visibility_fraction: float = 0.7
    # The 224-entry OOO core (Table I) overlaps independent work with
    # outstanding loads; this fraction of the uncore latency reaches the
    # critical path (a simple MLP model for the trace-driven substrate).
    compute_per_access: int = 6
    # Non-memory work between consecutive memory references (the paper's
    # cores retire several ALU/control instructions per access).


@dataclass(frozen=True)
class DramConfig:
    """DDR3-2133-flavoured main memory (DRAMSim2 substitute)."""

    channels: int = 2
    banks_per_channel: int = 8
    row_bytes: int = 1024
    row_hit_cycles: int = 100         # core cycles incl. controller queueing
    row_miss_cycles: int = 160        # precharge + activate + CAS


@dataclass(frozen=True)
class MeshConfig:
    """2D mesh carrying cores and LLC banks (Table I)."""

    width: int = 4
    height: int = 4


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated system: ``n_sockets``
    identical sockets of ``n_cores`` cores each (one socket by
    default), behind the socket-level coherence layer of
    :mod:`repro.multisocket` when there is more than one."""

    n_cores: int = 8
    l1i: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(32 * 1024, 8))
    l1d: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(32 * 1024, 8))
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(256 * 1024, 8))
    llc: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(8 * 1024 * 1024, 16))
    llc_banks: int = 8
    llc_design: LLCDesign = LLCDesign.NON_INCLUSIVE
    llc_replacement: LLCReplacement = LLCReplacement.LRU
    directory: DirectoryConfig = field(default_factory=DirectoryConfig)
    protocol: Protocol = Protocol.BASELINE
    dir_caching: DirCachingPolicy = DirCachingPolicy.FPSS
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    mesh: MeshConfig = field(default_factory=MeshConfig)
    # SecDir partitioning knobs (Section V, "Comparison to Related Work").
    secdir_private_ways: int = 7
    secdir_shared_ways: int = 5
    # Multi-grain Directory region size in blocks (1 KB regions).
    mgd_region_blocks: int = 16
    # Multi-socket composition (Section III-D): the socket count, how
    # socket-level directory entries survive directory-cache eviction
    # (Section III-D5: 1 = the directory backed in home memory, 2 = the
    # evicted entry housed in its block with a DirEvict bit), and the
    # socket-level directory cache's capacity in blocks.
    n_sockets: int = 1
    socket_dir_solution: int = 1
    socket_dir_cache_blocks: int = 4096
    #: Access kernel driving the runner hot path: ``scalar`` or
    #: ``batched`` (``repro.kernel``), bit-identical by contract
    #: (``repro verify --kernel-diff``); the field
    #: participates in result-cache keys so cached results never mix
    #: kernels.
    kernel: str = "scalar"

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ConfigError("n_cores must be positive")
        if self.n_sockets <= 0:
            raise ConfigError("n_sockets must be positive")
        if self.socket_dir_solution not in (1, 2):
            raise ConfigError("socket_dir_solution must be 1 or 2")
        if self.socket_dir_cache_blocks <= 0:
            raise ConfigError("socket_dir_cache_blocks must be positive")
        if self.n_sockets > 1:
            self._check_sockets()
        if self.kernel not in KERNELS:
            raise ConfigError(
                f"kernel must be one of {', '.join(KERNELS)}, "
                f"not {self.kernel!r}")
        if not _is_pow2(self.llc_banks):
            raise ConfigError("llc_banks must be a power of two")
        if self.llc.blocks % self.llc_banks:
            raise ConfigError("LLC blocks must divide evenly across banks")
        if not self.directory.present and self.protocol not in (
                Protocol.ZERODEV, Protocol.DLS):
            raise ConfigError(
                f"{self.protocol.value} requires a sparse directory; only "
                "ZeroDEV and DLS can run with no directory structure at all")
        if (self.protocol is Protocol.ZERODEV
                and self.llc_replacement is LLCReplacement.LRU):
            # Plain LRU cannot guarantee a block is evicted before its
            # spilled entry, breaking the Section III-D2 invariant.
            raise ConfigError(
                "ZeroDEV requires spLRU or dataLRU (Section III-D1/D2)")
        if self.protocol is Protocol.DLS:
            # DLS keeps all coherence state on the shared LLC's tag array:
            # a tracked block *is* an LLC-resident line, so the LLC must be
            # inclusive, there is no separate directory structure, and the
            # spill-aware replacement policies are meaningless (nothing
            # ever spills).
            if self.directory.present:
                raise ConfigError(
                    "DLS resolves coherence at the shared LLC; configure "
                    "directory=DirectoryConfig(ratio=None)")
            if self.llc_design is not LLCDesign.INCLUSIVE:
                raise ConfigError(
                    "DLS requires an inclusive LLC (every privately cached "
                    "block must keep its LLC line, which holds the sharer "
                    "state)")
            if self.llc_replacement is not LLCReplacement.LRU:
                raise ConfigError(
                    "DLS has no spilled entries; use plain LRU replacement")

    def _check_sockets(self) -> None:
        """A multi-socket system runs baseline or ZeroDEV sockets, and a
        ZeroDEV home block must house every socket's entry segment
        (:mod:`repro.core.formats`, Section III-D5)."""
        if self.protocol not in (Protocol.BASELINE, Protocol.ZERODEV):
            raise ConfigError(
                "multi-socket evaluation supports baseline and ZeroDEV")
        if self.protocol is not Protocol.ZERODEV:
            return
        # Imported here: a module-level import cycles through
        # repro.core's package imports.
        from repro.core.formats import (max_sockets,
                                        max_sockets_with_socket_entry)
        if self.socket_dir_solution == 1:
            bound, rule = max_sockets(self.n_cores), "M(N+1) <= 512"
        else:
            bound = max_sockets_with_socket_entry(self.n_cores)
            rule = "M(N+1) + (M+2) <= 512"
        if self.n_sockets > bound:
            raise ConfigError(
                f"{self.n_sockets} ZeroDEV sockets of {self.n_cores} cores "
                f"exceed solution {self.socket_dir_solution}'s bound of "
                f"{bound} sockets per home block ({rule})")

    # ------------------------------------------------------------------
    @property
    def aggregate_l2_blocks(self) -> int:
        return self.n_cores * self.l2.blocks

    @property
    def directory_entries(self) -> int:
        return self.directory.entries_for(self.aggregate_l2_blocks)

    @property
    def directory_array_entries(self) -> int:
        """Entries of the sparse-directory array: the directory's own,
        or for an unbounded one a 1x directory's at its associativity,
        the set geometry it counts overflow against (Figure 5)."""
        directory = self.directory
        if directory.unbounded:
            directory = replace(directory, ratio=1.0, unbounded=False)
        return directory.entries_for(self.aggregate_l2_blocks)

    @property
    def llc_bank_sets(self) -> int:
        return self.llc.sets // self.llc_banks

    def with_(self, **changes) -> "SystemConfig":
        """Return a copy with ``changes`` applied (dataclasses.replace)."""
        return replace(self, **changes)


def table1_socket(**overrides) -> SystemConfig:
    """The paper's Table I socket at full size."""
    return SystemConfig(**overrides)


def scaled_socket(scale: int = 16, n_cores: int = 8,
                  **overrides) -> SystemConfig:
    """A socket with every capacity divided by ``scale``.

    Associativities, the LLC:L2 capacity ratio, bank count, and directory
    R-ratios are preserved, so conflict and capacity behaviour matches the
    full-size system on proportionally scaled working sets.
    """
    if scale < 1 or not _is_pow2(scale):
        raise ConfigError("scale must be a power of two >= 1")
    base = SystemConfig(
        n_cores=n_cores,
        l1i=CacheGeometry(max(32 * 1024 // scale, 512), 8),
        l1d=CacheGeometry(max(32 * 1024 // scale, 512), 8),
        l2=CacheGeometry(max(256 * 1024 // scale, 4096), 8),
        llc=CacheGeometry(max(8 * 1024 * 1024 // scale, 64 * 1024), 16),
    )
    return base.with_(**overrides) if overrides else base
