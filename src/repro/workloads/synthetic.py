"""Synthetic address-stream generation with per-application profiles.

The paper's figures are driven by the *sharing structure* of the memory
streams -- working-set sizes relative to the caches, the fraction of
accesses to shared data, the sharing pattern (read-shared, migratory,
producer-consumer), write intensity, and the code footprint (code fills in
S state and is what makes SPEC-rate workloads populate the directory with
shared entries). :class:`AppProfile` captures exactly those quantities,
sized *relative to the cache geometry* so the same profile is meaningful
for the paper-scale and the runtime-scaled system alike.

Generation is vectorized with numpy and fully deterministic per
``(profile, seed, core)``.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.common.addressing import BLOCK_SHIFT
from repro.common.config import SystemConfig
from repro.workloads.trace import CoreTrace, Op

#: Blocks per OS page (4 KB pages of 64-byte blocks).
PAGE_BLOCKS_SHIFT = 6
#: Physical page-frame number width after scattering.
FRAME_BITS = 34


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 (wraps silently)."""
    z = values + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ z >> np.uint64(30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ z >> np.uint64(27)) * np.uint64(0x94D049BB133111EB)
    return z ^ z >> np.uint64(31)


def scatter_pages(blocks: np.ndarray, salt: int) -> np.ndarray:
    """Map app-local blocks to scattered physical blocks, page by page.

    Models OS physical-page allocation: virtually contiguous regions land
    on effectively random page frames, which is what spreads an
    application over cache/directory sets in a real machine. Instances
    with the same ``salt`` share a mapping (e.g. the code pages of the
    copies in a SPEC-rate workload); different salts give disjoint*
    layouts (*up to birthday collisions in a 2^34-frame space).
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    pages = (blocks >> PAGE_BLOCKS_SHIFT).astype(np.uint64)
    offsets = blocks & (1 << PAGE_BLOCKS_SHIFT) - 1
    with np.errstate(over="ignore"):
        frames = _splitmix64(pages ^ np.uint64(salt))
    frames &= np.uint64((1 << FRAME_BITS) - 1)
    return (frames.astype(np.int64) << PAGE_BLOCKS_SHIFT) | offsets


class SharingPattern(enum.Enum):
    """How the shared region of a multi-threaded application behaves."""

    READ_SHARED = "read-shared"          # read-mostly shared data
    MIGRATORY = "migratory"              # objects bounce between writers
    PRODUCER_CONSUMER = "producer-consumer"
    MIXED = "mixed"                      # half read-shared, half migratory


@dataclass(frozen=True)
class AppProfile:
    """A synthetic application, sized relative to the cache hierarchy.

    Attributes
    ----------
    ws_private_x_l2:
        Per-thread private working set as a multiple of one L2 capacity.
    ws_shared_x_llc:
        Shared-region size as a fraction of the LLC capacity.
    code_x_l1i:
        Code footprint as a multiple of one L1I capacity.
    shared_fraction:
        Fraction of *data* accesses that target the shared region.
    write_fraction:
        Store fraction among private-data accesses.
    shared_write_fraction:
        Store fraction among shared-data accesses (pattern-dependent
        defaults apply for migratory/producer-consumer).
    code_fraction:
        Instruction-fetch fraction of all accesses.
    locality:
        Probability that an access targets the hot subset of its region.
    hot_fraction:
        Size of the hot subset relative to its region.
    pattern:
        Sharing behaviour of the shared region.
    migratory_run:
        Accesses a core performs on a migratory object before it moves.
    """

    name: str
    ws_private_x_l2: float = 2.0
    ws_shared_x_llc: float = 0.05
    code_x_l1i: float = 1.0
    shared_fraction: float = 0.1
    write_fraction: float = 0.3
    shared_write_fraction: float = 0.1
    code_fraction: float = 0.25
    locality: float = 0.7
    hot_fraction: float = 0.03
    #: Size of the L2/LLC-resident warm tier relative to the region; the
    #: lever that makes an application LLC-capacity sensitive (vips,
    #: lu_ncb, 330.art, gcc.ppO2 in Figure 6).
    warm_fraction: float = 0.25
    pattern: SharingPattern = SharingPattern.READ_SHARED
    migratory_run: int = 6
    #: Optional program phases: a tuple of (weight, {field: value})
    #: pairs. The access stream is split proportionally to the weights
    #: and each segment is generated with the overridden profile fields
    #: (e.g. FFTW's compute vs transpose phases). Empty = single phase.
    phases: tuple = ()

    def with_(self, **changes) -> "AppProfile":
        return replace(self, **changes)

    def phase_profiles(self, total: int):
        """Expand ``phases`` into (accesses, profile) segments."""
        if not self.phases:
            return [(total, self)]
        weights = [weight for weight, _ in self.phases]
        scale = total / sum(weights)
        segments = []
        allocated = 0
        for index, (weight, overrides) in enumerate(self.phases):
            count = (total - allocated if index == len(self.phases) - 1
                     else int(weight * scale))
            allocated += count
            segments.append(
                (count, self.with_(phases=(), **overrides)))
        return segments


def _region_addresses(rng: np.random.Generator, count: int, size: int,
                      locality: float, hot_fraction: float,
                      warm_fraction: float = 0.25) -> np.ndarray:
    """Three-tier block offsets inside a region of ``size`` blocks.

    ``locality`` of the accesses hit a tiny *hot* subset (L1-resident),
    most of the rest hit a *warm* subset (L2-resident), and the remainder
    roam the whole region (the cold tail that drives core-cache misses
    and directory churn). This shape gives the realistic hit-rate pyramid
    real applications show.
    """
    if count == 0:
        return np.empty(0, dtype=np.int64)
    size = max(size, 1)
    hot_size = max(1, int(size * hot_fraction))
    warm_size = max(hot_size, int(size * warm_fraction))
    # ``locality`` is a relative cache-friendliness knob in [0, 1]; real
    # applications keep L1 hit rates high, so it is mapped onto a hot-tier
    # probability of 0.80..0.95 and a cold-tail probability of 0..0.08.
    p_hot = 0.80 + 0.15 * locality
    p_cold = (1.0 - locality) * 0.08
    draw = rng.random(count)
    hot = draw < p_hot
    cold = draw >= 1.0 - p_cold
    warm = ~hot & ~cold
    offsets = np.empty(count, dtype=np.int64)
    offsets[hot] = rng.integers(0, hot_size, int(hot.sum()))
    offsets[warm] = rng.integers(0, warm_size, int(warm.sum()))
    offsets[cold] = rng.integers(0, size, int(cold.sum()))
    return offsets


def _shared_offsets(profile: AppProfile, rng: np.random.Generator,
                    positions: np.ndarray, core: int, n_cores: int,
                    shared_blocks: int) -> tuple:
    """Offsets and store mask for the shared-region accesses of one core.

    ``positions`` are the event indices of the shared accesses within the
    core's stream; migratory rotation uses them as a time proxy so that
    objects genuinely bounce from writer to writer.
    """
    count = len(positions)
    pattern = profile.pattern
    shared_blocks = max(shared_blocks, n_cores)
    if pattern is SharingPattern.MIXED and count:
        half = rng.random(count) < 0.5
        off_a, wr_a = _shared_offsets(
            profile.with_(pattern=SharingPattern.READ_SHARED), rng,
            positions[half], core, n_cores, shared_blocks)
        off_b, wr_b = _shared_offsets(
            profile.with_(pattern=SharingPattern.MIGRATORY), rng,
            positions[~half], core, n_cores, shared_blocks)
        offsets = np.empty(count, dtype=np.int64)
        writes = np.empty(count, dtype=bool)
        offsets[half], writes[half] = off_a, wr_a
        offsets[~half], writes[~half] = off_b, wr_b
        return offsets, writes

    if pattern is SharingPattern.MIGRATORY:
        # The shared region is divided into multi-block objects; at any
        # time an object is worked on by exactly one rotating core, which
        # reads and writes it for ``migratory_run`` accesses before it
        # moves on -- the classic migratory dirty pattern. The rotation
        # is keyed to the core's shared-access count so each object is
        # genuinely reused before it migrates.
        object_blocks = 4
        n_objects = max(1, shared_blocks // object_blocks)
        shared_index = np.arange(count, dtype=np.int64)
        turn = shared_index // max(1, profile.migratory_run)
        objects = (turn * n_cores + core) % n_objects
        offsets = (objects * object_blocks
                   + rng.integers(0, object_blocks, count))
        writes = rng.random(count) < 0.5
        return offsets, writes

    if pattern is SharingPattern.PRODUCER_CONSUMER:
        # Each block has a producer core (block % n_cores); a core's
        # stores hit its own slice, loads roam the whole region.
        writes = rng.random(count) < max(profile.shared_write_fraction,
                                         0.25)
        offsets = _region_addresses(rng, count, shared_blocks,
                                    profile.locality,
                                    profile.hot_fraction)
        n_writes = int(writes.sum())
        own = rng.integers(0, max(1, shared_blocks // n_cores), n_writes)
        offsets[writes] = own * n_cores + core % n_cores
        np.minimum(offsets, shared_blocks - 1, out=offsets)
        return offsets, writes

    # READ_SHARED
    offsets = _region_addresses(rng, count, shared_blocks,
                                profile.locality, profile.hot_fraction,
                                profile.warm_fraction)
    writes = rng.random(count) < profile.shared_write_fraction
    return offsets, writes


def generate(profile: AppProfile, config: SystemConfig,
             accesses_per_core: int, seed: int = 0,
             cores: Optional[Sequence[int]] = None,
             single_thread_core: Optional[int] = None,
             instance: int = 0) -> List[CoreTrace]:
    """Generate per-core traces for ``profile`` on ``config``'s caches.

    ``cores`` selects which cores run the application (default: all).
    ``single_thread_core`` generates a one-thread instance for that core
    (rate/heterogeneous mixes); ``instance`` distinguishes the data
    address spaces of co-scheduled copies while the *code* pages of every
    instance of the same binary share one mapping -- the mechanism that
    gives SPEC-rate workloads their S-state directory population.
    """
    if single_thread_core is not None:
        cores = [single_thread_core]
        app_cores = [0]
    else:
        cores = list(cores) if cores is not None else list(
            range(config.n_cores))
        app_cores = list(range(len(cores)))

    l2_blocks = config.l2.blocks
    llc_blocks = config.llc.blocks
    l1i_blocks = config.l1i.blocks
    segments = profile.phase_profiles(accesses_per_core)

    def sizes_of(p: AppProfile):
        return (max(8, int(p.code_x_l1i * l1i_blocks)),
                max(len(cores), int(p.ws_shared_x_llc * llc_blocks)),
                max(64, int(p.ws_private_x_l2 * l2_blocks)))

    # One address-space layout for all phases, sized by the largest
    # region any phase uses, so phases genuinely revisit the same data.
    all_sizes = [sizes_of(p) for _, p in segments]
    code_blocks = max(s[0] for s in all_sizes)
    shared_blocks = max(s[1] for s in all_sizes)
    private_blocks = max(s[2] for s in all_sizes)

    name_tag = zlib.crc32(profile.name.encode())
    code_salt = zlib.crc32(f"{profile.name}/{seed}/code".encode())
    data_salt = zlib.crc32(
        f"{profile.name}/{seed}/data/{instance}".encode())

    code_base = 0
    shared_base = code_blocks
    private_base = shared_base + shared_blocks

    traces = []
    for app_core, core in zip(app_cores, cores):
        # Full 32-bit tag: truncating to the low 16 bits made any two
        # profiles whose names collide mod 2^16 draw identical streams
        # for the same (seed, instance, core).
        rng = np.random.default_rng((seed, name_tag, instance, core))
        phase_ops, phase_blocks = [], []
        for (n, phase), sizes in zip(segments, all_sizes):
            ops, blocks = _core_segment(
                phase, rng, n, app_core, len(cores), sizes,
                (code_base, shared_base,
                 private_base + app_core * private_blocks))
            phase_ops.append(ops)
            phase_blocks.append(blocks)
        ops = np.concatenate(phase_ops)
        blocks = np.concatenate(phase_blocks)

        # OS-page scattering: code pages shared by every instance of the
        # binary, data pages private to this instance.
        is_code = ops == Op.IFETCH.value
        blocks[is_code] = scatter_pages(blocks[is_code], code_salt)
        data_mask = ~is_code
        blocks[data_mask] = scatter_pages(blocks[data_mask], data_salt)

        traces.append(CoreTrace(core, ops, blocks << BLOCK_SHIFT))
    return traces


def _core_segment(profile: AppProfile, rng: np.random.Generator, n: int,
                  app_core: int, n_cores: int, sizes, bases):
    """Generate one phase segment for one core (app-local blocks)."""
    code_blocks, shared_blocks, private_blocks = sizes
    code_base, shared_base, private_base = bases
    kinds = rng.random(n)
    is_code = kinds < profile.code_fraction
    is_shared = ~is_code & (kinds < profile.code_fraction
                            + (1 - profile.code_fraction)
                            * profile.shared_fraction)
    is_private = ~is_code & ~is_shared

    blocks = np.empty(n, dtype=np.int64)
    ops = np.zeros(n, dtype=np.int8)

    # Instruction fetches over the (possibly shared) code region. Code
    # keeps a large resident footprint (warm tier 50%): this is what
    # populates the directory with S-state entries for rate workloads
    # (the Section III-C2 anchor for SPEC CPU2017).
    n_code = int(is_code.sum())
    blocks[is_code] = code_base + _region_addresses(
        rng, n_code, code_blocks, 0.85, 0.10, warm_fraction=0.5)
    ops[is_code] = Op.IFETCH.value

    # Shared-region accesses.
    positions = np.nonzero(is_shared)[0]
    offsets, writes = _shared_offsets(profile, rng, positions,
                                      app_core, n_cores, shared_blocks)
    blocks[is_shared] = shared_base + offsets
    ops[is_shared] = np.where(writes, Op.WRITE.value, Op.READ.value)

    # Private accesses.
    n_priv = int(is_private.sum())
    blocks[is_private] = private_base + _region_addresses(
        rng, n_priv, private_blocks, profile.locality,
        profile.hot_fraction, profile.warm_fraction)
    priv_writes = rng.random(n_priv) < profile.write_fraction
    ops[is_private] = np.where(priv_writes, Op.WRITE.value,
                               Op.READ.value)
    return ops, blocks
