"""Symmetry reduction for the memoized model checker.

The micro alphabet treats some core and block identities as pure labels:
swapping two cores (or two index-congruent blocks) everywhere in an
access sequence yields a system state that is the same state up to that
relabeling.  On top of the latency-state canonicalization of
:mod:`repro.verify.modelcheck`, this module collapses each *orbit* of
such relabelings onto one canonical key: ``canonical_key`` becomes the
minimum digest over the relabeled signatures, so symmetric states dedup
against each other and the frontier explores one representative per
orbit.

Soundness (the full argument lives in PROTOCOL.md §6):

* **Block permutations** must preserve every index function.  All
  structures index with low-order block bits (``set_index``,
  ``AddressMapper.bank_of``/``set_of``, ``home_of = block % n_sockets``),
  so any permutation within a congruence class mod ``2**k`` -- where
  ``k`` covers the widest index (LLC bank+set bits, L2/L1/directory set
  bits, socket-home bits) -- maps every block to the same bank, set,
  directory slice, and home socket.  Non-power-of-two structures defeat
  the congruence argument, so they degrade to the trivial group.
* **Core permutations** must be automorphisms of the transition
  relation.  The only core-id-ordered decisions in the clean protocols
  are the lowest-id sharer election (all S copies are version-equal and
  clean, so the elected copy's payload is identical) and sharer
  invalidation order (per-core effects on disjoint hierarchies
  commute) -- both latency-only.  Seeded *mutations* may be
  id-dependent (``dev-leak-sharer`` drops the lowest-id sharer), so an
  armed mutant keeps block permutations but drops core permutations
  (``cores_symmetric=False``, implied by a ``MutantSpec``).
* **SecDir and MgD** organize directory state by region/way classes
  whose grouping is not a pure low-bit function of the block id, so
  both degrade to the trivial group rather than risk an unsound merge.
* **Subsets stay sound.**  Two states share an orbit-minimal key only
  if some ``pi2^-1 . pi1`` drawn from the *full* congruence group
  relates them, so capping or filtering the enumerated group (e.g. the
  alphabet-preservation check, ``max_size``) only reduces *how much*
  collapses, never merges inequivalent states.

The drift guard is ``tests/test_symmetry.py``: an equivariance property
(``sig(run(pi(sequence))) == relabel(sig(run(sequence)), pi)``) plus a
differential test that symmetry-on and symmetry-off refute all five
seeded mutations identically.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import Protocol
from repro.verify.models import ModelSpec

#: Enumerated relabelings are capped here (deterministically, after
#: sorting): a subset of a sound group is still sound, and the micro
#: alphabets stay far below this.
DEFAULT_MAX_GROUP = 64


class Relabeling:
    """One core/block relabeling, applied at the signature level.

    ``core_map[old] == new`` over the socket-local core ids;
    ``core_order[new] == old`` is its inverse (used to reorder the
    per-core signature tuple); ``sharer_map`` relabels a sharer bitmask
    in one table lookup.  Blocks outside ``block_map`` map to
    themselves (only alphabet blocks ever materialize in a state).
    """

    __slots__ = ("core_map", "core_order", "sharer_map", "_blocks",
                 "is_identity")

    def __init__(self, core_map: Tuple[int, ...],
                 block_map: Dict[int, int]) -> None:
        self.core_map = core_map
        self.core_order = tuple(core_map.index(i)
                                for i in range(len(core_map)))
        table = []
        for mask in range(1 << len(core_map)):
            relabeled = 0
            for core in range(len(core_map)):
                if mask >> core & 1:
                    relabeled |= 1 << core_map[core]
            table.append(relabeled)
        self.sharer_map = tuple(table)
        self._blocks = dict(block_map)
        self.is_identity = (
            core_map == tuple(range(len(core_map)))
            and all(old == new for old, new in block_map.items()))

    def block(self, block: int) -> int:
        return self._blocks.get(block, block)

    def core(self, core: int) -> int:
        return self.core_map[core] if core < len(self.core_map) else core

    def symbol(self, symbol: tuple) -> tuple:
        """Relabel one ``(core, op, block)`` alphabet symbol."""
        core, op, block = symbol
        return (self.core(core), op, self.block(block))

    def sort_key(self) -> tuple:
        return (self.core_map, tuple(sorted(self._blocks.items())))

    def describe(self) -> str:
        cores = " ".join(f"{old}>{new}"
                         for old, new in enumerate(self.core_map)
                         if old != new)
        blocks = " ".join(f"{old}>{new}"
                          for old, new in sorted(self._blocks.items())
                          if old != new)
        return (f"cores[{cores or 'id'}] blocks[{blocks or 'id'}]"
                if not self.is_identity else "identity")


def _index_bits(sets: int) -> Optional[int]:
    """log2 of a power-of-two set count; None defeats the congruence."""
    if sets < 1 or sets & (sets - 1):
        return None
    return sets.bit_length() - 1


def placement_modulus(spec: ModelSpec) -> Optional[int]:
    """``2**k`` such that blocks congruent mod it share every placement:
    L1/L2 set, LLC bank and set, directory slice set, and home socket.
    None when any structure's indexing is not a power-of-two low-bit
    mask (no sound congruence class exists)."""
    cfg = spec.config
    widths: List[Optional[int]] = [
        _index_bits(cfg.l1i.sets), _index_bits(cfg.l1d.sets),
        _index_bits(cfg.l2.sets), _index_bits(spec.n_sockets)]
    bank_bits = _index_bits(cfg.llc_banks)
    set_bits = _index_bits(cfg.llc.sets // cfg.llc_banks)
    if bank_bits is None or set_bits is None:
        return None
    widths.append(bank_bits + set_bits)
    directory = cfg.directory
    if directory.present and not directory.unbounded:
        entries = directory.entries_for(cfg.aggregate_l2_blocks)
        widths.append(_index_bits(max(1, entries // directory.ways)))
    if any(width is None for width in widths):
        return None
    return 1 << max(width for width in widths if width is not None)


def symmetry_group(spec: ModelSpec, alphabet: Sequence[tuple],
                   cores_symmetric: bool = True,
                   max_size: int = DEFAULT_MAX_GROUP
                   ) -> Tuple[Relabeling, ...]:
    """Every sound relabeling of ``spec`` that maps ``alphabet`` onto
    itself: identity first, deterministic order, capped at ``max_size``.

    ``cores_symmetric=False`` restricts to block permutations, as does
    a spec whose builds arm a seeded mutation (a ``MutantSpec``):
    mutations may be core-id-dependent, see the module docstring."""
    if getattr(spec, "mutation", ""):
        cores_symmetric = False
    n_cores = spec.config.n_cores
    identity_cores = tuple(range(n_cores))
    identity = Relabeling(identity_cores, {})
    if spec.config.protocol in (Protocol.SECDIR, Protocol.MGD):
        return (identity,)
    modulus = placement_modulus(spec)
    if modulus is None:
        return (identity,)

    symbols = set(map(tuple, alphabet))
    blocks = sorted({block for _core, _op, block in symbols})
    cores = sorted({core for core, _op, _block in symbols})

    # Block permutations: the direct product of permutations within each
    # placement-congruence class.
    classes: Dict[int, List[int]] = {}
    for block in blocks:
        classes.setdefault(block % modulus, []).append(block)
    block_perms: List[Dict[int, int]] = [{}]
    for members in classes.values():
        extended = []
        for base in block_perms:
            for image in itertools.permutations(members):
                perm = dict(base)
                perm.update(zip(members, image))
                extended.append(perm)
        block_perms = extended

    # Core permutations: sound only single-socket on a clean protocol
    # (multi-socket trace-core swaps move blocks between home sockets,
    # which the block congruence already forbids re-homing).
    if cores_symmetric and spec.n_sockets == 1:
        core_perms = [dict(zip(cores, image))
                      for image in itertools.permutations(cores)]
    else:
        core_perms = [{}]

    group: List[Relabeling] = []
    for core_perm in core_perms:
        core_map = tuple(core_perm.get(core, core)
                         for core in range(n_cores))
        for block_perm in block_perms:
            relabeled = {(core_perm.get(core, core), op,
                          block_perm.get(block, block))
                         for core, op, block in symbols}
            if relabeled != symbols:
                continue
            group.append(Relabeling(core_map, block_perm))
    group.sort(key=Relabeling.sort_key)
    assert group and group[0].is_identity
    return tuple(group[:max_size])


# ----------------------------------------------------------------------
# Signature relabeling (mirrors modelcheck.system_sig's structure)
# ----------------------------------------------------------------------
def _r_entry(entry: tuple, r: Relabeling) -> tuple:
    block, state, owner, sharers, location, nru_ref = entry
    return (r.block(block), state,
            None if owner is None else r.core_map[owner],
            r.sharer_map[sharers], location, nru_ref)


def _r_l2(line: tuple, r: Relabeling) -> tuple:
    block, state, version, dirty, is_code = line
    return (r.block(block), state, version, dirty, is_code)


def _r_frame(frame: tuple, r: Relabeling) -> tuple:
    block, kind, dirty, version, entry = frame
    return (r.block(block), kind, dirty, version,
            None if entry is None else _r_entry(entry, r))


def _r_pairs(pairs: tuple, r: Relabeling) -> tuple:
    """Relabel and re-sort a ``(block, payload)`` mapping signature."""
    return tuple(sorted((r.block(block), payload)
                        for block, payload in pairs))


def relabel_socket_sig(sig: tuple, r: Relabeling,
                       dir_unbounded: bool) -> tuple:
    """Relabel one socket signature.

    Congruence guarantees a relabeled block keeps its set/bank/slice, so
    order-sensitive components (per-set LRU order, directory way order)
    relabel *in place*; sorted components re-sort after relabeling."""
    cores, banks, directory, housing, dram = sig
    cores = tuple(
        tuple(tuple(_r_l2(line, r) for line in lru_set)
              for lru_set in cores[old])
        for old in r.core_order)
    banks = tuple(
        tuple(tuple(_r_frame(frame, r) for frame in lru_set)
              for lru_set in bank)
        for bank in banks)
    if directory:
        if dir_unbounded:
            directory = tuple(sorted(
                (r.block(block), _r_entry(entry, r))
                for block, entry in directory))
        else:
            directory = tuple(
                tuple(_r_entry(entry, r) for entry in ways)
                for ways in directory)
    if housing:
        housed, garbage = housing
        housing = (
            tuple(sorted((r.block(block), _r_entry(entry, r))
                         for block, entry in housed)),
            tuple(sorted(r.block(block) for block in garbage)))
    return (cores, banks, directory, housing, _r_pairs(dram, r))


def relabel_system_sig(sig: tuple, r: Relabeling, multisocket: bool,
                       dir_unbounded: bool) -> tuple:
    """Relabel a full system signature (see ``modelcheck.system_sig``)."""
    if not multisocket:
        socket, shadow = sig
        return (relabel_socket_sig(socket, r, dir_unbounded),
                _r_pairs(shadow, r))
    # Multi-socket: the socket-level entries carry *socket* ids as
    # owner/sharers (untouched -- multi-socket groups have identity
    # core maps) and blocks stay on their home socket by congruence.
    sockets, entries, garbage, dram, shadow = sig
    return (
        tuple(relabel_socket_sig(socket, r, dir_unbounded)
              for socket in sockets),
        tuple(sorted((r.block(block), state, owner, sharers)
                     for block, state, owner, sharers in entries)),
        tuple(sorted(r.block(block) for block in garbage)),
        _r_pairs(dram, r),
        _r_pairs(shadow, r))
