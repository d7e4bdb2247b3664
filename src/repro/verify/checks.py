"""Per-step structural checks shared by the fuzz oracle and modelcheck.

One invariant vocabulary, two drivers: :mod:`repro.verify.oracle` runs
these after every ``check_every`` accesses of a fuzz trace, and
:mod:`repro.verify.modelcheck` runs them on every transition of the
bounded-exhaustive frontier.  Keeping the checks here (rather than
private to the oracle) guarantees the two verification layers can never
drift apart on what "structurally well-formed" means.

The checks cover what the systems' own ``check_invariants`` does not:

* LLC set occupancy and frame/index consistency, including the spill
  index.
* The spLRU ordering invariant -- a resident spilled entry sits *above*
  (more recent than) its block so the block ages out first
  (Section III-D1).
* Housed-implies-garbage and the case-(iiib) ban on a block being
  LLC-resident while its entry is housed in memory (Section III-D2).
* The single-shared-shadow invariant for multi-socket compositions (see
  :func:`shadow_of`).
"""

from __future__ import annotations

from repro.caches.block import LineKind, MESI
from repro.common.config import LLCReplacement, Protocol
from repro.common.errors import ProtocolInvariantError
from repro.verify.models import ModelSpec

# Read for every resident frame, bound once as a module global.
_SPILLED = LineKind.SPILLED


class DivergenceError(ProtocolInvariantError):
    """A model-level verification check failed (the model diverged from
    the specified behaviour, even though no protocol assertion fired)."""


def check_llc_structure(spec: ModelSpec, system) -> None:
    """Occupancy, duplicate-frame, spill-index, and spLRU-order checks.

    Walks each bank's frame lists directly and skips empty sets, where
    none of the checks can fail."""
    sp_lru = spec.config.llc_replacement is LLCReplacement.SP_LRU
    for socket in system.sockets:
        for bank in socket.banks:
            spilled_seen = 0
            for set_idx, frames in enumerate(bank._frames):
                if not frames:
                    continue
                if len(frames) > bank.ways:
                    raise DivergenceError(
                        f"bank {bank.bank_id} set {set_idx} holds "
                        f"{len(frames)} frames in {bank.ways} ways")
                data_pos, spill_pos = {}, {}
                for pos, line in enumerate(frames):
                    spilled = line.kind is _SPILLED
                    bucket = spill_pos if spilled else data_pos
                    if line.block in bucket:
                        raise DivergenceError(
                            f"duplicate {line.kind.name} frame for block "
                            f"{line.block:#x} in bank {bank.bank_id}")
                    bucket[line.block] = pos
                    if spilled:
                        spilled_seen += 1
                        if bank.peek_spill(line.block) is not line:
                            raise DivergenceError(
                                f"spilled frame for block {line.block:#x} "
                                "missing from the spill index")
                if not sp_lru:
                    continue
                for block, pos in spill_pos.items():
                    # spLRU invariant: a resident spilled entry sits
                    # *above* (more recent than) its block, so the
                    # block ages out first (Section III-D1).
                    if block in data_pos and pos < data_pos[block]:
                        raise DivergenceError(
                            f"spLRU order inverted for block {block:#x}: "
                            "spilled entry is older than its block")
            if bank.spilled_count() != spilled_seen:
                raise DivergenceError(
                    f"bank {bank.bank_id} spill index tracks "
                    f"{bank.spilled_count()} entries but "
                    f"{spilled_seen} spilled frames are resident")


def check_housing(system) -> None:
    """Housed-implies-garbage and the case-(iiib) residency ban."""
    for socket in system.sockets:
        housing = getattr(socket, "_housing", None)
        if housing is None:
            continue
        for block in housing.housed_blocks():
            if not housing.is_garbage(block):
                raise DivergenceError(
                    f"block {block:#x} houses an entry but is not "
                    "marked corrupted")
            bank = socket.bank_of(block)
            # Case (iiib): while the entry lives in home memory the
            # block must not be LLC-resident (Section III-D2).
            if bank.peek_data(block) is not None or \
                    bank.peek_spill(block) is not None:
                raise DivergenceError(
                    f"block {block:#x} is LLC-resident while its entry "
                    "is housed in memory (case iiib)")


def check_dls(system) -> None:
    """DLS occupancy/housing rules (repro.baselines.dls).

    There is no directory structure and nothing ever spills or is
    housed; the LLC's DATA frames carry the sharer vectors, and
    inclusion demands that every privately cached block keeps an
    entry-bearing LLC line.
    """
    for socket in system.sockets:
        if socket.directory is not None:
            raise DivergenceError("DLS grew a directory structure")
        if getattr(socket, "_housing", None) is not None:
            raise DivergenceError("DLS must not house entries in memory")
        for bank in socket.banks:
            if bank.spilled_count():
                raise DivergenceError(
                    f"bank {bank.bank_id} holds spilled frames under DLS")
            for line in bank.all_frames():
                if line.kind is not LineKind.DATA:
                    raise DivergenceError(
                        f"DLS frame for block {line.block:#x} is "
                        f"{line.kind.name}, not DATA")
                entry = line.entry
                if entry is None:
                    continue
                if entry.block != line.block:
                    raise DivergenceError(
                        f"entry for block {entry.block:#x} rides the "
                        f"line of block {line.block:#x}")
                if entry.empty:
                    raise DivergenceError(
                        f"empty entry still attached to block "
                        f"{line.block:#x}")
        for core, hier in enumerate(socket.cores):
            for block in hier.cached_blocks():
                line = socket.bank_of(block).peek_data(block)
                if line is None or line.entry is None:
                    raise DivergenceError(
                        f"core {core} caches block {block:#x} without "
                        "an entry-bearing LLC line (inclusion broken)")


def check_hybrid(system) -> None:
    """Hybrid update-coherence and update-vs-invalidate attribution.

    Every private S copy (and the LLC copy of an S-tracked block) must
    hold the shadow's latest version: a write either invalidates or
    *updates* every other copy, so no stale-but-readable copy may
    survive a quiesced point.  Read hits never consult the shadow, so
    this check -- not the readback -- is what detects a lost UPDATE.
    Update pushes move data without killing copies, so they must never
    show up in the DEV/invalidation counters.
    """
    for socket in system.sockets:
        shadow = socket.shadow
        for core, hier in enumerate(socket.cores):
            for block in hier.cached_blocks():
                line = hier.line_of(block)
                if line is None or line.state is not MESI.S:
                    continue
                latest = shadow.latest(block)
                if line.version != latest:
                    raise DivergenceError(
                        f"core {core} holds a stale S copy of block "
                        f"{block:#x}: version {line.version}, latest "
                        f"{latest}")
                entry = socket._peek_entry(block)
                if entry is None:
                    continue
                llc_line = socket.bank_of(block).peek_data(block)
                if llc_line is not None and llc_line.version != latest:
                    raise DivergenceError(
                        f"LLC copy of shared block {block:#x} is stale: "
                        f"version {llc_line.version}, latest {latest}")
        stats = socket.stats
        if stats.upgrades:
            raise DivergenceError(
                f"hybrid recorded {stats.upgrades} upgrade(s): an "
                "S-state write hit must push an update, never an "
                "upgrade-invalidate")


def check_step(spec: ModelSpec, system) -> None:
    """The full per-step check battery: the system's own invariants plus
    the structural checks above."""
    system.check_invariants()
    check_llc_structure(spec, system)
    check_housing(system)
    if spec.config.protocol is Protocol.DLS:
        check_dls(system)
    elif spec.config.protocol is Protocol.HYBRID:
        check_hybrid(system)


def dev_count(system) -> int:
    """DEV-caused private invalidations accumulated so far."""
    return sum(socket.stats.dev_invalidations for socket in system.sockets)


def shadow_of(system):
    """The shadow-memory oracle of ``system``.

    Multi-socket compositions share ONE :class:`ShadowMemory` across all
    sockets (writes commit into the global version order no matter which
    socket retires them), so the system-level shadow *is* the merged
    view.  That sharing is load-bearing for the cross-model
    ``memory_digest`` equivalence, so it is pinned here as an invariant
    rather than silently assumed: a refactor that gives sockets private
    shadows would make socket-0's digest a lie, and this check turns
    that into a loud failure instead.
    """
    shadow = system.shadow
    for socket in system.sockets:
        if socket.shadow is not shadow:
            raise DivergenceError(
                f"socket {socket.node_id} carries a private shadow; "
                "the multi-socket digest requires one shared shadow")
    return shadow
