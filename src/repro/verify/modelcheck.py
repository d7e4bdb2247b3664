"""Memoized bounded-exhaustive model checking of the protocol core.

The one bounded-exhaustive front end (``repro modelcheck``).  Replaying
every access sequence of depth ``d`` over the micro alphabet would cost
``|A|^d`` full replays even though almost all of them land in states
some other sequence already produced, so this module enumerates
*states* instead: a BFS over (canonical system state, pending access)
with memoized dedup.

* **Snapshots.** The simulator is deterministic plain-Python state, so a
  frontier node is a pickle of the system.  Expanding a node unpickles
  the parent once per alphabet symbol, applies the access, and checks
  the successor -- O(1) work per transition regardless of depth, versus
  O(depth) for sequence replay.  Only states a later level expands are
  snapshotted: the last level's new states are counted and deduped,
  never pickled.  A snapshot (:class:`_Snapshots`) pickles what no
  transition changes by reference into a table built from the root --
  the frozen config tree, every class and enum member of the imported
  ``repro`` modules and, for :func:`explore_model`, each socket's
  latency-only stats, mesh and DRAM model, one copy of which serves
  every state loaded in a process -- and the LRU ``OrderedDict`` sets
  without the state lookup of their own reduction.  A level expands
  with the cyclic garbage collector off: a discarded successor is
  freed by reference counting, once the one cycle of a multi-socket
  state (each socket's ``memory_side`` points back at the system) is
  cut.
* **Canonicalization.** A state's identity is a blake2b digest over the
  protocol-visible state only: private L2 lines in per-set LRU order,
  directory entries (with NRU bits and way order), LLC frames per set in
  LRU order with their fused/spilled entry payloads, the housing and
  garbage maps, per-block DRAM versions, the shadow oracle, and -- for
  multi-socket -- the socket-level entries and corrupted set.  Timing
  state (stats, DRAM open-page tracking, the socket directory-cache LRU,
  DirEvict bit cache) is deliberately excluded: it cannot feed back into
  protocol decisions, so states differing only in latency bookkeeping
  collapse into one, which is where the state-space reduction comes
  from.  With ``symmetry=True`` the key is additionally minimized over
  the sound core/block relabelings of :mod:`repro.verify.symmetry`, so
  whole orbits of label-symmetric states collapse too.  Soundness is
  preserved by checking every *transition* (not just every new unique
  state): an invariant violation is observed on the concrete successor
  before dedup can discard it.
* **Parallel expansion.** Each BFS level's frontier is partitioned into
  contiguous chunks across fork workers (``jobs``).  Workers expand and
  check their chunk against the frozen pre-level seen-set and emit one
  outcome record per transition; the parent then *merges* the records
  serially in partition -> node -> symbol order -- which is exactly the
  serial BFS order -- so every counter, the per-level ledger, and any
  counterexample (always the BFS-first one) are bit-identical at any
  worker count (``ModelCheckReport.identity_bytes`` is the comparison
  form; asserted for jobs 1/2/4 by tests and CI).
* **Checks.** Each transition runs
  :func:`~repro.verify.checks.check_step`: the system's own
  ``check_invariants`` (on ZeroDEV models these refuse any DEV after
  every access -- stronger than the oracle's end-of-trace count) plus
  the structural battery shared with the fuzz oracle.
* **Counterexamples.** A failing transition reports its access path
  from the initial state.  :meth:`ModelCheckReport.counterexample_trace`
  converts it to a :class:`~repro.verify.tracegen.FuzzTrace`, so a
  frontier counterexample replays under ``repro shrink`` and
  ``run_trace`` exactly like a fuzz divergence.

The mutation gate (:func:`mutation_gate`) runs every seeded bug from
:mod:`repro.verify.mutations` under both this checker and a fixed-budget
fuzz baseline, proving the frontier catches what sampling misses.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import io
import itertools
import json
import pickle
import sys
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.addressing import BLOCK_SHIFT
from repro.common.errors import ConfigError
from repro.harness.campaign import NO_RETRIES, campaign_map, values_of
from repro.obs.events import EventKind
from repro.verify.checks import check_step, DivergenceError
# Not called here: perfbench's traced ``verify`` workload wraps
# ``modelcheck.dev_count`` (and ``check_step``) by module and name.
from repro.verify.checks import dev_count  # noqa: F401
from repro.verify.models import TRACE_CORES, ModelSpec
from repro.verify.tracegen import FuzzTrace
from repro.workloads.trace import Op

#: The micro alphabet: two cores, two ops, and three blocks chosen so
#: two of them (0 and 8) collide in one LLC set of bank 0 while the
#: third lands in bank 1 -- conflict pressure plus an independent block.
#: On two-socket models the cores map to different sockets and block
#: homes split across sockets (``home_of = block % 2``).
MICRO_CORES: Tuple[int, ...] = (0, 1)
MICRO_BLOCKS: Tuple[int, ...] = (0, 8, 1)
MICRO_OPS: Tuple[Op, ...] = (Op.READ, Op.WRITE)

#: Unique-state ceiling: a backstop against runaway growth on larger
#: alphabets, far above what the micro configs reach at depth 7.
DEFAULT_MAX_STATES = 250_000


# ----------------------------------------------------------------------
# Canonicalization
# ----------------------------------------------------------------------
def _entry_sig(entry) -> tuple:
    return (entry.block, entry.state._value_, entry.owner, entry.sharers,
            entry.location._value_, entry.nru_ref)


def _socket_sig(socket) -> tuple:
    """Protocol-visible state of one CMP socket (order-sensitive where
    replacement policy reads order, sorted where it does not).

    Built in one pass over the live structures -- each core's L2 sets
    and each bank's frame lists, both in LRU-to-MRU order -- reading
    enum members' ``_value_`` rather than the ``.value`` property.
    Every tuple is built from a list comprehension: ``tuple()`` of a
    generator resumes the generator once per item."""
    cores = tuple([
        tuple([tuple([(line.block, line.state._value_, line.version,
                       line.dirty, line.is_code)
                      for line in lru_set.values()])
               for lru_set in hier.l2_sets])
        for hier in socket.cores])
    banks = tuple([
        tuple([tuple([(frame.block, frame.kind._value_, frame.dirty,
                       frame.version,
                       None if frame.entry is None
                       else _entry_sig(frame.entry))
                      for frame in frames])
               for frames in bank._frames])
        for bank in socket.banks])
    directory: tuple = ()
    if socket.directory is not None:
        dir_ = socket.directory
        if dir_.unbounded:
            directory = tuple(sorted([
                (block, _entry_sig(entry))
                for block, entry in dir_._index.items()]))
        else:
            # Way order carries the NRU scan order, so it is identity.
            directory = tuple([
                tuple([_entry_sig(entry) for entry in ways])
                for ways in dir_._sets])
    housing: tuple = ()
    housed = getattr(socket, "_housing", None)
    if housed is not None:
        housing = (
            tuple(sorted([(block, _entry_sig(entry))
                          for block, entry in housed._housed.items()])),
            tuple(sorted(housed._garbage)))
    dram = tuple(sorted(socket._dram_version.items()))
    return (cores, banks, directory, housing, dram)


def system_sig(system, multisocket: bool = False) -> tuple:
    """The raw protocol-visible signature (:func:`system_key` digests
    it; :mod:`repro.verify.symmetry` relabels it)."""
    if not multisocket:
        return (
            _socket_sig(system),
            tuple(sorted(system.shadow._latest.items())))
    return (
        tuple([_socket_sig(socket) for socket in system.sockets]),
        tuple(sorted([
            (block, entry.state._value_, entry.owner, entry.sharers)
            for block, entry in system._entries.items()
            if entry.sharers])),
        tuple(sorted(system._garbage)),
        tuple(sorted(system._dram_version.items())),
        tuple(sorted(system.shadow._latest.items())))


def _digest(sig: tuple) -> bytes:
    raw = pickle.dumps(sig, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.blake2b(raw, digest_size=16).digest()


def canonical_key(spec: ModelSpec, system, group=None) -> bytes:
    """16-byte digest identifying the protocol-visible state.

    Two systems with equal keys are protocol-equivalent: every future
    access sequence produces the same transitions, check results, and
    load values on both (up to a sound relabeling when a symmetry
    ``group`` is given).  Latency-only state (stats, DRAM page tracking,
    the socket dir-cache LRU and DirEvict bit cache) is excluded so
    timing-divergent interleavings collapse.
    """
    multisocket = spec.n_sockets > 1
    if not group or len(group) <= 1:
        return system_key(system, multisocket=multisocket)
    from repro.verify.symmetry import relabel_system_sig
    sig = system_sig(system, multisocket=multisocket)
    dir_unbounded = spec.config.directory.unbounded
    best = _digest(sig)
    for relabeling in group:
        if relabeling.is_identity:
            continue
        other = _digest(relabel_system_sig(sig, relabeling, multisocket,
                                           dir_unbounded))
        if other < best:
            best = other
    return best


def system_key(system, multisocket: bool = False) -> bytes:
    """:func:`canonical_key` without the spec or a symmetry group."""
    return _digest(system_sig(system, multisocket=multisocket))


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass
class Counterexample:
    """A failing access sequence and the error it triggered."""

    sequence: Tuple[Tuple[int, Op, int], ...]
    error: Exception

    def __str__(self) -> str:
        steps = ", ".join(f"c{core}:{op.name[0]}@{block}"
                          for core, op, block in self.sequence)
        return f"[{steps}] -> {self.error}"


@dataclass
class ModelCheckReport:
    """Outcome of one memoized frontier exploration.

    Accounting contract (every exit path -- clean, counterexample,
    ``max_states``, wall-clock budget -- obeys it):

    * ``unique_states == 1 + sum(level_unique)`` (the root counts even
      when it fails its own check);
    * ``depth_reached == len(level_unique)`` == the deepest level at
      which at least one transition was checked; the last entry may
      describe a partially-explored level on a capped/refuted run.
    """

    model: str
    depth: int
    alphabet_size: int
    mutation: str = ""
    depth_reached: int = 0
    #: Distinct canonical states discovered (including the root).
    unique_states: int = 0
    #: Transitions applied -- every one is invariant-checked.
    transitions: int = 0
    #: Successors discarded because their canonical state was known.
    dedup_hits: int = 0
    #: New unique states per explored BFS level (last may be partial).
    level_unique: Tuple[int, ...] = ()
    elapsed_s: float = 0.0
    #: True when max_states or the time budget stopped expansion early.
    capped: bool = False
    #: Worker processes the frontier was partitioned across.
    jobs: int = 1
    #: Orbit-minimal canonicalization over core/block relabelings.
    symmetry: bool = False
    #: Relabelings in the symmetry group (1 = plain canonicalization).
    group_size: int = 1
    counterexample: Optional[Counterexample] = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def identity_bytes(self) -> bytes:
        """Canonical byte form for cross-worker-count comparison.

        Everything semantic -- counters, the per-level ledger, the
        counterexample path and error -- and nothing wall-clock
        (``elapsed_s``) or execution-shape (``jobs``): reports from any
        worker count of the same exploration must compare equal.
        """
        cex = None
        if self.counterexample is not None:
            cex = {
                "sequence": [[core, op.value, block] for core, op, block
                             in self.counterexample.sequence],
                "error_type": type(self.counterexample.error).__name__,
                "error": str(self.counterexample.error),
            }
        payload = {
            "model": self.model, "depth": self.depth,
            "alphabet_size": self.alphabet_size,
            "mutation": self.mutation,
            "depth_reached": self.depth_reached,
            "unique_states": self.unique_states,
            "transitions": self.transitions,
            "dedup_hits": self.dedup_hits,
            "level_unique": list(self.level_unique),
            "capped": self.capped, "symmetry": self.symmetry,
            "group_size": self.group_size, "counterexample": cex,
        }
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def counterexample_trace(self, name: str = "") -> FuzzTrace:
        """The failing prefix as a ``repro shrink``-compatible trace."""
        if self.counterexample is None:
            raise ConfigError(
                f"model {self.model} has no counterexample to export")
        steps = tuple((core, op.value, block)
                      for core, op, block in self.counterexample.sequence)
        return FuzzTrace(name or f"modelcheck-{self.model}",
                         TRACE_CORES, steps, pattern="modelcheck")

    def summary(self) -> str:
        tag = f"{self.model}+{self.mutation}" if self.mutation \
            else self.model
        head = (f"{tag}: depth {self.depth_reached}/{self.depth}, "
                f"{self.unique_states:,} unique states, "
                f"{self.transitions:,} transitions checked, "
                f"{self.dedup_hits:,} dedup hits, "
                f"{self.elapsed_s:.2f}s")
        if self.symmetry:
            head += f" (symmetry x{self.group_size})"
        if self.jobs > 1:
            head += f" (jobs {self.jobs})"
        if self.capped:
            head += " (capped)"
        if self.counterexample is not None:
            head += f"\n  COUNTEREXAMPLE: {self.counterexample}"
        return head


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
#: The by-reference tables of the explorations in progress, by token.
#: ``pickle.loads`` can only reach them through a function it finds by
#: import name (:func:`_shared`), so they live here; each codec removes
#: its own when it is collected.  Fork workers inherit them, so a
#: reference names the same object in the parent and in every worker.
_SHARED: Dict[int, tuple] = {}
_TOKENS = itertools.count()


def _shared(token: int, index: int):
    """Unpickle one by-reference object of a snapshot."""
    return _SHARED[token][index]


def _frozen_tree(root) -> list:
    """``root`` and every frozen dataclass under it, reached through the
    fields of frozen dataclasses (a config and its parts)."""
    tree: list = []
    stack = [root]
    while stack:
        node = stack.pop()
        params = getattr(type(node), "__dataclass_params__", None)
        if params is None or not params.frozen:
            continue
        tree.append(node)
        stack.extend(getattr(node, f.name) for f in fields(node))
    return tree


def _repro_types() -> list:
    """Every class the imported ``repro`` modules define, each followed
    by its members when it is an enum.  None of them ever changes, and
    each costs an import-name lookup per load when pickled by name."""
    found: Dict[int, object] = {}
    for name in sorted(sys.modules):
        module = sys.modules[name]
        if module is None or (name != "repro"
                              and not name.startswith("repro.")):
            continue
        for value in vars(module).values():
            if not isinstance(value, type) or value.__module__ != name:
                continue
            found.setdefault(id(value), value)
            if issubclass(value, Enum):
                for member in value.__members__.values():
                    found.setdefault(id(member), member)
    return list(found.values())


class _SnapshotPickler(pickle.Pickler):
    """Pickles the objects of ``refs`` (``id`` -> reduce value) by
    reference, an ``OrderedDict`` without looking up instance state it
    does not have, and an enum member the table lacks by name;
    everything else as :func:`pickle.dumps` does.  The C pickler asks
    only about objects that are not builtin containers or atoms, classes
    included."""

    def __init__(self, file, refs: Dict[int, tuple]) -> None:
        super().__init__(file, pickle.HIGHEST_PROTOCOL)
        self.refs = refs

    def reducer_override(self, obj):
        if type(obj) is OrderedDict:
            # Its own reduction looks up instance state through
            # copyreg._slotnames on every pickle (CPython 3.11 cannot
            # cache the answer on a C type).  This writes the bytes that
            # reduction writes, so a load refills the set item by item;
            # (OrderedDict, (items,)) would build a tuple per item and
            # load slower.
            return OrderedDict, (), None, None, iter(obj.items())
        ref = self.refs.get(id(obj))
        if ref is not None:
            return ref
        if isinstance(obj, Enum):
            return getattr, (type(obj), obj._name_)
        return NotImplemented


class _Snapshots:
    """The snapshot codec of one exploration.

    :meth:`dump` pickles a state with what no transition changes by
    reference into a table built from the root before level 1: every
    frozen dataclass of the root's config tree (``CMPSystem._lat``
    among them), the ``shared`` objects the caller names, and every
    class and enum member of the imported ``repro`` modules
    (:func:`_repro_types`), so a load resolves none of them by import
    name.  Anything the table lacks still pickles by name (an enum
    member through ``getattr``), so the table only saves time.  A
    snapshot is restored with plain :func:`pickle.loads`, in this
    process or in a worker forked while the codec is alive.  Nothing
    mutable that a protocol decision reads may be shared.
    """

    def __init__(self, root, shared: Iterable = ()) -> None:
        self._table = tuple(_frozen_tree(getattr(root, "config", None))
                            + list(shared) + _repro_types())
        token = next(_TOKENS)
        _SHARED[token] = self._table
        weakref.finalize(self, _SHARED.pop, token, None)
        self._buffer = io.BytesIO()
        self._pickler = _SnapshotPickler(self._buffer, {
            id(obj): (_shared, (token, index))
            for index, obj in enumerate(self._table)})

    def dump(self, system) -> bytes:
        buffer = self._buffer
        buffer.seek(0)
        buffer.truncate()
        self._pickler.dump(system)
        self._pickler.clear_memo()
        return buffer.getvalue()


# ----------------------------------------------------------------------
# The frontier engine
# ----------------------------------------------------------------------
def _portable_error(error: BaseException) -> BaseException:
    """Normalize a check failure so it is identical whether it crossed
    a process boundary or not (reports must be bit-identical at any
    worker count): pickle-roundtrip it, or wrap unpicklable errors."""
    try:
        return pickle.loads(pickle.dumps(error, pickle.HIGHEST_PROTOCOL))
    except Exception:                  # noqa: BLE001 - best-effort wrap
        return DivergenceError(f"{type(error).__name__}: {error}")


@dataclass
class _ExpandContext:
    """Per-level expansion context, inherited by the level's fork
    workers (its closures need not pickle)."""

    issue: Callable
    check: Callable
    canonical: Callable
    trim: Callable
    #: Snapshots a new state; None on the last level, whose new states
    #: are only counted and deduped, never expanded.
    snapshot: Optional[Callable]
    alphabet: Tuple[tuple, ...]
    #: The frozen pre-level seen-set (workers only read it).
    seen: set
    deadline: Optional[float]
    #: Per-worker cap on emitted candidate snapshots.  Set to
    #: ``max_states - unique_states`` at level start: by the time the
    #: merge needs a worker's (budget+1)-th candidate it has already
    #: counted ``budget`` distinct new states (each earlier candidate
    #: is fresh-at-merge or duplicates one counted earlier in merge
    #: order), so the global cap fires first and truncation is exact.
    candidate_budget: int
    #: Breaks the reference cycles of a successor that is done with, so
    #: reference counting frees it; None when states hold no cycle.
    discard: Optional[Callable] = None


#: Per-transition outcome records emitted by workers and replayed by the
#: serial merge: ("c", error) counterexample, ("d",) duplicate of a
#: pre-level or partition-local state, ("n", key, snapshot) candidate
#: (its snapshot is None on the last level).
_REC_CEX, _REC_DUP, _REC_NEW = "c", "d", "n"


def _expand_partition(ctx: _ExpandContext,
                      nodes: Sequence[Tuple[bytes, tuple]]):
    """Expand one contiguous frontier chunk against the pre-level
    seen-set.  Returns ``(records_per_node, timed_out)``; stops early on
    a counterexample, the candidate budget, or the deadline (the merge
    provably never consumes past a truncation point).

    Runs with the cyclic garbage collector off, and puts back the state
    it found on every way out.  Every successor is freed by reference
    counting once ``ctx.discard`` has cut its cycles, so the collections
    that a level's allocations would trigger could only rescan live
    objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        local_new: set = set()
        node_records: List[List[tuple]] = []
        timed_out = False
        discard = ctx.discard
        for snapshot, _path in nodes:
            if ctx.deadline is not None \
                    and time.perf_counter() > ctx.deadline:
                timed_out = True
                break
            records: List[tuple] = []
            node_records.append(records)
            stop = False
            for symbol in ctx.alphabet:
                system = pickle.loads(snapshot)
                try:
                    ctx.issue(system, symbol)
                    ctx.check(system)
                except Exception as error:    # noqa: BLE001 - reported
                    records.append((_REC_CEX, _portable_error(error)))
                    stop = True
                else:
                    key = ctx.canonical(system)
                    if key in ctx.seen or key in local_new:
                        records.append((_REC_DUP,))
                    else:
                        local_new.add(key)
                        if ctx.snapshot is None:
                            records.append((_REC_NEW, key, None))
                        else:
                            ctx.trim(system)
                            records.append((_REC_NEW, key,
                                            ctx.snapshot(system)))
                        stop = len(local_new) >= ctx.candidate_budget
                if discard is not None:
                    discard(system)
                if stop:
                    break
            if stop:
                break
        return node_records, timed_out
    finally:
        if enabled:
            gc.enable()


def _partition(frontier: Sequence, jobs: int) -> List[Sequence]:
    """Contiguous BFS-order chunks (concatenation == frontier order)."""
    count = max(1, min(jobs, len(frontier)))
    base, extra = divmod(len(frontier), count)
    parts, start = [], 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        if size:
            parts.append(frontier[start:start + size])
        start += size
    return parts


def _explore_frontier(report: ModelCheckReport,
                      build: Callable[[], object],
                      issue: Callable[[object, tuple], None],
                      check: Callable[[object], None],
                      canonical: Callable[[object], bytes],
                      trim: Callable[[object], None],
                      shared: Callable[[object], Iterable],
                      alphabet: Sequence[tuple], depth: int,
                      max_states: int, budget_s: Optional[float],
                      bus=None, jobs: int = 1,
                      discard: Optional[Callable] = None
                      ) -> ModelCheckReport:
    """The memoized BFS behind :func:`explore_model`.

    Per level: partition the frontier across ``jobs`` fork workers,
    expand each chunk independently, then merge the per-transition
    outcome records serially in partition -> node -> symbol order (the
    serial BFS order), replaying every counter against the growing
    seen-set.  ``jobs=1`` runs the identical expand/merge code in
    process, so reports are bit-identical at any worker count.

    Only states a later level expands are snapshotted (the root and the
    new states of every level but the last), by a :class:`_Snapshots`
    codec that pickles the root's config tree, plus whatever
    ``shared(root)`` names, by reference.  ``discard(system)`` breaks
    the reference cycles of a successor once it is done with; it is
    needed when states hold cycles, because expansion runs without the
    cyclic collector (:func:`_expand_partition`).
    """
    started = time.perf_counter()
    deadline = None if budget_s is None else started + budget_s
    alphabet = tuple(alphabet)

    def finish() -> ModelCheckReport:
        report.elapsed_s = time.perf_counter() - started
        return report

    root = build()
    try:
        check(root)
    except Exception as error:            # noqa: BLE001 - reported
        # The root still counts as explored: unique_states stays equal
        # to 1 + sum(level_unique) on this exit path too.
        report.counterexample = Counterexample((),
                                               _portable_error(error))
        report.unique_states = 1
        if bus is not None:
            bus.step = 0
            bus.emit(EventKind.MC_CEX, cause=type(error).__name__)
        return finish()
    trim(root)
    seen = {canonical(root)}
    report.unique_states = 1
    snapshots = _Snapshots(root, shared(root))
    frontier: List[Tuple[bytes, tuple]] = [(snapshots.dump(root), ())]
    level_unique: List[int] = []

    for level in range(1, depth + 1):
        if deadline is not None and time.perf_counter() > deadline:
            report.capped = True
            break
        parts = _partition(frontier, jobs)
        last = level == depth
        ctx = _ExpandContext(
            issue=issue, check=check, canonical=canonical, trim=trim,
            snapshot=None if last else snapshots.dump,
            alphabet=alphabet, seen=seen, deadline=deadline,
            candidate_budget=max(1, max_states - report.unique_states),
            discard=discard)
        if len(parts) == 1:
            outcomes = [_expand_partition(ctx, parts[0])]
        else:
            outcomes = values_of(campaign_map(
                lambda nodes: _expand_partition(ctx, nodes), parts,
                jobs=jobs, policy=NO_RETRIES))

        # Serial merge in partition -> node -> symbol order: exactly
        # the order the serial BFS checks transitions in.
        fresh = 0
        processed = 0
        next_frontier: List[Tuple[bytes, tuple]] = []
        verdict = ""
        timed_out = any(timed for _records, timed in outcomes)
        for nodes, (node_records, _timed) in zip(parts, outcomes):
            for (_snapshot, path), records in zip(nodes, node_records):
                for symbol, record in zip(alphabet, records):
                    processed += 1
                    tag = record[0]
                    if tag == _REC_CEX:
                        report.counterexample = Counterexample(
                            path + (symbol,), record[1])
                        verdict = "cex"
                        break
                    report.transitions += 1
                    if tag == _REC_DUP:
                        report.dedup_hits += 1
                        continue
                    key = record[1]
                    if key in seen:
                        report.dedup_hits += 1
                        continue
                    seen.add(key)
                    report.unique_states += 1
                    fresh += 1
                    if report.unique_states >= max_states:
                        verdict = "capped"
                        break
                    if not last:
                        next_frontier.append((record[2],
                                              path + (symbol,)))
                if verdict:
                    break
            if verdict:
                break
        if not verdict and not timed_out \
                and processed != len(frontier) * len(alphabet):
            raise RuntimeError(
                f"frontier merge consumed {processed} records for "
                f"{len(frontier)}x{len(alphabet)} transitions at level "
                f"{level} without capping -- worker truncation bug")
        if not verdict and timed_out:
            verdict = "budget"

        if bus is not None:
            bus.step = level
            bus.emit(EventKind.MC_MERGE, core=len(parts),
                     cause=f"{len(parts)}/{len(frontier)}/{processed}")
        if verdict == "budget" and processed == 0:
            # The budget expired before any level-``level`` transition
            # was checked: no ledger entry, no depth credit.
            report.capped = True
            break
        if processed:
            level_unique.append(fresh)
            report.depth_reached = level
        if verdict == "cex":
            report.level_unique = tuple(level_unique)
            if bus is not None:
                bus.emit(EventKind.MC_CEX,
                         cause=type(
                             report.counterexample.error).__name__)
            return finish()
        if verdict in ("capped", "budget"):
            report.capped = True
            report.level_unique = tuple(level_unique)
            if bus is not None:
                bus.emit(EventKind.MC_FRONTIER,
                         cause=(f"{fresh}/{report.transitions}/"
                                f"{report.dedup_hits}/capped"))
            return finish()
        if bus is not None:
            bus.emit(EventKind.MC_FRONTIER,
                     cause=(f"{fresh}/{report.transitions}/"
                            f"{report.dedup_hits}"))
        frontier = next_frontier
        if not frontier:
            break
    report.level_unique = tuple(level_unique)
    return finish()


def _spec_issue(spec: ModelSpec):
    def issue(system, symbol) -> None:
        trace_core, op, block = symbol
        socket, core = spec.map_core(trace_core)
        system.sockets[socket].access(core, op, block << BLOCK_SHIFT)
    return issue


def _spec_canonical(spec: ModelSpec, group=()):
    """The canonical-key closure for one exploration.

    With a symmetry group, orbit-minimal keys are memoized by the plain
    digest: duplicate successors (the majority of transitions) skip the
    per-relabeling work entirely.  The memo is a pure-function cache, so
    sharing or splitting it across worker processes cannot change any
    key.
    """
    multisocket = spec.n_sockets > 1
    if not group or len(group) <= 1:
        def canonical(system) -> bytes:
            return system_key(system, multisocket=multisocket)
        return canonical
    from repro.verify.symmetry import relabel_system_sig
    dir_unbounded = spec.config.directory.unbounded
    relabelings = tuple(r for r in group if not r.is_identity)
    memo: Dict[bytes, bytes] = {}

    def canonical(system) -> bytes:
        sig = system_sig(system, multisocket=multisocket)
        plain = _digest(sig)
        best = memo.get(plain)
        if best is not None:
            return best
        best = plain
        for relabeling in relabelings:
            other = _digest(relabel_system_sig(
                sig, relabeling, multisocket, dir_unbounded))
            if other < best:
                best = other
        memo[plain] = best
        return best
    return canonical


def _trim_journals(system) -> None:
    """Empty each core's shrink journal before a state is snapshotted.

    The journal is a kernel-sync aid that grows with every
    invalidation; modelcheck runs the scalar access path only, so
    dropping it keeps snapshots O(state), not O(path).  Nothing else is
    stripped: what no transition changes is pickled by reference
    instead (:class:`_Snapshots`, :func:`_latency_parts`)."""
    for socket in system.sockets:
        for hier in socket.cores:
            hier.shrink_log.clear()


def _latency_parts(root) -> list:
    """What :func:`explore_model` snapshots share besides the config
    tree: each socket's stats, mesh and DRAM model.  They are
    latency-only (the canonical key excludes them, so they cannot feed
    back into a protocol decision), and one copy of each, the root's,
    serves every state loaded in a process."""
    return [part for socket in root.sockets
            for part in (socket.stats, socket.mesh, socket.dram)]


def _spec_discard(spec: ModelSpec):
    """Cut the one reference cycle of a multi-socket state: each
    socket's ``memory_side`` points back at the system.  Without it a
    discarded state is freed by reference counting alone.  None for a
    single-socket spec, whose states hold no cycle."""
    if spec.n_sockets == 1:
        return None

    def discard(system) -> None:
        for socket in system.sockets:
            socket.memory_side = None
    return discard


def build_alphabet(cores: Sequence[int] = MICRO_CORES,
                   blocks: Sequence[int] = MICRO_BLOCKS,
                   ops: Sequence[Op] = MICRO_OPS) -> List[tuple]:
    return [(core, op, block)
            for core in cores for op in ops for block in blocks]


def explore_model(spec: ModelSpec, depth: int,
                  cores: Sequence[int] = MICRO_CORES,
                  blocks: Sequence[int] = MICRO_BLOCKS,
                  ops: Sequence[Op] = MICRO_OPS,
                  symbols: Optional[Sequence[tuple]] = None,
                  mutation: str = "",
                  max_states: int = DEFAULT_MAX_STATES,
                  budget_s: Optional[float] = None,
                  bus=None, jobs: int = 1,
                  symmetry: bool = False) -> ModelCheckReport:
    """Exhaustively check ``spec`` to ``depth`` over the micro alphabet.

    ``symbols`` overrides the cores x ops x blocks cross product with an
    explicit ``(core, op, block)`` list (the mutation gate uses this to
    focus the alphabet on one bug's trigger set).  ``mutation`` arms a
    seeded bug from :mod:`repro.verify.mutations` on the root system
    (the armed flags survive snapshotting, so the whole frontier
    explores the mutant protocol).  ``jobs`` partitions each level
    across fork workers (reports stay bit-identical); ``symmetry``
    canonicalizes orbit-minimally over the sound core/block relabelings
    of :func:`repro.verify.symmetry.symmetry_group` (core relabelings
    are dropped automatically while a mutation is armed, by
    ``mutation`` or by a ``MutantSpec`` -- seeded bugs may be
    core-id-dependent).
    """
    alphabet = (list(symbols) if symbols is not None
                else build_alphabet(cores, blocks, ops))
    group: tuple = ()
    if symmetry:
        from repro.verify.symmetry import symmetry_group
        group = symmetry_group(spec, alphabet,
                               cores_symmetric=not mutation)
    report = ModelCheckReport(spec.name, depth, len(alphabet),
                              mutation=mutation, jobs=jobs,
                              symmetry=bool(symmetry),
                              group_size=max(1, len(group)))

    def build():
        system = spec.build()
        if mutation:
            from repro.verify.mutations import arm_mutation
            arm_mutation(system, mutation)
        return system

    return _explore_frontier(
        report, build, _spec_issue(spec),
        functools.partial(check_step, spec),
        _spec_canonical(spec, group), _trim_journals, _latency_parts,
        alphabet, depth, max_states, budget_s,
        bus=bus, jobs=jobs, discard=_spec_discard(spec))


def check_matrix(depth: int, models: Optional[Sequence[ModelSpec]] = None,
                 cores: Sequence[int] = MICRO_CORES,
                 blocks: Sequence[int] = MICRO_BLOCKS,
                 budget_s: Optional[float] = None,
                 bus=None, jobs: int = 1,
                 symmetry: bool = False) -> List[ModelCheckReport]:
    """Every model of the matrix through the frontier (ZeroDEV policy x
    replacement x LLC design, plus both 2-socket solutions)."""
    from repro.verify.models import model_matrix
    specs = list(models) if models is not None else model_matrix()
    return [explore_model(spec, depth, cores=cores, blocks=blocks,
                          budget_s=budget_s, bus=bus, jobs=jobs,
                          symmetry=symmetry)
            for spec in specs]


# ----------------------------------------------------------------------
# The mutation gate
# ----------------------------------------------------------------------
@dataclass
class MutationVerdict:
    """One seeded bug under both checkers."""

    mutation: str
    model: str
    caught_by_modelcheck: bool
    catch_depth: int = -1
    modelcheck_error: str = ""
    fuzz_caught: bool = False
    fuzz_budget: int = 0
    fuzz_seed: int = 0
    fuzz_steps: int = 0
    #: The frontier's counterexample (path, error), when it caught one.
    counterexample: Optional[Counterexample] = field(default=None,
                                                     repr=False)

    def summary(self) -> str:
        mc = (f"caught at depth {self.catch_depth} "
              f"({self.modelcheck_error})"
              if self.caught_by_modelcheck else "MISSED")
        fz = "caught" if self.fuzz_caught else "missed"
        return (f"{self.mutation} on {self.model}: modelcheck {mc}; "
                f"fuzz (seed {self.fuzz_seed}, budget "
                f"{self.fuzz_budget}, steps {self.fuzz_steps}) {fz}")


def mutation_gate(names: Optional[Sequence[str]] = None,
                  fuzz_budget: int = 4, fuzz_seed: int = 7,
                  fuzz_steps: int = 12,
                  run_fuzz: bool = True, jobs: int = 1,
                  symmetry: bool = False) -> List[MutationVerdict]:
    """Run every seeded mutation under modelcheck and the fuzz baseline.

    The fuzz baseline is a real :func:`run_campaign` pass -- fixed seed,
    fixed budget, the mutant differentially anchored against the clean
    ``baseline-1x`` model, shrinking disabled -- i.e. exactly the
    fuzz-smoke discipline, pointed at a known bug.  The defaults pin
    short traces (``fuzz_steps=12``): long conflict traces saturate the
    micro geometry and stumble into almost any seam, which would hide
    the coverage gap the gate exists to demonstrate.  The gate the tests
    and CI assert: every mutation caught by modelcheck, at least one
    missed by fuzz (and, with ``symmetry=True``, still every mutation
    caught under orbit-minimal canonicalization).
    """
    from repro.verify.mutations import (MUTATIONS, mutant_spec,
                                        reference_spec)
    picked = list(names) if names else sorted(MUTATIONS)
    verdicts: List[MutationVerdict] = []
    for name in picked:
        mutation = MUTATIONS.get(name)
        if mutation is None:
            known = ", ".join(sorted(MUTATIONS))
            raise ConfigError(
                f"unknown mutation {name!r}; known mutations: {known}")
        spec = reference_spec(mutation.reference_model)
        verdict = MutationVerdict(name, spec.name,
                                  caught_by_modelcheck=False,
                                  fuzz_budget=fuzz_budget,
                                  fuzz_seed=fuzz_seed,
                                  fuzz_steps=fuzz_steps)
        report = explore_model(spec, mutation.catch_depth,
                               blocks=mutation.blocks,
                               symbols=mutation.symbols or None,
                               mutation=name, jobs=jobs,
                               symmetry=symmetry)
        if not report.ok:
            verdict.caught_by_modelcheck = True
            verdict.counterexample = report.counterexample
            verdict.catch_depth = len(report.counterexample.sequence)
            verdict.modelcheck_error = type(
                report.counterexample.error).__name__
        if run_fuzz:
            from repro.verify.differential import run_campaign
            from repro.verify.models import model_matrix
            anchor = model_matrix()[0]
            fuzz = run_campaign(seed=fuzz_seed, budget=fuzz_budget,
                                models=[anchor, mutant_spec(spec, name)],
                                steps_per_trace=fuzz_steps, shrink=False)
            verdict.fuzz_caught = not fuzz.ok
        verdicts.append(verdict)
    return verdicts
