"""Seeded protocol mutations: known bugs the checkers must catch.

A mutation is a deliberately wrong protocol rule, planted behind a
``mutations`` flag the simulator consults at one seam (the same idiom
hardware mutation testing uses).  Arming one turns a correct model into
a buggy one *without* changing its structure, so the armed system still
pickles, replays, and canonicalizes exactly like the real thing -- which
is what lets :mod:`repro.verify.modelcheck` snapshot and explore mutant
state spaces.

The harness answers two questions per mutation:

* **Soundness of the checker**: does the bounded-exhaustive frontier
  catch the bug within a small depth?  Every shipped mutation must be
  caught (`catch_depth` in :data:`MUTATIONS` documents where).
* **Value over fuzzing**: does a fixed-seed, fixed-budget
  :func:`~repro.verify.differential.run_campaign` pass miss it?  At
  least one must be missed -- that gap is the reason modelcheck exists.

The five seeded bugs, each breaking a different paper mechanism:

* ``dev-leak-sharer`` -- on a baseline DEV, the home forgets the first
  sharer without invalidating it (directory precision lost).
* ``drop-splru-reorder`` -- spLRU skips the entry-above-block re-touch
  on data (re)insertion (Section III-D1 ordering inverted).
* ``skip-corrupt-restore`` -- the last private copy of a corrupted
  block leaves and the Section III-D4 memory restore never happens
  (silent data loss).
* ``skip-denf-nack`` -- the socket-level home serves a corrupted shared
  block from memory instead of the Figure 15 forward/DENF_NACK flow
  (stale data served cross-socket).
* ``skip-socket-restore`` -- the system-wide last copy of a corrupted
  block leaves and the socket-level restore is dropped, leaving home
  memory corrupted with nobody left to serve the block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.common.config import DirectoryConfig
from repro.common.errors import ConfigError
from repro.verify.models import ModelSpec, micro_config, model_by_name
from repro.workloads.trace import Op


@dataclass(frozen=True)
class Mutation:
    """One seeded protocol bug."""

    name: str
    description: str
    #: The model whose mechanism the bug corrupts -- a matrix model, or
    #: a gate-only spec from :data:`GATE_SPECS` when the matrix
    #: geometry cannot reach the bug site at small depth.
    reference_model: str
    #: Frontier depth at which modelcheck provably catches the bug on
    #: the reference model with this mutation's alphabet (asserted by
    #: tests/test_modelcheck.py; documented here for CI budgeting).
    catch_depth: int
    #: Block alphabet that reaches the bug site: blocks must collide in
    #: the right structure (directory set, LLC set, L2 set) for the
    #: eviction machinery under test to fire within ``catch_depth``.
    blocks: Tuple[int, ...] = (0, 8, 1)
    #: Full ``(core, op, block)`` alphabet override; empty means the
    #: cores x ops x ``blocks`` cross product.  Used to keep the
    #: deepest scenarios (cross-socket corruption) tractable.
    symbols: Tuple[Tuple[int, Op, int], ...] = ()

    def applies_to(self, spec: ModelSpec) -> bool:
        from repro.common.config import LLCReplacement
        if self.name == "dev-leak-sharer":
            return (not spec.is_zerodev
                    and spec.config.directory.present
                    and not spec.config.directory.unbounded)
        if self.name == "drop-splru-reorder":
            return (spec.config.llc_replacement
                    is LLCReplacement.SP_LRU)
        if self.name == "skip-corrupt-restore":
            return spec.is_zerodev and spec.n_sockets == 1
        if self.name in ("skip-denf-nack", "skip-socket-restore"):
            return spec.is_zerodev and spec.n_sockets > 1
        return False


MUTATIONS: Dict[str, Mutation] = {m.name: m for m in (
    # Blocks 0/8/4 collide in the tiny directory's single set; the
    # third insert forces the DEV whose invalidation the bug drops.
    Mutation("dev-leak-sharer",
             "DEV forgets one sharer without invalidating it",
             reference_model="baseline-tiny-dir", catch_depth=3,
             blocks=(0, 8, 4)),
    Mutation("drop-splru-reorder",
             "spLRU skips the entry-above-block re-touch on insert",
             reference_model="zerodev-fuse-private-spill-shared-splru",
             catch_depth=4),
    # Blocks 0/8/16 collide in LLC bank 0 set 0 *and* L2 set 0: the
    # third write forces a WB_DE and the same fill evicts the last
    # private copy of a corrupted block.
    Mutation("skip-corrupt-restore",
             "last copy of a corrupted block leaves without a restore",
             reference_model="zerodev-fuse-private-spill-shared",
             catch_depth=3, blocks=(0, 8, 16)),
    # The deepest scenario (corrupt at the home socket, downgrade to S,
    # evict the remote copy, re-read): socket 0 only writes and socket 1
    # only reads, which keeps the depth-7 frontier tractable.
    Mutation("skip-denf-nack",
             "corrupted shared block served from home memory, not "
             "forwarded",
             reference_model="zerodev-2socket-sol1", catch_depth=7,
             blocks=(0, 8, 16),
             symbols=((0, Op.WRITE, 0), (0, Op.WRITE, 8),
                      (0, Op.WRITE, 16), (1, Op.READ, 0),
                      (1, Op.READ, 8), (1, Op.READ, 16))),
    # Needs the *system-wide* last copy of a corrupted block to leave
    # cleanly (a dirty copy's writeback heals home memory first).
    # Three same-set reads from the remote socket do exactly that: the
    # third evicts the clean forwarded copy of the first block while
    # its entry bits are housed, so only the dropped restore stands
    # between the eviction and a corrupted home with no sharers.
    Mutation("skip-socket-restore",
             "system-wide last copy of a corrupted block leaves without "
             "the socket-level restore",
             reference_model="zerodev-2socket-sol1", catch_depth=3,
             blocks=(0, 8, 16),
             symbols=((1, Op.READ, 0), (1, Op.READ, 8),
                      (1, Op.READ, 16))),
)}

#: Reference specs that exist only for the mutation gate.  The matrix
#: quarter-ratio directory is fully associative (1 set x 8 ways), so no
#: 3-block alphabet can force the directory eviction ``dev-leak-sharer``
#: corrupts; this spec shrinks the directory to 1 set x 2 ways.
GATE_SPECS: Dict[str, ModelSpec] = {
    "baseline-tiny-dir": ModelSpec(
        "baseline-tiny-dir",
        micro_config(directory=DirectoryConfig(ratio=0.0625, ways=2))),
}


def reference_spec(name: str) -> ModelSpec:
    """A matrix model or a gate-only spec, by name."""
    if name in GATE_SPECS:
        return GATE_SPECS[name]
    return model_by_name(name)


def mutation_names() -> Tuple[str, ...]:
    return tuple(MUTATIONS)


def arm_mutation(system, name: str) -> None:
    """Arm mutation ``name`` on a built system (single or multi socket).

    The flag is planted on every component carrying a mutation seam;
    each seam only reacts to its own name, so over-arming is harmless
    and keeps this free of per-mutation wiring.  Flags are plain
    frozensets (no monkey-patching), so armed systems snapshot and
    restore through pickle unchanged -- a hard requirement of the
    modelcheck frontier.
    """
    if name not in MUTATIONS:
        known = ", ".join(sorted(MUTATIONS))
        raise ConfigError(
            f"unknown mutation {name!r}; known mutations: {known}")
    system.mutations = frozenset(system.mutations) | {name}
    for socket in system.sockets:
        socket.mutations = frozenset(socket.mutations) | {name}
        for bank in socket.banks:
            bank.mutations = frozenset(bank.mutations) | {name}


@dataclass(frozen=True)
class MutantSpec(ModelSpec):
    """A :class:`ModelSpec` whose builds come up with a bug armed.

    Drop-in wherever a spec is accepted (``run_trace``,
    ``run_campaign``, modelcheck), which is how the same mutant runs
    under both the fuzz baseline and the exhaustive frontier.
    """

    mutation: str = ""

    def build(self):
        system = super().build()
        if self.mutation:
            arm_mutation(system, self.mutation)
        return system


def mutant_spec(spec: ModelSpec, name: str) -> MutantSpec:
    """``spec`` with mutation ``name`` armed (name gains a ``+`` tag)."""
    mutation = MUTATIONS.get(name)
    if mutation is None:
        known = ", ".join(sorted(MUTATIONS))
        raise ConfigError(
            f"unknown mutation {name!r}; known mutations: {known}")
    if not mutation.applies_to(spec):
        raise ConfigError(
            f"mutation {name!r} does not apply to model {spec.name!r} "
            f"(reference model: {mutation.reference_model})")
    return MutantSpec(name=f"{spec.name}+{name}", config=spec.config,
                      n_sockets=spec.n_sockets,
                      dir_cache_blocks=spec.dir_cache_blocks,
                      dir_solution=spec.dir_solution, mutation=name)
